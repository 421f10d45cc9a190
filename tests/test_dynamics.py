"""Event loop: detection, resolution, conservation, reversibility."""

import math
import warnings

import numpy as np
import pytest

# dynamics and geometry as bound here at import, the modules simulate lives
# in and calls into; the kernel-counting tests patch geometry's _kernel and
# the merge and cap tests dynamics' _next_collision, _MAX_EVENTS,
# _MAX_SAMPLES and _resample, which a later fresh import of
# hardpair (the benchmark's tests make one) leaves alone
from hardpair import dynamics, geometry
from hardpair.bodies import make_disk, make_ellipse, make_implicit
from hardpair.frames import LineField
from hardpair.geometry import Beta, closest_approach, e_of, ellipse_shape, wrap_angle
from hardpair.scattering import ScatteringFamily
from hardpair.dynamics import (
    _resolve_at_contact,
    SimulationError,
    conserved_quantities,
    divergence_report,
    free_flight,
    gap,
    make_state,
    next_collision_time,
    simulate,
    time_reverse_check,
)

DISK = make_disk(1.0)
ELL = make_ellipse(2.0, 1.0)
REFL = ScatteringFamily.reflection()
SIX_FAMILIES = [ScatteringFamily.reflection(), ScatteringFamily.epsi()] + [
    ScatteringFamily.orientation_preserving(LineField.constant(phi))
    for phi in (0.0, math.pi / 6, math.pi / 4, math.pi / 3)
]


def _head_on():
    return make_state([0, 0, 4, 0, 0, 0], [1, 0, 0, 0, 0, 0])


def test_free_flight_is_linear():
    Z = make_state([0, 0, 5, 1, 0.2, 0.4], [1, -0.5, 0, 0.5, 0.3, -0.1])
    Z2 = free_flight(Z, 2.0)
    assert np.allclose(Z2.X, Z.X + 2.0 * Z.V, atol=1e-15)
    assert np.allclose(Z2.V, Z.V)
    assert Z2.t == pytest.approx(2.0)
    with pytest.raises(ValueError):
        free_flight(Z, -0.1)


def test_gap_disk_closed_form():
    Z = make_state([0, 0, 5, 0, 0, 0], [0, 0, 0, 0, 0, 0])
    assert gap(DISK, Z.X) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        gap(DISK, np.array([1.0, 2.0, 1.0, 2.0, 0.0, 0.0]))


def test_head_on_collision_time_analytic():
    # disks of radius 1 starting 4 apart closing at unit speed touch at t = 2
    t = next_collision_time(DISK, _head_on(), 10.0)
    assert t is not None
    assert abs(t - 2.0) < 1e-9


def test_no_collision_returns_none():
    Z = make_state([0, 0, 4, 0, 0, 0], [-1, 0, 1, 0, 0, 0])
    assert next_collision_time(DISK, Z, 10.0) is None


def test_resolve_requires_contact():
    with pytest.raises(SimulationError):
        _resolve_at_contact(DISK, _head_on(), REFL)


def test_head_on_exchange():
    tr = simulate(DISK, _head_on(), REFL, 4.0)
    assert tr.n_events() == 1
    # momentum handed over completely; the mover stops, the target leaves
    assert np.allclose(tr.final.V, [0, 0, 1, 0, 0, 0], atol=1e-9)
    assert tr.max_ledger_jump() < 1e-12


def test_simulate_conserves_across_events():
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    tr = simulate(ELL, Z0, REFL, 8.0)
    assert tr.n_events() >= 1
    before = conserved_quantities(ELL, tr.initial)
    after = conserved_quantities(ELL, tr.final)
    for key in ("lm_x", "lm_y", "ke"):
        assert after[key] == pytest.approx(before[key], abs=1e-10)
    assert after["am"] == pytest.approx(before["am"], abs=1e-9)
    assert tr.max_ledger_jump() < 1e-10


def test_simulate_rejects_overlapping_start():
    Z = make_state([0, 0, 1.0, 0, 0, 0], [0, 0, 0, 0, 0, 0])
    with pytest.raises(SimulationError):
        simulate(DISK, Z, REFL, 1.0)


def test_min_gap_floor():
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    tr = simulate(ELL, Z0, REFL, 8.0, sample_dt=0.05)
    assert tr.min_gap >= -1e-9 * ELL.diameter


def test_dense_samples_cover_horizon():
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    tr = simulate(ELL, Z0, REFL, 8.0, sample_dt=0.5)
    ts = [Z.t for Z in tr.samples]
    assert ts[0] == pytest.approx(0.0)
    assert ts[-1] == pytest.approx(8.0)
    assert max(np.diff(ts)) < 0.5 + 1e-9


def test_samples_hold_each_state_once():
    # the start, the grid strictly inside the run and the end; the states
    # right after the two contacts live in the events only
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    tr = simulate(ELL, Z0, REFL, 8.0, sample_dt=0.5)
    assert tr.n_events() == 2
    assert [Z.t for Z in tr.samples] == [0.5 * k for k in range(17)]
    assert tr.samples[0] is Z0 and tr.samples[-1] is tr.final
    assert [Z.t for Z in simulate(ELL, Z0, REFL, 8.0).samples] == [0.0, 8.0]


def _no_grid(*args):
    raise AssertionError("the sample grid was built")


@pytest.mark.parametrize("sample_dt", [math.nan, 0, True, "0.5", 1e-9],
                         ids=["nan", "zero", "bool", "string", "grid_8e9"])
def test_sample_dt_out_of_domain_raises(monkeypatch, sample_dt):
    # 1e-9 over T = 8 asks for 8e9 grid states; every case is refused
    # before a grid state is built
    monkeypatch.setattr(dynamics, "_resample", _no_grid)
    with pytest.raises(ValueError, match="sample_dt"):
        simulate(ELL, _head_on(), REFL, 8.0, sample_dt=sample_dt)


def test_sample_grid_cap(monkeypatch):
    # T / sample_dt may reach _MAX_SAMPLES but not pass it
    monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 16)
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    assert len(simulate(ELL, Z0, REFL, 8.0, sample_dt=0.5).samples) == 17
    monkeypatch.setattr(dynamics, "_resample", _no_grid)
    with pytest.raises(ValueError, match="sample_dt"):
        simulate(ELL, Z0, REFL, 8.0, sample_dt=0.49)


@pytest.mark.parametrize("family", [
    ScatteringFamily.reflection(),
    ScatteringFamily.epsi(),
    ScatteringFamily.orientation_preserving(LineField.constant(0.5)),
], ids=lambda f: f.variant)
def test_time_reversal(family):
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    assert time_reverse_check(ELL, Z0, family, 6.0) < 1e-6


def test_time_reversal_free_flight():
    Z0 = make_state([0, 0, 9, 4, 0.3, 1.1], [0.1, 0.0, -0.05, 0.02, 0.2, -0.3])
    assert time_reverse_check(ELL, Z0, REFL, 1.0) < 1e-12


def test_grazing_pass_tangential_motion():
    # pure tangential sliding past the contact: no event should fire even
    # though the gap dips close to zero
    Z0 = make_state([0, 0, 0, 2.0 + 1e-4, 0, 0], [0, 0, 1, 0, 0, 0])
    tr = simulate(DISK, Z0, REFL, 1e-4)
    assert tr.n_events() == 0


def test_divergence_report_on_shared_datum():
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    fams = [ScatteringFamily.reflection(), ScatteringFamily.epsi()]
    rep = divergence_report(ELL, Z0, fams, 6.0)
    assert not rep["degenerate"]
    assert rep["all_conserve"]
    assert rep["velocity_divergence"][0, 1] > 1e-6


def test_divergence_report_degenerate_when_no_collision():
    Z0 = make_state([0, 0, 9, 9, 0, 0], [0, 0, 0.01, 0.01, 0, 0])
    rep = divergence_report(ELL, Z0, [REFL], 1.0)
    assert rep["degenerate"]


def test_state_validation():
    with pytest.raises(ValueError):
        make_state([0, 0, 4, 0, 0], [1, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        make_state([0, 0, 4, 0, 0, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        simulate(DISK, _head_on(), REFL, -1.0)
    with pytest.raises(ValueError, match="X"):
        make_state([0, 0, 4, math.nan, 0, 0], [1, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="T"):
        simulate(DISK, _head_on(), REFL, math.inf)


def test_event_records_carry_contact_geometry():
    tr = simulate(DISK, _head_on(), REFL, 4.0)
    ev = tr.events[0]
    assert ev.t == pytest.approx(2.0, abs=1e-9)
    assert ev.d == pytest.approx(2.0, abs=1e-9)
    assert ev.X.shape == (6,)
    assert ev.proj_pre < 0.0 < ev.proj_post
    assert not ev.grazing
    assert max(abs(v) for v in ev.jumps.values()) < 1e-12


def test_dense_resampling_warm_starts(monkeypatch):
    # the resampled gaps warm-start each solve from the previous one; the
    # minimum gap equals the one from cold solves at the same states
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    cold = []
    solve = geometry._kernel.ellipse_contact

    def counted(*args, use_seed=False):
        if not use_seed:
            cold.append(args)
        return solve(*args, use_seed=use_seed)

    monkeypatch.setattr(geometry._kernel, "ellipse_contact", counted)
    tr = simulate(ELL, Z0, REFL, 6.0, sample_dt=0.05)
    assert tr.n_events() == 2
    assert 1 <= len(cold) <= 2
    monkeypatch.setattr(geometry._kernel, "ellipse_contact", solve)
    plain = simulate(ELL, Z0, REFL, 6.0)
    want = min([plain.min_gap] + [gap(ELL, s.X) for s in tr.samples[:-1]])
    assert abs(tr.min_gap - want) <= 1e-12


def test_resolve_collision_matches_scatter_stack():
    # one event on floats (build_frame, scatter_velocity) against the array
    # route over stacks (build_frames, scatter_stack) at 300 contact states
    from hardpair.bodies import mass_weights
    from hardpair.frames import build_frames, nu_hat
    from hardpair.scattering import scatter_stack

    fams = SIX_FAMILIES + [ScatteringFamily.orientation_preserving(
        LineField.fourier([[1, 0, 0.4, 0.1], [0, 1, -0.2, 0.3]]))]
    diag = mass_weights(ELL.m, ELL.J)
    rng = np.random.default_rng(62)
    n = 300
    angles, d, nu, states = np.empty((n, 3)), np.empty(n), np.empty((n, 6)), []
    for i in range(n):
        th, thb, psi = rng.uniform(0.0, 2.0 * math.pi, 3)
        c = closest_approach(ELL, wrap_angle(thb - th), wrap_angle(psi - th), theta=th)
        angles[i], d[i], nu[i] = (th, thb, psi), c.d, nu_hat(c, ELL.m, ELL.J)
        V = rng.standard_normal(6)
        if float((diag * V) @ nu[i]) > 0.0:
            V = -V
        states.append(make_state([0.0, 0.0, c.d * math.cos(psi), c.d * math.sin(psi), th, thb], V))
    frames = build_frames(*angles.T, d, nu, ELL.m, ELL.J)
    W = np.array([Z.V for Z in states]) * diag
    want = scatter_stack(fams, frames, W) / diag
    for f, fam in enumerate(fams):
        for i, Z in enumerate(states):
            got = _resolve_at_contact(ELL, Z, fam)[0].V
            assert np.max(np.abs(got - want[f, i])) <= 1e-13, (fam.label(), i)


def test_grazing_merge_projection_is_the_frame_normal():
    # the merge test reads V.(M nu) from the contact's normal alone; it must
    # equal the projection on the normal of the frame the map is built from
    from hardpair.frames import build_frame, nu_hat
    from hardpair.geometry import closest_approach
    from hardpair.scattering import normal_projection

    rng = np.random.default_rng(61)
    for _ in range(20):
        th, thb, psi = rng.uniform(0.0, 2.0 * math.pi, 3)
        c = closest_approach(ELL, (thb - th) % (2 * math.pi), (psi - th) % (2 * math.pi),
                             theta=th)
        Z = make_state([0.0, 0.0, c.d * math.cos(psi), c.d * math.sin(psi), th, thb],
                       rng.standard_normal(6))
        want = normal_projection(Z.V, build_frame(ELL, Beta(th, thb, psi), c).nu, ELL.m, ELL.J)
        got = normal_projection(Z.V, nu_hat(c, ELL.m, ELL.J), ELL.m, ELL.J)
        assert got == want


@pytest.mark.parametrize("spin", [2.0, 2.5, 3.0, 3.7])
def test_brief_tip_overlap_is_a_collision(spin):
    # the thin ellipse's tip sweeps through the other body for about 0.03 rad
    thin = make_ellipse(1.0, 0.05)
    Z0 = make_state([0, 0, 0, 1.0499, 0, 0], [0, 0, 0, 0, spin, 0])
    tr = simulate(thin, Z0, REFL, 1.0)
    assert tr.n_events() == 1
    assert tr.min_gap >= -1e-9 * thin.diameter


def test_accumulation_is_flagged_not_warned(monkeypatch):
    # more than _MAX_EVENTS contacts stop the run early; the flag on the
    # trajectory is the report, and no warning is raised
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    assert simulate(ELL, Z0, REFL, 6.0).n_events() == 2
    monkeypatch.setattr(dynamics, "_MAX_EVENTS", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = simulate(ELL, Z0, REFL, 6.0)
    assert tr.accumulation_suspected
    assert tr.n_events() == 2 and tr.final.t < 6.0


def test_regrazed_root_is_merged(monkeypatch):
    # tip to tip on the (2,1) ellipses with a common drift, so V.(M nu) = 0:
    # the first root resolves as a grazing event, and the same root reported
    # again at once is merged into it rather than resolved a second time
    real = dynamics._next_collision
    calls = []

    def root_now(body, Z, t_max, contact=None):
        calls.append(Z.t)
        if len(calls) <= 2:
            g, contact = dynamics._gap_at(body, Z.X, solved=contact)
            return 0.0, g, contact
        return real(body, Z, t_max, contact)

    monkeypatch.setattr(dynamics, "_next_collision", root_now)
    Z0 = make_state([0, 0, 4, 0, 0, 0], [0.3, -0.2, 0.3, -0.2, 0, 0])
    tr = simulate(ELL, Z0, REFL, 2.0)
    assert tr.n_events() == 1 and tr.events[0].grazing
    assert tr.merged_grazing == 1
    assert len(calls) == 3
    assert tr.final.t == pytest.approx(2.0) and not tr.accumulation_suspected


def test_late_graze_is_a_collision():
    # a re-contact that overlaps for about 0.016 in time after the first event
    Z0 = make_state(
        [0, 0, 3.9249001933222014, -3.0588080019098625, 5.37203234937409, 1.29129088131563],
        [0.04156706359133046, -0.15095692273606434, -0.9422753565275535,
         1.2571261540372383, -0.3934606903240496, -0.459068014675579],
    )
    tr = simulate(ELL, Z0, SIX_FAMILIES[3], 4.0)
    assert tr.n_events() == 2
    assert tr.events[1].t == pytest.approx(3.105, abs=2e-3)


def _high_spin_data(n, seed):
    """Colliding data with spins up to 3 on the (2,1) and (5,1) ellipses."""
    bodies = (ELL, make_ellipse(5.0, 1.0))
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        body = bodies[i % 2]
        th, thb, psi = rng.uniform(0.0, 2.0 * math.pi, 3)
        c = closest_approach(body, wrap_angle(thb - th), wrap_angle(psi - th))
        x2 = (c.d + rng.uniform(0.1, 1.0)) * e_of(psi)
        v = rng.normal(0.0, 0.15, 2)
        vb = v - rng.uniform(0.3, 1.1) * e_of(psi) + rng.normal(0.0, 0.2, 2)
        X0 = [0.0, 0.0, x2[0], x2[1], th, thb]
        V0 = [*v, *vb, *rng.uniform(-3.0, 3.0, 2)]
        out.append((body, make_state(X0, V0), SIX_FAMILIES[i % 6]))
    return out


def test_dense_replay_finds_no_overlap():
    # replay each trajectory from its events and solve the gap cold on a
    # dense grid; a missed contact shows as a negative gap
    T = 4.0
    times = np.linspace(0.0, T, 2000)
    for body, Z0, fam in _high_spin_data(40, 85):
        tr = simulate(body, Z0, fam, T)
        starts = [0.0] + [ev.t for ev in tr.events]
        Xs = [Z0.X] + [ev.X for ev in tr.events]
        Vs = [Z0.V] + [ev.V_post for ev in tr.events]
        piece = np.searchsorted(starts, times, side="right") - 1
        worst = min(gap(body, Xs[k] + (t - starts[k]) * Vs[k]) for t, k in zip(times, piece))
        assert worst >= -1e-9 * body.diameter


def test_event_search_solve_budget(monkeypatch):
    # certified steps: at most 10 contact solves per event on this datum
    calls = []
    solve = geometry._kernel.ellipse_contact

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(geometry._kernel, "ellipse_contact", counted)
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    tr = simulate(ELL, Z0, REFL, 8.0)
    assert tr.n_events() == 2
    assert tr.n_events() <= len(calls) <= 10 * tr.n_events()


def test_simulate_on_implicit_body_matches_ellipse():
    # the shipped simulate datum, on an implicit (2,1) ellipse: the event
    # loop's implicit-body route must reproduce the closed-form ellipse
    implicit = make_implicit(ellipse_shape(2.0, 1.0)[1])
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    got = simulate(implicit, Z0, REFL, 3.0)
    want = simulate(ELL, Z0, REFL, 3.0)
    assert got.n_events() == want.n_events() >= 1
    for e, f in zip(got.events, want.events):
        assert abs(e.t - f.t) <= 1e-8
        assert np.max(np.abs(e.V_post - f.V_post)) <= 1e-8
    assert np.max(np.abs(got.final.X - want.final.X)) <= 1e-8


def test_event_search_survives_a_long_certified_step():
    # one certified step of this flight turns the contact normal by about
    # 1.1 rad, so the next solve is seeded far from its root; the kernel's
    # Newton used to cycle there and the search raised ConvergenceError
    X = [0.0, 0.0, -3.1465614198305927, -3.286516183631665,
         4.982714596807376, 3.2232965741189865]
    V = [-1.9977462929070549, -1.1314074705230586, 0.3628397991887543,
         -2.1285670418221447, -0.641187944865707, -0.3078771217750431]
    t_hit, min_gap, contact = dynamics._next_collision(ELL, make_state(X, V), 4.0)
    assert t_hit is None and contact is None
    assert min_gap > 0.0


def test_slab_bound_holds_along_free_flight():
    # the width of the slab between the bodies, normal n held fixed, in
    # closed form from the ellipse support function; the event search's
    # quadratic must stay below it
    from hardpair.dynamics import _gap_at, _slab

    a, b = 5.0, 1.0
    body = make_ellipse(a, b)

    def support(alpha):
        return math.hypot(a * math.cos(alpha), b * math.sin(alpha))

    def width(X, n):
        alpha = math.atan2(n[1], n[0])
        return float((X[2:4] - X[0:2]) @ n) - support(alpha - X[4]) - support(alpha + math.pi - X[5])

    rng = np.random.default_rng(62)
    for _ in range(50):
        th, thb, psi = rng.uniform(0.0, 2.0 * math.pi, 3)
        c = closest_approach(body, wrap_angle(thb - th), wrap_angle(psi - th))
        x2 = (c.d + rng.uniform(0.0, 1.0)) * e_of(psi)
        X = np.array([0.0, 0.0, x2[0], x2[1], th, thb])
        V = np.concatenate([rng.normal(0.0, 1.0, 4), rng.uniform(-3.0, 3.0, 2)])
        g, contact = _gap_at(body, X)
        w0, rate = _slab(V, g, contact)
        n = contact.n
        assert w0 == pytest.approx(width(X, n), abs=1e-12)
        h = 1e-6
        assert rate == pytest.approx((width(X + h * V, n) - width(X - h * V, n)) / (2 * h), abs=1e-6)
        M = body.K * float(V[4] ** 2 + V[5] ** 2)
        for tau in np.linspace(0.0, 2.0, 41):
            assert width(X + tau * V, n) >= w0 + rate * tau - 0.5 * M * tau**2 - 1e-12
