"""Event loop: detection, resolution, conservation, reversibility."""

import math
import warnings

import numpy as np
import pytest

# dynamics, geometry and scattering as bound here at import, the modules
# simulate lives in and calls into; the kernel-counting tests patch
# geometry's _kernel, the frame tests dynamics' build_frame and frame_rows,
# the datum-check count dynamics' _require_finite, the branch-work count
# dynamics' _gap_row, the record count geometry's ContactData,
# and the merge and cap tests dynamics' _next_collision, _MAX_EVENTS,
# _MAX_SAMPLES and _resample, which a later fresh import of
# hardpair (the benchmark's tests make one) leaves alone
from hardpair import _checks, dynamics, geometry, scattering
from hardpair.bodies import make_ellipse, make_implicit
from hardpair.frames import LineField, build_frame, nu_hat
from hardpair.geometry import Beta, closest_approach, contact_record, e_of, wrap_angle
from hardpair.scattering import ScatteringFamily
from hardpair.dynamics import (
    _contact_pose,
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
from body_helpers import ellipse_boundary
from frame_helpers import normal_projection

DISK = make_ellipse(1.0, 1.0)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_gap_names_a_bad_configuration(bad):
    # a non-finite entry is refused with its index before any solve, and an
    # X of another length with its shape
    for i in range(6):
        X = [0.0, 0.0, 5.0, 0.0, 0.0, 0.0]
        X[i] = bad
        with pytest.raises(ValueError, match=f"state X holds a non-finite value at entry {i}"):
            gap(DISK, X)
    for X in ([0.0, 0.0, 5.0, 0.0], [[0.0] * 6]):
        with pytest.raises(ValueError, match="six configuration numbers"):
            gap(DISK, X)


def test_head_on_collision_time_analytic():
    # disks of radius 1 starting 4 apart closing at unit speed touch at t = 2
    t = next_collision_time(DISK, _head_on(), 10.0)
    assert t is not None
    assert abs(t - 2.0) < 1e-9


def test_no_collision_returns_none():
    Z = make_state([0, 0, 4, 0, 0, 0], [-1, 0, 1, 0, 0, 0])
    assert next_collision_time(DISK, Z, 10.0) is None


def test_collision_time_names_a_nan_horizon():
    # a NaN t_max is refused, not flown as if there were no horizon; a
    # horizon <= 0 still finds nothing and inf is no horizon
    with pytest.raises(ValueError, match="t_max must be a number, got nan"):
        next_collision_time(DISK, _head_on(), math.nan)
    assert next_collision_time(DISK, _head_on(), 0.0) is None
    assert next_collision_time(DISK, _head_on(), -math.inf) is None
    assert abs(next_collision_time(DISK, _head_on(), math.inf) - 2.0) < 1e-9


def test_resolve_requires_contact():
    Z = _head_on()
    with pytest.raises(SimulationError):
        _contact_pose(DISK, Z, dynamics._gap_row(DISK, Z.X.tolist())[1])


@pytest.mark.parametrize("s", [1e-3, 1.0, 1e3, 1e6])
def test_events_sit_at_contact_at_any_unit_of_length(s):
    # verify's colliding data with lengths and velocities scaled by s: every
    # root is moved to exact contact before the map, so the event pose has
    # no gap and the angular-momentum ledger closes to rounding, both
    # relative to the scale of the scaled body
    body = make_ellipse(2.0 * s, 1.0 * s)
    _, data = _checks.colliding_ellipse_data(50, 106)
    to_scale = np.array([s, s, s, s, 1.0, 1.0])
    am_scale = body.m * s * s + body.J
    for idx, (Z0, T) in enumerate(data):
        Z = make_state(Z0.X * to_scale, Z0.V * to_scale)
        tr = simulate(body, Z, SIX_FAMILIES[idx % len(SIX_FAMILIES)], T)
        assert tr.n_events() > 0
        for ev in tr.events:
            assert abs(gap(body, ev.X)) / body.diameter <= 1e-15
            assert abs(ev.jumps["am"]) / am_scale <= 5e-15


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
    before = conserved_quantities(ELL, tr.initial.X, tr.initial.V)
    after = conserved_quantities(ELL, tr.final.X, tr.final.V)
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
    rep = divergence_report(ELL, Z0, [REFL, ScatteringFamily.epsi()], 1.0)
    assert rep["degenerate"]


@pytest.mark.parametrize("n_families", [0, 1])
def test_divergence_report_needs_two_families(n_families):
    # one family has no pair to compare: it read distinct with a minimum of
    # inf, and no family died in a broadcast
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9], [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    with pytest.raises(ValueError, match="families"):
        divergence_report(ELL, Z0, [REFL] * n_families, 6.0)


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
    # V.(M nu) on the contact's normal flips from approaching to separating
    nu = nu_hat(contact_record(dynamics._gap_row(DISK, ev.X.tolist())[1]), DISK.m, DISK.J)
    assert (normal_projection(ev.V_pre, nu, DISK.m, DISK.J) < 0.0
            < normal_projection(ev.V_post, nu, DISK.m, DISK.J))
    assert not ev.grazing
    assert max(abs(v) for v in ev.jumps.values()) < 1e-12


def _count_cold(monkeypatch) -> list:
    """Record the cold ellipse solves made through geometry's kernel."""
    cold = []
    solve = geometry._kernel.ellipse_contact

    def counted(*args, use_seed=False):
        if not use_seed:
            cold.append(args)
        return solve(*args, use_seed=use_seed)

    monkeypatch.setattr(geometry._kernel, "ellipse_contact", counted)
    return cold


def test_dense_resampling_warm_starts(monkeypatch):
    # the resampled gaps warm-start each solve from the previous one; the
    # minimum gap equals the one from cold solves at the same states
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    cold = _count_cold(monkeypatch)
    tr = simulate(ELL, Z0, REFL, 6.0, sample_dt=0.05)
    assert tr.n_events() == 2
    assert 1 <= len(cold) <= 2
    monkeypatch.undo()
    plain = simulate(ELL, Z0, REFL, 6.0)
    want = min([plain.min_gap] + [gap(ELL, s.X) for s in tr.samples[:-1]])
    assert abs(tr.min_gap - want) <= 1e-12


def test_resolve_collision_matches_scatter_stack():
    # one event on floats (build_frame, scatter_velocity) against the array
    # route over stacks (build_frames, scatter_stack) at 300 contact states
    from hardpair.bodies import mass_weights
    from hardpair.frames import build_frames
    from hardpair.scattering import scatter_stack

    fams = SIX_FAMILIES + [ScatteringFamily.orientation_preserving(
        LineField.fourier([[1, 0, 0.4, 0.1], [0, 1, -0.2, 0.3]]))]
    diag = mass_weights(ELL.m, ELL.J)
    rng = np.random.default_rng(62)
    n = 300
    angles, d, nu, states, contacts = np.empty((n, 3)), np.empty(n), np.empty((n, 6)), [], []
    for i in range(n):
        th, thb, psi = rng.uniform(0.0, 2.0 * math.pi, 3)
        row = geometry._contact_row(ELL, wrap_angle(thb - th), wrap_angle(psi - th), th)
        c = contact_record(row)
        angles[i], d[i], nu[i] = (th, thb, psi), c.d, nu_hat(c, ELL.m, ELL.J)
        V = rng.standard_normal(6)
        if float((diag * V) @ nu[i]) > 0.0:
            V = -V
        states.append(make_state([0.0, 0.0, c.d * math.cos(psi), c.d * math.sin(psi), th, thb], V))
        contacts.append(row)
    frames = build_frames(*angles.T, d, nu, ELL.m, ELL.J)
    W = np.array([Z.V for Z in states]) * diag
    want = scatter_stack(fams, frames, W) / diag
    for f, fam in enumerate(fams):
        for i, Z in enumerate(states):
            got = _resolve_at_contact(ELL, fam, _contact_pose(ELL, Z, contacts[i]))[0].V
            assert np.max(np.abs(got - want[f, i])) <= 1e-13, (fam.label(), i)


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

    def root_now(body, Z, t_max, start=None):
        calls.append(Z.t)
        if len(calls) <= 2:
            g, contact = start[:2]
            return 0.0, g, contact
        return real(body, Z, t_max, start)

    monkeypatch.setattr(dynamics, "_next_collision", root_now)
    Z0 = make_state([0, 0, 4, 0, 0, 0], [0.3, -0.2, 0.3, -0.2, 0, 0])
    tr = simulate(ELL, Z0, REFL, 2.0)
    assert tr.n_events() == 1 and tr.events[0].grazing
    assert tr.merged_grazing == 1
    assert len(calls) == 3
    assert tr.final.t == pytest.approx(2.0) and not tr.accumulation_suspected


def _frozen_datum():
    return make_state(_checks.NONUNIQ_X0, _checks.NONUNIQ_V0)


def test_families_on_one_datum_share_the_first_flight(monkeypatch):
    # the flight to the first contact does not depend on the family: the six
    # families on the frozen datum make one cold solve between them, at the start
    cold = _count_cold(monkeypatch)
    rep = divergence_report(_checks.ELL, _frozen_datum(), _checks.six_families(),
                            _checks.NONUNIQ_T)
    assert not rep["degenerate"]
    assert len(cold) == 1


def test_families_on_one_datum_share_the_first_contact(monkeypatch):
    # the pose at the first contact does not depend on the family either:
    # the six families build one frame there between them and check it and
    # the velocity once, and each later event builds and checks its own
    built, checked, verdicts = [], [], []
    build, rows, grazing = dynamics.build_frame, scattering.frame_rows, scattering.is_grazing

    def counted_build(*args):
        built.append(args)
        return build(*args)

    def counted_rows(frame, V):
        checked.append(frame)
        return rows(frame, V)

    def counted_grazing(proj, speed):
        verdicts.append(proj)
        return grazing(proj, speed)

    monkeypatch.setattr(dynamics, "build_frame", counted_build)
    for module in (dynamics, scattering):
        monkeypatch.setattr(module, "frame_rows", counted_rows)
    monkeypatch.setattr(scattering, "is_grazing", counted_grazing)
    rep = divergence_report(_checks.ELL, _frozen_datum(), _checks.six_families(),
                            _checks.NONUNIQ_T)
    later = sum(p["n_events"] - 1 for p in rep["per_family"])
    assert later == 2
    assert len(built) == 1 + later
    assert len(checked) == len(built)
    assert len(verdicts) == len(built) == 3


def test_separating_first_contact_leaves_no_entry(monkeypatch):
    # the velocity is checked with the pose, before the first flight is
    # remembered: a frame whose normal points the wrong way makes the first
    # contact separating, which raises on every call and stores nothing
    build = dynamics.build_frame

    def flipped(*args):
        frame = build(*args)
        return frame._replace(nu=-frame.nu)

    monkeypatch.setattr(dynamics, "build_frame", flipped)
    Z0 = _frozen_datum()
    for _ in range(2):
        with pytest.raises(scattering.NotPreCollisionalError):
            simulate(ELL, Z0, REFL, 4.0)
        assert dynamics._last_flight is None


def _exact(tr):
    """Every number of a trajectory, in a form that compares exactly."""
    events = [(ev.t, ev.X.tobytes(), ev.d, ev.s1, ev.s2, ev.V_pre.tobytes(),
               ev.V_post.tobytes(), ev.grazing, ev.anchor_shift, ev.jumps)
              for ev in tr.events]
    states = [(s.X.tobytes(), s.V.tobytes(), s.t) for s in (tr.final, *tr.samples)]
    return events, states, tr.min_gap


def test_shared_first_flight_is_bit_identical(monkeypatch):
    # each family run on the one datum equals its run on a fresh copy of it
    Z0, T = _frozen_datum(), _checks.NONUNIQ_T
    fourier = LineField.fourier([[1, 0, 0.3, 0.1], [0, 1, 0.0, 0.2]])
    families = SIX_FAMILIES + [ScatteringFamily.orientation_preserving(fourier)]
    cold = _count_cold(monkeypatch)
    shared = [simulate(ELL, Z0, fam, T, sample_dt=T / 40) for fam in families]
    assert len(cold) == 1
    for fam, tr in zip(families, shared):
        fresh = simulate(ELL, make_state(Z0.X.copy(), Z0.V.copy()), fam, T, sample_dt=T / 40)
        assert tr.n_events() > 0
        assert _exact(tr) == _exact(fresh)


@pytest.mark.parametrize("change", ["body", "state", "X in place", "T"])
def test_first_flight_is_flown_again_on_another_datum(monkeypatch, change):
    # only the same body and State objects, with the same X and V and the
    # same horizon, share the first flight
    body, Z0, T = make_ellipse(2.0, 1.0), _frozen_datum(), 4.0
    cold = _count_cold(monkeypatch)
    simulate(body, Z0, REFL, T)
    simulate(body, Z0, REFL, T)
    assert len(cold) == 1
    if change == "body":
        body = make_ellipse(2.0, 1.0)
    elif change == "state":
        Z0 = make_state(Z0.X, Z0.V)
    elif change == "X in place":
        Z0.X[4] += 0.01
    else:
        T = 3.0
    simulate(body, Z0, REFL, T)
    assert len(cold) == 2


def test_failed_first_flight_leaves_no_entry(monkeypatch):
    # a failed solve or an inadmissible start raises on every call, and the
    # datum flies cold once the solve works
    Z0 = _frozen_datum()
    solve = geometry._kernel.ellipse_contact

    def failing(*args, use_seed=False):
        out = solve(*args, use_seed=use_seed)
        return out[:4] + (False,) + out[5:]

    monkeypatch.setattr(geometry._kernel, "ellipse_contact", failing)
    for _ in range(2):
        with pytest.raises(geometry.ConvergenceError):
            simulate(ELL, Z0, REFL, 4.0)
    monkeypatch.undo()
    overlapping = make_state([0, 0, 1.0, 0, 0, 0], [0, 0, 0, 0, 0, 0])
    for _ in range(2):
        with pytest.raises(SimulationError, match="starting gap"):
            simulate(ELL, overlapping, REFL, 1.0)
    # so does a frame at the first contact that fails its check
    build = dynamics.build_frame

    def skewed(*args):
        frame = build(*args)
        return frame._replace(F1=1.5 * frame.F1)

    monkeypatch.setattr(dynamics, "build_frame", skewed)
    for _ in range(2):
        with pytest.raises(ValueError, match="not orthonormal"):
            simulate(ELL, Z0, REFL, 4.0)
        assert dynamics._last_flight is None
    monkeypatch.undo()
    cold = _count_cold(monkeypatch)
    assert simulate(ELL, Z0, REFL, 4.0).n_events() > 0
    assert len(cold) == 1


def test_families_on_one_datum_check_it_once(monkeypatch):
    # the datum does not depend on the family either: the six families on
    # the frozen datum check it once between them
    checked = []
    require = dynamics._require_finite

    def counted(X, V):
        checked.append((X, V))
        return require(X, V)

    Z0 = _frozen_datum()
    monkeypatch.setattr(dynamics, "_require_finite", counted)
    rep = divergence_report(_checks.ELL, Z0, _checks.six_families(), _checks.NONUNIQ_T)
    assert not rep["degenerate"]
    assert len(checked) == 1


def test_bad_datum_leaves_no_entry():
    # a datum is checked before its first flight is remembered, so a bad one
    # raises on every call and drops the last datum's entry: a non-finite
    # State built directly, spins whose K omega^2 overflows, and the last
    # datum's own X turned non-finite in place
    Z0 = _frozen_datum()
    nan = dynamics.State(X=Z0.X.copy(), V=np.array([math.nan, 0, 0, 0, 0, 0]))
    spun = make_state(Z0.X, [0, 0, 0, 0, 1e155, 1e155])
    for bad in (nan, spun, Z0):
        simulate(ELL, Z0, REFL, 4.0)
        assert dynamics._last_flight is not None
        if bad is Z0:
            Z0.X[0] = math.nan
        for _ in range(2):
            with pytest.raises(ValueError, match="non-finite|too large"):
                simulate(ELL, bad, REFL, 4.0)
            assert dynamics._last_flight is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_make_state_names_a_non_finite_entry(bad):
    # a non-finite entry at any of the twelve positions is refused with the
    # name of its array and its index; the largest finite float and -0.0
    # are kept as given
    X0, V0 = [0.0, 0.0, 4.2, 0.3, 0.4, 1.9], [0.5, 0.0, -0.45, 0.05, 0.3, -0.2]
    for i in range(12):
        name = "X" if i < 6 else "V"
        X, V = list(X0), list(V0)
        (X if i < 6 else V)[i % 6] = bad
        with pytest.raises(ValueError,
                           match=f"state {name} holds a non-finite value at entry {i % 6}"):
            make_state(X, V)
        for good in (1e308, -0.0):
            (X if i < 6 else V)[i % 6] = good
            Z = make_state(X, V)
            assert np.concatenate([Z.X, Z.V]).tobytes() == np.array(X + V).tobytes()


def _array_gap(body, X, seed=None):
    """The gap at the configuration array X and its ContactData, solved
    through closest_approach, warm from the record seed when given."""
    x, y, xb, yb, theta, thetabar = X.tolist()
    c = closest_approach(body, wrap_angle(thetabar - theta),
                         wrap_angle(math.atan2(yb - y, xb - x) - theta), theta=theta, _seed=seed)
    return math.hypot(xb - x, yb - y) - c.d, c


def _array_slab(g, c):
    """The slab width g (e . n), e = (p - q) / d, and the rate row
    (n, p_perp.n, q_perp.n), read off the record's arrays."""
    e = c.p - c.q
    return g * ((e[0] * c.n[0] + e[1] * c.n[1]) / c.d), (*c.n, c.p_perp_n(), c.q_perp_n())


def _array_flight(body, Z, t_max, start=None):
    """The certified flight on the array route, as _next_collision was
    before it stepped on rows: each step forms Z.X + t Z.V, solves it
    through closest_approach warm from the last record and reads the slab
    off the ContactData.  start is (g, record) at Z.X, else solved cold.
    Returns (root time, minimum gap, root record), as _next_collision."""
    g, c = _array_gap(body, Z.X) if start is None else start
    if g < -dynamics._ADMISSIBLE_RTOL * body.diameter:
        raise SimulationError(f"starting gap {g:.3g} is negative beyond tolerance")
    if t_max <= 0.0:
        return None, g, None
    u, om, omb = Z.V[2:4] - Z.V[0:2], Z.V[4], Z.V[5]
    r0, M = Z.X[2:4] - Z.X[0:2], body.K * float(om * om + omb * omb)
    thin = dynamics._CONTACT_WIDTH * body.diameter
    t, min_seen = 0.0, g
    while True:
        w, (nx, ny, pn, qn) = _array_slab(g, c)
        rate = float(u[0] * nx + u[1] * ny - om * pn + omb * qn)
        tau = dynamics._certified_step(max(w, 0.0), rate, M)
        if (w <= thin and rate < 0.0) or t + tau == t:
            return t, min_seen, c
        t += tau
        if t >= t_max:
            return None, min_seen, None
        r = r0 + t * u
        if r[0] * u[0] + r[1] * u[1] >= 0.0 and r[0] * r[0] + r[1] * r[1] > body.diameter ** 2:
            return None, min_seen, None
        g, c = _array_gap(body, Z.X + t * Z.V, seed=c)
        min_seen = min(min_seen, g)


def _reference_run(body, Z0, family, T):
    """simulate's loop on the array route, for one family: each flight by
    _array_flight, the pose anchored here from the root's ContactData,
    scatter_velocity of the contact state's V on build_frame's frame, the
    ledger from conserved_quantities, and each next flight from the root
    record at the anchored X.  No root here is a merged graze."""
    t_end = Z0.t + T
    start = _array_gap(body, Z0.X)
    Z, events, min_gap = Z0, [], start[0]
    while (remaining := t_end - Z.t) > 0.0:
        dt, seen, root = _array_flight(body, Z, remaining, start)
        min_gap = min(min_gap, seen)
        if dt is None:
            Z = free_flight(Z, remaining)
            break
        Zc = free_flight(Z, dt)
        x, y, xb, yb, theta, thetabar = Zc.X.tolist()
        dist = math.hypot(xb - x, yb - y)
        xb, yb = x + (xb - x) * (root.d / dist), y + (yb - y) * (root.d / dist)
        X = np.array([x, y, xb, yb, theta, thetabar])
        frame = build_frame(body, Beta(theta, thetabar, math.atan2(yb - y, xb - x)), root)
        V_post, _, _, grazing = scattering.scatter_velocity(family, frame, Zc.V)
        before = conserved_quantities(body, X, Zc.V)
        after = conserved_quantities(body, X, V_post)
        jumps = {k: after[k] - before[k] for k in before}
        events.append((Zc.t, X.tobytes(), root.d, root.s1, root.s2, V_post.tobytes(), jumps,
                       grazing, abs(dist - root.d)))
        Z = dynamics.State(X=X, V=V_post, t=Zc.t)
        start = (math.hypot(xb - x, yb - y) - root.d, root)
    return events, (Z.X.tobytes(), Z.V.tobytes(), Z.t), min_gap


def _record_bytes(c):
    """Every field of a ContactData as bytes, None kept."""
    return [None if f is None else np.asarray(f).tobytes() for f in c]


def test_a_cold_solve_reads_its_record_back_as_the_kernel_row():
    # the cold start of a flight solves through closest_approach; its row is
    # the one _contact_row writes, so the flight is the same either way
    implicit = make_implicit(ellipse_boundary(2.0, 1.0))
    rng = np.random.default_rng(35)
    for body in (DISK, ELL, implicit):
        for _ in range(20):
            X = [*rng.uniform(-1.0, 1.0, 2), *rng.uniform(3.0, 5.0, 2),
                 *rng.uniform(0.0, 2.0 * math.pi, 2)]
            g, row = dynamics._gap_row(body, X)
            theta_rel = wrap_angle(X[5] - X[4])
            psi_rel = wrap_angle(math.atan2(X[3] - X[1], X[2] - X[0]) - X[4])
            assert row == geometry._contact_row(body, theta_rel, psi_rel, X[4])
            assert g == math.hypot(X[2] - X[0], X[3] - X[1]) - row[0]


def test_the_row_flight_matches_the_array_route():
    # the shipped flight steps on six floats and contact rows; the array
    # route steps on Z.X + t Z.V and ContactData; the root time, the least
    # gap and the root's record agree bit for bit, cold from each datum and
    # warm from the pose of its first contact after a reflection
    implicit = make_implicit(ellipse_boundary(2.0, 1.0))
    body, data = _checks.colliding_ellipse_data(200, 2024)
    cases = [(body, Z0, T) for Z0, T in data] + [(DISK, _head_on(), 10.0)] + [
        (implicit, Z0, T) for Z0, T in data[:8]]
    roots = again = 0
    for body, Z0, T in cases:
        dt, seen, row = dynamics._next_collision(body, Z0, T)
        want = _array_flight(body, Z0, T)
        assert (dt, seen) == want[:2]
        if dt is None:
            continue
        roots += 1
        assert _record_bytes(contact_record(row)) == _record_bytes(want[2])
        pose = _contact_pose(body, free_flight(Z0, dt), row)
        Z, _ = _resolve_at_contact(body, REFL, pose)
        got = dynamics._next_collision(body, Z, T, pose.slab)
        want = _array_flight(body, Z, T, (pose.slab[0], want[2]))
        assert got[:2] == want[:2]
        assert (got[2] is None) == (want[2] is None)
        if got[2] is not None:
            again += 1
            assert _record_bytes(contact_record(got[2])) == _record_bytes(want[2])
    assert roots == len(cases) and again > 0


def test_branches_match_the_one_frame_public_route():
    # every family's run on a shared pose, bit for bit against the array
    # route, which flies on ContactData, builds each pose and each next
    # flight's slab afresh and maps through scatter_velocity
    body, data = _checks.colliding_ellipse_data(200, 2024)
    for Z0, T in data:
        for fam in SIX_FAMILIES:
            tr = simulate(body, Z0, fam, T)
            assert tr.merged_grazing == 0 and tr.n_events() > 0
            got = ([(ev.t, ev.X.tobytes(), ev.d, ev.s1, ev.s2, ev.V_post.tobytes(), ev.jumps,
                     ev.grazing, ev.anchor_shift) for ev in tr.events],
                   (tr.final.X.tobytes(), tr.final.V.tobytes(), tr.final.t), tr.min_gap)
            assert got == _reference_run(body, Z0, fam, T), fam.label()


def _count_branch_work(monkeypatch) -> tuple[list, list]:
    """Record every ellipse solve through geometry's kernel and every
    _gap_row call of dynamics."""
    solves, gaps = [], []
    solve, gap_at = geometry._kernel.ellipse_contact, dynamics._gap_row

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    def counted_gap(*args, **kwargs):
        gaps.append(args)
        return gap_at(*args, **kwargs)

    monkeypatch.setattr(geometry._kernel, "ellipse_contact", counted_solve)
    monkeypatch.setattr(dynamics, "_gap_row", counted_gap)
    return solves, gaps


def _count_records(monkeypatch) -> list:
    """Record every ContactData that geometry writes."""
    records = []
    record = geometry.ContactData

    def counted(*args, **kwargs):
        records.append(record(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(geometry, "ContactData", counted)
    return records


def test_a_branch_past_the_horizon_solves_nothing(monkeypatch):
    # after the shared first contact of the frozen datum, epsi's first
    # certified step passes the horizon: its branch makes no contact solve
    # and no gap call, while reflection and op(0) step on and still find
    # the two later events; so does a head-on disk pair, which separates
    # without spin and never closes again
    Z0, T = _frozen_datum(), _checks.NONUNIQ_T
    families = _checks.six_families()
    simulate(_checks.ELL, Z0, families[0], T)
    solves, gaps = _count_branch_work(monkeypatch)
    work = {}
    for fam in families:
        solves.clear()
        gaps.clear()
        tr = simulate(_checks.ELL, Z0, fam, T)
        work[fam.label()] = (tr.n_events(), len(solves), len(gaps))
    assert work["epsi"] == (1, 0, 0)
    assert [w[0] for w in work.values()].count(2) == 2
    assert all(s > 0 and g > 0 for e, s, g in work.values() if e == 2)
    head_on = _head_on()
    simulate(DISK, head_on, REFL, 1e6)
    solves.clear()
    gaps.clear()
    assert simulate(DISK, head_on, REFL, 1e6).n_events() == 1
    assert solves == [] and gaps == []


def test_one_record_per_contact_pose(monkeypatch):
    # the flights step on contact rows; a ContactData is written once per
    # contact, at its pose, and once at the datum's cold solve: the six
    # families on the frozen datum share the datum and the first contact,
    # and reflection and op(0) find one more contact each, 4 records in all
    # over flights of many certified steps
    Z0, T = _frozen_datum(), _checks.NONUNIQ_T
    records = _count_records(monkeypatch)
    solves, gaps = _count_branch_work(monkeypatch)
    contacts = sum(simulate(_checks.ELL, Z0, fam, T).n_events() - 1
                   for fam in _checks.six_families()) + 1
    assert contacts == 3 and len(records) == 1 + contacts
    assert len(gaps) > 3 * contacts and len(solves) == len(gaps)


def _late_graze_datum():
    return make_state(
        [0, 0, 3.9249001933222014, -3.0588080019098625, 5.37203234937409, 1.29129088131563],
        [0.04156706359133046, -0.15095692273606434, -0.9422753565275535,
         1.2571261540372383, -0.3934606903240496, -0.459068014675579],
    )


def test_late_graze_is_a_collision():
    # a re-contact that overlaps for about 0.016 in time after the first event
    tr = simulate(ELL, _late_graze_datum(), SIX_FAMILIES[3], 4.0)
    assert tr.n_events() == 2
    assert tr.events[1].t == pytest.approx(3.105, abs=2e-3)


def test_every_event_checks_its_frame(monkeypatch):
    # the frame of a later event is checked too, not only the shared first one
    built = []
    build = dynamics.build_frame

    def skewed_second(*args):
        built.append(args)
        frame = build(*args)
        return frame._replace(F1=1.5 * frame.F1) if len(built) == 2 else frame

    monkeypatch.setattr(dynamics, "build_frame", skewed_second)
    with pytest.raises(ValueError, match="not orthonormal"):
        simulate(ELL, _late_graze_datum(), SIX_FAMILIES[3], 4.0)
    assert len(built) == 2


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


@pytest.mark.parametrize("T,v0", [(1e6, None), (8.0, 1e10), (8.0, 1e20), (1e308, None)],
                         ids=["T_1e6", "V0_1e10", "V0_1e20", "T_1e308"])
def test_flight_ends_once_the_pair_cannot_touch(monkeypatch, T, v0):
    # past the last contact the centers fly apart beyond the diameter, which
    # bounds D; the search stops there instead of stepping on towards T with
    # steps that grow only with the square root of the distance flown
    calls = []
    solve = geometry._kernel.ellipse_contact

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(geometry._kernel, "ellipse_contact", counted)
    V = [0.5, 0.0, -0.45, 0.05, 0.3, -0.2]
    if v0 is not None:
        V[0] = v0
    tr = simulate(ELL, make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9], V), REFL, T)
    assert tr.n_events() == (2 if v0 is None else 1)
    assert len(calls) <= 10 * tr.n_events()
    assert tr.final.t == T


@pytest.mark.parametrize("body,i,v", [
    (ELL, 0, 1e155),
    (ELL, 4, 1e200),
    # K = 1e3 - 1e-3 on this ellipse: K omega^2 overflows, the energy does not
    (make_ellipse(1.0, 1e-3), 4, 1e154),
], ids=["speed", "spin", "thin_spin"])
def test_simulate_refuses_a_velocity_whose_energy_overflows(body, i, v):
    V = [0.5, 0.0, -0.45, 0.05, 0.3, -0.2]
    V[i] = v
    with pytest.raises(ValueError, match="state V "):
        simulate(body, make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9], V), REFL, 8.0)


def test_simulate_on_implicit_body_matches_ellipse():
    # the shipped simulate datum, on an implicit (2,1) ellipse: the event
    # loop's implicit-body route must reproduce the closed-form ellipse
    implicit = make_implicit(ellipse_boundary(2.0, 1.0))
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
    from hardpair.dynamics import _gap_row, _rate, _slab

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
        _, contact, w0, row = _slab(*_gap_row(body, X.tolist()))
        rate = _rate(V.tolist(), row)
        n = np.array(contact[7:9])
        assert w0 == pytest.approx(width(X, n), abs=1e-12)
        h = 1e-6
        assert rate == pytest.approx((width(X + h * V, n) - width(X - h * V, n)) / (2 * h), abs=1e-6)
        M = body.K * float(V[4] ** 2 + V[5] ** 2)
        for tau in np.linspace(0.0, 2.0, 41):
            assert width(X + tau * V, n) >= w0 + rate * tau - 0.5 * M * tau**2 - 1e-12
