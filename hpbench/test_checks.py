"""The benchmark's output checks reject known-bad outputs and pass good ones.

Run from the repository root:  python3 -m pytest hpbench -q
"""

import math

import numpy as np
import pytest

import checks
import run
import workloads


@pytest.fixture(scope="module")
def hp():
    return workloads.import_program()


def test_replay_flags_missed_thin_ellipse_collision():
    # On this datum simulate() reports no event, yet the free flight of the
    # (1, 0.05) ellipses overlaps by about 1e-4 when the tip swings through.
    X0 = [0.0, 0.0, 0.0, 1.0499, 0.0, 0.0]
    V0 = [0.0, 0.0, 0.0, 0.0, 2.0, 0.0]
    problems = checks.check_replay(1.0, 0.05, X0, V0, 1.0, [])
    assert any("overlap" in p for p in problems)


def _first_collision(hp, seed=1):
    wl = workloads.Collide()
    wl.setup(hp)
    X0, V0, T = next(wl.rounds(seed))[0]
    tr = hp.dynamics.simulate(wl.body, hp.dynamics.make_state(X0, V0), wl.families[0], T)
    return wl, (X0, V0, T), tr


def test_replay_passes_a_resolved_trajectory(hp):
    wl, (X0, V0, T), tr = _first_collision(hp)
    events = [(ev.t, ev.X, ev.V_pre, ev.V_post) for ev in tr.events]
    assert events
    assert checks.check_replay(wl.A, wl.B, X0, V0, T, events) == []


@pytest.mark.parametrize("k", range(6))
def test_conservation_rejects_one_perturbed_component(hp, k):
    wl, _, tr = _first_collision(hp)
    ev = tr.events[0]
    assert checks.check_conservation(wl.A, wl.B, ev.X, ev.V_pre, ev.V_post) == []
    bad = np.array(ev.V_post, dtype=float)
    bad[k] += 1e-6
    assert checks.check_conservation(wl.A, wl.B, ev.X, ev.V_pre, bad)


def _nth_datum(seed, k):
    rounds = workloads.Collide().rounds(seed)
    for _ in range(k):
        next(rounds)
    return next(rounds)[0]


def test_distinct_lets_one_rank_one_pair_meet(hp):
    # On this datum epsi and op(phi=0) leave the first event within 7.6e-7 of
    # each other (|V0| = 1.86): their maps differ by a rank-one matrix, and the
    # pre-collision velocity lies within about 1e-6 of its null hyperplane.
    wl = workloads.Collide()
    wl.setup(hp)
    X0, V0, T = _nth_datum(1890604873, 697)
    V_posts = [tr.events[0].V_post for tr in wl.call((X0, V0, T))]
    assert checks.check_distinct(V_posts, V0)
    assert checks.check_distinct(V_posts, V0, wl.MAY_MEET) == []


def test_distinct_rejects_collapsed_continuations(hp):
    wl, (X0, V0, T), _ = _first_collision(hp)
    V_posts = [tr.events[0].V_post for tr in wl.call((X0, V0, T))]
    assert checks.check_distinct(V_posts, V0, wl.MAY_MEET) == []
    # two orientation-preserving families alike, epsi like reflection, and
    # two rank-one pairs meeting at once are all rejected
    for i, j in ((2, 3), (0, 1), (2, 4)):
        bad = list(V_posts)
        bad[j] = bad[i]
        assert checks.check_distinct(bad, V0, wl.MAY_MEET)
    bad = list(V_posts)
    bad[2], bad[3] = bad[0], bad[1]
    assert checks.check_distinct(bad, V0, wl.MAY_MEET)


@pytest.mark.parametrize("ratio", workloads.Contact.RATIOS)
def test_tangency_rejects_scaled_separation(hp, ratio):
    rng = np.random.default_rng(5)
    body = hp.bodies.make_ellipse(ratio, 1.0)
    beta = hp.geometry.Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
    c = hp.geometry.d_beta(body, beta, derivatives=True)

    def check(d):
        return checks.check_contact(ratio, 1.0, beta.theta, beta.thetabar, beta.psi,
                                    d, c.p, c.q, c.n, c.dD_dtheta, c.dD_dpsi)

    assert check(c.d) == []
    assert any("touch" in p for p in check(1.001 * c.d))


def test_collide_data_must_collide():
    rng = np.random.default_rng(0)
    a, b = workloads.Collide.A, workloads.Collide.B
    for _ in range(200):
        X0, V0, T = workloads.Collide.datum(rng)
        r0, u = X0[2:4] - X0[0:2], V0[2:4] - V0[0:2]
        assert np.linalg.norm(r0) > 2.0 * a
        assert np.linalg.norm(r0 + T * u) == pytest.approx(2.0 * b, rel=1e-12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(name, tmp_path):
    counts = []
    for k in range(2):
        wl = workloads.WORKLOADS[name]()
        metrics, tally = run.measure_traced(wl, 3, 0.2, tmp_path / f"{k}.csv.gz")
        assert tally.failed == 0
        counts.append({m: v for m, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["geometry.contacts"] > 0
