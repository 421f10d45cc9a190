"""Closest-approach distance, contact data, and the analytic identities."""

import math

import numpy as np
import pytest

# geometry as bound here at import, the module closest_approach lives in; a
# later fresh import of hardpair (the benchmark's tests make one) leaves it
# alone, so a patch on it reaches the code under test
from hardpair import geometry
from hardpair.bodies import make_disk, make_ellipse, make_implicit
from hardpair.geometry import (
    Beta,
    closest_approach,
    closest_approach_oracle,
    d_beta,
    d_derivatives,
    e_of,
    ellipse_shape,
    identity_residuals,
    perp,
    rotation,
    wrap_angle,
)

ELL = make_ellipse(2.0, 1.0)
ELL_SHAPE = ellipse_shape(2.0, 1.0)

# independently frozen bisection-oracle values for the (2, 1) ellipse pair
ORACLE_PINS = [
    (math.pi / 3, math.pi / 4, 3.438167413599226),
    (1.0, 2.0, 2.601522237626018),
    (5.0, 0.7, 2.877112527385412),
]


@pytest.mark.parametrize("theta,psi,expect", ORACLE_PINS)
def test_frozen_oracle_pins(theta, psi, expect):
    assert closest_approach(ELL, theta, psi).d == pytest.approx(expect, abs=1e-8)


def test_axis_aligned_closed_forms():
    # nose to nose along the major axis, side by side, and one body crosswise
    assert closest_approach(ELL, 0.0, 0.0).d == pytest.approx(4.0, abs=1e-10)
    assert closest_approach(ELL, 0.0, math.pi / 2).d == pytest.approx(2.0, abs=1e-10)
    assert closest_approach(ELL, math.pi / 2, 0.0).d == pytest.approx(3.0, abs=1e-10)


def test_disk_distance_is_two_radii_exactly():
    disk = make_disk(0.8)
    rng = np.random.default_rng(3)
    for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (50, 2)):
        c = closest_approach(disk, theta, psi)
        assert abs(c.d - 1.6) < 1e-12
        assert np.allclose(c.n, e_of(psi), atol=1e-12)


def test_solver_matches_oracle_on_random_poses():
    rng = np.random.default_rng(11)
    for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (40, 2)):
        d_fast = closest_approach(ELL, theta, psi).d
        d_slow = closest_approach_oracle(*ELL_SHAPE, theta, psi)
        assert abs(d_fast - d_slow) < 1e-6


def test_symmetry_under_half_turn():
    # congruent centrally-symmetric bodies: swapping roles leaves D unchanged
    rng = np.random.default_rng(4)
    for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (25, 2)):
        d1 = closest_approach(ELL, theta, psi).d
        d2 = closest_approach(ELL, wrap_angle(-theta), wrap_angle(psi - theta)).d
        assert abs(d1 - d2) < 1e-9


def test_rotation_covariance_of_contact_data():
    rng = np.random.default_rng(5)
    for _ in range(25):
        th, thb, psi, shift = rng.uniform(0.0, 2.0 * math.pi, 4)
        beta = Beta(th, thb, psi)
        c0 = d_beta(ELL, beta)
        c1 = d_beta(ELL, beta.shifted(shift))
        R = rotation(shift)
        assert abs(c0.d - c1.d) < 1e-9
        assert np.allclose(R @ c0.p, c1.p, atol=1e-8)
        assert np.allclose(R @ c0.q, c1.q, atol=1e-8)
        assert np.allclose(R @ c0.n, c1.n, atol=1e-8)


def test_contact_points_consistent():
    rng = np.random.default_rng(6)
    for _ in range(25):
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        c = d_beta(ELL, beta)
        # the same contact point seen from both centers: p = d e(psi) + q
        assert np.allclose(c.p, c.d * e_of(beta.psi) + c.q, atol=1e-8)
        assert np.linalg.norm(c.n) == pytest.approx(1.0, abs=1e-12)


def test_tangency_no_overlap_at_contact():
    # at the solved distance the two boundaries touch but do not cross
    rng = np.random.default_rng(7)
    ths = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    bd = np.stack([2.0 * np.cos(ths), np.sin(ths)], axis=1)
    for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (10, 2)):
        c = closest_approach(ELL, theta, psi)
        R2 = rotation(theta)
        center = c.d * e_of(psi)
        pts = (R2 @ bd.T).T + center
        vals = ELL_SHAPE[0](pts[:, 0], pts[:, 1])
        assert float(np.min(vals)) > -1e-7


def test_identity_residuals_small_in_corrected_form():
    rng = np.random.default_rng(8)
    worst = {"n_direction": 0.0, "m_nu_gamma": 0.0, "p_scalar": 0.0, "q_scalar": 0.0,
             "fd_derivative_gap": 0.0}
    for _ in range(20):
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        res = identity_residuals(ELL, beta)
        for k in worst:
            worst[k] = max(worst[k], res[k])
    assert worst["n_direction"] < 1e-5
    assert worst["m_nu_gamma"] < 1e-5
    assert worst["p_scalar"] < 1e-5
    assert worst["q_scalar"] < 1e-5
    assert worst["fd_derivative_gap"] < 1e-6


def test_printed_variants_fail_generically():
    # the sign/argument variants seen in some transcriptions are not identities;
    # on a generic pose they leave O(1) residuals
    beta = Beta(0.5, 1.2, 0.8)
    res = identity_residuals(ELL, beta)["as_printed"]
    assert res["n_direction_theta_swap"] > 1e-3
    assert res["p_scalar_plus_sign"] > 1e-3
    assert res["gamma_scalar_sign_flip"] > 1e-3


def test_d_derivatives_match_distance_slope():
    # central differences of d itself against the reported partials
    beta = Beta(0.9, 2.1, 1.4)
    th, ps = beta.reduced()
    dth, dps = d_derivatives(ELL, th, ps)
    h = 1e-6
    num_th = (closest_approach(ELL, th + h, ps).d - closest_approach(ELL, th - h, ps).d) / (2 * h)
    num_ps = (closest_approach(ELL, th, ps + h).d - closest_approach(ELL, th, ps - h).d) / (2 * h)
    assert dth == pytest.approx(num_th, abs=1e-6)
    assert dps == pytest.approx(num_ps, abs=1e-6)


@pytest.mark.parametrize("ratio", [1.25, 2.0, 5.0, 20.0])
def test_jacobian_derivatives_match_finite_differences(ratio):
    # the envelope derivatives of the normal-angle solve against Richardson
    # finite differences of D
    ell = make_ellipse(ratio, 1.0)
    rng = np.random.default_rng(12)
    for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (30, 2)):
        c = closest_approach(ell, theta, psi, derivatives=True)
        fd_theta, fd_psi = d_derivatives(ell, theta, psi)
        scale = max(c.d, abs(fd_theta), abs(fd_psi))
        assert abs(c.dD_dtheta - fd_theta) <= 1e-7 * scale
        assert abs(c.dD_dpsi - fd_psi) <= 1e-7 * scale


@pytest.mark.parametrize("ratio", [1.25, 2.0, 5.0, 20.0, 300.0, 1e4, 1e6])
def test_warm_start_lands_on_the_external_tangency(ratio):
    # the normal-angle search started from a solve at a nearby pose finds
    # the cold solve's root; D is compared on the scale max(d, |D_theta|,
    # |D_psi|), since the inputs' own rounding moves it by that much times
    # the float spacing
    from hardpair import _kernel

    a, b = ratio, 1.0
    rng = np.random.default_rng(15)
    for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (300, 2)):
        d, alpha, _, _, ok = _kernel.ellipse_contact(a, b, theta, psi)
        assert ok
        for spread in (0.3, 0.05):
            th2, ps2 = (theta, psi) + rng.uniform(-spread, spread, 2)
            warm = _kernel.ellipse_contact(a, b, th2, ps2, alpha, use_seed=True)
            cold = _kernel.ellipse_contact(a, b, th2, ps2)
            scale = max(cold[0], abs(cold[2]), abs(cold[3]))
            assert warm[4] and abs(warm[0] - cold[0]) <= 1e-13 * scale


def test_warm_and_cold_solves_reach_the_kernel_as_the_tracer_reads_them(monkeypatch):
    # the benchmark's tracer labels a kernel call warm by args[7] or the
    # use_seed keyword, and failed by out[4]; a change of signature must not
    # turn warm solves into cold ones there
    seen = []
    solve = geometry._kernel.ellipse_contact

    def traced(*args, **kwargs):
        out = solve(*args, **kwargs)
        seen.append((args[7] if len(args) > 7 else kwargs.get("use_seed", False), out[4]))
        return out

    monkeypatch.setattr(geometry._kernel, "ellipse_contact", traced)
    cold = closest_approach(ELL, 0.7, 1.1)
    warm = closest_approach(ELL, 0.71, 1.12, _seed=cold)
    assert seen == [(False, True), (True, True)]
    assert warm.d == pytest.approx(closest_approach(ELL, 0.71, 1.12).d, rel=1e-14)


@pytest.mark.parametrize("ratio", [1.0, 1.0001, 2.0, 20.0, 300.0])
def test_aligned_pair_matches_closed_form(ratio):
    # at theta = 0 or pi the Minkowski sum is the ellipse scaled by 2, so D
    # is twice its radial function along e(psi)
    from hardpair import _kernel

    a, b = ratio, 1.0
    for theta in (0.0, math.pi):
        for psi in np.linspace(0.0, 2.0 * math.pi, 73):
            d, _, _, _, ok = _kernel.ellipse_contact(a, b, theta, psi)
            exact = 2.0 * a * b / math.hypot(b * math.cos(psi), a * math.sin(psi))
            assert ok and abs(d - exact) <= 1e-14 * exact


@pytest.mark.parametrize("theta,psi,d_expected", [
    (5.663858509048599, 1.3643827404917468, 3.6050018549019613),
    (5.576365317527889, 4.40058648375183, 3.9382835241640866),
])
def test_cold_solve_converges_where_a_bracket_end_is_hit(theta, psi, d_expected):
    # the normal-angle Newton iterate ends on a bracket end as it converges;
    # a bracket test made before the convergence test bisects away from it,
    # and solvers ordered that way failed at these (5,1) poses
    from hardpair import _kernel

    d, _, _, _, ok = _kernel.ellipse_contact(5.0, 1.0, theta, psi)
    assert ok and abs(d - d_expected) <= 1e-14 * d


def test_warm_solve_from_a_far_seed_does_not_cycle():
    # from this seed on the (2, 1) pair, plain bracketed Newton bounced
    # between iterates near 5.22 and 7.21 (root 6.307) until the iteration
    # cap and returned nan; a step that fails to halve the step before last
    # now bisects, and the warm solve lands on the cold one
    from hardpair import _kernel

    pose = (4.793641986930684, 6.238974125569195)
    warm = _kernel.ellipse_contact(2.0, 1.0, *pose, -1.063367345692057, use_seed=True)
    cold = _kernel.ellipse_contact(2.0, 1.0, *pose)
    assert warm[4] and cold[4]
    assert warm[0] == pytest.approx(3.0114704545881033, rel=1e-15)
    assert abs(warm[0] - cold[0]) <= 1e-15 * cold[0]


@pytest.mark.parametrize("ratio", [1.25, 2.0, 5.0, 20.0, 300.0, 1e4])
def test_warm_solves_from_random_seeds_never_fail(ratio):
    # seeds drawn anywhere on the half-circle facing e(psi), however far from
    # the root: 20,000 warm solves, none may fail (the (2, 1) pair failed 4
    # times here before the halving rule)
    from hardpair import _kernel

    support = _kernel.ellipse_support(ratio, 1.0)
    rng = np.random.default_rng(7)
    theta, psi, u = rng.uniform(0.0, 2.0 * math.pi, (3, 20000))
    seeds = psi + (u / (2.0 * math.pi) - 0.5) * math.pi
    failed = [(t, p, s) for t, p, s in zip(theta.tolist(), psi.tolist(), seeds.tolist())
              if not _kernel.support_contact(support, t, p, s, use_seed=True)[4]]
    assert failed == []


def _dense_support_distance(a, b, theta, psi, n=257, zooms=4):
    """min over alpha of H(alpha) / cos(alpha - psi), H(alpha) = h(alpha) + h(alpha - theta).

    A grid over the open half-circle facing e(psi), zoomed in around its
    minimum; the function has one minimum there.
    """
    def f(al):
        h1 = np.hypot(a * np.cos(al), b * np.sin(al))
        h2 = np.hypot(a * np.cos(al - theta[:, None]), b * np.sin(al - theta[:, None]))
        return (h1 + h2) / np.cos(al - psi[:, None])

    rows = np.arange(len(psi))
    lo, hi = psi - 0.5 * math.pi, psi + 0.5 * math.pi
    u = (np.arange(n) + 0.5) / n
    for _ in range(zooms + 1):
        step = (hi - lo) / n
        al = lo[:, None] + (hi - lo)[:, None] * u
        values = f(al)
        k = np.argmin(values, axis=1)
        lo, hi = al[rows, k] - step, al[rows, k] + step
    return values[rows, k]


@pytest.mark.parametrize("ratio", [1.25, 2.0, 5.0, 20.0, 50.0])
def test_cold_solve_matches_dense_support_minimum(ratio, monkeypatch):
    def no_fallback(*args):
        raise AssertionError("the oracle fallback ran")

    monkeypatch.setattr(geometry, "_ellipse_oracle_fallback", no_fallback)
    body = make_ellipse(ratio, 1.0)
    rng = np.random.default_rng(16)
    theta, psi = rng.uniform(0.0, 2.0 * math.pi, (2, 2000))
    dense = _dense_support_distance(ratio, 1.0, theta, psi)
    d = np.array([closest_approach(body, t, p).d for t, p in zip(theta, psi)])
    assert np.max(np.abs(d - dense)) <= 1e-9


def test_disk_derivatives_are_exact_zeros():
    disk = make_disk(0.8)
    rng = np.random.default_rng(13)
    for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (10, 2)):
        c = closest_approach(disk, theta, psi, derivatives=True)
        assert c.dD_dtheta == 0.0 and c.dD_dpsi == 0.0


def test_disk_contact_cold_and_warm():
    # a disk's support function is the constant r, so G = 2r sin(alpha - psi):
    # a cold solve stops at alpha = psi on its first step, and a solve warm
    # from a nearby pose reaches it to rounding
    disk = make_disk(0.8)
    rng = np.random.default_rng(19)
    for theta, psi, dth, dps in rng.uniform(-0.3, 0.3, (50, 4)) * [20, 20, 1, 1]:
        cold = closest_approach(disk, theta, psi, derivatives=True)
        warm = closest_approach(disk, theta + dth, psi + dps, derivatives=True, _seed=cold)
        for c, th, ps in ((cold, theta, psi), (warm, theta + dth, psi + dps)):
            assert abs(c.d - 1.6) <= 1e-14
            assert np.max(np.abs(c.n - e_of(ps))) <= 1e-14
            assert np.max(np.abs(c.p - 0.8 * e_of(ps))) <= 1e-14
            assert abs(c.dD_dtheta) <= 1e-14 and abs(c.dD_dpsi) <= 1e-14
            assert abs(math.remainder(c.s1 - ps, 2.0 * math.pi)) <= 1e-14
            assert abs(math.remainder(c.s2 - (ps - th + math.pi), 2.0 * math.pi)) <= 1e-14
        assert cold.d == 1.6 and cold.s1 == wrap_angle(psi)


def _implicit_ellipse(a=2.0, b=1.0):
    return make_implicit(ellipse_shape(a, b)[1])


def test_implicit_ellipse_matches_ellipse_kernel():
    # the Fourier support function of the implicit (2,1) ellipse against the
    # closed form: the same solve gives the same contact record
    implicit = _implicit_ellipse()
    rng = np.random.default_rng(14)
    for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (200, 2)):
        got = closest_approach(implicit, theta, psi, derivatives=True)
        want = closest_approach(ELL, theta, psi, derivatives=True)
        for x, y in ((got.d, want.d), (got.dD_dtheta, want.dD_dtheta),
                     (got.dD_dpsi, want.dD_dpsi)):
            assert abs(x - y) < 1e-9
        for x, y in ((got.p, want.p), (got.q, want.q), (got.n, want.n)):
            assert np.max(np.abs(x - y)) < 1e-9


def _polar_shape():
    # r(phi) = 1 + 0.1 cos 2 phi: strictly convex, centrally symmetric, and
    # not an ellipse; its level function and boundary map
    def radius(phi):
        return 1.0 + 0.1 * np.cos(2.0 * phi)

    def level(x, y):
        return np.hypot(x, y) - radius(np.arctan2(y, x))

    def boundary(s):
        return radius(s)[:, None] * np.stack([np.cos(s), np.sin(s)], axis=1)

    return level, boundary


def test_non_elliptic_implicit_body_matches_oracle_and_finite_differences():
    shape = _polar_shape()
    body = make_implicit(shape[1])
    rng = np.random.default_rng(18)
    for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (20, 2)):
        c = closest_approach(body, theta, psi, derivatives=True)
        assert abs(c.d - closest_approach_oracle(*shape, theta, psi)) < 1e-6
        fd_theta, fd_psi = d_derivatives(body, theta, psi)
        scale = max(c.d, abs(fd_theta), abs(fd_psi))
        assert abs(c.dD_dtheta - fd_theta) <= 1e-7 * scale
        assert abs(c.dD_dpsi - fd_psi) <= 1e-7 * scale


def test_oracle_ends_below_the_float_spacing_of_d():
    # d is about 3e7, where floats are 3.7e-9 apart: a bracket narrower than
    # tol = 1e-9 cannot be reached, and the bisection stops at adjacent floats
    body = make_ellipse(2e7, 1e7)
    d = closest_approach(body, 0.3, 0.9).d
    assert abs(closest_approach_oracle(*ellipse_shape(2e7, 1e7), 0.3, 0.9) - d) <= 1e-9 * d


@pytest.mark.parametrize("body,n_poses,derivatives", [
    *((make_ellipse(ratio, 1.0), 300, True) for ratio in (1.25, 2.0, 5.0, 20.0)),
    (make_disk(0.8), 300, True),
    (_implicit_ellipse(), 300, True),
], ids=["ratio1.25", "ratio2", "ratio5", "ratio20", "disk", "implicit"])
def test_lab_record_is_the_canonical_record_turned(body, n_poses, derivatives):
    # closest_approach writes p, q, n turned by theta in scalar arithmetic;
    # it must agree with the canonical record turned by a rotation matrix,
    # and leave the rotation invariants untouched
    rng = np.random.default_rng(17)
    for theta_rel, psi_rel, theta in rng.uniform(0.0, 2.0 * math.pi, (n_poses, 3)):
        canon = closest_approach(body, theta_rel, psi_rel, derivatives=derivatives)
        lab = closest_approach(body, theta_rel, psi_rel, theta=theta, derivatives=derivatives)
        c, s = math.cos(theta), math.sin(theta)
        R = np.array([[c, -s], [s, c]])
        for got, want in ((lab.p, canon.p), (lab.q, canon.q), (lab.n, canon.n)):
            assert np.max(np.abs(got - R @ want)) <= 1e-14
        assert (lab.d, lab.s1, lab.s2, lab.dD_dtheta, lab.dD_dpsi) == (
            canon.d, canon.s1, canon.s2, canon.dD_dtheta, canon.dD_dpsi)


def test_beta_reduced_and_shifted():
    beta = Beta(0.5, 1.7, 2.9)
    th_rel, psi_rel = beta.reduced()
    assert th_rel == pytest.approx(wrap_angle(1.7 - 0.5))
    assert psi_rel == pytest.approx(wrap_angle(2.9 - 0.5))
    shifted = beta.shifted(1.0)
    assert shifted.reduced() == pytest.approx(beta.reduced())


def test_perp_is_counterclockwise():
    assert np.allclose(perp(np.array([1.0, 0.0])), [0.0, 1.0])
    assert np.allclose(perp(np.array([0.0, 1.0])), [-1.0, 0.0])
