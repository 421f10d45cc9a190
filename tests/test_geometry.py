"""Closest-approach distance, contact data, and the analytic identities."""

import math

import numpy as np
import pytest

# geometry as bound here at import, the module closest_approach lives in; a
# later fresh import of hardpair (the benchmark's tests make one) leaves it
# alone, so a patch on it reaches the code under test
from hardpair import geometry
from hardpair._checks import perram_wertheim_distance
from hardpair.bodies import make_ellipse, make_implicit
from hardpair.frames import build_frame, nu_hat
from hardpair.geometry import (
    Beta,
    ContactData,
    ConvergenceError,
    closest_approach,
    d_beta,
    d_derivatives,
    e_of,
    identity_residuals,
    perp,
    wrap_angle,
)
from body_helpers import ellipse_boundary, rotation

ELL = make_ellipse(2.0, 1.0)

# values frozen from an independent sampled-bisection route, for the (2, 1) ellipse pair
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


def test_perram_wertheim_axis_aligned_closed_forms():
    # the same three poses through the contact function of the ellipse matrices
    for theta, psi, d in ((0.0, 0.0, 4.0), (0.0, math.pi / 2, 2.0), (math.pi / 2, 0.0, 3.0)):
        assert abs(perram_wertheim_distance(2.0, 1.0, theta, psi) - d) <= 1e-15 * d


def test_disk_distance_is_two_radii_exactly():
    disk = make_ellipse(0.8, 0.8)
    rng = np.random.default_rng(3)
    for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (50, 2)):
        c = closest_approach(disk, theta, psi)
        assert abs(c.d - 1.6) < 1e-12
        assert np.allclose(c.n, e_of(psi), atol=1e-12)


def test_solver_matches_oracle_on_random_poses():
    # the Perram-Wertheim distance reads the ellipse matrices, not the
    # support function the solve runs on
    rng = np.random.default_rng(11)
    for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (40, 2)):
        d_fast = closest_approach(ELL, theta, psi).d
        d_slow = perram_wertheim_distance(2.0, 1.0, theta, psi)
        assert abs(d_fast - d_slow) < 1e-12 * ELL.diameter


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
        vals = (pts[:, 0] / 2.0) ** 2 + pts[:, 1] ** 2 - 1.0
        assert float(np.min(vals)) > -1e-7


def _worst_identity_residuals(body):
    rng = np.random.default_rng(8)
    worst = {"n_direction": 0.0, "m_nu_gamma": 0.0, "p_scalar": 0.0, "q_scalar": 0.0,
             "fd_derivative_gap": 0.0}
    for _ in range(20):
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        res = identity_residuals(body, beta)
        for k in worst:
            worst[k] = max(worst[k], res[k])
    return worst


def test_identity_residuals_small_in_corrected_form():
    worst = _worst_identity_residuals(ELL)
    assert worst["n_direction"] < 1e-5
    assert worst["m_nu_gamma"] < 1e-5
    assert worst["p_scalar"] < 1e-5
    assert worst["q_scalar"] < 1e-5
    assert worst["fd_derivative_gap"] < 1e-6
    # lengths are taken over the pose's separation, so the (2s, s) ellipse
    # reads the same figures at any unit of length
    for s in (1e-3, 1e3):
        for k, v in _worst_identity_residuals(make_ellipse(2.0 * s, s)).items():
            assert worst[k] / 4.0 <= v <= 4.0 * worst[k], (s, k, v)


def test_printed_variants_fail_generically():
    # the sign/argument variants seen in some transcriptions are not identities;
    # on a generic pose they leave O(1) residuals, at any unit of length
    beta = Beta(0.5, 1.2, 0.8)
    for s in (1e-3, 1.0, 1e3):
        res = identity_residuals(make_ellipse(2.0 * s, s), beta)["as_printed"]
        assert res["n_direction_theta_swap"] > 1e-3, s
        assert res["p_scalar_plus_sign"] > 1e-3, s
        assert res["gamma_scalar_sign_flip"] > 1e-3, s


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
        d, alpha, _, _, ok, _, _ = _kernel.ellipse_contact(a, b, theta, psi)
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
            d, _, _, _, ok, _, _ = _kernel.ellipse_contact(a, b, theta, psi)
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

    d, _, _, _, ok, _, _ = _kernel.ellipse_contact(5.0, 1.0, theta, psi)
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


def _ellipse(ratio, implicit):
    """The (ratio, 1) ellipse, in closed form or, with implicit, as a support series."""
    return _implicit_ellipse(ratio, 1.0) if implicit else make_ellipse(ratio, 1.0)


@pytest.mark.parametrize("ratio,implicit", [
    (1.25, False), (2.0, False), (5.0, False), (20.0, False), (300.0, False), (1e4, False),
    (5.0, True),
], ids=["1.25", "2.0", "5.0", "20.0", "300.0", "10000.0", "implicit5"])
def test_warm_solves_from_random_seeds_never_fail(ratio, implicit):
    # seeds drawn anywhere on the half-circle facing e(psi), however far from
    # the root: 20,000 warm solves, none may fail (the (2, 1) pair failed 4
    # times here before the halving rule)
    from hardpair import _kernel

    body = _ellipse(ratio, implicit)
    rng = np.random.default_rng(7)
    theta, psi, u = rng.uniform(0.0, 2.0 * math.pi, (3, 20000))
    seeds = psi + (u / (2.0 * math.pi) - 0.5) * math.pi
    failed = [(t, p, s) for t, p, s in zip(theta.tolist(), psi.tolist(), seeds.tolist())
              if not _kernel.support_contact(body.pair(t), p, s, use_seed=True)[4]]
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


@pytest.mark.parametrize("ratio,implicit", [
    (1.25, False), (2.0, False), (5.0, False), (20.0, False), (50.0, False), (5.0, True),
], ids=["1.25", "2.0", "5.0", "20.0", "50.0", "implicit5"])
def test_cold_solve_matches_dense_support_minimum(ratio, implicit, monkeypatch):
    def no_fallback(*args):
        raise AssertionError("the oracle fallback ran")

    monkeypatch.setattr(geometry, "_ellipse_oracle_fallback", no_fallback)
    body = _ellipse(ratio, implicit)
    rng = np.random.default_rng(16)
    theta, psi = rng.uniform(0.0, 2.0 * math.pi, (2, 2000))
    dense = _dense_support_distance(ratio, 1.0, theta, psi)
    d = np.array([closest_approach(body, t, p).d for t, p in zip(theta, psi)])
    assert np.max(np.abs(d - dense)) <= 1e-9


# the contact workload's aspect ratios
CONTACT_RATIOS = (1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0)


@pytest.mark.parametrize("ratios,bound", [(CONTACT_RATIOS, 4.8), ((2.0,), 3.9)],
                         ids=["contact-ratios", "ratio2"])
def test_cold_solves_take_few_pair_evaluations(ratios, bound):
    # Halley's step on seeded cold solves: the mean number of pair-support
    # evaluations per solve, which Newton's step put at 5.8 on the mix and
    # 4.8 on (2, 1)
    from hardpair import _kernel

    calls = 0

    def counted(support):
        def step(alpha):
            nonlocal calls
            calls += 1
            return support(alpha)

        return step

    rng = np.random.default_rng(20)
    n = 1000
    for ratio in ratios:
        pair = make_ellipse(ratio, 1.0).pair
        for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (n, 2)).tolist():
            assert _kernel.support_contact(counted(pair(theta)), psi)[4]
    assert calls / (n * len(ratios)) <= bound


def test_disk_derivatives_are_exact_zeros():
    disk = make_ellipse(0.8, 0.8)
    rng = np.random.default_rng(13)
    for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (10, 2)):
        c = closest_approach(disk, theta, psi, derivatives=True)
        assert c.dD_dtheta == 0.0 and c.dD_dpsi == 0.0


def test_disk_contact_cold_and_warm():
    # the (r, r) ellipse's support function is the constant r to the bit, so
    # G = 2r sin(alpha - psi):
    # a cold solve stops at alpha = psi on its first step, and a solve warm
    # from a nearby pose reaches it to rounding
    disk = make_ellipse(0.8, 0.8)
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
    return make_implicit(ellipse_boundary(a, b))


@pytest.mark.parametrize("body", [ELL, _implicit_ellipse()], ids=["ellipse", "implicit"])
def test_s1_s2_are_the_outward_normal_angles(body):
    # s1 and s2 are each body's own-frame angle of its outward normal at the
    # touching point, on every body: n = e(theta + s1) and -n = e(thetabar + s2)
    rng = np.random.default_rng(23)
    for angles in rng.uniform(0.0, 2.0 * math.pi, (300, 3)):
        beta = Beta(*angles)
        c = d_beta(body, beta)
        assert 0.0 <= c.s1 < 2.0 * math.pi and 0.0 <= c.s2 < 2.0 * math.pi
        assert np.max(np.abs(c.n - e_of(beta.theta + c.s1))) <= 1e-14
        assert np.max(np.abs(e_of(beta.thetabar + c.s2) + c.n)) <= 1e-14


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


def _polar_boundary(s):
    # r(phi) = 1 + 0.1 cos 2 phi: strictly convex, centrally symmetric, and
    # not an ellipse
    return (1.0 + 0.1 * np.cos(2.0 * s))[:, None] * np.stack([np.cos(s), np.sin(s)], axis=1)


def _polar_level(u):
    """The polar body's level function |u| - r(phi) at the point u, and its
    gradient e(phi) + (0.2 sin 2 phi / |u|) e(phi)-perp."""
    rho, phi = math.hypot(*u), math.atan2(u[1], u[0])
    grad = e_of(phi) + (0.2 * math.sin(2.0 * phi) / rho) * perp(e_of(phi))
    return rho - (1.0 + 0.1 * math.cos(2.0 * phi)), grad


PAIR_BODIES = pytest.mark.parametrize(
    "body", [ELL, make_ellipse(20.0, 1.0), make_implicit(_polar_boundary)],
    ids=["ratio2", "ratio20", "implicit"])


@PAIR_BODIES
def test_pair_support_is_the_sum_of_two_supports(body):
    # H, H', R against h, h', rho at alpha and alpha + pi - theta, and the
    # tail against body 1's own support; the pair turns body 2's direction
    # by cos and sin of theta where the sum rounds alpha + pi - theta, which
    # the (20, 1) ellipse's steep rho magnifies to 4e-14
    rng = np.random.default_rng(21)
    for theta, alpha in rng.uniform(0.0, 2.0 * math.pi, (200, 2)).tolist():
        H, dH, R, _, h, dh, rho = body.pair(theta)(alpha)
        one, two = body.support(alpha), body.support(alpha + math.pi - theta)
        scale = max(one[0] + two[0], one[2] + two[2])
        for got, want in zip((H, dH, R, h, dh, rho), (*np.add(one, two), *one)):
            assert abs(got - want) <= 1e-13 * scale


@PAIR_BODIES
def test_pair_support_slope_of_r_matches_a_central_difference(body):
    step = 1e-6
    rng = np.random.default_rng(22)
    for theta, alpha in rng.uniform(0.0, 2.0 * math.pi, (200, 2)).tolist():
        pair = body.pair(theta)
        _, _, R, dR, *_ = pair(alpha)
        fd = (pair(alpha + step)[2] - pair(alpha - step)[2]) / (2.0 * step)
        assert abs(dR - fd) <= 1e-7 * max(abs(dR), R)


def test_non_elliptic_implicit_body_is_tangent_and_matches_finite_differences():
    # a tangency certificate that never reads the support function: the
    # contact point lies on both boundaries, and the level gradients there,
    # body 2's turned by theta, point along n and -n
    body = make_implicit(_polar_boundary)
    rng = np.random.default_rng(18)
    for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (20, 2)):
        c = closest_approach(body, theta, psi, derivatives=True)
        on_1, grad_1 = _polar_level(c.p)
        on_2, grad_2 = _polar_level(rotation(-theta) @ c.q)
        assert abs(on_1) <= 1e-13 and abs(on_2) <= 1e-13
        assert np.max(np.abs(grad_1 / np.linalg.norm(grad_1) - c.n)) <= 1e-11
        assert np.max(np.abs(rotation(theta) @ grad_2 / np.linalg.norm(grad_2) + c.n)) <= 1e-11
        fd_theta, fd_psi = d_derivatives(body, theta, psi)
        scale = max(c.d, abs(fd_theta), abs(fd_psi))
        assert abs(c.dD_dtheta - fd_theta) <= 1e-7 * scale
        assert abs(c.dD_dpsi - fd_psi) <= 1e-7 * scale


def test_perram_wertheim_distance_at_large_scale():
    # at the (2e7, 1e7) pair, where d is about 3e7, the contact function
    # and the solve still agree to rounding over the diameter
    body = make_ellipse(2e7, 1e7)
    rng = np.random.default_rng(31)
    for theta, psi in rng.uniform(0.0, 2.0 * math.pi, (50, 2)):
        d = closest_approach(body, theta, psi).d
        assert abs(perram_wertheim_distance(2e7, 1e7, theta, psi) - d) <= 1e-12 * body.diameter


@pytest.mark.parametrize("body,n_poses,derivatives", [
    *((make_ellipse(ratio, 1.0), 300, True) for ratio in (1.25, 2.0, 5.0, 20.0)),
    (make_ellipse(0.8, 0.8), 300, True),
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


@pytest.mark.parametrize("body", [
    ELL, make_ellipse(20.0, 1.0), make_ellipse(0.8, 0.8), make_implicit(_polar_boundary),
], ids=["ratio2", "ratio20", "disk", "implicit"])
def test_block_record_matches_the_one_pose_record(body):
    # d_beta at a Beta of arrays stacks the one-pose rows; every field, and
    # every scalar read from the record, is the one-pose record's bit for bit
    rng = np.random.default_rng(29)
    angles = rng.uniform(0.0, 2.0 * math.pi, (200, 3))
    block = d_beta(body, Beta(*angles.T), derivatives=True)
    one = [d_beta(body, Beta(*row), derivatives=True) for row in angles]
    reads = {
        "p_perp_n": lambda c: c.p_perp_n(),
        "q_perp_n": lambda c: c.q_perp_n(),
        "nu_hat": lambda c: nu_hat(c, body.m, body.J),
    }
    reads.update({field: (lambda c, f=field: getattr(c, f)) for field in ContactData._fields})
    for name, read in reads.items():
        got, want = read(block), np.array([read(c) for c in one])
        assert got.shape == want.shape and np.array_equal(got, want), name


def test_a_failed_solve_in_a_block_names_its_pose(monkeypatch):
    # a kernel solve that reports ok = False inside a block raises the
    # one-pose path's ConvergenceError, naming that pose's relative angles
    rng = np.random.default_rng(30)
    angles = rng.uniform(0.0, 2.0 * math.pi, (5, 3))
    th_rel, ps_rel = Beta(*angles.T).reduced()
    bad = (float(th_rel[3]), float(ps_rel[3]))
    solve = geometry._kernel.ellipse_contact

    def failing(a, b, theta, psi, *args, **kwargs):
        out = solve(a, b, theta, psi, *args, **kwargs)
        return out[:4] + (False,) + out[5:] if (theta, psi) == bad else out

    monkeypatch.setattr(geometry._kernel, "ellipse_contact", failing)
    with pytest.raises(ConvergenceError) as in_block:
        d_beta(ELL, Beta(*angles.T))
    with pytest.raises(ConvergenceError) as alone:
        d_beta(ELL, Beta(*angles[3]))
    assert str(in_block.value) == str(alone.value)
    assert f"theta={bad[0]}, psi={bad[1]}" in str(in_block.value)


def test_beta_arrays_name_the_bad_field():
    good = np.array([0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match=r"angle thetabar must be finite, got nan at index 1"):
        Beta(good, np.array([0.0, math.nan, 1.0]), good)
    with pytest.raises(ValueError, match=r"angle psi has shape \(4,\)"):
        Beta(good, good, np.zeros(4))


@pytest.mark.parametrize("bad", [
    ["0.5", "1.5"],
    np.array([1j, 2.0]),
    np.array([0.5, 1.5], dtype=object),
], ids=["str-list", "complex", "object"])
def test_beta_arrays_refuse_a_non_real_angle_by_name(bad):
    # np.asarray(x, dtype=float) would read "0.5" and drop an imaginary part
    good = np.zeros(2)
    with pytest.raises(ValueError, match=r"^angle thetabar must be a real number, got "):
        Beta(good, bad, good)
    with pytest.raises(ValueError, match=r"^angle psi must be a real number, got "):
        Beta(good, good, bad)


def test_every_wrap_lands_in_the_half_open_circle():
    # x % 2pi rounds up to 2pi itself for a tiny negative x; each wrap takes
    # that to 0.0 and leaves every other value as x % 2pi gives it
    tiny = -1e-17
    assert tiny % (2.0 * math.pi) == 2.0 * math.pi
    assert wrap_angle(tiny) == 0.0
    assert wrap_angle(np.array([tiny, 1.0])).tolist() == [0.0, 1.0]
    assert Beta(tiny, tiny, tiny) == (0.0, 0.0, 0.0)
    assert Beta(*np.full((3, 2), tiny)).psi.tolist() == [0.0, 0.0]
    assert Beta(-tiny, 0.0, 0.0).reduced() == (0.0, 0.0)
    th_rel, ps_rel = Beta(np.full(2, -tiny), np.zeros(2), np.zeros(2)).reduced()
    assert th_rel.tolist() == ps_rel.tolist() == [0.0, 0.0]
    assert build_frame(ELL, Beta(-tiny, 0.0, 0.0)).reduced() == (0.0, 0.0)
    x = np.random.default_rng(32).uniform(-20.0, 20.0, 10_000)
    x = np.concatenate([x, [0.0, -0.0, 2.0 * math.pi, -2.0 * math.pi, math.pi, tiny]])
    wrapped = wrap_angle(x)
    assert ((0.0 <= wrapped) & (wrapped < 2.0 * math.pi)).all()
    plain = x % (2.0 * math.pi)
    kept = plain < 2.0 * math.pi
    assert np.array_equal(wrapped[kept], plain[kept])
    assert [wrap_angle(v) for v in x.tolist()] == wrapped.tolist()


@pytest.mark.parametrize("bad", ["0.5", b"0.5", None, 1j, [0.5]],
                         ids=["str", "bytes", "none", "complex", "list"])
def test_beta_refuses_a_non_real_angle_by_name(bad):
    # float() would read "0.5"; a pose takes real numbers only
    with pytest.raises(ValueError, match=r"^angle theta must be a real number, got "):
        Beta(bad, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"^angle psi must be a real number, got "):
        Beta(0.0, 1.0, bad)


def test_beta_names_a_non_finite_angle():
    with pytest.raises(ValueError, match=r"^angle thetabar must be finite, got inf$"):
        Beta(0.0, math.inf, 0.0)
    with pytest.raises(ValueError, match=r"^angle theta must be finite, got nan$"):
        Beta(np.float64(math.nan), 0.0, math.nan)


def test_beta_of_numpy_angles_is_beta_of_python_floats():
    # the benchmark and the verification suite build Beta(*rng.uniform(...)):
    # NumPy float64 angles give the Python floats' pose bit for bit, and a
    # Beta of (N,) arrays is the stack of its one-pose Betas
    rng = np.random.default_rng(31)
    angles = rng.uniform(-4.0 * math.pi, 6.0 * math.pi, (10_000, 3))
    angles[:4] = [[-1e-17, 0.0, -0.0], [2.0 * math.pi, -2.0 * math.pi, 4.0 * math.pi],
                  [math.pi, -math.pi, 1e-300], [-1e300, 1e300, 7.0]]
    one = [Beta(*row) for row in angles]
    assert {type(x) for beta in one for x in beta} == {float}
    bits = np.array(one).view(np.uint64)
    assert np.array_equal(bits, np.array([Beta(*row) for row in angles.tolist()]).view(np.uint64))
    assert np.array_equal(bits, np.array(Beta(*angles.T)).T.view(np.uint64))


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
