"""Body construction, mass data, and the checks on implicit bodies."""

import math

import numpy as np
import pytest

from hardpair.bodies import (
    BodyValidationError,
    make_ellipse,
    make_implicit,
    mass_weights,
)
from body_helpers import ellipse_boundary


def _circle(turns=1.0, sign=1.0, center=(0.0, 0.0)):
    """Boundary map of the unit circle, traced `turns` times in direction sign."""
    def boundary(s):
        u = sign * turns * s
        return np.stack([center[0] + np.cos(u), center[1] + np.sin(u)], axis=1)

    return boundary


def test_disk_mass_data():
    r = 1.3
    disk = make_ellipse(r, r)
    assert disk.m == pytest.approx(math.pi * r**2, rel=1e-14)
    assert disk.J == pytest.approx(math.pi * r**4 / 2.0, rel=1e-14)
    assert disk.a == disk.b == r
    assert disk.diameter == 2.0 * r


def test_ellipse_mass_data():
    a, b = 2.0, 1.0
    ell = make_ellipse(a, b)
    assert ell.m == pytest.approx(math.pi * a * b, rel=1e-14)
    assert ell.J == pytest.approx(math.pi * a * b * (a**2 + b**2) / 4.0, rel=1e-14)
    assert (ell.a, ell.b) == (a, b)


def test_implicit_reproduces_ellipse_mass_data():
    a, b = 2.0, 1.0
    body = make_implicit(ellipse_boundary(a, b))
    # spectral quadrature on an analytic boundary: machine-precision moments
    assert body.m == pytest.approx(math.pi * a * b, rel=1e-12)
    assert body.J == pytest.approx(math.pi * a * b * (a**2 + b**2) / 4.0, rel=1e-12)
    # the support-curvature bound from the support function's Fourier
    # coefficients is an upper bound on the exact a^2/b - b, and a tight one
    K = make_ellipse(a, b).K
    assert K <= body.K <= K * (1.0 + 1e-5)


def test_support_curvature_bound():
    # max |rho - h| over support directions: a^2/b - b on the minor axis
    # of an ellipse, 0 for a disk, whose rho equals h everywhere
    assert make_ellipse(2.0, 1.0).K == 3.0
    assert make_ellipse(1.0, 0.05).K == pytest.approx(19.95, rel=1e-14)
    assert make_ellipse(1.3, 1.3).K == 0.0
    a, b = 5.0, 1.0
    alpha = np.linspace(0.0, 2.0 * math.pi, 10001)
    h = np.sqrt((a * np.cos(alpha)) ** 2 + (b * np.sin(alpha)) ** 2)
    rho = (a * b) ** 2 / h**3
    assert np.max(np.abs(rho - h)) == pytest.approx(make_ellipse(a, b).K, rel=1e-12)


def test_support_curvature_bound_is_never_negative():
    # K = (a - b)(a + b)/b: a - b cannot round below 0 for a >= b, so K is
    # exactly 0 on every circle, where a^2/b - b rounded below 0 on some
    rng = np.random.default_rng(29)
    radii = np.exp(rng.uniform(math.log(0.01), math.log(100.0), 10000)).tolist()
    assert [r for r in radii + [1.6478106158273977] if make_ellipse(r, r).K != 0.0] == []
    for r, u in zip(radii, rng.uniform(0.0, 1.0, len(radii)).tolist()):
        for a in (math.nextafter(r, math.inf), r * (1.0 + 1e-15 * u), r * (1.0 + u)):
            assert make_ellipse(a, r).K >= 0.0


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_disk_rejects_nonpositive_radius(bad):
    with pytest.raises(BodyValidationError):
        make_ellipse(bad, bad)


def test_ellipse_rejects_swapped_axes():
    with pytest.raises(BodyValidationError):
        make_ellipse(1.0, 2.0)


def test_implicit_rejects_offcenter_boundary():
    with pytest.raises(BodyValidationError, match="centroid"):
        make_implicit(_circle(center=(0.5, 0.0)))


def test_implicit_centroid_bound_scales_with_the_body():
    # the bound is 1e-8 equal-area radii: an absolute 1e-8 let a tiny body
    # be taken about a point 2.5 semi-axes off its centroid, and refused a
    # centered large one over the rounding of its centroid sums
    tiny = ellipse_boundary(2e-9, 1e-9)
    with pytest.raises(BodyValidationError, match="centroid"):
        make_implicit(lambda s: tiny(s) + np.array([5e-9, 0.0]))
    large = make_implicit(ellipse_boundary(2e9, 1e9))
    assert large.m == pytest.approx(math.pi * 2e18, rel=1e-12)
    assert large.a == pytest.approx(2e9, rel=1e-6)


def test_implicit_rejects_nonconvex_boundary():
    # r(phi) = 1 + 0.5 cos 2 phi is centered but dented at phi = pi/2: the
    # curvature (c' x c'') / |c'|^2 changes sign there
    def boundary(s):
        r = 1.0 + 0.5 * np.cos(2.0 * s)
        return r[:, None] * np.stack([np.cos(s), np.sin(s)], axis=1)

    with pytest.raises(BodyValidationError, match="strictly convex"):
        make_implicit(boundary)


def test_implicit_rejects_clockwise_boundary():
    with pytest.raises(BodyValidationError, match="counterclockwise"):
        make_implicit(_circle(sign=-1.0))


def test_implicit_rejects_a_boundary_that_winds_twice():
    # the unit circle traced twice has positive curvature everywhere and its
    # centroid at the origin, but it would count its area twice (m = 2 pi)
    # and its support function double (h = 2), so D = 4 instead of 2
    with pytest.raises(BodyValidationError, match="wind once"):
        make_implicit(_circle(turns=2.0))
    circle = make_implicit(_circle())
    assert circle.m == pytest.approx(math.pi, rel=1e-12)
    assert circle.support(0.3)[0] == pytest.approx(1.0, rel=1e-12)


def test_implicit_rejects_a_body_its_series_cannot_resolve():
    # past ratio 7.5 the support function's series never goes quiet on the
    # grid and K comes out ~1e6 times too large; at ratio 7 it is exact
    assert make_implicit(ellipse_boundary(7.0, 1.0)).K == pytest.approx(48.0, rel=1e-8)
    with pytest.raises(BodyValidationError, match="too elongated"):
        make_implicit(ellipse_boundary(8.0, 1.0))


def test_mass_inertia_matrix_roundtrip():
    # M = diag(mass_weights): W = M V, V = W / M, and |M V|^2 is twice the
    # kinetic energy
    ell = make_ellipse(2.0, 1.0)
    diag = mass_weights(ell.m, ell.J)
    V = np.array([0.3, -1.2, 0.5, 0.9, -0.4, 2.0])
    assert np.allclose((diag * V) / diag, V, atol=1e-14)
    assert np.allclose(diag, [math.sqrt(ell.m)] * 4 + [math.sqrt(ell.J)] * 2)
    ke = ell.m * float(V[0:4] @ V[0:4]) + ell.J * float(V[4:6] @ V[4:6])
    assert float((diag * V) @ (diag * V)) == pytest.approx(ke, rel=1e-14)


def test_mass_inertia_matrix_rejects_bad_mass():
    for m, J in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)):
        with pytest.raises(ValueError, match="mass data must be positive"):
            mass_weights(m, J)


@pytest.mark.parametrize("turn", [0.0, 0.7])
def test_implicit_diameter_bounds_the_body(turn):
    # the (2,1) ellipse turned by `turn` and parameterized from half a grid
    # step past its vertex, so that no boundary sample is a farthest point:
    # the largest sampled radius falls short of 2, the diameter must not
    half_step = math.pi / 4096
    c, s = math.cos(turn), math.sin(turn)

    def boundary(t):
        x, y = 2.0 * np.cos(t + half_step), np.sin(t + half_step)
        return np.stack([c * x - s * y, s * x + c * y], axis=1)

    body = make_implicit(boundary)
    assert 4.0 <= body.diameter <= 4.0 + 1e-5
