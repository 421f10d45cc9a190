"""Body construction, mass data, and boundary validation."""

import math

import numpy as np
import pytest

from hardpair.bodies import (
    BodyValidationError,
    MassInertiaMatrix,
    boundary_point,
    boundary_tangent,
    make_disk,
    make_ellipse,
    make_implicit,
    mass_inertia_matrix,
    outward_normal,
    validate_body,
)


def test_disk_mass_data():
    r = 1.3
    disk = make_disk(r)
    assert disk.m == pytest.approx(math.pi * r**2, rel=1e-14)
    assert disk.J == pytest.approx(math.pi * r**4 / 2.0, rel=1e-14)
    assert disk.radius == r
    assert disk.diameter == 2.0 * r


def test_ellipse_mass_data():
    a, b = 2.0, 1.0
    ell = make_ellipse(a, b)
    assert ell.m == pytest.approx(math.pi * a * b, rel=1e-14)
    assert ell.J == pytest.approx(math.pi * a * b * (a**2 + b**2) / 4.0, rel=1e-14)
    assert ell.radius == a


def test_implicit_reproduces_ellipse_mass_data():
    a, b = 2.0, 1.0
    body = make_implicit(
        level=lambda x, y: (x / a) ** 2 + (y / b) ** 2 - 1.0,
        boundary=lambda s: np.array([a * math.cos(s), b * math.sin(s)]),
    )
    # spectral quadrature on an analytic boundary: machine-precision moments
    assert body.m == pytest.approx(math.pi * a * b, rel=1e-12)
    assert body.J == pytest.approx(math.pi * a * b * (a**2 + b**2) / 4.0, rel=1e-12)
    # the support-curvature bound from the boundary samples is an upper
    # bound on the exact a^2/b - b, and a tight one
    K = make_ellipse(a, b).K
    assert K <= body.K <= K * (1.0 + 1e-5)


def test_support_curvature_bound():
    # max |rho - h| over support directions: a^2/b - b on the minor axis
    # of an ellipse, 0 for a disk, whose rho equals h everywhere
    assert make_ellipse(2.0, 1.0).K == 3.0
    assert make_ellipse(1.0, 0.05).K == pytest.approx(19.95, rel=1e-14)
    assert make_disk(1.3).K == 0.0
    a, b = 5.0, 1.0
    alpha = np.linspace(0.0, 2.0 * math.pi, 10001)
    h = np.sqrt((a * np.cos(alpha)) ** 2 + (b * np.sin(alpha)) ** 2)
    rho = (a * b) ** 2 / h**3
    assert np.max(np.abs(rho - h)) == pytest.approx(make_ellipse(a, b).K, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_disk_rejects_nonpositive_radius(bad):
    with pytest.raises(BodyValidationError):
        make_disk(bad)


def test_ellipse_rejects_swapped_axes():
    with pytest.raises(BodyValidationError):
        make_ellipse(1.0, 2.0)


def test_implicit_rejects_offcenter_boundary():
    with pytest.raises(BodyValidationError):
        make_implicit(
            level=lambda x, y: (x - 0.5) ** 2 + y**2 - 1.0,
            boundary=lambda s: np.array([0.5 + math.cos(s), math.sin(s)]),
        )


def test_implicit_rejects_nonconvex_boundary():
    def radius(phi):
        return 1.0 + 0.5 * np.cos(2.0 * phi)

    with pytest.raises(BodyValidationError):
        make_implicit(
            level=lambda x, y: np.hypot(x, y) - radius(np.arctan2(y, x)),
            boundary=lambda s: radius(s) * np.array([math.cos(s), math.sin(s)]),
        )


def test_implicit_rejects_clockwise_boundary():
    with pytest.raises(BodyValidationError):
        make_implicit(
            level=lambda x, y: x**2 + y**2 - 1.0,
            boundary=lambda s: np.array([math.cos(-s), math.sin(-s)]),
        )


def test_boundary_frame_on_ellipse():
    ell = make_ellipse(2.0, 1.0)
    for s in np.linspace(0.0, 2.0 * math.pi, 17):
        p = boundary_point(ell, s)
        t = boundary_tangent(ell, s)
        n = outward_normal(ell, s)
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
        assert abs(t @ n) < 1e-10 * np.linalg.norm(t)
        assert p @ n > 0.0


def test_validate_accepts_standard_bodies():
    validate_body(make_disk(0.7))
    validate_body(make_ellipse(2.0, 1.0))


def test_mass_inertia_matrix_roundtrip():
    mim = mass_inertia_matrix(make_ellipse(2.0, 1.0))
    V = np.array([0.3, -1.2, 0.5, 0.9, -0.4, 2.0])
    assert np.allclose(mim.apply_inverse(mim.apply(V)), V, atol=1e-14)
    expect = np.diag(mim.matrix)
    m, J = make_ellipse(2.0, 1.0).m, make_ellipse(2.0, 1.0).J
    assert np.allclose(expect, [math.sqrt(m)] * 4 + [math.sqrt(J)] * 2)


def test_with_mass_override():
    ell = make_ellipse(2.0, 1.0)
    heavy = ell.with_mass(10.0, 5.0)
    assert heavy.m == 10.0 and heavy.J == 5.0
    assert heavy.a == ell.a
    with pytest.raises(ValueError):
        ell.with_mass(-1.0, 1.0)


def test_mass_inertia_matrix_rejects_bad_mass():
    with pytest.raises(ValueError):
        MassInertiaMatrix.from_mass(0.0, 1.0)
