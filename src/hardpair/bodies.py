"""Reference particles: compact, strictly convex planar bodies.

A body is described in its own frame with the centroid at the origin. It
carries unit-density mass properties (mass m = area, polar second moment
J = integral of |y|^2 over the region), a boundary parameterization
s -> c(s) for s in [0, 2pi), a level function b*(x, y) that is negative
inside, zero on the boundary, and positive outside, and its support function,
which is all the contact solve uses. Disks and ellipses get closed forms;
arbitrary analytic convex bodies can be supplied as callables, are validated
by sampling, and get their support function as a Fourier series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from hardpair._kernel import ellipse_support

TWO_PI = 2.0 * math.pi
# Quadrature points of make_implicit's mass and support-function sums.
_N_QUAD = 4096
# Random boundary parameters, and sweep points, of validate_body.
_N_CHECK = 1000


class BodyValidationError(ValueError):
    """A body failed its sampled geometric checks."""


@dataclass(frozen=True)
class Body:
    """Immutable convex reference particle.

    Fields:
        kind: "disk", "ellipse", or "implicit".
        m: mass (area at unit density), > 0.
        J: polar second moment about the centroid, > 0.
        a, b: semi-axes for disk/ellipse kinds (a >= b; a = b = r for disks).
            For implicit bodies these hold the sampled circumradius and
            inradius estimates and are used only for scaling heuristics.
        K: bound on |h''| = |rho - h| for the support function h (rho the
            radius of curvature at the support point), over all directions:
            exact for disks and ellipses, sum k^2 (|h_k| + rounding) over
            the Fourier coefficients h_k of h for implicit bodies. The
            event search bounds how fast a separating slab can close under
            rotation with it.
        boundary: s -> boundary point, shape (2,), counterclockwise.
        level: (x, y) -> scalar b*; must broadcast over numpy arrays.
        support: alpha -> (h, h', rho) at the body-frame direction e(alpha),
            the input of the contact solve.
    """

    kind: str
    m: float
    J: float
    a: float
    b: float
    K: float
    boundary: Callable[[float], np.ndarray]
    level: Callable[[np.ndarray, np.ndarray], np.ndarray]
    support: Callable[[float], tuple[float, float, float]]

    @property
    def radius(self) -> float:
        """Circumradius: max distance from centroid to boundary."""
        return self.a

    @property
    def diameter(self) -> float:
        return 2.0 * self.a

    def with_mass(self, m: float, J: float) -> "Body":
        """Same shape with overridden mass data (synthetic test bodies)."""
        if m <= 0 or J <= 0:
            raise ValueError(f"mass data must be positive, got m={m}, J={J}")
        return replace(self, m=float(m), J=float(J))


def mass_weights(m: float, J: float) -> np.ndarray:
    """The diagonal (sqrt(m) x4, sqrt(J) x2) of the mass weighting M, shape (6,).

    W = M V weights a velocity V = (v, vbar, omega, omegabar) so that |W|^2
    scales linear components by m and angular components by J; V = W / M
    undoes it.  m and J must be positive.
    """
    if m <= 0 or J <= 0:
        raise ValueError(f"mass data must be positive, got m={m}, J={J}")
    rm, rj = math.sqrt(m), math.sqrt(J)
    return np.array([rm, rm, rm, rm, rj, rj])


def make_disk(r: float) -> Body:
    """Disk of radius r: m = pi r^2, J = pi r^4 / 2.

    Args:
        r: radius, > 0.
    """
    if not (r > 0) or not math.isfinite(r):
        raise BodyValidationError(f"disk radius must be positive, got {r}")
    r = float(r)

    def boundary(s: float) -> np.ndarray:
        return np.array([r * math.cos(s), r * math.sin(s)])

    def level(x, y):
        return (x / r) ** 2 + (y / r) ** 2 - 1.0

    return Body(
        kind="disk",
        m=math.pi * r * r,
        J=math.pi * r**4 / 2.0,
        a=r,
        b=r,
        K=0.0,
        boundary=boundary,
        level=level,
        support=lambda alpha: (r, 0.0, r),
    )


def make_ellipse(a: float, b: float) -> Body:
    """Ellipse with semi-axes a >= b > 0: m = pi a b, J = pi a b (a^2+b^2)/4.

    The boundary is parameterized s -> (a cos s, b sin s).  rho - h is
    monotone in the support direction, from b^2/a - a on the major axis to
    a^2/b - b on the minor axis, so K = a^2/b - b exactly.  Axes whose J or
    K overflow, or whose a^2 b^2 (the support function's rho = a^2 b^2 /
    h^3) underflows to 0, raise BodyValidationError naming the axis.
    """
    if not (b > 0) or not math.isfinite(a) or not math.isfinite(b):
        raise BodyValidationError(f"ellipse axes must be positive, got a={a}, b={b}")
    if a < b:
        raise BodyValidationError(f"ellipse axes must satisfy a >= b, got a={a}, b={b}")
    a, b = float(a), float(b)
    J = math.pi * a * b * (a * a + b * b) / 4.0
    K = a * a / b - b
    if not (math.isfinite(J) and math.isfinite(K)):
        raise BodyValidationError(f"ellipse axis a={a} is too large: J or K overflows")
    if a * a * b * b == 0.0:
        raise BodyValidationError(f"ellipse axis b={b} is too small: a*a*b*b underflows to 0")

    def boundary(s: float) -> np.ndarray:
        return np.array([a * math.cos(s), b * math.sin(s)])

    def level(x, y):
        return (x / a) ** 2 + (y / b) ** 2 - 1.0

    return Body(
        kind="ellipse",
        m=math.pi * a * b,
        J=J,
        a=a,
        b=b,
        K=K,
        boundary=boundary,
        level=level,
        support=ellipse_support(a, b),
    )


def _fourier_support(h: np.ndarray, alpha: np.ndarray, dalpha: np.ndarray):
    """Support function of a body from its boundary samples, as a Fourier series.

    Sample j has outward-normal angle alpha_j, support value h_j and
    dalpha_j = alpha'(s_j) ds, so h_k = (1/2pi) int h e^{-ik alpha} dalpha
    is the trapezoid sum (1/2pi) sum_j h_j e^{-ik alpha_j} dalpha_j. The
    series stops once four modes in a row fall below tol = 1e-15 h_0, where
    the sums reach rounding. Returns the callable alpha -> (h, h', rho = h +
    h'') and K = sum over k of k^2 (|h_k| + tol), which bounds |h''|
    everywhere: each kept coefficient is taken at the top of its rounding
    error, which also covers the modes past the cut.
    """
    w = h * dalpha / TWO_PI
    z = np.exp(-1j * alpha)
    zk = np.ones_like(z)
    coef = [complex(np.sum(w))]
    tol = 1e-15 * coef[0].real
    quiet = 0
    while quiet < 4 and len(coef) < len(h) // 4:
        zk *= z
        coef.append(complex(w @ zk))
        quiet = quiet + 1 if abs(coef[-1]) < tol else 0
    # h = Re sum_{k >= 0} c_k e^{ik alpha}, with c_0 = h_0 and c_k = 2 h_k
    c = np.array(coef[: len(coef) - quiet])
    c[1:] *= 2.0
    k = np.arange(len(c))
    rows = np.stack([c, 1j * k * c, (1 - k * k) * c])

    def support(alpha: float) -> tuple[float, float, float]:
        h, dh, rho = (rows @ np.exp(1j * alpha * k)).real.tolist()
        return h, dh, rho

    return support, float(np.sum(k * k * (np.abs(c) + 2.0 * tol)))


def make_implicit(
    level: Callable[[np.ndarray, np.ndarray], np.ndarray],
    boundary: Callable[[float], np.ndarray],
) -> Body:
    """Body from user-supplied level function and boundary parameterization.

    Mass properties are computed from the boundary by Green's theorem with a
    trapezoidal rule on a uniform grid of _N_QUAD parameters (spectrally
    accurate for smooth periodic boundaries). The same sums give the Fourier
    series of the support function (_fourier_support), and with it K. The
    body is then validated by sampling; the centroid must sit at the origin to 1e-8
    because the collision bookkeeping assumes center-of-mass body frames.

    Args:
        level: b*(x, y), negative inside, zero on the boundary, positive
            outside; must broadcast over numpy arrays.
        boundary: s -> point on {b* = 0}, counterclockwise over [0, 2pi).
    """
    s = np.linspace(0.0, TWO_PI, _N_QUAD, endpoint=False)
    pts = np.array([boundary(float(v)) for v in s])
    x, y = pts[:, 0], pts[:, 1]

    # spectral differentiation on the periodic grid; trapezoid sums are then
    # spectrally accurate for analytic boundaries
    k = np.fft.rfftfreq(_N_QUAD, d=1.0 / _N_QUAD)
    k[-1] = 0.0  # drop the Nyquist mode from the derivative
    fx, fy = np.fft.rfft(x), np.fft.rfft(y)
    dx = np.fft.irfft(1j * k * fx, _N_QUAD) * (TWO_PI / _N_QUAD)
    dy = np.fft.irfft(1j * k * fy, _N_QUAD) * (TWO_PI / _N_QUAD)

    area = float(np.sum(x * dy - y * dx) / 2.0)
    if area <= 0:
        raise BodyValidationError(
            f"boundary must be counterclockwise with positive area, got {area}"
        )
    cx = float(np.sum(x * x * dy) / 2.0) / area
    cy = float(-np.sum(y * y * dx) / 2.0) / area
    if math.hypot(cx, cy) > 1e-8:
        raise BodyValidationError(
            f"centroid ({cx:.3e}, {cy:.3e}) exceeds 1e-8 from origin"
        )
    J = float(np.sum(x**3 * dy - y**3 * dx) / 3.0)

    # at each sample: the outward normal's angle alpha, its rate dalpha =
    # alpha'(s) ds = (c' x c'') / |c'|^2 ds and the support value h = c . n
    ddx = np.fft.irfft(-k * k * fx, _N_QUAD) * (TWO_PI / _N_QUAD) ** 2
    ddy = np.fft.irfft(-k * k * fy, _N_QUAD) * (TWO_PI / _N_QUAD) ** 2
    speed = np.hypot(dx, dy)
    support, K = _fourier_support(
        (x * dy - y * dx) / speed, np.arctan2(-dx, dy), (dx * ddy - dy * ddx) / speed**2
    )
    radii = np.hypot(x, y)
    body = Body(
        kind="implicit",
        m=area,
        J=J,
        a=float(np.max(radii)),
        b=float(np.min(radii)),
        K=K,
        boundary=boundary,
        level=level,
        support=support,
    )
    validate_body(body)
    return body


def boundary_point(body: Body, s: float) -> np.ndarray:
    """Point on the body boundary at parameter s (taken mod 2pi)."""
    return np.asarray(body.boundary(float(s % TWO_PI)), dtype=float)


def boundary_tangent(body: Body, s: float) -> np.ndarray:
    """Unnormalized boundary tangent dc/ds at parameter s."""
    s = float(s % TWO_PI)
    if body.kind in ("disk", "ellipse"):
        return np.array([-body.a * math.sin(s), body.b * math.cos(s)])
    h = 1e-5
    return (boundary_point(body, s + h) - boundary_point(body, s - h)) / (2 * h)


def outward_normal(body: Body, s: float) -> np.ndarray:
    """Unit outward normal at boundary parameter s.

    For disks and ellipses this is the normalized level-set gradient in
    closed form; for implicit bodies the finite-difference tangent is rotated
    clockwise (outward for a counterclockwise parameterization).
    """
    s = float(s % TWO_PI)
    if body.kind in ("disk", "ellipse"):
        n = np.array([body.b * math.cos(s), body.a * math.sin(s)])
    else:
        t = boundary_tangent(body, s)
        n = np.array([t[1], -t[0]])
    return n / np.linalg.norm(n)


def validate_body(body: Body) -> None:
    """Sampled geometric checks; raises BodyValidationError on failure.

    Checks, over _N_CHECK random boundary parameters plus a uniform sweep:
    boundary points lie on the zero level set (|b*| < 1e-12, relative to the
    local gradient scale), outward normals are orthogonal to finite-difference
    tangents (< 1e-8), discrete curvature is positive everywhere, and the
    level function has the correct sign just inside and outside.
    """
    if body.m <= 0 or body.J <= 0:
        raise BodyValidationError(f"mass data must be positive, got m={body.m}, J={body.J}")

    ss = np.random.default_rng(0).uniform(0.0, TWO_PI, _N_CHECK)
    for s in ss:
        p = boundary_point(body, s)
        val = float(body.level(p[0], p[1]))
        if abs(val) > 1e-12:
            raise BodyValidationError(
                f"boundary point at s={s:.6f} off the zero level set: b*={val:.3e}"
            )
        n = outward_normal(body, s)
        t = boundary_tangent(body, s)
        t = t / np.linalg.norm(t)
        if abs(float(n @ t)) > 1e-8:
            raise BodyValidationError(
                f"normal not orthogonal to tangent at s={s:.6f}"
            )
        # outwardness: normal points away from the centroid at the origin
        if float(n @ p) <= 0:
            raise BodyValidationError(f"normal points inward at s={s:.6f}")
        # normal agrees with the level-set gradient direction
        h = 1e-6 * body.b
        gx = float(body.level(p[0] + h, p[1]) - body.level(p[0] - h, p[1]))
        gy = float(body.level(p[0], p[1] + h) - body.level(p[0], p[1] - h))
        g = np.array([gx, gy])
        g = g / np.linalg.norm(g)
        if abs(1.0 - float(n @ g)) > 1e-6:
            raise BodyValidationError(
                f"normal disagrees with the level-set gradient at s={s:.6f}"
            )
        eps = 1e-6 * body.b
        if not float(body.level(*(p - eps * n))) < 0 < float(body.level(*(p + eps * n))):
            raise BodyValidationError(f"level-set sign pattern wrong near s={s:.6f}")

    sweep = np.linspace(0.0, TWO_PI, _N_CHECK, endpoint=False)
    pts = np.array([boundary_point(body, s) for s in sweep])
    prev = pts - np.roll(pts, 1, axis=0)
    nxt = np.roll(pts, -1, axis=0) - pts
    turn = prev[:, 0] * nxt[:, 1] - prev[:, 1] * nxt[:, 0]
    if not np.all(turn > 0):
        raise BodyValidationError(
            "discrete curvature is not strictly positive; body must be strictly convex"
        )
