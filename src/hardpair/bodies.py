"""Reference particles: compact, strictly convex planar bodies.

A body is described in its own frame with the centroid at the origin. It
carries unit-density mass properties (mass m = area, polar second moment
J = integral of |y|^2 over the region), a boundary parameterization
s -> c(s) for s in [0, 2pi), and a level function b*(x, y) that is negative
inside, zero on the boundary, and positive outside. Disks and ellipses get
closed forms; arbitrary analytic convex bodies can be supplied as callables
and are validated by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi


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
            radius of curvature at the support point), over all directions;
            the event search bounds how fast a separating slab can close
            under rotation with it.
        boundary: s -> boundary point, shape (2,), counterclockwise.
        level: (x, y) -> scalar b*; must broadcast over numpy arrays.
    """

    kind: str
    m: float
    J: float
    a: float
    b: float
    K: float
    boundary: Callable[[float], np.ndarray]
    level: Callable[[np.ndarray, np.ndarray], np.ndarray]

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


@dataclass(frozen=True)
class MassInertiaMatrix:
    """Diagonal weighting diag(sqrt(m) x4, sqrt(J) x2) of velocity 6-vectors.

    Applied to V = (v, vbar, omega, omegabar), its square scales linear
    components by m and angular components by J.
    """

    diag: np.ndarray

    @classmethod
    def from_mass(cls, m: float, J: float) -> "MassInertiaMatrix":
        if m <= 0 or J <= 0:
            raise ValueError(f"mass data must be positive, got m={m}, J={J}")
        rm, rj = math.sqrt(m), math.sqrt(J)
        return cls(diag=np.array([rm, rm, rm, rm, rj, rj]))

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.diag)

    def apply(self, V: np.ndarray) -> np.ndarray:
        return self.diag * V

    def apply_inverse(self, V: np.ndarray) -> np.ndarray:
        return V / self.diag


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
    )


def make_ellipse(a: float, b: float) -> Body:
    """Ellipse with semi-axes a >= b > 0: m = pi a b, J = pi a b (a^2+b^2)/4.

    The boundary is parameterized s -> (a cos s, b sin s).  rho - h is
    monotone in the support direction, from b^2/a - a on the major axis to
    a^2/b - b on the minor axis, so K = a^2/b - b exactly.
    """
    if not (b > 0) or not math.isfinite(a) or not math.isfinite(b):
        raise BodyValidationError(f"ellipse axes must be positive, got a={a}, b={b}")
    if a < b:
        raise BodyValidationError(f"ellipse axes must satisfy a >= b, got a={a}, b={b}")
    a, b = float(a), float(b)

    def boundary(s: float) -> np.ndarray:
        return np.array([a * math.cos(s), b * math.sin(s)])

    def level(x, y):
        return (x / a) ** 2 + (y / b) ** 2 - 1.0

    return Body(
        kind="ellipse",
        m=math.pi * a * b,
        J=math.pi * a * b * (a * a + b * b) / 4.0,
        a=a,
        b=b,
        K=a * a / b - b,
        boundary=boundary,
        level=level,
    )


def make_implicit(
    level: Callable[[np.ndarray, np.ndarray], np.ndarray],
    boundary: Callable[[float], np.ndarray],
    n_quad: int = 4096,
) -> Body:
    """Body from user-supplied level function and boundary parameterization.

    Mass properties are computed from the boundary by Green's theorem with a
    trapezoidal rule on a uniform parameter grid (spectrally accurate for
    smooth periodic boundaries). The support-curvature bound K is the largest
    |rho - h| over the same grid plus the most a maximum between grid points
    can exceed it, bounded through the second derivative of the samples'
    Fourier series, so K is an upper bound. The body is then validated by
    sampling; the centroid must sit at the origin to 1e-8 because the
    collision bookkeeping assumes center-of-mass body frames.

    Args:
        level: b*(x, y), negative inside, zero on the boundary, positive
            outside; must broadcast over numpy arrays.
        boundary: s -> point on {b* = 0}, counterclockwise over [0, 2pi).
        n_quad: quadrature points for the mass-property integrals.
    """
    s = np.linspace(0.0, TWO_PI, n_quad, endpoint=False)
    pts = np.array([boundary(float(v)) for v in s])
    x, y = pts[:, 0], pts[:, 1]

    # spectral differentiation on the periodic grid; trapezoid sums are then
    # spectrally accurate for analytic boundaries
    k = np.fft.rfftfreq(n_quad, d=1.0 / n_quad)
    if n_quad % 2 == 0:
        k[-1] = 0.0  # drop the Nyquist mode from the derivative
    fx, fy = np.fft.rfft(x), np.fft.rfft(y)
    dx = np.fft.irfft(1j * k * fx, n_quad) * (TWO_PI / n_quad)
    dy = np.fft.irfft(1j * k * fy, n_quad) * (TWO_PI / n_quad)

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

    # at each sample: radius of curvature rho = |c'|^3 / (c' x c'') and
    # support value h = c . n, n = (y', -x') / |c'| the outward normal
    ddx = np.fft.irfft(-k * k * fx, n_quad) * (TWO_PI / n_quad) ** 2
    ddy = np.fft.irfft(-k * k * fy, n_quad) * (TWO_PI / n_quad) ** 2
    speed = np.hypot(dx, dy)
    rho = speed**3 / (dx * ddy - dy * ddx)
    h = (x * dy - y * dx) / speed

    # the largest sample of |rho - h| falls short of the maximum by at most
    # (1/2) (ds/2)^2 max |(rho - h)''|, and sum k^2 |f_k| over the DFT
    # coefficients f_k of the samples bounds that second derivative
    f = rho - h
    freq = np.fft.fftfreq(n_quad, d=1.0 / n_quad)
    f2_bound = float(np.sum(freq * freq * np.abs(np.fft.fft(f)))) / n_quad
    radii = np.hypot(x, y)
    body = Body(
        kind="implicit",
        m=area,
        J=J,
        a=float(np.max(radii)),
        b=float(np.min(radii)),
        K=float(np.max(np.abs(f))) + 0.5 * (0.5 * TWO_PI / n_quad) ** 2 * f2_bound,
        boundary=boundary,
        level=level,
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


def mass_inertia_matrix(body: Body) -> MassInertiaMatrix:
    """The diagonal weighting diag(sqrt(m) x4, sqrt(J) x2) for this body."""
    return MassInertiaMatrix.from_mass(body.m, body.J)


def validate_body(body: Body, n_check: int = 1000, rng_seed: int = 0) -> None:
    """Sampled geometric checks; raises BodyValidationError on failure.

    Checks, over n_check random boundary parameters plus a uniform sweep:
    boundary points lie on the zero level set (|b*| < 1e-12, relative to the
    local gradient scale), outward normals are orthogonal to finite-difference
    tangents (< 1e-8), discrete curvature is positive everywhere, and the
    level function has the correct sign just inside and outside.
    """
    if body.m <= 0 or body.J <= 0:
        raise BodyValidationError(f"mass data must be positive, got m={body.m}, J={body.J}")

    rng = np.random.default_rng(rng_seed)
    ss = rng.uniform(0.0, TWO_PI, n_check)
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

    sweep = np.linspace(0.0, TWO_PI, n_check, endpoint=False)
    pts = np.array([boundary_point(body, s) for s in sweep])
    prev = pts - np.roll(pts, 1, axis=0)
    nxt = np.roll(pts, -1, axis=0) - pts
    turn = prev[:, 0] * nxt[:, 1] - prev[:, 1] * nxt[:, 0]
    if not np.all(turn > 0):
        raise BodyValidationError(
            "discrete curvature is not strictly positive; body must be strictly convex"
        )
