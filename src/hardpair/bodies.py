"""Reference particles: compact, strictly convex planar bodies.

A body is described in its own frame with the centroid at the origin. It
is its support function h, which is all the contact solve and the event
search read, together with its unit-density mass properties (mass m = area,
polar second moment J = integral of |y|^2 over the region) and the bound K
on |h''|. Disks and ellipses get closed forms. Any other analytic convex
body is given by a counterclockwise boundary map; make_implicit takes its
mass data and the Fourier series of h from quadrature sums on the boundary
and checks strict convexity by the sign of the curvature there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hardpair._kernel import ellipse_support

TWO_PI = 2.0 * math.pi
# Quadrature points of make_implicit's mass and support-function sums.
_N_QUAD = 4096
# How far make_implicit's total turning of the normal may miss 2pi.
_TURNING_TOL = 1e-6


class BodyValidationError(ValueError):
    """A body failed its geometric checks."""


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
        support: alpha -> (h, h', rho) at the body-frame direction e(alpha),
            the input of the contact solve.
    """

    kind: str
    m: float
    J: float
    a: float
    b: float
    K: float
    support: Callable[[float], tuple[float, float, float]]

    @property
    def diameter(self) -> float:
        return 2.0 * self.a


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
    return Body(
        kind="disk",
        m=math.pi * r * r,
        J=math.pi * r**4 / 2.0,
        a=r,
        b=r,
        K=0.0,
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
    return Body(
        kind="ellipse",
        m=math.pi * a * b,
        J=J,
        a=a,
        b=b,
        K=K,
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


def make_implicit(boundary: Callable[[np.ndarray], np.ndarray]) -> Body:
    """Body from a boundary map.

    Mass properties are computed from the boundary by Green's theorem with a
    trapezoidal rule on a uniform grid of _N_QUAD parameters (spectrally
    accurate for smooth periodic boundaries). The same sums give the Fourier
    series of the support function (_fourier_support), and with it K. The
    centroid must sit at the origin to 1e-8 because the collision bookkeeping
    assumes center-of-mass body frames. The body is strictly convex when its
    outward normal turns counterclockwise at every grid point, and once
    around in all.

    Args:
        boundary: an array of parameters s in [0, 2pi), shape (n,), -> the
            boundary points there, shape (n, 2), counterclockwise.
    """
    s = np.linspace(0.0, TWO_PI, _N_QUAD, endpoint=False)
    pts = np.asarray(boundary(s), dtype=float)
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
    dalpha = (dx * ddy - dy * ddx) / speed**2
    if not np.all(dalpha > 0):
        raise BodyValidationError(
            "curvature is not strictly positive; body must be strictly convex"
        )
    turning = float(np.sum(dalpha))
    if abs(turning - TWO_PI) > _TURNING_TOL:
        raise BodyValidationError(
            f"boundary must wind once around the body: its normal turns by {turning:.6f}, "
            f"not 2pi"
        )
    support, K = _fourier_support((x * dy - y * dx) / speed, np.arctan2(-dx, dy), dalpha)
    radii = np.hypot(x, y)
    return Body(
        kind="implicit",
        m=area,
        J=J,
        a=float(np.max(radii)),
        b=float(np.min(radii)),
        K=K,
        support=support,
    )
