"""Distance of closest approach and contact geometry for congruent convex pairs.

Canonical configuration: the first body sits at the origin with orientation 0,
the second is rotated by theta_rel and displaced by d e(psi_rel). D(theta, psi)
is the unique center separation at which the two bodies are externally
tangent; the full-pose distance is d_beta = D(thetabar - theta, psi - theta)
by rotation invariance.

Contact payload at tangency: the collision vector p (contact point from the
first body's center), the conjugate collision vector q = p - d e(psi) (same
point from the second body's center), the unit contact normal n (outward from
the first body), and the partial derivatives of D, which tie the contact
scalars to the gap-function gradient. The record is built once per solve,
already in the lab frame: closest_approach solves in the canonical pose and
writes p, q and n turned by the first body's orientation, in scalar
arithmetic. With lab-frame vectors and angles the identities read

    n  is parallel to  e(psi) - ((dD/dpsi)/d) e(psi)-perp
    p-perp . n = -(dD/dtheta + dD/dpsi) cos(phi)
    q-perp . n = -(dD/dtheta) cos(phi)

with cos(phi) = e(psi) . n = (1 + ((dD/dpsi)/d)^2)^(-1/2) and u-perp the
counterclockwise rotation (-u2, u1).

Every body, disks included, is solved the same way, on its support function:
D is the least support-line distance of the pair, one root-find in the
contact-normal angle alpha (_kernel), and the contact point, the normal and
both partials follow from alpha in closed form, the partials by the envelope
theorem.  Those partials satisfy the identities above by
construction, so the identities are checked on an independent route:
identity_residuals evaluates them with Richardson finite differences of D
(d_derivatives), and its fd_derivative_gap compares the shipped partials
against the same differences.  closest_approach_oracle checks D itself; it
takes the shape as its own level function and boundary map, not a Body, so
it never reads the support function the solve runs on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from hardpair import _kernel
from hardpair.bodies import Body

TWO_PI = 2.0 * math.pi
# Step of the finite differences of D that cross-check its partials.
FD_STEP = 1e-5
# The oracle's final bracket width, and its boundary samples per overlap test.
_ORACLE_TOL = 1e-9
_ORACLE_SAMPLES = 2048


class ConvergenceError(RuntimeError):
    """A numerical solve failed to converge."""


def wrap_angle(x: float) -> float:
    """Reduce an angle to [0, 2pi)."""
    return float(x % TWO_PI)


def rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def e_of(psi: float) -> np.ndarray:
    """Unit center-line direction e(psi) = (cos psi, sin psi)."""
    return np.array([math.cos(psi), math.sin(psi)])


def perp(u: np.ndarray) -> np.ndarray:
    """Counterclockwise quarter turn (-u2, u1)."""
    return np.array([-u[1], u[0]])


@dataclass(frozen=True)
class Beta:
    """Collision configuration angles (theta, thetabar, psi), each in [0, 2pi).

    theta and thetabar are the body orientations; psi is the direction angle
    of the center line from body 1 to body 2.  A non-finite angle raises
    ValueError naming it.
    """

    theta: float
    thetabar: float
    psi: float

    def __post_init__(self):
        angles = (("theta", self.theta), ("thetabar", self.thetabar), ("psi", self.psi))
        for name, value in angles:
            if not math.isfinite(value):
                raise ValueError(f"angle {name} must be finite, got {value!r}")
            object.__setattr__(self, name, wrap_angle(value))

    def reduced(self) -> tuple[float, float]:
        """Relative angles (thetabar - theta, psi - theta) mod 2pi."""
        return (wrap_angle(self.thetabar - self.theta), wrap_angle(self.psi - self.theta))

    def shifted(self, phi: float) -> "Beta":
        """Globally rotated configuration beta + (phi, phi, phi)."""
        return Beta(self.theta + phi, self.thetabar + phi, self.psi + phi)


@dataclass(frozen=True)
class ContactData:
    """Geometric payload of a tangent configuration.

    d is the center separation, p/q the contact point from each body's
    center, n the unit contact normal outward from body 1 (p, q and n in the
    frame closest_approach was asked for). s1/s2 place the contact point on
    each body in that body's frame: the boundary parameter s of (a cos s,
    b sin s) for an ellipse, the angle of the outward normal for disks and
    implicit bodies. dD_dtheta and dD_dpsi are the partial derivatives of D
    at the reduced angles, from the envelope theorem on the normal-angle
    solve; they are None unless the contact was requested with derivatives.
    """

    d: float
    p: np.ndarray
    q: np.ndarray
    n: np.ndarray
    s1: float
    s2: float
    dD_dtheta: Optional[float] = None
    dD_dpsi: Optional[float] = None

    def p_perp_n(self) -> float:
        (px, py), (nx, ny) = self.p.tolist(), self.n.tolist()
        return px * ny - py * nx

    def q_perp_n(self) -> float:
        (qx, qy), (nx, ny) = self.q.tolist(), self.n.tolist()
        return qx * ny - qy * nx


def _ellipse_oracle_fallback(body: Body, theta_rel: float, psi_rel: float) -> None:
    """The failure path of the contact solve for every body: raises ConvergenceError.

    The safeguarded normal-angle solve fails only on non-finite arithmetic
    or at its iteration cap, which no kernel sweep has reached; re-seeding
    mends neither.  The benchmark's tracer counts failures by this name.
    """
    raise ConvergenceError(
        f"contact solve failed at theta={theta_rel}, psi={psi_rel} "
        f"for the {body.kind} body (a={body.a}, b={body.b})"
    )


def _param_of_normal(body: Body, alpha: float) -> float:
    """s of the support point of body-frame direction e(alpha): the ellipse's
    boundary parameter, the normal angle itself for other bodies."""
    if body.kind == "ellipse":
        return math.atan2(body.b * math.sin(alpha), body.a * math.cos(alpha))
    return wrap_angle(alpha)


def _normal_of_param(body: Body, s: float) -> float:
    """Body-frame normal angle at s; inverts _param_of_normal."""
    if body.kind == "ellipse":
        return math.atan2(body.a * math.sin(s), body.b * math.cos(s))
    return s


def closest_approach(
    body: Body,
    theta_rel: float,
    psi_rel: float,
    *,
    theta: float = 0.0,
    derivatives: bool = False,
    _seed: Optional[ContactData] = None,
) -> ContactData:
    """Distance of closest approach and contact data, turned into the lab frame.

    The tangency problem is solved in the canonical pose; p, q and n are
    then written turned by theta, the first body's orientation.  theta = 0
    gives the canonical record.  _seed, a solve at a nearby pose, starts
    the normal-angle search from its normal.

    Args:
        body: reference particle (shared by both congruent bodies).
        theta_rel: orientation of the second body relative to the first.
        psi_rel: center-line direction relative to the first body's frame.
        theta: orientation of the first body; turns p, q and n.
        derivatives: also report dD/dtheta and dD/dpsi, which the solve
            gives by the envelope theorem.

    Raises:
        ConvergenceError: the contact solve did not converge.
    """
    warm = _seed is not None
    seed = _normal_of_param(body, _seed.s1) if warm else 0.0
    if body.kind == "ellipse":
        d, alpha, d_th, d_ps, ok = _kernel.ellipse_contact(
            body.a, body.b, theta_rel, psi_rel, seed, use_seed=warm
        )
    else:
        d, alpha, d_th, d_ps, ok = _kernel.support_contact(
            body.support, theta_rel, psi_rel, seed, use_seed=warm
        )
    if not ok:
        _ellipse_oracle_fallback(body, theta_rel, psi_rel)
    s1 = _param_of_normal(body, alpha)
    s2 = _param_of_normal(body, alpha + math.pi - theta_rel)
    # the support point of e(alpha): p = h e(alpha) + h' e(alpha)-perp
    nx, ny = math.cos(alpha), math.sin(alpha)
    h, dh, _ = body.support(alpha)
    px, py = h * nx - dh * ny, h * ny + dh * nx

    qx, qy = px - d * math.cos(psi_rel), py - d * math.sin(psi_rel)
    c, s = math.cos(theta), math.sin(theta)
    return ContactData(
        d=d,
        p=np.array((c * px - s * py, s * px + c * py)),
        q=np.array((c * qx - s * qy, s * qx + c * qy)),
        n=np.array((c * nx - s * ny, s * nx + c * ny)),
        s1=s1,
        s2=s2,
        dD_dtheta=d_th if derivatives else None,
        dD_dpsi=d_ps if derivatives else None,
    )


def ellipse_shape(a: float, b: float):
    """The (a, b) ellipse for closest_approach_oracle: its level function
    and its boundary map t -> (a cos t, b sin t)."""

    def level(x, y):
        return (x / a) ** 2 + (y / b) ** 2 - 1.0

    return level, lambda t: np.stack([a * np.cos(t), b * np.sin(t)], axis=1)


def _overlap(level, boundary, theta: float, psi: float, d: float, t: np.ndarray,
             bnd: np.ndarray) -> bool:
    """Sampled overlap predicate at separation d.

    t is a uniform grid of parameters and bnd the boundary points there.
    Each direction takes a localization pass over bnd and a refinement pass
    of as many points concentrated around the deepest candidate, keeping the
    detection bias far below the bisection tolerances in use.
    """
    half = len(t)
    Rm = rotation(theta)
    off = d * e_of(psi)
    dt = TWO_PI / half
    # the second body's boundary in the first body's frame, then the first's
    # in the second's
    for place in (lambda pts: pts @ Rm.T + off, lambda pts: (pts - off) @ Rm):
        pts = place(bnd)
        j = int(np.argmin(np.asarray(level(pts[:, 0], pts[:, 1]))))
        fine = place(boundary(t[j] + np.linspace(-2 * dt, 2 * dt, half)))
        if bool(np.any(np.asarray(level(fine[:, 0], fine[:, 1])) < 0.0)):
            return True
    return False


def closest_approach_oracle(level, boundary, theta_rel: float, psi_rel: float) -> float:
    """Independent route to D: bisection on the sampled overlap predicate.

    The shape comes as its own level function (negative inside, broadcasting
    over arrays) and boundary map (parameters, shape (n,), to points, shape
    (n, 2)), not as a Body, so nothing here reads the support function the
    contact solve runs on; ellipse_shape gives both for an ellipse.
    Monotone in d by convexity (the overlap set in d is an interval starting
    at 0), so plain bisection from the sampled in- and circumradius brackets
    the tangency separation.  The bracket narrows to _ORACLE_TOL, or until
    its ends are adjacent floats; each overlap test spends _ORACLE_SAMPLES
    boundary samples.
    """
    t = np.linspace(0.0, TWO_PI, _ORACLE_SAMPLES // 2, endpoint=False)
    bnd = boundary(t)
    radii = np.hypot(bnd[:, 0], bnd[:, 1])
    inner, diameter = float(np.min(radii)), 2.0 * float(np.max(radii))

    def overlap(d):
        return _overlap(level, boundary, theta_rel, psi_rel, d, t, bnd)

    lo = 1e-3 * inner
    hi = diameter + inner
    if not overlap(lo):
        raise ConvergenceError("overlap predicate false at near-zero separation")
    while overlap(hi):
        hi *= 2.0
        if hi > 4.0 * diameter:
            raise ConvergenceError(
                f"no separation bracket below 4x diameter for theta={theta_rel}, psi={psi_rel}"
            )
    while hi - lo > _ORACLE_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if overlap(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def d_beta(body: Body, beta: Beta, *, derivatives: bool = False) -> ContactData:
    """Contact data for the full configuration, in the lab frame.

    The solve runs at the reduced angles (thetabar - theta, psi - theta);
    p, q and n come back turned by the first body's orientation. d and the
    D-derivatives are rotation invariants.
    """
    th_rel, ps_rel = beta.reduced()
    return closest_approach(body, th_rel, ps_rel, theta=beta.theta, derivatives=derivatives)


def d_derivatives(
    body: Body,
    theta_rel: float,
    psi_rel: float,
    *,
    _seed: Optional[ContactData] = None,
) -> tuple[float, float]:
    """Partial derivatives of D at (theta_rel, psi_rel) by finite differences.

    Richardson-extrapolated central differences with steps FD_STEP and
    FD_STEP/2; the stencil solves are warm-started from _seed, a solve at
    the center, or from one made here. This is the independent reference
    for the envelope derivatives of closest_approach.
    """
    h = FD_STEP
    seed = _seed if _seed is not None else closest_approach(body, theta_rel, psi_rel)

    def dval(th: float, ps: float) -> float:
        return closest_approach(body, th, ps, _seed=seed).d

    def richardson(f) -> float:
        a1 = (f(h) - f(-h)) / (2.0 * h)
        a2 = (f(h / 2) - f(-h / 2)) / h
        return (4.0 * a2 - a1) / 3.0

    dd_theta = richardson(lambda dx: dval(theta_rel + dx, psi_rel))
    dd_psi = richardson(lambda dx: dval(theta_rel, psi_rel + dx))
    return dd_theta, dd_psi


def _direction_residual(u: np.ndarray, v: np.ndarray) -> float:
    """|1 - |cos angle|| between two nonzero vectors; sign-agnostic."""
    uu = u / np.linalg.norm(u)
    vv = v / np.linalg.norm(v)
    return float(abs(1.0 - abs(uu @ vv)))


def identity_residuals(
    body: Body, beta: Beta, *, contact: Optional[ContactData] = None
) -> dict:
    """Cross-check of the contact identities and of the derivatives of D.

    The identities are evaluated with finite differences of D with step
    FD_STEP (d_derivatives), not with the derivatives closest_approach
    returns: those come from the contact normal by the envelope theorem, so
    they satisfy the identities by construction.  Returns a report with the
    asserted residuals (direction collinearity of n with its derivative
    form, relative error of the contact scalars, direction collinearity of
    M nu with gamma-hat), the fd_derivative_gap between the shipped
    derivatives and the finite differences (the largest difference, relative
    to the larger of d and the partials, so a partial that vanishes by
    symmetry does not inflate it), plus an `as_printed` block with the
    residuals of the historically circulated variants of the same identities
    (theta/psi swapped in the normal direction, flipped signs in the scalar
    blocks), which are reported for reference and are expected to be large.

    contact, the lab-frame result of d_beta(body, beta, derivatives=True),
    saves the solve when the caller already holds it; the finite differences
    are seeded from it.
    """
    c = contact if contact is not None else d_beta(body, beta, derivatives=True)
    fd_theta, fd_psi = d_derivatives(body, *beta.reduced(), _seed=c)
    fd_gap = max(abs(c.dD_dtheta - fd_theta), abs(c.dD_dpsi - fd_psi)) / max(
        c.d, abs(fd_theta), abs(fd_psi)
    )
    ev = e_of(beta.psi)
    evp = perp(ev)
    ntil = ev - (fd_psi / c.d) * evp
    cosphi = 1.0 / math.sqrt(1.0 + (fd_psi / c.d) ** 2)
    pn = c.p_perp_n()
    qn = c.q_perp_n()
    dsum = fd_theta + fd_psi

    m_nu_raw = np.concatenate([-c.n, c.n, [-pn, qn]])
    gam = np.concatenate([-ntil, ntil, [dsum, -fd_theta]])
    gam_flipped = np.concatenate([-ntil, ntil, [-dsum, fd_theta]])
    ntil_swapped = ev - (fd_theta / c.d) * evp

    return {
        "d": c.d,
        "p_perp_n": pn,
        "q_perp_n": qn,
        "dD_dtheta": c.dD_dtheta,
        "dD_dpsi": c.dD_dpsi,
        "fd_derivative_gap": fd_gap,
        "n_direction": _direction_residual(c.n, ntil),
        "p_scalar": abs(pn - (-dsum * cosphi)) / (1.0 + abs(pn)),
        "q_scalar": abs(qn - (-fd_theta * cosphi)) / (1.0 + abs(qn)),
        "m_nu_gamma": _direction_residual(m_nu_raw, gam),
        "as_printed": {
            "n_direction_theta_swap": _direction_residual(c.n, ntil_swapped),
            "p_scalar_plus_sign": abs(pn - (dsum * cosphi)) / (1.0 + abs(pn)),
            "gamma_scalar_sign_flip": _direction_residual(m_nu_raw, gam_flipped),
        },
    }
