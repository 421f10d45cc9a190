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

For ellipses the derivatives come from the same tangency solve that gives D:
the implicit-function theorem on the 3x3 tangency system, evaluated at the
converged contact, so one kernel solve yields D and both partials. They do
not use the identities above, which therefore remain a real check: the test
suite and `verify` evaluate the identities with these derivatives and compare
the derivatives against Richardson finite differences of D (d_derivatives).
Disks have constant D; implicit bodies take the finite-difference route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from hardpair import _kernel
from hardpair.bodies import Body, boundary_point, outward_normal

TWO_PI = 2.0 * math.pi


class ConvergenceError(RuntimeError):
    """A numerical solve failed to converge; carries the best estimate found."""


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
    frame closest_approach was asked for), s1/s2 the boundary parameters of
    the contact point on each body. dD_dtheta and dD_dpsi are the partial
    derivatives of D at the reduced angles; they are None unless the contact
    was requested with derivatives.
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


def _support_param(body: Body, u: np.ndarray, grid: np.ndarray, pts: np.ndarray) -> float:
    """Boundary parameter of the support point of an implicit body along u."""
    vals = pts @ u
    j = int(np.argmax(vals))
    n = len(grid)
    dt = TWO_PI / n
    # parabolic refinement through the three neighboring samples
    f0, f1, f2 = vals[(j - 1) % n], vals[j], vals[(j + 1) % n]
    denom = f0 - 2.0 * f1 + f2
    s = grid[j]
    if denom != 0.0:
        s = grid[j] + 0.5 * dt * (f0 - f2) / denom
    # Newton steps on f'(s) = c'(s) . u with finite differences
    h = 1e-6
    for _ in range(30):
        cp = (boundary_point(body, s + h) - boundary_point(body, s - h)) / (2 * h)
        cpp = (
            boundary_point(body, s + h)
            - 2.0 * boundary_point(body, s)
            + boundary_point(body, s - h)
        ) / (h * h)
        f1d = float(cp @ u)
        f2d = float(cpp @ u)
        if f2d == 0.0:
            break
        step = f1d / f2d
        s -= step
        if abs(step) < 1e-12:
            break
    return s


def _generic_contact(body: Body, theta: float, psi: float) -> tuple[float, float, float]:
    """Callable-based tangency solve for implicit bodies.

    Scalar root-find in the contact-normal angle alpha: for each candidate
    normal the two support points are located on the boundaries, the implied
    separation follows from matching support lines, and the transverse
    mismatch g(alpha) of the support points is driven to zero by bisection.
    """
    Rm = rotation(theta)
    ev = e_of(psi)
    n_grid = 256
    grid = np.linspace(0.0, TWO_PI, n_grid, endpoint=False)
    pts = np.array([boundary_point(body, s) for s in grid])

    def eval_alpha(alpha: float):
        u = np.array([math.cos(alpha), math.sin(alpha)])
        s1 = _support_param(body, u, grid, pts)
        w = -(Rm.T @ u)
        s2 = _support_param(body, w, grid, pts)
        p1 = boundary_point(body, s1)
        p2 = Rm @ boundary_point(body, s2)
        diff = p1 - p2
        d = float(diff @ u) / float(ev @ u)
        g = float((diff - d * ev) @ perp(u))
        return g, d, s1, s2

    lo = psi - math.pi / 2 + 0.02
    hi = psi + math.pi / 2 - 0.02
    alphas = np.linspace(lo, hi, 64)
    g_prev, d_prev, *_ = eval_alpha(float(alphas[0]))
    bracket = None
    for al in alphas[1:]:
        g_cur, d_cur, *_ = eval_alpha(float(al))
        if g_prev == 0.0 or g_prev * g_cur < 0.0:
            bracket = (float(al) - (alphas[1] - alphas[0]), float(al), g_prev)
            break
        g_prev, d_prev = g_cur, d_cur
    if bracket is None:
        raise ConvergenceError(
            f"no tangency bracket for implicit body at theta={theta}, psi={psi}"
        )
    x0, x1, g0 = bracket
    for _ in range(60):
        xm = 0.5 * (x0 + x1)
        gm, dm, s1m, s2m = eval_alpha(xm)
        if gm == 0.0:
            break
        if g0 * gm < 0.0:
            x1 = xm
        else:
            x0, g0 = xm, gm
    gm, dm, s1m, s2m = eval_alpha(0.5 * (x0 + x1))
    if not (dm > 0.0):
        raise ConvergenceError(
            f"implicit tangency solve returned non-positive separation {dm}"
        )
    return dm, s1m, s2m


def _ellipse_oracle_fallback(
    body: Body, theta_rel: float, psi_rel: float, best_d: float, best_resid: float
) -> tuple[float, float, float]:
    """Re-seed the ellipse Newton solve from a tight bisection bracket.

    Runs when the cold kernel solve fails: the overlap-bisection oracle
    pins d to 1e-10, the near-touching boundary points seed (s1, s2), and
    Newton is retried from there. Raises ConvergenceError with the best
    estimate if even the re-seeded solve fails.
    """
    d_oracle = closest_approach_oracle(body, theta_rel, psi_rel, 1e-10)
    Rm = rotation(theta_rel)
    off = d_oracle * e_of(psi_rel)
    t = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    pts2 = _boundary_samples(body, t) @ Rm.T + off
    j = int(np.argmin(np.asarray(body.level(pts2[:, 0], pts2[:, 1]))))
    contact = pts2[j]
    s1_seed = math.atan2(contact[1] / body.b, contact[0] / body.a)
    d, s1, s2, resid, ok = _kernel.ellipse_contact(
        body.a, body.b, theta_rel, psi_rel, s1_seed, float(t[j]), d_oracle, True
    )
    if not ok:
        raise ConvergenceError(
            f"ellipse tangency solve failed at theta={theta_rel}, psi={psi_rel}; "
            f"best bracket d={d_oracle} (bisection, tol 1e-10), "
            f"cold-solve residual={best_resid}"
        )
    return d, s1, s2


def closest_approach(
    body: Body,
    theta_rel: float,
    psi_rel: float,
    *,
    theta: float = 0.0,
    derivatives: bool = False,
    _seed: Optional[tuple[float, float, float]] = None,
) -> ContactData:
    """Distance of closest approach and contact data, turned into the lab frame.

    The tangency problem is solved in the canonical pose; p, q and n are
    then written turned by theta, the first body's orientation.  theta = 0
    gives the canonical record.

    Args:
        body: reference particle (shared by both congruent bodies).
        theta_rel: orientation of the second body relative to the first.
        psi_rel: center-line direction relative to the first body's frame.
        theta: orientation of the first body; turns p, q and n.
        derivatives: also compute dD/dtheta and dD/dpsi. Ellipses take them
            from the Jacobian of the converged tangency system, with no
            further solve; disks get exact zeros; implicit bodies use
            Richardson-extrapolated finite differences (d_derivatives).

    Raises:
        ConvergenceError: the tangency solve did not converge; the message
            reports the best estimate found.
    """
    dd = (0.0, 0.0) if derivatives else (None, None)
    if body.kind == "disk":
        # disks touch at the center-line midpoint for every pose
        d = 2.0 * body.a
        s1 = wrap_angle(psi_rel)
        s2 = wrap_angle(psi_rel - theta_rel + math.pi)
        nx, ny = math.cos(psi_rel), math.sin(psi_rel)
        px, py = body.a * nx, body.a * ny
    elif body.kind == "ellipse":
        a, b = body.a, body.b
        seed = _seed if _seed is not None else (0.0, 0.0, 0.0)
        d, s1, s2, resid, ok = _kernel.ellipse_contact(
            a, b, theta_rel, psi_rel, seed[0], seed[1], seed[2], _seed is not None
        )
        if not ok:
            d, s1, s2 = _ellipse_oracle_fallback(body, theta_rel, psi_rel, d, resid)
        if derivatives:
            dd = _kernel.ellipse_contact_derivatives(a, b, theta_rel, psi_rel, s1, s2, d)
            if dd is None:
                raise ConvergenceError(
                    f"singular tangency Jacobian at theta={theta_rel}, psi={psi_rel}"
                )
        c1, sn1 = math.cos(s1), math.sin(s1)
        px, py = a * c1, b * sn1
        nx, ny = b * c1, a * sn1
        k = math.hypot(nx, ny)
        nx, ny = nx / k, ny / k
    else:
        d, s1, s2 = _generic_contact(body, theta_rel, psi_rel)
        if derivatives:
            dd = d_derivatives(body, theta_rel, psi_rel, _seed=(s1, s2, d))
        px, py = boundary_point(body, s1).tolist()
        nx, ny = outward_normal(body, s1).tolist()

    qx, qy = px - d * math.cos(psi_rel), py - d * math.sin(psi_rel)
    c, s = math.cos(theta), math.sin(theta)
    return ContactData(
        d=d,
        p=np.array((c * px - s * py, s * px + c * py)),
        q=np.array((c * qx - s * qy, s * qx + c * qy)),
        n=np.array((c * nx - s * ny, s * nx + c * ny)),
        s1=s1,
        s2=s2,
        dD_dtheta=dd[0],
        dD_dpsi=dd[1],
    )


def _boundary_samples(body: Body, t: np.ndarray) -> np.ndarray:
    if body.kind in ("disk", "ellipse"):
        return np.stack([body.a * np.cos(t), body.b * np.sin(t)], axis=1)
    return np.array([body.boundary(float(v)) for v in t])


def _overlap(body: Body, theta: float, psi: float, d: float, n_samples: int) -> bool:
    """Sampled overlap predicate at separation d.

    The per-evaluation budget of n_samples boundary points is split per
    direction into a uniform localization pass and a refinement pass
    concentrated around the deepest candidate, keeping the detection bias far
    below the bisection tolerances in use.
    """
    half = n_samples // 2
    Rm = rotation(theta)
    off = d * e_of(psi)
    t = np.linspace(0.0, TWO_PI, half, endpoint=False)
    bnd = _boundary_samples(body, t)
    dt = TWO_PI / half

    # second body's boundary against the first body's interior
    pts2 = bnd @ Rm.T + off
    vals = np.asarray(body.level(pts2[:, 0], pts2[:, 1]))
    j = int(np.argmin(vals))
    tf = t[j] + np.linspace(-2 * dt, 2 * dt, half)
    fine = _boundary_samples(body, tf) @ Rm.T + off
    if bool(np.any(np.asarray(body.level(fine[:, 0], fine[:, 1])) < 0.0)):
        return True

    # first body's boundary against the second body's interior
    pts1 = (bnd - off) @ Rm
    vals = np.asarray(body.level(pts1[:, 0], pts1[:, 1]))
    j = int(np.argmin(vals))
    tf = t[j] + np.linspace(-2 * dt, 2 * dt, half)
    fine = (_boundary_samples(body, tf) - off) @ Rm
    return bool(np.any(np.asarray(body.level(fine[:, 0], fine[:, 1])) < 0.0))


def closest_approach_oracle(
    body: Body,
    theta_rel: float,
    psi_rel: float,
    tol: float = 1e-9,
    n_samples: int = 2048,
) -> float:
    """Independent route to D: bisection on the sampled overlap predicate.

    Monotone in d by convexity (the overlap set in d is an interval starting
    at 0), so plain bisection brackets the tangency separation. Used to
    cross-check the Newton tangency solve.

    Args:
        tol: final bracket width.
        n_samples: boundary-sample budget per overlap evaluation.
    """
    if not (tol > 0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    lo = 1e-3 * body.b
    hi = body.diameter + body.b
    if not _overlap(body, theta_rel, psi_rel, lo, n_samples):
        raise ConvergenceError("overlap predicate false at near-zero separation")
    while _overlap(body, theta_rel, psi_rel, hi, n_samples):
        hi *= 2.0
        if hi > 4.0 * body.diameter:
            raise ConvergenceError(
                f"no separation bracket below 4x diameter for theta={theta_rel}, psi={psi_rel}"
            )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _overlap(body, theta_rel, psi_rel, mid, n_samples):
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
    h: float = 1e-5,
    *,
    _seed: Optional[tuple[float, float, float]] = None,
) -> tuple[float, float]:
    """Partial derivatives of D at (theta_rel, psi_rel) by finite differences.

    Richardson-extrapolated central differences with steps h and h/2; solves
    at the stencil points are warm-started from the center solution. Disks
    have constant D, so both derivatives vanish identically. This is the
    route for implicit bodies and the reference the Jacobian derivatives of
    closest_approach are checked against.

    Args:
        h: finite-difference step, required to lie in [1e-7, 1e-3].
    """
    if not (1e-7 <= h <= 1e-3):
        raise ValueError(f"finite-difference step must lie in [1e-7, 1e-3], got {h}")
    if body.kind == "disk":
        return 0.0, 0.0
    if _seed is None:
        c = closest_approach(body, theta_rel, psi_rel)
        seed = (c.s1, c.s2, c.d)
    else:
        seed = _seed

    def dval(th: float, ps: float) -> float:
        return closest_approach(body, th, ps, _seed=seed).d

    def richardson(f) -> float:
        a1 = (f(h) - f(-h)) / (2.0 * h)
        a2 = (f(h / 2) - f(-h / 2)) / h
        return (4.0 * a2 - a1) / 3.0

    dd_theta = richardson(lambda dx: dval(theta_rel + dx, psi_rel))
    dd_psi = richardson(lambda dx: dval(theta_rel, psi_rel + dx))
    return dd_theta, dd_psi


def gamma_hat(body: Body, beta: Beta) -> np.ndarray:
    """Unit outward normal to the admissible set in configuration space.

    Assembled from the contact geometry as the 6-vector
    (-n~, n~, dD/dtheta + dD/dpsi, -dD/dtheta) with
    n~ = e(psi) - ((dD/dpsi)/d) e(psi)-perp in the lab frame, then normalized
    to unit length. Collinear with M nu by the contact identities, which is
    what the identity tests assert.
    """
    c = d_beta(body, beta, derivatives=True)
    ev = e_of(beta.psi)
    ntil = ev - (c.dD_dpsi / c.d) * perp(ev)
    g = np.concatenate([-ntil, ntil, [c.dD_dtheta + c.dD_dpsi, -c.dD_dtheta]])
    return g / np.linalg.norm(g)


def _direction_residual(u: np.ndarray, v: np.ndarray) -> float:
    """|1 - |cos angle|| between two nonzero vectors; sign-agnostic."""
    uu = u / np.linalg.norm(u)
    vv = v / np.linalg.norm(v)
    return float(abs(1.0 - abs(uu @ vv)))


def identity_residuals(
    body: Body, beta: Beta, h: float = 1e-5, *, contact: Optional[ContactData] = None
) -> dict:
    """Cross-check of the contact identities and of the derivatives of D.

    The identities are evaluated with the derivatives closest_approach
    returns. Returns a report with the asserted residuals (direction
    collinearity of n with its derivative form, relative error of the contact
    scalars, direction collinearity of M nu with gamma-hat), the
    fd_derivative_gap between those derivatives and finite differences of D
    with step h (the largest difference, relative to the larger of d and the
    partials, so a partial that vanishes by symmetry does not inflate it),
    plus an `as_printed` block with the residuals of the historically
    circulated variants of the same identities (theta/psi swapped in the
    normal direction, flipped signs in the scalar blocks), which are reported
    for reference and are expected to be large.

    contact, the lab-frame result of d_beta(body, beta, derivatives=True),
    saves the solve when the caller already holds it; the finite differences
    are seeded from it.
    """
    c = contact if contact is not None else d_beta(body, beta, derivatives=True)
    fd_theta, fd_psi = d_derivatives(body, *beta.reduced(), h, _seed=(c.s1, c.s2, c.d))
    fd_gap = max(abs(c.dD_dtheta - fd_theta), abs(c.dD_dpsi - fd_psi)) / max(
        c.d, abs(fd_theta), abs(fd_psi)
    )
    ev = e_of(beta.psi)
    evp = perp(ev)
    ntil = ev - (c.dD_dpsi / c.d) * evp
    cosphi = 1.0 / math.sqrt(1.0 + (c.dD_dpsi / c.d) ** 2)
    pn = c.p_perp_n()
    qn = c.q_perp_n()
    dsum = c.dD_dtheta + c.dD_dpsi

    m_nu_raw = np.concatenate([-c.n, c.n, [-pn, qn]])
    gam = np.concatenate([-ntil, ntil, [dsum, -c.dD_dtheta]])
    gam_flipped = np.concatenate([-ntil, ntil, [-dsum, c.dD_dtheta]])
    ntil_swapped = ev - (c.dD_dtheta / c.d) * evp

    return {
        "d": c.d,
        "p_perp_n": pn,
        "q_perp_n": qn,
        "dD_dtheta": c.dD_dtheta,
        "dD_dpsi": c.dD_dpsi,
        "fd_derivative_gap": fd_gap,
        "n_direction": _direction_residual(c.n, ntil),
        "p_scalar": abs(pn - (-dsum * cosphi)) / (1.0 + abs(pn)),
        "q_scalar": abs(qn - (-c.dD_dtheta * cosphi)) / (1.0 + abs(qn)),
        "m_nu_gamma": _direction_residual(m_nu_raw, gam),
        "as_printed": {
            "n_direction_theta_swap": _direction_residual(c.n, ntil_swapped),
            "p_scalar_plus_sign": abs(pn - (dsum * cosphi)) / (1.0 + abs(pn)),
            "gamma_scalar_sign_flip": _direction_residual(m_nu_raw, gam_flipped),
        },
    }
