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
already in the lab frame, by one writer: _contact_row solves in the
canonical pose and returns the record as a row of floats, with p, q and n
turned by the first body's orientation.  contact_record writes one row as
a ContactData, which closest_approach returns; d_beta at a Beta of (N,)
angle arrays stacks the rows of its N cold solves into one record of
arrays. With lab-frame vectors and angles the
identities read

    n  is parallel to  e(psi) - ((dD/dpsi)/d) e(psi)-perp
    p-perp . n = -(dD/dtheta + dD/dpsi) cos(phi)
    q-perp . n = -(dD/dtheta) cos(phi)

with cos(phi) = e(psi) . n = (1 + ((dD/dpsi)/d)^2)^(-1/2) and u-perp the
counterclockwise rotation (-u2, u1).

Every body is solved the same way, on its support function: D is the least
support-line distance of the pair, one root-find in the contact-normal angle
alpha (_kernel), entered through _kernel.ellipse_contact for an ellipse, the
disk being the (r, r) one, and through _kernel.support_contact for a body
given by its support series.  The contact point, the normal and both
partials follow from alpha in closed form, the partials by the envelope
theorem.  Those partials satisfy the identities above by construction, so
the identities are checked on an independent route: identity_residuals
evaluates them with Richardson finite differences of D (d_derivatives), and
its fd_derivative_gap compares the shipped partials against the same
differences.  D itself is checked against an ellipse route that never
reads the support function: Perram and Wertheim's contact function, in the
verification suite (_checks).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from hardpair import _kernel
from hardpair._kernel import TWO_PI
from hardpair.bodies import Body

# Step of the finite differences of D that cross-check its partials.
FD_STEP = 1e-5


class ConvergenceError(RuntimeError):
    """A numerical solve failed to converge."""


def wrap_angle(x):
    """An angle, or an array of angles, reduced to [0, 2pi): x % 2pi rounds a
    tiny negative x up to 2pi itself, which the second % takes to 0.0."""
    return x % TWO_PI % TWO_PI


def e_of(psi: float) -> np.ndarray:
    """Unit center-line direction e(psi) = (cos psi, sin psi)."""
    return np.array([math.cos(psi), math.sin(psi)])


def perp(u: np.ndarray) -> np.ndarray:
    """Counterclockwise quarter turn (-u2, u1)."""
    return np.array([-u[1], u[0]])


class Beta(NamedTuple("Beta", [("theta", float), ("thetabar", float), ("psi", float)])):
    """Collision configuration angles (theta, thetabar, psi), each in [0, 2pi).

    theta and thetabar are the body orientations; psi is the direction angle
    of the center line from body 1 to body 2.  Each field is a Python float,
    or all three are float64 arrays of one shape (N,) holding N poses; an
    angle that is not a finite real number, or arrays of other shapes, raise
    ValueError naming the field.  A tuple: it unpacks, beta == (theta,
    thetabar, psi), and no source builds one by _make or _replace, which
    skip the checks.
    """

    __slots__ = ()

    def __new__(cls, theta, thetabar, psi):
        # not twins: arrays must share one shape (N,) and name a bad index; floats do not
        if (isinstance(theta, np.ndarray) or isinstance(thetabar, np.ndarray)
                or isinstance(psi, np.ndarray)):
            angles = [np.asarray(x, dtype=float) for x in (theta, thetabar, psi)]
            for name, value in zip(cls._fields, angles):
                if value.ndim != 1 or value.shape != angles[0].shape:
                    raise ValueError(f"angle {name} has shape {value.shape}; the angles "
                                     f"must be floats or arrays of one shape (N,)")
                bad = np.flatnonzero(~np.isfinite(value))
                if bad.size:
                    raise ValueError(f"angle {name} must be finite, "
                                     f"got {float(value[bad[0]])!r} at index {bad[0]}")
            return tuple.__new__(cls, [wrap_angle(x) for x in angles])
        try:
            # math.isfinite refuses a string, which float() would read
            finite = math.isfinite(theta) and math.isfinite(thetabar) and math.isfinite(psi)
        except TypeError:
            finite = False
        if finite:
            return tuple.__new__(cls, (wrap_angle(float(theta)), wrap_angle(float(thetabar)),
                                       wrap_angle(float(psi))))
        for name, value in zip(cls._fields, (theta, thetabar, psi)):
            try:
                finite = math.isfinite(value)
            except TypeError:
                raise ValueError(f"angle {name} must be a real number, got {value!r}") from None
            if not finite:
                raise ValueError(f"angle {name} must be finite, got {float(value)!r}")

    def reduced(self) -> tuple[float, float]:
        """Relative angles (thetabar - theta, psi - theta) mod 2pi: floats, or (N,) arrays."""
        return wrap_angle(self.thetabar - self.theta), wrap_angle(self.psi - self.theta)

    def shifted(self, phi: float) -> "Beta":
        """Globally rotated configuration beta + (phi, phi, phi)."""
        return Beta(self.theta + phi, self.thetabar + phi, self.psi + phi)


class ContactData(NamedTuple):
    """Geometric payload of a tangent configuration, or of N of them.

    d is the center separation, p/q the contact point from each body's
    center, n the unit contact normal outward from body 1 (p, q and n in the
    frame closest_approach was asked for). s1/s2 place the contact point on
    each body: the angle in [0, 2pi) of its outward normal there, in that
    body's frame, so n = e(theta + s1) and -n = e(thetabar + s2) in the lab.
    dD_dtheta and dD_dpsi are the partial derivatives of D at the reduced
    angles, from the envelope theorem on the normal-angle solve; they are
    None unless the contact was requested with derivatives.  One contact has
    float scalars and vectors of shape (2,); N contacts (d_beta at a Beta of
    arrays) have scalars of shape (N,) and vectors of shape (N, 2).
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
        """p_perp . n: a float for one contact, shape (N,) for N."""
        return _cross(self.p, self.n)

    def q_perp_n(self) -> float:
        """q_perp . n: a float for one contact, shape (N,) for N."""
        return _cross(self.q, self.n)


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_perp . v = u1 v2 - u2 v1 over the last axis."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _ellipse_oracle_fallback(body: Body, theta_rel: float, psi_rel: float) -> None:
    """The failure path of the contact solve for every body: raises ConvergenceError.

    The safeguarded normal-angle solve fails only on non-finite arithmetic
    or at its iteration cap, which no kernel sweep has reached; re-seeding
    mends neither.  The benchmark's tracer counts failures by this name.
    """
    shape = f"({body.a}, {body.b}) ellipse" if body.b is not None else "support-series body"
    raise ConvergenceError(f"contact solve failed at theta={theta_rel}, psi={psi_rel}, {shape}")


def _contact_row(body: Body, theta_rel: float, psi_rel: float, theta: float,
                 seed: float = 0.0, warm: bool = False) -> tuple:
    """One pose's contact record as floats, turned into the lab frame by theta.

    The row is (d, dD/dtheta, dD/dpsi, px, py, qx, qy, nx, ny, s1, s2): one
    kernel solve, warm from the normal angle seed when warm is set, which
    also gives the support point of the contact normal e(alpha), then the
    lab-frame arithmetic.  contact_record writes one row's ContactData, which
    closest_approach returns; d_beta on N poses stacks N rows; the event
    search steps on rows and writes a record only at a contact.
    """
    if body.b is not None:
        d, alpha, d_th, d_ps, ok, h, dh = _kernel.ellipse_contact(
            body.a, body.b, theta_rel, psi_rel, seed, use_seed=warm
        )
    else:
        d, alpha, d_th, d_ps, ok, h, dh = _kernel.support_contact(
            body.pair(theta_rel), psi_rel, seed, use_seed=warm
        )
    if not ok:
        _ellipse_oracle_fallback(body, theta_rel, psi_rel)
    # the support point of e(alpha), from the h and h' the solve carried
    # there: p = h e(alpha) + h' e(alpha)-perp
    nx, ny = math.cos(alpha), math.sin(alpha)
    px, py = h * nx - dh * ny, h * ny + dh * nx

    qx, qy = px - d * math.cos(psi_rel), py - d * math.sin(psi_rel)
    c, s = math.cos(theta), math.sin(theta)
    return (d, d_th, d_ps, c * px - s * py, s * px + c * py, c * qx - s * qy, s * qx + c * qy,
            c * nx - s * ny, s * nx + c * ny, wrap_angle(alpha),
            wrap_angle(alpha + math.pi - theta_rel))


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
    the normal-angle search from its normal angle s1.

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
    return contact_record(
        _contact_row(body, theta_rel, psi_rel, theta, _seed.s1 if warm else 0.0, warm),
        derivatives,
    )


def contact_record(row: tuple, derivatives: bool = False) -> ContactData:
    """The ContactData of one _contact_row: p, q and n as arrays of shape
    (2,), slices of one array, and dD/dtheta, dD/dpsi only with derivatives."""
    pqn = np.array(row[3:9])
    d_th, d_ps = row[1:3] if derivatives else (None, None)
    # positional: the keyword form costs about 0.4 us a record
    return ContactData(row[0], pqn[0:2], pqn[2:4], pqn[4:6], row[9], row[10], d_th, d_ps)


def d_beta(body: Body, beta: Beta, *, derivatives: bool = False) -> ContactData:
    """Contact data for the full configuration, in the lab frame.

    The solve runs at the reduced angles (thetabar - theta, psi - theta);
    p, q and n come back turned by the first body's orientation. d and the
    D-derivatives are rotation invariants.  A Beta of (N,) arrays gives
    one record of N contacts (see ContactData): the one-pose rows of
    _contact_row, each from a cold kernel solve, stacked into one array and
    sliced into its fields, so row i is bit for bit the record of pose i
    alone.
    """
    th_rel, ps_rel = beta.reduced()
    # not twins: one pose writes its row's record; N poses slice one stacked array
    if isinstance(th_rel, float):
        return contact_record(_contact_row(body, th_rel, ps_rel, beta.theta), derivatives)
    rows = np.array([
        _contact_row(body, th, ps, theta)
        for th, ps, theta in zip(th_rel.tolist(), ps_rel.tolist(), beta.theta.tolist())
    ]).reshape(-1, 11)
    d_th, d_ps = (rows[:, 1], rows[:, 2]) if derivatives else (None, None)
    return ContactData(d=rows[:, 0], p=rows[:, 3:5], q=rows[:, 5:7], n=rows[:, 7:9],
                       s1=rows[:, 9], s2=rows[:, 10], dD_dtheta=d_th, dD_dpsi=d_ps)


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
    form, error of the contact scalars over d, direction collinearity of
    M nu with gamma-hat, lengths taken over d), the fd_derivative_gap
    between the shipped derivatives and the finite differences (the largest
    difference, relative to the larger of d and the partials, so a partial
    that vanishes by symmetry does not inflate it), plus an `as_printed`
    block with the residuals of the historically circulated variants of the
    same identities (theta/psi swapped in the normal direction, flipped
    signs in the scalar blocks), reported for reference and expected large.

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

    m_nu_raw = np.concatenate([-c.n, c.n, [-pn / c.d, qn / c.d]])
    gam = np.concatenate([-ntil, ntil, [dsum / c.d, -fd_theta / c.d]])
    gam_flipped = np.concatenate([-ntil, ntil, [-dsum / c.d, fd_theta / c.d]])
    ntil_swapped = ev - (fd_theta / c.d) * evp

    return {
        "d": c.d,
        "p_perp_n": pn,
        "q_perp_n": qn,
        "dD_dtheta": c.dD_dtheta,
        "dD_dpsi": c.dD_dpsi,
        "fd_derivative_gap": fd_gap,
        "n_direction": _direction_residual(c.n, ntil),
        "p_scalar": abs(pn - (-dsum * cosphi)) / c.d,
        "q_scalar": abs(qn - (-fd_theta * cosphi)) / c.d,
        "m_nu_gamma": _direction_residual(m_nu_raw, gam),
        "as_printed": {
            "n_direction_theta_swap": _direction_residual(c.n, ntil_swapped),
            "p_scalar_plus_sign": abs(pn - (dsum * cosphi)) / c.d,
            "gamma_scalar_sign_flip": _direction_residual(m_nu_raw, gam_flipped),
        },
    }
