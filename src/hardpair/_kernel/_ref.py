"""Tangency solver for two congruent ellipses, in scalar Python math.

Canonical configuration: body 1 is the ellipse (a, b) at the origin with
orientation 0; body 2 is the same ellipse rotated by theta and translated by
d e(psi). Solved for the external tangency: boundary parameters (s1, s2) of
the single contact point and the center separation d.
"""

import math

_ALPHA_MAX = 100
_ALPHA_TOL = 1e-8
_NEWTON_MAX = 50
_BACKTRACK_MAX = 12


def _g_of_alpha(a, b, ct, st, cpsi, spsi, alpha):
    """Transverse tangency residual for candidate contact-normal angle alpha.

    Returns (g, d, s1, s2): the mismatch of the two support points along the
    direction perpendicular to the normal, the implied center separation, and
    the boundary parameters of the two support points.
    """
    ux = math.cos(alpha)
    uy = math.sin(alpha)
    # boundary parameter whose outward normal (b cos s, a sin s) aligns with u
    s1 = math.atan2(b * uy, a * ux)
    # body 2 needs lab-frame normal -u; rotate back by -theta
    wx = -(ct * ux + st * uy)
    wy = -(-st * ux + ct * uy)
    s2 = math.atan2(b * wy, a * wx)
    p1x = a * math.cos(s1)
    p1y = b * math.sin(s1)
    c2x = a * math.cos(s2)
    c2y = b * math.sin(s2)
    p2x = ct * c2x - st * c2y
    p2y = st * c2x + ct * c2y
    dx = p1x - p2x
    dy = p1y - p2y
    eu = cpsi * ux + spsi * uy
    d = (dx * ux + dy * uy) / eu
    rx = dx - d * cpsi
    ry = dy - d * spsi
    g = -rx * uy + ry * ux
    return g, d, s1, s2


def _support_angle(a, b, ct, st, cpsi, spsi, psi):
    """Normal angle of the external tangency of the pair along e(psi).

    The Minkowski sum K + R_theta K has support function H(alpha) = h(alpha)
    + h(alpha - theta), with h = sqrt(a^2 cos^2 + b^2 sin^2) the ellipse's,
    and D is the least support-line distance H / cos(alpha - psi) over
    |alpha - psi| < pi/2.  Its derivative is G / cos^2(alpha - psi) with
    G = H' cos(alpha - psi) + H sin(alpha - psi), and G' = a^2 b^2 (h1^-3 +
    h2^-3) cos(alpha - psi) > 0 there, so G has one root in that interval,
    which brackets it.  Newton from alpha = psi; a step that leaves the
    bracket is replaced by a bisection.
    """
    a2, b2 = a * a, b * b
    lo, hi = psi - 0.5 * math.pi, psi + 0.5 * math.pi
    al = psi
    for _ in range(_ALPHA_MAX):
        ca, sa = math.cos(al), math.sin(al)
        c2, s2 = ca * ct + sa * st, sa * ct - ca * st
        h1 = math.sqrt(a2 * ca * ca + b2 * sa * sa)
        h2 = math.sqrt(a2 * c2 * c2 + b2 * s2 * s2)
        cd, sd = ca * cpsi + sa * spsi, sa * cpsi - ca * spsi
        g = (b2 - a2) * (sa * ca / h1 + s2 * c2 / h2) * cd + (h1 + h2) * sd
        step = g / (a2 * b2 * (1.0 / (h1 * h1 * h1) + 1.0 / (h2 * h2 * h2)) * cd)
        # Test convergence before the bracket: the iterate has just become a
        # bracket end, and a step below its spacing would land on that end,
        # fail the test below and bisect far from the root.
        if abs(step) < _ALPHA_TOL:
            return al - step
        if g < 0.0:
            lo = al
        else:
            hi = al
        al -= step
        if not lo < al < hi:
            al = 0.5 * (lo + hi)
    return al


def _residual(a, b, ct, st, cpsi, spsi, s1, s2, d):
    """Tangency system residual (F1, F2, F3) at (s1, s2, d)."""
    c1, s1s = math.cos(s1), math.sin(s1)
    c2, s2s = math.cos(s2), math.sin(s2)
    p2x = ct * (a * c2) - st * (b * s2s)
    p2y = st * (a * c2) + ct * (b * s2s)
    f1 = a * c1 - d * cpsi - p2x
    f2 = b * s1s - d * spsi - p2y
    n1x, n1y = b * c1, a * s1s
    n2x = ct * (b * c2) - st * (a * s2s)
    n2y = st * (b * c2) + ct * (a * s2s)
    f3 = n1x * n2y - n1y * n2x
    return f1, f2, f3


def _jacobian(a, b, ct, st, cpsi, spsi, s1, s2):
    """Rows d(F1, F2, F3)/d(s1, s2, d) of the tangency system at (s1, s2)."""
    c1, s1s = math.cos(s1), math.sin(s1)
    c2, s2s = math.cos(s2), math.sin(s2)
    t1x, t1y = -a * s1s, b * c1
    t2x = ct * (-a * s2s) - st * (b * c2)
    t2y = st * (-a * s2s) + ct * (b * c2)
    n1x, n1y = b * c1, a * s1s
    n2x = ct * (b * c2) - st * (a * s2s)
    n2y = st * (b * c2) + ct * (a * s2s)
    n1px, n1py = -b * s1s, a * c1
    n2px = ct * (-b * s2s) - st * (a * c2)
    n2py = st * (-b * s2s) + ct * (a * c2)
    return (
        (t1x, -t2x, -cpsi),
        (t1y, -t2y, -spsi),
        (n1px * n2y - n1py * n2x, n1x * n2py - n1y * n2px, 0.0),
    )


def _solve3(jac, b1, b2, b3):
    """Cramer's rule for jac x = (b1, b2, b3); None when jac is singular."""
    (j11, j12, j13), (j21, j22, j23), (j31, j32, j33) = jac
    det = (
        j11 * (j22 * j33 - j23 * j32)
        - j12 * (j21 * j33 - j23 * j31)
        + j13 * (j21 * j32 - j22 * j31)
    )
    if det == 0.0:
        return None
    x1 = (
        b1 * (j22 * j33 - j23 * j32)
        - j12 * (b2 * j33 - j23 * b3)
        + j13 * (b2 * j32 - j22 * b3)
    ) / det
    x2 = (
        j11 * (b2 * j33 - j23 * b3)
        - b1 * (j21 * j33 - j23 * j31)
        + j13 * (j21 * b3 - b2 * j31)
    ) / det
    x3 = (
        j11 * (j22 * b3 - b2 * j32)
        - j12 * (j21 * b3 - b2 * j31)
        + b1 * (j21 * j32 - j22 * j31)
    ) / det
    return x1, x2, x3


def _newton(a, b, ct, st, cpsi, spsi, s1, s2, d, tol_len, tol_cross):
    """Damped Newton polish of the 3-unknown tangency system."""
    f1, f2, f3 = _residual(a, b, ct, st, cpsi, spsi, s1, s2, d)
    for _ in range(_NEWTON_MAX):
        if abs(f1) < tol_len and abs(f2) < tol_len and abs(f3) < tol_cross:
            return s1, s2, d, max(abs(f1), abs(f2), abs(f3) / max(1.0, a * a)), True
        step = _solve3(_jacobian(a, b, ct, st, cpsi, spsi, s1, s2), -f1, -f2, -f3)
        if step is None:
            return s1, s2, d, max(abs(f1), abs(f2), abs(f3) / max(1.0, a * a)), False
        ds1, ds2, dd = step
        base = max(abs(f1), abs(f2), abs(f3))
        lam = 1.0
        for _ in range(_BACKTRACK_MAX):
            s1n = s1 + lam * ds1
            s2n = s2 + lam * ds2
            dn = d + lam * dd
            g1, g2, g3 = _residual(a, b, ct, st, cpsi, spsi, s1n, s2n, dn)
            if max(abs(g1), abs(g2), abs(g3)) < base:
                break
            lam *= 0.5
        s1, s2, d = s1n, s2n, dn
        f1, f2, f3 = g1, g2, g3
    ok = abs(f1) < tol_len and abs(f2) < tol_len and abs(f3) < tol_cross
    return s1, s2, d, max(abs(f1), abs(f2), abs(f3) / max(1.0, a * a)), ok


def _external(a, b, ct, st, cpsi, spsi, s1, s2):
    """Whether a root of the tangency system is the external tangency.

    F3 = n1 x n2 = 0 also holds for parallel normals, so a Newton root may
    sit on another branch.  The external tangency has antiparallel normals
    and body 1's normal facing body 2.
    """
    c1, s1s = math.cos(s1), math.sin(s1)
    c2, s2s = math.cos(s2), math.sin(s2)
    n1x, n1y = b * c1, a * s1s
    n2x = ct * (b * c2) - st * (a * s2s)
    n2y = st * (b * c2) + ct * (a * s2s)
    return n1x * cpsi + n1y * spsi > 0.0 and n1x * n2x + n1y * n2y < 0.0


def ellipse_contact_derivatives(a, b, theta, psi, s1, s2, d):
    """Partial derivatives (dD/dtheta, dD/dpsi) at a solved tangency (s1, s2, d).

    Implicit-function theorem on the tangency system F(s1, s2, d; theta, psi)
    = 0 that ellipse_contact solves: (s1, s2, d)_x = -J^-1 dF/dx at the
    converged point, with J the Jacobian Newton steps with.  No further
    tangency solve is made.  Returns None when J is singular.
    """
    ct, st = math.cos(theta), math.sin(theta)
    cpsi, spsi = math.cos(psi), math.sin(psi)
    jac = _jacobian(a, b, ct, st, cpsi, spsi, s1, s2)
    c1, s1s = math.cos(s1), math.sin(s1)
    c2, s2s = math.cos(s2), math.sin(s2)
    # body 2's contact point and normal turn with theta: d(R u)/dtheta = perp(R u)
    p2x = ct * (a * c2) - st * (b * s2s)
    p2y = st * (a * c2) + ct * (b * s2s)
    n2x = ct * (b * c2) - st * (a * s2s)
    n2y = st * (b * c2) + ct * (a * s2s)
    x_theta = _solve3(jac, -p2y, p2x, -(b * c1 * n2x + a * s1s * n2y))
    if x_theta is None:
        return None
    x_psi = _solve3(jac, -d * spsi, d * cpsi, 0.0)
    return x_theta[2], x_psi[2]


def ellipse_contact(a, b, theta, psi, s1_seed=0.0, s2_seed=0.0, d_seed=0.0, use_seed=False):
    """Contact data for two congruent (a, b) ellipses in relative pose (theta, psi).

    Returns (d, s1, s2, resid, ok): center separation at tangency, boundary
    parameters of the contact point on each body, the scaled final residual,
    and a convergence flag. With use_seed, Newton starts from the supplied
    (s1_seed, s2_seed, d_seed). Otherwise, or when that root is not the
    external tangency, the cold solve finds the contact normal angle
    (_support_angle) and Newton starts from the contact it implies.
    """
    ct, st = math.cos(theta), math.sin(theta)
    cpsi, spsi = math.cos(psi), math.sin(psi)
    tol_len = 1e-13 * max(1.0, a)
    tol_cross = 1e-13 * max(1.0, a * a)

    if use_seed:
        s1, s2, d, resid, ok = _newton(
            a, b, ct, st, cpsi, spsi, s1_seed, s2_seed, d_seed, tol_len, tol_cross
        )
        if ok and d > 0.0 and _external(a, b, ct, st, cpsi, spsi, s1, s2):
            return d, s1, s2, resid, True

    alpha = _support_angle(a, b, ct, st, cpsi, spsi, psi)
    _, d, s1, s2 = _g_of_alpha(a, b, ct, st, cpsi, spsi, alpha)
    s1, s2, d, resid, ok = _newton(
        a, b, ct, st, cpsi, spsi, s1, s2, d, tol_len, tol_cross
    )
    ok = ok and d > 0.0 and _external(a, b, ct, st, cpsi, spsi, s1, s2)
    return d, s1, s2, resid, ok
