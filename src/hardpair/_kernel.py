"""Contact kernel: the one normal-angle solve for a pair of congruent convex bodies.

One root-find in the contact-normal angle, in scalar Python math.  Callers
reach it through this module's bindings, which tests and tracing replace in
place: `_kernel.ellipse_contact` for every ellipse, disks included, and
`_kernel.support_contact` for a body given by its support series.

Canonical configuration: body 1 sits at the origin with orientation 0, and
body 2, congruent, is turned by theta and translated by d e(psi).  A body
has a support function h, with h(alpha), h'(alpha) and the radius of
curvature rho = h + h'' at the support point of direction e(alpha).

Body 2 touches body 1 where their outward normals are e(alpha) and
-e(alpha), so the pair's Minkowski difference has support function
H(alpha) = h(alpha) + h(alpha + pi - theta), and D is the least
support-line distance H(alpha) / cos(alpha - psi) over |alpha - psi| < pi/2.
The solve reads the pair through its pair support at theta, a callable
alpha -> (H, H', R, R', h, h', rho): H, its derivative, R = rho(alpha) +
rho(alpha + pi - theta) = H + H'' and R', then body 1's own h, h' and rho,
which carry the result to the root.  An ellipse's pair support is closed
form (ellipse_pair); a support series multiplies its Fourier rows once per
solve (bodies._fourier_support).

D's derivative is G / cos^2(alpha - psi) with G = H' cos(alpha - psi) + H
sin(alpha - psi), and G' = R cos(alpha - psi) > 0 for a strictly convex
body, so G has one root there, bracketed by the interval.  Each step is
Halley's, (G / G') / (1 - G G'' / (2 G'^2)) with G'' = R' cos(alpha - psi)
- R sin(alpha - psi), or Newton's G / G' where that denominator is at most
1/2.  At the root D = H / cos(alpha - psi) is stationary in alpha, and by
the envelope theorem its partials are those of H / cos(alpha - psi) at
fixed alpha:

    dD/dpsi = -D tan(alpha - psi),    dD/dtheta = -h'(alpha + pi - theta) / cos(alpha - psi).
"""

import math

BACKEND = "python"

_ALPHA_MAX = 100
_ALPHA_TOL = 1e-10
_HALF_PI = 0.5 * math.pi
TWO_PI = 2.0 * math.pi


def ellipse_support(a, b):
    """Support function of the ellipse (a, b), a >= b: h = sqrt(b^2 + (a - b)(a + b) cos^2).

    alpha -> (h, h', rho).  With rho = h (ab / h^2)^2, the (r, r) ellipse
    has h = rho = r and h' = 0 to the bit.
    """
    b2, ab, k = b * b, a * b, (a - b) * (a + b)

    def support(alpha):
        c, s = math.cos(alpha), math.sin(alpha)
        h = math.sqrt(b2 + k * c * c)
        t = ab / (h * h)
        return h, -k * s * c / h, h * t * t

    return support


def ellipse_pair(a, b, theta):
    """Pair support of two congruent (a, b) ellipses, the second turned by theta.

    alpha -> (H, H', R, R', h, h', rho), on one cos/sin pair: body 2's
    direction alpha + pi - theta has cosine and sine -(c cos theta + s sin
    theta) and -(s cos theta - c sin theta), and h reads them only through
    squares and their product.  rho = a^2 b^2 / h^3 gives rho' = -3 rho h' / h,
    with rho / h = (ab / h^2)^2.
    """
    b2, ab, nk = b * b, a * b, (b - a) * (a + b)
    ct, st = math.cos(theta), math.sin(theta)

    def pair(alpha):
        c, s = math.cos(alpha), math.sin(alpha)
        c2, s2 = c * ct + s * st, s * ct - c * st
        kc1, kc2 = nk * c, nk * c2
        q1, q2 = b2 - kc1 * c, b2 - kc2 * c2
        h1, h2 = math.sqrt(q1), math.sqrt(q2)
        dh1, dh2 = kc1 * s / h1, kc2 * s2 / h2
        # (ab / h^2)^2 = rho / h
        w1, w2 = ab / q1, ab / q2
        w1, w2 = w1 * w1, w2 * w2
        rho1 = h1 * w1
        return (h1 + h2, dh1 + dh2, rho1 + h2 * w2, -3.0 * (w1 * dh1 + w2 * dh2), h1, dh1, rho1)

    return pair


def support_contact(support, psi, seed=0.0, *, use_seed=False):
    """Contact of two congruent bodies in pose (theta, psi), on their pair support at theta.

    support is alpha -> (H, H', R, R', h, h', rho), Body.pair(theta) or
    ellipse_pair.  Returns (d, alpha, dD_dtheta, dD_dpsi, ok, h, dh): the
    center separation at tangency, the angle of the contact normal e(alpha)
    outward from body 1, the partials of D, a convergence flag, and body
    1's h(alpha) and h'(alpha), which place the contact point.  Halley's
    step on G from alpha = psi or, with use_seed, from the seed angle when
    it faces e(psi).  As in Numerical Recipes' rtsafe, a step that would
    leave the bracket, or that would not at least halve the step before
    last, is replaced by a bisection; without the second rule the iterate
    can bounce between the two ends of the bracket until the iteration cap.
    Once a step falls below the tolerance it is taken and the result is
    read off at the new iterate, carried there to first order; a bracket
    that has shrunk to adjacent floats also ends the search there.
    """
    lo, hi = psi - _HALF_PI, psi + _HALF_PI
    # the last step taken and the one before it, both the bracket width at first
    last = before_last = math.pi
    al = psi
    if use_seed:
        al = psi + (seed - psi + math.pi) % TWO_PI - math.pi
        if not lo < al < hi:
            al = psi
    for _ in range(_ALPHA_MAX):
        H, dH, R, dR, h, dh, rho = support(al)
        x = al - psi
        cd, sd = math.cos(x), math.sin(x)
        g = dH * cd + H * sd
        dg = R * cd
        step = g / dg
        # Halley's denominator 1 - G G'' / (2 G'^2); Newton's step where it is small
        den = 1.0 - 0.5 * step * (dR * cd - R * sd) / dg
        if den > 0.5:
            step /= den
        # a bracket shrunk to adjacent floats holds the root to rounding,
        # where the sign of g is noise: stop at the iterate
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            step = 0.0
        # Test convergence before the bracket: the iterate has just become a
        # bracket end, and a step below its spacing would land on that end,
        # fail the test below and bisect far from the root.
        if abs(step) < _ALPHA_TOL:
            # the last step, with cos and sin of alpha - psi, H, body 1's h
            # and h', and body 2's h'(alpha + pi - theta) = H' - h' carried
            # to the new iterate to first order (h'' = rho - h)
            al -= step
            cd, sd = cd + step * sd, sd - step * cd
            d = (H - step * dH) / cd
            d_theta = (step * ((R - rho) - (H - h)) - (dH - dh)) / cd
            return (d, al, d_theta, -d * sd / cd, 0.0 < d < math.inf,
                    h - step * dh, dh - step * (rho - h))
        if g < 0.0:
            lo = al
        else:
            hi = al
        if lo < al - step < hi and 2.0 * abs(step) <= before_last:
            al -= step
        else:
            step = 0.5 * (hi - lo)
            al = lo + step
        before_last, last = last, abs(step)
    return math.nan, al, math.nan, math.nan, False, math.nan, math.nan


def ellipse_contact(a, b, theta, psi, seed=0.0, *, use_seed=False):
    """support_contact for two congruent (a, b) ellipses, on ellipse_pair.

    use_seed is keyword-only, so a call that warm-starts always names it.
    """
    return support_contact(ellipse_pair(a, b, theta), psi, seed, use_seed=use_seed)
