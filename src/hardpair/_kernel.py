"""Contact kernel: the one normal-angle solve for a pair of congruent convex bodies.

One root-find in the contact-normal angle, in scalar Python math.  Callers
reach it through this module's bindings, which tests and tracing replace in
place: `_kernel.ellipse_contact` for every ellipse, disks included, and
`_kernel.support_contact` for a body given by its support series.

Canonical configuration: body 1 sits at the origin with orientation 0, and
body 2, congruent, is turned by theta and translated by d e(psi).  A body
enters only through its support function, a callable alpha -> (h, h', rho)
giving h(alpha), h'(alpha) and the radius of curvature rho = h + h'' at the
support point of direction e(alpha).

Body 2 touches body 1 where their outward normals are e(alpha) and
-e(alpha), so the pair's Minkowski difference has support function
H(alpha) = h(alpha) + h(alpha + pi - theta), and D is the least
support-line distance H(alpha) / cos(alpha - psi) over |alpha - psi| < pi/2.
Its derivative is G / cos^2(alpha - psi) with G = H' cos(alpha - psi) + H
sin(alpha - psi), and G' = (rho(alpha) + rho(alpha + pi - theta))
cos(alpha - psi) > 0 for a strictly convex body, so G has one root there,
bracketed by the interval.  At that root D = H / cos(alpha - psi) is
stationary in alpha, and by the envelope theorem its partials are those of
H / cos(alpha - psi) at fixed alpha:

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

    With rho = h (ab / h^2)^2, the (r, r) ellipse has h = rho = r and h' = 0 to the bit.
    """
    b2, ab, k = b * b, a * b, (a - b) * (a + b)

    def support(alpha):
        c, s = math.cos(alpha), math.sin(alpha)
        h = math.sqrt(b2 + k * c * c)
        t = ab / (h * h)
        return h, -k * s * c / h, h * t * t

    return support


def support_contact(support, theta, psi, seed=0.0, *, use_seed=False):
    """Contact of two congruent bodies with support function `support` in pose (theta, psi).

    Returns (d, alpha, dD_dtheta, dD_dpsi, ok): the center separation at
    tangency, the angle of the contact normal e(alpha) outward from body 1,
    the partials of D, and a convergence flag.  Newton on G from alpha =
    psi or, with use_seed, from the seed angle when it faces e(psi).  As in
    Numerical Recipes' rtsafe, a step that would leave the bracket, or that
    would not at least halve the step before last, is replaced by a
    bisection; without the second rule Newton can bounce between the two
    ends of the bracket until the iteration cap.  Once a step falls below
    the tolerance it is taken and the result is read off at the new
    iterate; a bracket that has shrunk to adjacent floats also ends the
    search there.
    """
    lo, hi = psi - _HALF_PI, psi + _HALF_PI
    # the last step taken and the one before it, both the bracket width at first
    last = before_last = math.pi
    al = psi
    if use_seed:
        al = psi + (seed - psi + math.pi) % TWO_PI - math.pi
        if not lo < al < hi:
            al = psi
    turn = math.pi - theta
    for _ in range(_ALPHA_MAX):
        h1, dh1, rho1 = support(al)
        h2, dh2, rho2 = support(al + turn)
        cd, sd = math.cos(al - psi), math.sin(al - psi)
        g = (dh1 + dh2) * cd + (h1 + h2) * sd
        step = g / ((rho1 + rho2) * cd)
        # a bracket shrunk to adjacent floats holds the root to rounding,
        # where the sign of g is noise: stop at the iterate
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            step = 0.0
        # Test convergence before the bracket: the iterate has just become a
        # bracket end, and a step below its spacing would land on that end,
        # fail the test below and bisect far from the root.
        if abs(step) < _ALPHA_TOL:
            # the last Newton step, with H and h'(alpha + pi - theta) carried
            # to the new iterate to first order
            al -= step
            cd, sd = math.cos(al - psi), math.sin(al - psi)
            d = (h1 + h2 - step * (dh1 + dh2)) / cd
            return d, al, (step * (rho2 - h2) - dh2) / cd, -d * sd / cd, 0.0 < d < math.inf
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
    return math.nan, al, math.nan, math.nan, False


def ellipse_contact(a, b, theta, psi, seed=0.0, *, use_seed=False):
    """support_contact for two congruent (a, b) ellipses.

    use_seed is keyword-only, so a call that warm-starts always names it.
    """
    return support_contact(ellipse_support(a, b), theta, psi, seed, use_seed=use_seed)
