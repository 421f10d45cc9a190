# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled tangency solver for two congruent ellipses.

C twin of _ref.py: same algorithm, same constants, same return contract.
See _ref.py for the full description of the canonical configuration.
"""

from libc.math cimport atan2, cos, fabs, sin, M_PI

BACKEND_NAME = "compiled"

cdef int _SCAN_N = 64
cdef double _SCAN_MARGIN = 0.02
cdef int _SCAN_BISECT = 10
cdef int _NEWTON_MAX = 50
cdef int _BACKTRACK_MAX = 12


cdef inline void _g_of_alpha(double a, double b, double ct, double st,
                             double cpsi, double spsi, double alpha,
                             double* out) nogil:
    # out = (g, d, s1, s2); see _ref._g_of_alpha
    cdef double ux = cos(alpha)
    cdef double uy = sin(alpha)
    cdef double s1 = atan2(b * uy, a * ux)
    cdef double wx = -(ct * ux + st * uy)
    cdef double wy = -(-st * ux + ct * uy)
    cdef double s2 = atan2(b * wy, a * wx)
    cdef double p1x = a * cos(s1)
    cdef double p1y = b * sin(s1)
    cdef double c2x = a * cos(s2)
    cdef double c2y = b * sin(s2)
    cdef double p2x = ct * c2x - st * c2y
    cdef double p2y = st * c2x + ct * c2y
    cdef double dx = p1x - p2x
    cdef double dy = p1y - p2y
    cdef double eu = cpsi * ux + spsi * uy
    cdef double d = (dx * ux + dy * uy) / eu
    cdef double rx = dx - d * cpsi
    cdef double ry = dy - d * spsi
    out[0] = -rx * uy + ry * ux
    out[1] = d
    out[2] = s1
    out[3] = s2


cdef inline void _residual(double a, double b, double ct, double st,
                           double cpsi, double spsi,
                           double s1, double s2, double d, double* f) nogil:
    cdef double c1 = cos(s1)
    cdef double s1s = sin(s1)
    cdef double c2 = cos(s2)
    cdef double s2s = sin(s2)
    cdef double p2x = ct * (a * c2) - st * (b * s2s)
    cdef double p2y = st * (a * c2) + ct * (b * s2s)
    cdef double n1x = b * c1
    cdef double n1y = a * s1s
    cdef double n2x = ct * (b * c2) - st * (a * s2s)
    cdef double n2y = st * (b * c2) + ct * (a * s2s)
    f[0] = a * c1 - d * cpsi - p2x
    f[1] = b * s1s - d * spsi - p2y
    f[2] = n1x * n2y - n1y * n2x


cdef int _newton(double a, double b, double ct, double st,
                 double cpsi, double spsi,
                 double* s1io, double* s2io, double* dio,
                 double tol_len, double tol_cross, double* resid) nogil:
    cdef double s1 = s1io[0]
    cdef double s2 = s2io[0]
    cdef double d = dio[0]
    cdef double f[3]
    cdef double g[3]
    cdef double c1, s1s, c2, s2s
    cdef double t1x, t1y, t2x, t2y
    cdef double n1x, n1y, n2x, n2y, n1px, n1py, n2px, n2py
    cdef double j11, j12, j13, j21, j22, j23, j31, j32, j33
    cdef double det, b1, b2, b3, ds1, ds2, dd, base, lam
    cdef double s1n, s2n, dn
    cdef double across = a * a if a * a > 1.0 else 1.0
    cdef int it, bt, ok
    _residual(a, b, ct, st, cpsi, spsi, s1, s2, d, f)
    for it in range(_NEWTON_MAX):
        if fabs(f[0]) < tol_len and fabs(f[1]) < tol_len and fabs(f[2]) < tol_cross:
            s1io[0] = s1
            s2io[0] = s2
            dio[0] = d
            resid[0] = max3(fabs(f[0]), fabs(f[1]), fabs(f[2]) / across)
            return 1
        c1 = cos(s1)
        s1s = sin(s1)
        c2 = cos(s2)
        s2s = sin(s2)
        t1x = -a * s1s
        t1y = b * c1
        t2x = ct * (-a * s2s) - st * (b * c2)
        t2y = st * (-a * s2s) + ct * (b * c2)
        n1x = b * c1
        n1y = a * s1s
        n2x = ct * (b * c2) - st * (a * s2s)
        n2y = st * (b * c2) + ct * (a * s2s)
        n1px = -b * s1s
        n1py = a * c1
        n2px = ct * (-b * s2s) - st * (a * c2)
        n2py = st * (-b * s2s) + ct * (a * c2)
        j11 = t1x
        j12 = -t2x
        j13 = -cpsi
        j21 = t1y
        j22 = -t2y
        j23 = -spsi
        j31 = n1px * n2y - n1py * n2x
        j32 = n1x * n2py - n1y * n2px
        j33 = 0.0
        det = (j11 * (j22 * j33 - j23 * j32)
               - j12 * (j21 * j33 - j23 * j31)
               + j13 * (j21 * j32 - j22 * j31))
        if det == 0.0:
            s1io[0] = s1
            s2io[0] = s2
            dio[0] = d
            resid[0] = max3(fabs(f[0]), fabs(f[1]), fabs(f[2]) / across)
            return 0
        b1 = -f[0]
        b2 = -f[1]
        b3 = -f[2]
        ds1 = (b1 * (j22 * j33 - j23 * j32)
               - j12 * (b2 * j33 - j23 * b3)
               + j13 * (b2 * j32 - j22 * b3)) / det
        ds2 = (j11 * (b2 * j33 - j23 * b3)
               - b1 * (j21 * j33 - j23 * j31)
               + j13 * (j21 * b3 - b2 * j31)) / det
        dd = (j11 * (j22 * b3 - b2 * j32)
              - j12 * (j21 * b3 - b2 * j31)
              + b1 * (j21 * j32 - j22 * j31)) / det
        base = max3(fabs(f[0]), fabs(f[1]), fabs(f[2]))
        lam = 1.0
        for bt in range(_BACKTRACK_MAX):
            s1n = s1 + lam * ds1
            s2n = s2 + lam * ds2
            dn = d + lam * dd
            _residual(a, b, ct, st, cpsi, spsi, s1n, s2n, dn, g)
            if max3(fabs(g[0]), fabs(g[1]), fabs(g[2])) < base:
                break
            lam *= 0.5
        s1 = s1n
        s2 = s2n
        d = dn
        f[0] = g[0]
        f[1] = g[1]
        f[2] = g[2]
    ok = 1 if (fabs(f[0]) < tol_len and fabs(f[1]) < tol_len and fabs(f[2]) < tol_cross) else 0
    s1io[0] = s1
    s2io[0] = s2
    dio[0] = d
    resid[0] = max3(fabs(f[0]), fabs(f[1]), fabs(f[2]) / across)
    return ok


cdef inline bint _external(double a, double b, double ct, double st,
                           double cpsi, double spsi, double s1, double s2) nogil:
    # see _ref._external
    cdef double n1x = b * cos(s1)
    cdef double n1y = a * sin(s1)
    cdef double c2 = cos(s2)
    cdef double s2s = sin(s2)
    cdef double n2x = ct * (b * c2) - st * (a * s2s)
    cdef double n2y = st * (b * c2) + ct * (a * s2s)
    return n1x * cpsi + n1y * spsi > 0.0 and n1x * n2x + n1y * n2y < 0.0


cdef inline double max3(double x, double y, double z) nogil:
    cdef double m = x
    if y > m:
        m = y
    if z > m:
        m = z
    return m


def ellipse_contact(double a, double b, double theta, double psi,
                    double s1_seed=0.0, double s2_seed=0.0, double d_seed=0.0,
                    bint use_seed=False):
    """Contact data for two congruent (a, b) ellipses in relative pose (theta, psi).

    Same contract as the reference implementation: returns
    (d, s1, s2, resid, ok).
    """
    cdef double ct = cos(theta)
    cdef double st = sin(theta)
    cdef double cpsi = cos(psi)
    cdef double spsi = sin(psi)
    cdef double tol_len = 1e-13 * (a if a > 1.0 else 1.0)
    cdef double tol_cross = 1e-13 * (a * a if a * a > 1.0 else 1.0)
    cdef double s1, s2, d, resid
    cdef double lo, hi, step, al, alo, x0, x1, g0
    cdef double ga_v[4]
    cdef double gb_v[4]
    cdef double gm_v[4]
    cdef int k, j, found, ok

    if use_seed:
        s1 = s1_seed
        s2 = s2_seed
        d = d_seed
        ok = _newton(a, b, ct, st, cpsi, spsi, &s1, &s2, &d, tol_len, tol_cross, &resid)
        if ok and d > 0.0 and _external(a, b, ct, st, cpsi, spsi, s1, s2):
            return d, s1, s2, resid, True

    lo = psi - M_PI / 2 + _SCAN_MARGIN
    hi = psi + M_PI / 2 - _SCAN_MARGIN
    step = (hi - lo) / (_SCAN_N - 1)
    _g_of_alpha(a, b, ct, st, cpsi, spsi, lo, ga_v)
    found = 0
    alo = lo
    s1 = 0.0
    s2 = 0.0
    d = 0.0
    for k in range(1, _SCAN_N):
        al = lo + k * step
        _g_of_alpha(a, b, ct, st, cpsi, spsi, al, gb_v)
        if ga_v[0] == 0.0:
            s1 = ga_v[2]
            s2 = ga_v[3]
            d = ga_v[1]
            found = 1
            break
        if ga_v[0] * gb_v[0] < 0.0:
            x0 = alo
            x1 = al
            g0 = ga_v[0]
            for j in range(_SCAN_BISECT):
                _g_of_alpha(a, b, ct, st, cpsi, spsi, 0.5 * (x0 + x1), gm_v)
                if gm_v[0] == 0.0:
                    break
                if g0 * gm_v[0] < 0.0:
                    x1 = 0.5 * (x0 + x1)
                else:
                    g0 = gm_v[0]
                    x0 = 0.5 * (x0 + x1)
            _g_of_alpha(a, b, ct, st, cpsi, spsi, 0.5 * (x0 + x1), gm_v)
            s1 = gm_v[2]
            s2 = gm_v[3]
            d = gm_v[1]
            found = 1
            break
        ga_v[0] = gb_v[0]
        ga_v[1] = gb_v[1]
        ga_v[2] = gb_v[2]
        ga_v[3] = gb_v[3]
        alo = al
    if not found:
        return 0.0, 0.0, 0.0, float("inf"), False

    ok = _newton(a, b, ct, st, cpsi, spsi, &s1, &s2, &d, tol_len, tol_cross, &resid)
    if not ok or d <= 0.0 or not _external(a, b, ct, st, cpsi, spsi, s1, s2):
        return d, s1, s2, resid, False
    return d, s1, s2, resid, True
