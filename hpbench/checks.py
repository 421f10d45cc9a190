"""Output checks for the benchmark, computed apart from the program under test.

Nothing here imports hardpair.  Every check takes plain numbers and arrays,
recomputes what it needs from the ellipse's closed forms (level function,
boundary parameterization, mass data) and returns a list of problems; an
empty list means the output passed.  No check reads the clock or compares
against stored output.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance of the conservation ledger, scaled by 1 + |V|^2.
CONSERVATION_RTOL = 1e-9
# Overlap and tangency tolerance, as a fraction of the body's diameter.
GAP_RTOL = 1e-9
# Free-flight samples per trajectory in the no-overlap replay.
REPLAY_SAMPLES = 512
# Distinct continuations must differ by more than this times |V|.
DISTINCT_RTOL = 1e-6
REVERSAL_TOL = 1e-6
INVARIANT_TOL = 1e-9
CONTRAST_MIN = 1e-3
IDENTITY_TOL = 1e-5
NORMAL_TOL = 1e-9

_BOUNDARY_N = 256
_NEWTON_STEPS = 6


def mass_data(a: float, b: float) -> tuple[float, float]:
    """Unit-density mass and polar moment of an (a, b) ellipse."""
    m = math.pi * a * b
    return m, m * (a * a + b * b) / 4.0


def _to_frame(px, py, cx, cy, theta):
    """Coordinates of lab points (px, py) in the frame of a body at (cx, cy, theta)."""
    c, s = np.cos(theta), np.sin(theta)
    dx, dy = px - cx, py - cy
    return c * dx + s * dy, -s * dx + c * dy


def boundary_depth(a: float, b: float, XA: np.ndarray, XB: np.ndarray) -> np.ndarray:
    """How far body B's boundary reaches into body A, one value per row.

    XA and XB are (N, 3) rows (x, y, theta) of two congruent (a, b)
    ellipses.  Along B's boundary t -> (a cos t, b sin t), A's level
    function is a trigonometric polynomial of degree 2 in t; it is scanned
    on a uniform grid and its minimum polished by Newton steps.  The
    minimum f, evaluated directly, becomes a signed distance f / |grad f|:
    positive when a boundary point of B lies inside A (by about that
    depth), zero at tangency and negative when the bodies are apart.
    """
    XA = np.atleast_2d(np.asarray(XA, dtype=float))
    XB = np.atleast_2d(np.asarray(XB, dtype=float))
    ox, oy = _to_frame(XB[:, 0], XB[:, 1], XA[:, 0], XA[:, 1], XA[:, 2])
    c, s = np.cos(XB[:, 2] - XA[:, 2]), np.sin(XB[:, 2] - XA[:, 2])
    # B's boundary point in A's frame: (ox + p1 cos t + p2 sin t, oy + q1 cos t + q2 sin t)
    p1, p2, q1, q2 = c * a, -s * b, s * a, c * b
    ia, ib = 1.0 / a**2, 1.0 / b**2
    # f(t) = k0 + k1 cos t + k2 sin t + k3 cos 2t + k4 sin 2t
    k = np.stack([
        (ox**2 + 0.5 * (p1**2 + p2**2)) * ia + (oy**2 + 0.5 * (q1**2 + q2**2)) * ib - 1.0,
        2.0 * (ox * p1 * ia + oy * q1 * ib),
        2.0 * (ox * p2 * ia + oy * q2 * ib),
        0.5 * ((p1**2 - p2**2) * ia + (q1**2 - q2**2) * ib),
        p1 * p2 * ia + q1 * q2 * ib,
    ], axis=1)
    grid = np.linspace(0.0, 2.0 * math.pi, _BOUNDARY_N, endpoint=False)
    basis = np.stack([np.ones_like(grid), np.cos(grid), np.sin(grid),
                      np.cos(2.0 * grid), np.sin(2.0 * grid)])
    scan = k @ basis
    best = np.argmin(scan, axis=1)
    t0 = grid[best]
    t = t0
    step_max = 2.0 * math.pi / _BOUNDARY_N
    for _ in range(_NEWTON_STEPS):
        c1, s1, c2, s2 = np.cos(t), np.sin(t), np.cos(2.0 * t), np.sin(2.0 * t)
        f1 = -k[:, 1] * s1 + k[:, 2] * c1 - 2.0 * k[:, 3] * s2 + 2.0 * k[:, 4] * c2
        f2 = -k[:, 1] * c1 - k[:, 2] * s1 - 4.0 * k[:, 3] * c2 - 4.0 * k[:, 4] * s2
        step = np.where(f2 > 0.0, f1 / np.where(f2 > 0.0, f2, 1.0), 0.0)
        t = np.clip(t - step, t0 - step_max, t0 + step_max)
    x = ox + p1 * np.cos(t) + p2 * np.sin(t)
    y = oy + q1 * np.cos(t) + q2 * np.sin(t)
    f = x * x * ia + y * y * ib - 1.0
    grad = 2.0 * np.hypot(x * ia, y * ib)
    # keep the scan's best sample if the polish wandered to a worse point
    f = np.minimum(f, scan[np.arange(len(best)), best])
    return -f / grad


def penetration(a: float, b: float, X: np.ndarray) -> np.ndarray:
    """Deepest boundary point of either body inside the other, per configuration.

    X is (N, 6) rows (x, y, xbar, ybar, theta, thetabar).  Positive values
    are overlap depths, zero is tangency, negative values are clearances
    (for centres farther apart than 2a, a lower bound on the clearance).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    # centres more than 2a apart leave the circumscribed disks apart
    depth = 2.0 * a - np.hypot(X[:, 2] - X[:, 0], X[:, 3] - X[:, 1])
    near = depth > -1e-3 * a
    A = X[near][:, [0, 1, 4]]
    B = X[near][:, [2, 3, 5]]
    depth[near] = np.maximum(boundary_depth(a, b, A, B), boundary_depth(a, b, B, A))
    return depth


def conservation_jumps(a: float, b: float, X, V_pre, V_post) -> dict:
    """Jumps of linear momentum, angular momentum about the origin and kinetic energy.

    Each jump is divided by 1 + |V_pre|^2.
    """
    m, J = mass_data(a, b)
    X = np.asarray(X, dtype=float)

    def invariants(V):
        v, vb, om, omb = V[0:2], V[2:4], V[4], V[5]
        lin = m * (v + vb)
        ang = m * (X[0] * v[1] - X[1] * v[0] + X[2] * vb[1] - X[3] * vb[0]) + J * (om + omb)
        ke = 0.5 * (m * (v @ v + vb @ vb) + J * (om * om + omb * omb))
        return np.array([lin[0], lin[1], ang, ke])

    V_pre = np.asarray(V_pre, dtype=float)
    d = np.abs(invariants(np.asarray(V_post, dtype=float)) - invariants(V_pre))
    d /= 1.0 + float(V_pre @ V_pre)
    return {"lm_x": d[0], "lm_y": d[1], "am": d[2], "ke": d[3]}


def check_conservation(a: float, b: float, X, V_pre, V_post) -> list[str]:
    jumps = conservation_jumps(a, b, X, V_pre, V_post)
    return [f"{k} jump {v:.2e} > {CONSERVATION_RTOL:g}"
            for k, v in jumps.items() if not v <= CONSERVATION_RTOL]


def check_replay(a: float, b: float, X0, V0, T: float, events) -> list[str]:
    """Replay a trajectory from its events and look for overlap and missed contact.

    events is a sequence of (t, X, V_pre, V_post) in time order, times
    measured from the start.  Between events the pair moves in free flight;
    the replay checks that each event sits where the free flight from the
    previous one arrives, with the velocity that flight carries, that the
    bodies touch at every event, and that at REPLAY_SAMPLES evenly spaced
    times over [0, T] no boundary point of one body lies inside the other
    by more than GAP_RTOL of the diameter.
    """
    tol = GAP_RTOL * 2.0 * a
    problems = []
    X = np.asarray(X0, dtype=float)
    V = np.asarray(V0, dtype=float)
    t_prev = 0.0
    knots = []  # (start time, start X, velocity) of each free-flight piece
    for k, (t, Xe, V_pre, V_post) in enumerate(events):
        Xe, V_pre = np.asarray(Xe, dtype=float), np.asarray(V_pre, dtype=float)
        knots.append((t_prev, X, V))
        arrive = X + (t - t_prev) * V
        if not np.max(np.abs(arrive - Xe)) <= 1e-8 * (1.0 + np.max(np.abs(Xe))):
            problems.append(f"event {k} at t={t:.6g} is off the replayed flight")
        if not np.max(np.abs(V_pre - V)) <= 1e-12 * (1.0 + np.max(np.abs(V))):
            problems.append(f"event {k} pre-collision velocity differs from the flight's")
        X, V, t_prev = Xe, np.asarray(V_post, dtype=float), t
    knots.append((t_prev, X, V))

    if events:
        at_events = penetration(a, b, np.array([np.asarray(e[1], dtype=float) for e in events]))
        for k in np.flatnonzero(~(np.abs(at_events) <= tol)):
            problems.append(f"bodies do not touch at event {k}: depth {at_events[k]:.3e}")

    times = np.linspace(0.0, T, REPLAY_SAMPLES)
    starts = np.array([kn[0] for kn in knots])
    piece = np.searchsorted(starts, times, side="right") - 1
    Xs = np.array([kn[1] for kn in knots])[piece]
    Vs = np.array([kn[2] for kn in knots])[piece]
    Xt = Xs + (times - starts[piece])[:, None] * Vs
    depth = penetration(a, b, Xt)
    worst = int(np.argmax(depth))
    if not depth[worst] <= tol:
        problems.append(
            f"bodies overlap by {depth[worst]:.3e} at t={times[worst]:.6g} "
            f"(tolerance {tol:.1e})"
        )
    return problems


def check_distinct(V_posts, V0, may_meet=()) -> list[str]:
    """Post-collision velocities of different families differ pairwise.

    Two families' maps differ by a matrix of rank one or two.  Where it has
    rank one (an orientation-preserving family against reflection or epsi),
    the two continuations coincide on a hypersurface of pre-collision data,
    so a random datum lands within any tolerance of it now and then.  Such
    pairs are listed in may_meet, and at most one of them may coincide:
    two at once need the velocity's whole component in the complement plane
    to vanish.  Every other pair must differ.
    """
    floor = DISTINCT_RTOL * float(np.linalg.norm(V0))
    V = np.asarray(V_posts, dtype=float)
    may_meet = {tuple(sorted(pair)) for pair in may_meet}
    met, problems = [], []
    for i in range(len(V)):
        for j in range(i + 1, len(V)):
            diff = float(np.max(np.abs(V[i] - V[j])))
            if diff > floor:
                continue
            if (i, j) in may_meet:
                met.append((i, j))
            else:
                problems.append(f"continuations {i} and {j} differ by only {diff:.2e}")
    if len(met) > 1:
        problems.append(f"continuations coincide in {len(met)} pairs at once: {met}")
    return problems


def check_reversal(X0, X_back) -> list[str]:
    """A forward-then-backward run returns to its start (angles mod 2pi)."""
    X0, X_back = np.asarray(X0, dtype=float), np.asarray(X_back, dtype=float)
    err = max(
        float(np.max(np.abs(X_back[0:4] - X0[0:4]))),
        max(abs(math.remainder(float(X_back[k] - X0[k]), 2.0 * math.pi)) for k in (4, 5)),
    )
    return [] if err <= REVERSAL_TOL else [f"time reversal misses the start by {err:.2e}"]


def check_invariant_table(table: dict, labels, known, contrast: str) -> list[str]:
    """Known invariants stay at rounding error; the contrast candidate moves."""
    problems = []
    for name in list(known) + [contrast]:
        row = table.get(name)
        if row is None or set(row) != set(labels):
            problems.append(f"candidate {name!r} missing or without every family")
            continue
        for label in labels:
            r = row[label]
            if name == contrast:
                if not r > CONTRAST_MIN:
                    problems.append(f"{name} under {label} changes by only {r:.2e}")
            elif not r <= INVARIANT_TOL:
                problems.append(f"{name} under {label} has residual {r:.2e}")
    return problems


def check_contact(a: float, b: float, theta: float, thetabar: float, psi: float,
                  d: float, p, q, n, dD_dtheta: float, dD_dpsi: float) -> list[str]:
    """Tangency, normal and derivative identities of one contact solve.

    Body 1 sits at the origin with orientation theta, body 2 at d e(psi)
    with orientation thetabar; p, q, n are in the lab frame.
    """
    tol = GAP_RTOL * 2.0 * a
    p, q, n = (np.asarray(v, dtype=float) for v in (p, q, n))
    e = np.array([math.cos(psi), math.sin(psi)])
    e_perp = np.array([-e[1], e[0]])
    problems = []

    def on_boundary(point, orient):
        x, y = _to_frame(point[0], point[1], 0.0, 0.0, orient)
        f = (x / a) ** 2 + (y / b) ** 2 - 1.0
        g = 2.0 * np.array([x / a**2, y / b**2])
        c, s = math.cos(orient), math.sin(orient)
        return abs(f) / np.linalg.norm(g), np.array([c * g[0] - s * g[1], s * g[0] + c * g[1]])

    off1, grad1 = on_boundary(p, theta)
    if not off1 <= tol:
        problems.append(f"p is {off1:.2e} off body 1's boundary")
    q_own = p - d * e
    if not np.max(np.abs(q - q_own)) <= tol:
        problems.append("q differs from p - d e(psi)")
    off2, _ = on_boundary(q_own, thetabar)
    if not off2 <= tol:
        problems.append(f"p - d e(psi) is {off2:.2e} off body 2's boundary")
    unit = grad1 / np.linalg.norm(grad1)
    if not np.max(np.abs(n - unit)) <= NORMAL_TOL:
        problems.append("n is not the unit outward normal of body 1 at p")
    if not float(n @ e) > 0.0:
        problems.append("n does not face body 2")
    depth = float(penetration(a, b, [[0.0, 0.0, d * e[0], d * e[1], theta, thetabar]])[0])
    if not abs(depth) <= tol:
        problems.append(f"bodies at separation d do not touch: depth {depth:.3e}")
    if not 2.0 * b - tol <= d <= 2.0 * a + tol:
        problems.append(f"separation {d:.6g} outside [2b, 2a]")

    n_til = e - (dD_dpsi / d) * e_perp
    n_dir = abs(1.0 - abs(float(n @ n_til)) / float(np.linalg.norm(n_til)))
    if not n_dir <= IDENTITY_TOL:
        problems.append(f"n is not parallel to e - (D_psi/d) e_perp: {n_dir:.2e}")
    pn = float(-p[1] * n[0] + p[0] * n[1])
    p_res = abs(pn + (dD_dtheta + dD_dpsi) * float(e @ n)) / (1.0 + abs(pn))
    if not p_res <= IDENTITY_TOL:
        problems.append(f"p_perp.n identity off by {p_res:.2e}")
    return problems
