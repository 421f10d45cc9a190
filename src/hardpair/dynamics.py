"""Event-driven evolution of two hard convex bodies in free flight.

Between contacts both bodies translate and rotate uniformly.  The gap
function (center distance minus distance of closest approach at the current
relative angles) is positive on separated states and zero exactly at
contact; collision times are its roots along the free flight.  Detection
advances by certified steps (conservative advancement): each contact solve
at a separated pose yields a slab between the bodies and a lower bound on
its width along the flight, and the flight steps to where that bound could
first reach zero, so every pose visited is separated and no contact can be
stepped over.  Near a transversal contact the steps converge quadratically.
A step works on the six floats of the stepped pose and the kernel's
contact row (geometry._contact_row); it makes no array and no ContactData,
which the pose at a contact writes once.  Resolution replaces the velocity
with its image under a chosen scattering family, once per root; a grazing
root found again right after its event is merged into that event.
Because several families share the same conservation laws, one initial
condition continues into many distinct trajectories, and
divergence_report measures exactly that.  Every flight
is one step, _flight, which ends at the pose its contact is resolved on.
The pose is made once per contact and holds what every family reads: the
anchored configuration and its centers as floats, the frame and the
velocity's verdict, each checked once, W = M V and its reflection in the
normal with sqrt(m) and sqrt(J), the ledger before the map, and the slab
(its width and rate row) the next flight starts from.  The datum's check,
its first flight and the pose there do not depend on the family, so
simulate remembers them for the last datum and the families run on one
datum branch only at the map: a branch whose first certified step passes
the horizon costs its map, its ledger after the map and one slab rate,
with no contact solve.

A conservation ledger (linear momentum, angular momentum about the origin,
kinetic energy) is kept across every event.  Angular momentum is audited
about a single point: invariance of the collision rules under translation
plus conservation of linear momentum extends it to every reference point.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from hardpair.bodies import Body, mass_weights
# d_beta is not called here; it stays bound because hpbench's tracer wraps
# the layer bindings of this module by name
from hardpair.geometry import (  # noqa: F401
    Beta,
    _contact_row,
    closest_approach,
    contact_record,
    d_beta,
    wrap_angle,
)
from hardpair.frames import Frames, build_frame
# scattering_matrix is not called here; it stays bound for the same reason
from hardpair.scattering import (  # noqa: F401
    ScatteringFamily,
    _map_rows,
    frame_rows,
    scattering_matrix,
)

# A flight reaches contact once the separating slab is this thin, relative
# to the diameter, and closing.
_CONTACT_WIDTH = 1e-13
# Admissibility slack, relative to the diameter.
_ADMISSIBLE_RTOL = 1e-9
# A root found within this fraction of the remaining horizon after an
# event, and grazing there, is merged into that event.
_MERGE_RTOL = 1e-12
# A run stops, flagged as a suspected accumulation, after more than this
# many contacts.
_MAX_EVENTS = 10**6
# The largest sample_dt grid a run builds, as T / sample_dt: each grid
# point costs a state and a contact solve.
_MAX_SAMPLES = 10**6
# The bounds of divergence_report's all_conserve and distinct verdicts.
LEDGER_BOUND = 1e-9
DISTINCT_BOUND = 1e-6


class SimulationError(RuntimeError):
    """Trajectory evolution failed (inadmissible state or event explosion)."""


class State(NamedTuple):
    """Configuration X = (x, xbar, theta, thetabar), velocity V, and time."""

    X: np.ndarray
    V: np.ndarray
    t: float = 0.0


def _require_finite(X: np.ndarray, V: np.ndarray | None = None) -> None:
    """A non-finite entry of X or V raises ValueError naming the array and
    the entry."""
    for name, arr in (("X", X), ("V", V)):
        values = [] if arr is None else arr.tolist()
        if not all(map(math.isfinite, values)):
            i = next(i for i, value in enumerate(values) if not math.isfinite(value))
            raise ValueError(f"state {name} holds a non-finite value at entry {i}: {values}")


def make_state(X, V) -> State:
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    if X.shape != (6,) or V.shape != (6,):
        raise ValueError("State requires six configuration and six velocity numbers")
    _require_finite(X, V)
    return State(X=X, V=V)


class CollisionEvent(NamedTuple):
    """One resolved contact: geometry, velocities on both sides, diagnostics."""

    t: float
    X: np.ndarray
    d: float
    s1: float
    s2: float
    V_pre: np.ndarray
    V_post: np.ndarray
    grazing: bool
    anchor_shift: float
    jumps: dict


class Trajectory(NamedTuple):
    """A simulated path: events, sampled states, and the conservation audit.

    samples holds each realized state once: the initial state, the states
    on the sample_dt grid strictly between the start and the end, and the
    final state unless it is already held.  With T = 0 it is the initial
    state, and a run stopped after more than _MAX_EVENTS contacts ends on
    the state right after its last contact; the states right after each
    contact are in events (V_post), not here.
    """

    initial: State
    final: State
    events: list[CollisionEvent]
    samples: list[State]
    min_gap: float
    family_label: str
    accumulation_suspected: bool = False
    merged_grazing: int = 0

    def n_events(self) -> int:
        return len(self.events)

    def max_ledger_jump(self) -> float:
        return max((abs(v) for ev in self.events for v in ev.jumps.values()), default=0.0)


def relative_ledger_jump(body: Body, events: list[CollisionEvent]) -> float:
    """The worst conservation jump over the events, free of any unit.

    For each conserved quantity q the figure is |dq| / (|grad_W q| |W|),
    W = M V_pre, at the event's X: the jump along q's unit gradient in W
    over |W| for the momenta and for angular momentum about the origin, and
    |dKE| / |W|^2 for kinetic energy.  The verdicts read this figure; the
    events keep their absolute jumps.
    """
    m, J = body.m, body.J
    diag = mass_weights(m, J)
    worst = 0.0
    for ev in events:
        speed = math.hypot(*(ev.V_pre * diag).tolist())
        x, y, xb, yb = ev.X.tolist()[0:4]
        am = math.sqrt(m * (x * x + y * y + xb * xb + yb * yb) + 2.0 * J)
        grad = {"lm_x": math.sqrt(2.0 * m), "lm_y": math.sqrt(2.0 * m), "am": am, "ke": speed}
        worst = max(worst, *(abs(ev.jumps[k]) / (g * speed) for k, g in grad.items()))
    return worst


def conserved_quantities(body: Body, X: np.ndarray, V: np.ndarray) -> dict:
    """Linear momentum, angular momentum about the origin and kinetic energy
    of the configuration X and velocity V (arrays of shape (6,))."""
    return _ledger(body, X.tolist()[0:4], V.tolist())


def _ledger(body: Body, centers, v) -> dict:
    """conserved_quantities on floats: centers (x, y, xbar, ybar) and v,
    the six velocity floats."""
    m, J = body.m, body.J
    x, y, xb, yb = centers
    vx, vy, vbx, vby, om, omb = v
    return {
        "lm_x": m * (vx + vbx),
        "lm_y": m * (vy + vby),
        "am": m * ((x * vy - y * vx) + (xb * vby - yb * vbx)) + J * (om + omb),
        "ke": 0.5 * (m * (vx * vx + vy * vy) + m * (vbx * vbx + vby * vby)
                     + J * (om * om + omb * omb)),
    }


def free_flight(Z: State, dt: float) -> State:
    """Uniform translation and rotation for dt; velocities unchanged."""
    if dt < 0.0:
        raise ValueError("free flight requires dt >= 0")
    return State(X=Z.X + dt * Z.V, V=Z.V, t=Z.t + dt)


def _gap_row(body: Body, X, seed: tuple | None = None) -> tuple:
    """Gap at the configuration X, six floats, and the lab-frame contact
    row (geometry._contact_row) behind it: (g, contact).

    seed, the row of a solve at a nearby pose, warm-starts the solve from
    its normal angle s1; a warm solve makes no array and no ContactData.
    A cold solve, at a datum or a state no solve has seen, goes through
    closest_approach, the contact layer's entry, whose calls hpbench's
    tracer counts as contacts; the record it writes is read back as the
    same row.
    """
    x, y, xb, yb, theta, thetabar = X
    dist = math.hypot(xb - x, yb - y)
    if dist == 0.0:
        raise ValueError("coincident centers: gap undefined")
    theta_rel = wrap_angle(thetabar - theta)
    psi_rel = wrap_angle(math.atan2(yb - y, xb - x) - theta)
    if seed is not None:
        contact = _contact_row(body, theta_rel, psi_rel, theta, seed[9], True)
        return dist - contact[0], contact
    c = closest_approach(body, theta_rel, psi_rel, theta=theta, derivatives=True)
    return dist - c.d, (c.d, c.dD_dtheta, c.dD_dpsi, *c.p.tolist(), *c.q.tolist(),
                        *c.n.tolist(), c.s1, c.s2)


def gap(body: Body, X) -> float:
    """Center distance minus the distance of closest approach at the current angles.

    Positive when separated, zero at contact, negative on overlap.  X must
    be six finite numbers, else ValueError naming the entry, as make_state.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (6,):
        raise ValueError(f"gap requires six configuration numbers X, got shape {X.shape}")
    _require_finite(X)
    return _gap_row(body, X.tolist())[0]


def _slab(g: float, contact: tuple) -> tuple:
    """The slab separating the bodies at a pose X, from the gap g and the
    contact row there (see _gap_row): (g, contact, w, row).

    The solve puts body 2 tangent to body 1 at separation d; at X it sits g
    further out along e, so the line through the contact point with normal
    n separates the bodies by w = g (e . n), e = (p - q) / d.  Holding n
    fixed, w changes at V . (-n, n, -p_perp.n, q_perp.n), which _rate reads
    off row = (n_x, n_y, p_perp.n, q_perp.n).  w and row belong to the solve
    and the rate to the velocity, so one slab serves every velocity flown
    from X.
    """
    d, _, _, px, py, qx, qy, nx, ny, _, _ = contact
    e_n = ((px - qx) * nx + (py - qy) * ny) / d
    return g, contact, g * e_n, (nx, ny, px * ny - py * nx, qx * ny - qy * nx)


def _rate(v: list, row: tuple) -> float:
    """The rate of a slab under the velocity floats v, from its _slab row."""
    vx, vy, vbx, vby, om, omb = v
    nx, ny, pn, qn = row
    return (vbx - vx) * nx + (vby - vy) * ny - om * pn + omb * qn


def _certified_step(w: float, rate: float, M: float) -> float:
    """First tau > 0 where w + rate tau - M tau^2 / 2 can reach zero (w >= 0).

    inf when it never does.  Each branch avoids cancellation.
    """
    if rate < 0.0:
        return 2.0 * w / (math.sqrt(rate * rate + 2.0 * M * w) - rate)
    if M == 0.0:
        return math.inf
    return (rate + math.sqrt(rate * rate + 2.0 * M * w)) / M


def _next_collision(body: Body, Z: State, t_max: float, start: tuple | None = None):
    """Root time of the gap along free flight, the minimum gap over the
    poses visited, and the contact row at the root (None without a root).

    start is the _slab at Z.X, when the caller holds it; without it Z.X is
    solved cold.  With n held fixed, the slab width along the flight is
    w(t) = (xbar - x) . n - h(n; theta) - h(-n; thetabar), h the support
    function of the turned body, so |w''| <= K (omega^2 + omegabar^2) = M
    and w(tau) >= w + rate tau - M tau^2 / 2.  Each step goes to the first
    zero of that bound and solves there, warm from the previous solve, on
    the pose's six floats: a step makes no array and no ContactData.  The
    flight ends at a pose whose slab is thinner than _CONTACT_WIDTH and
    closing, or without a root once the bound stays positive up to t_max or
    the pair can no longer touch: once the centers are farther apart than
    the diameter, which bounds D, and not closing, their distance only grows.
    """
    X = x, y, xb, yb, th, thb = Z.X.tolist()
    g, contact, w, row = _slab(*_gap_row(body, X)) if start is None else start
    if g < -_ADMISSIBLE_RTOL * body.diameter:
        raise SimulationError(f"starting gap {g:.3g} is negative beyond tolerance")
    if t_max <= 0.0:
        return None, g, None
    v = Z.V.tolist()
    vx, vy, vbx, vby, om, omb = v
    M = body.K * (om * om + omb * omb)
    diameter = body.diameter
    thin = _CONTACT_WIDTH * diameter
    rx, ry, ux, uy = xb - x, yb - y, vbx - vx, vby - vy
    t, min_seen = 0.0, g
    while True:
        rate = _rate(v, row)
        tau = _certified_step(max(w, 0.0), rate, M)
        # a step too short to move t means t is the root to time resolution
        if (w <= thin and rate < 0.0) or t + tau == t:
            # free_flight(Z, t) reproduces the pose contact was solved at
            return t, min_seen, contact
        t += tau
        if t >= t_max:
            return None, min_seen, None
        px, py = rx + t * ux, ry + t * uy
        if px * ux + py * uy >= 0.0 and px * px + py * py > diameter * diameter:
            return None, min_seen, None
        g, contact, w, row = _slab(*_gap_row(body, (
            x + t * vx, y + t * vy, xb + t * vbx, yb + t * vby, th + t * om, thb + t * omb),
            contact))
        min_seen = min(min_seen, g)


def next_collision_time(body: Body, Z: State, t_max: float):
    """Time of the first contact within [0, t_max] along free flight, or None.

    t_max may be inf; t_max <= 0 gives None and a NaN t_max raises ValueError.
    """
    if math.isnan(t_max):
        raise ValueError(f"t_max must be a number, got {t_max!r}")
    t, _, _ = _next_collision(body, Z, t_max)
    return t


class _Pose(NamedTuple):
    """The pose every family scatters a contact on; see _contact_pose."""

    Z: State
    X: np.ndarray
    centers: tuple
    shift: float
    frame: Frames
    rows: tuple
    before: dict
    slab: tuple


def _contact_pose(body: Body, Z: State, contact: tuple) -> _Pose:
    """The pose every family scatters on at a contact state Z, contact being
    the contact row at Z.X (see _gap_row).

    The second center moves along the center line to the solved separation
    d, which keeps the contact solve and puts the pose at the contact the
    frame's Ebeta is built for, so the ledger holds at any unit of length.
    The pose holds Z, the anchored configuration X, its centers as floats,
    the anchor shift, the frame, frame_rows of the frame and Z.V (the rows
    and Z.V checked; W = M V, W reflected in nu, sqrt(m) and sqrt(J)), the
    ledger of Z.V at X, and the _slab at X that each family's next flight
    starts from.  Each is made once, so a family's branch costs its map,
    its ledger and one rate.  The contact's ContactData is written here,
    once, for the frame; the flight that found it kept rows.
    """
    x, y, xb, yb, theta, thetabar = Z.X.tolist()
    d = contact[0]
    dist = math.hypot(xb - x, yb - y)
    g = dist - d
    if abs(g) > 1e-8 * body.diameter:
        raise SimulationError(f"resolve called away from contact: gap {g:.3g}")
    xb, yb = x + (xb - x) * (d / dist), y + (yb - y) * (d / dist)
    X = np.array([x, y, xb, yb, theta, thetabar])
    beta = Beta(theta, thetabar, math.atan2(yb - y, xb - x))
    frame = build_frame(body, beta, contact_record(contact))
    centers = (x, y, xb, yb)
    return _Pose(Z=Z, X=X, centers=centers, shift=abs(g), frame=frame,
                 rows=frame_rows(frame, Z.V), before=_ledger(body, centers, Z.V.tolist()),
                 slab=_slab(math.hypot(xb - x, yb - y) - d, contact))


def _flight(body: Body, Z: State, remaining: float, start: tuple | None):
    """One free flight from Z over the horizon remaining: (seen, pose), seen
    the minimum gap over the poses visited and pose the _contact_pose at the
    first contact, None without one.  start is the _slab at Z.X, if held."""
    dt, seen, root = _next_collision(body, Z, remaining, start)
    if dt is None:
        return seen, None
    return seen, _contact_pose(body, free_flight(Z, dt), root)


def _resolve_at_contact(body: Body, family: ScatteringFamily, pose: _Pose):
    """Scatter the velocity of the contact state on its _contact_pose;
    returns (new state, event).  The pose flags grazing events.  The map
    and the ledger after it run on floats; V' becomes one array, the
    event's V_post, which the new state shares."""
    Z, X, centers, shift, frame, rows, before, slab = pose
    _, v = _map_rows(family, frame, rows)
    V_post = np.array(v)
    after = _ledger(body, centers, v)
    d, s1, s2 = slab[1][0], slab[1][9], slab[1][10]
    event = CollisionEvent(
        t=Z.t, X=X, d=d, s1=s1, s2=s2, V_pre=Z.V, V_post=V_post,
        grazing=rows[3], anchor_shift=shift, jumps={k: after[k] - before[k] for k in before},
    )
    return State(X=X, V=V_post, t=Z.t), event


# The last datum's first flight, as ((body, Z0, X bytes, V bytes, horizon),
# _first_flight's result); None before any flight and after a failed one.
_last_flight = None


def _first_flight(body: Body, Z0: State, remaining: float):
    """The contact row at Z0 and the _flight from Z0 over the horizon
    remaining, remembered for the last datum.

    The flight to the first contact and the pose there do not depend on the
    family, so the families run on one datum share them: a call on the same
    body and Z0 objects, with the same X and V bytes and the same horizon,
    returns the remembered result.  The entry holds body and Z0, so their
    ids cannot be reused.  Only a new datum is checked: a non-finite X or V,
    or a V whose kinetic energy or K (omega^2 + omegabar^2) overflows,
    raises ValueError.  A bad datum, a failed solve, an inadmissible start
    or a pose that fails its checks raises and leaves no entry.
    """
    global _last_flight
    key = (body, Z0, Z0.X.tobytes(), Z0.V.tobytes(), remaining)
    if _last_flight is not None:
        last, result = _last_flight
        if last[0] is body and last[1] is Z0 and last[2:] == key[2:]:
            return result
    _last_flight = None
    _require_finite(Z0.X, Z0.V)
    om, omb = Z0.V.tolist()[4:6]
    if not (math.isfinite(conserved_quantities(body, Z0.X, Z0.V)["ke"])
            and math.isfinite(body.K * (om * om + omb * omb))):
        raise ValueError(
            f"state V is too large: its kinetic energy or K (omega^2 + omegabar^2) "
            f"overflows, V = {Z0.V.tolist()}")
    start = _slab(*_gap_row(body, Z0.X.tolist()))
    _last_flight = key, (start[1], _flight(body, Z0, remaining, start))
    return _last_flight[1]


def simulate(
    body: Body,
    Z0: State,
    family: ScatteringFamily,
    T: float,
    sample_dt: float | None = None,
) -> Trajectory:
    """Evolve for duration T, alternating free flight and collisions.

    sample_dt, when set, adds the states on a regular time grid to the
    trajectory's samples; it must be a finite number > 0 whose grid
    T / sample_dt holds at most _MAX_SAMPLES points, else ValueError naming
    it; so does a velocity whose kinetic energy or K (omega^2 + omegabar^2)
    overflows.  Stops early with accumulation_suspected when more than _MAX_EVENTS
    contacts occur.  Every root is resolved; a root within the time
    tolerance of the last event whose resolve comes out grazing is the same
    grazing contact found again, so its event is dropped, counted in
    merged_grazing, and the flight steps past it.  Each flight is a _flight
    to its contact pose.  The first comes from _first_flight, which checks
    the datum: a run on the last datum's body and Z0 objects, unchanged,
    over the same horizon, reuses the check, the flight and the pose.
    """
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"horizon T must be finite and nonnegative, got {T}")
    if sample_dt is not None:
        if not (isinstance(sample_dt, numbers.Real) and not isinstance(sample_dt, bool)
                and math.isfinite(sample_dt) and sample_dt > 0.0):
            raise ValueError(
                f"option sample_dt must be None or a finite number > 0, got {sample_dt!r}")
        if T / sample_dt > _MAX_SAMPLES:
            raise ValueError(
                f"option sample_dt {sample_dt!r} asks for T / sample_dt = {T / sample_dt:.3g} "
                f"grid states; at most {_MAX_SAMPLES} are allowed")
    t_end = Z0.t + T
    start, first = _first_flight(body, Z0, t_end - Z0.t)

    Z = Z0
    events: list[CollisionEvent] = []
    min_gap = first[0]
    accumulation = False
    merged = 0
    last_event_t = None
    slab = None

    while (remaining := t_end - Z.t) > 0.0:
        seen, pose = first if Z is Z0 else _flight(body, Z, remaining, slab)
        min_gap = min(min_gap, seen)
        if pose is None:
            Z = free_flight(Z, remaining)
            break
        Z_post, event = _resolve_at_contact(body, family, pose)
        t_tol = _MERGE_RTOL * remaining
        if event.grazing and last_event_t is not None and event.t - last_event_t < t_tol:
            # the last event's grazing root found again: count it into that
            # event and step past it from the contact state
            merged += 1
            Z = free_flight(pose.Z, min(t_tol, t_end - event.t))
            slab = None
            continue
        # the post-event state sits at the pose's X, so the pose's slab starts
        # the next flight
        Z = Z_post
        slab = pose.slab
        events.append(event)
        last_event_t = Z.t
        if len(events) > _MAX_EVENTS:
            accumulation = True
            break

    # the final state is already held when it is the initial one or the
    # state right after the event the run stopped on
    tail = [] if Z is Z0 or accumulation else [Z]
    grid = []
    if sample_dt is not None:
        grid = _resample(Z0, events, Z.t, sample_dt)
        # each solve warm-starts the next; the first from the start pose
        c = start
        for s in grid:
            g, c = _gap_row(body, s.X.tolist(), c)
            min_gap = min(min_gap, g)

    return Trajectory(
        initial=Z0, final=Z, events=events, samples=[Z0, *grid, *tail], min_gap=min_gap,
        family_label=family.label(), accumulation_suspected=accumulation,
        merged_grazing=merged,
    )


def _resample(Z0: State, events, t_end: float, sample_dt: float):
    """States at Z0.t + k sample_dt for k = 1, 2, ... before t_end, replayed
    exactly from the event sequence."""
    out = []
    # replay: piecewise free flight from Z0 through the recorded events
    cur = Z0
    idx = 0
    k = 1
    while (t := Z0.t + k * sample_dt) < t_end:
        while idx < len(events) and events[idx].t <= t:
            dt_ev = events[idx].t - cur.t
            cur = State(X=cur.X + dt_ev * cur.V, V=events[idx].V_post, t=events[idx].t)
            idx += 1
        out.append(State(X=cur.X + (t - cur.t) * cur.V, V=cur.V, t=t))
        k += 1
    return out


def time_reverse_check(body: Body, Z0: State, family: ScatteringFamily, T: float) -> float:
    """Forward T, negate velocities, forward T, negate again; distance to Z0.

    Returns the worse of the largest position error over the diameter and
    the largest angle error (modulo a full turn); involutive scattering
    makes the flow reversible, so it is set by root-finding accuracy alone.
    """
    fwd = simulate(body, Z0, family, T)
    turned = State(X=fwd.final.X, V=-fwd.final.V, t=0.0)
    back = simulate(body, turned, family, T)
    X_back = back.final.X
    err_pos = float(np.max(np.abs(X_back[0:4] - Z0.X[0:4]))) / body.diameter
    # centered wrap: an angle error of -1e-12 must read as 1e-12, not 2*pi
    err_ang = max(
        abs(math.remainder(float(X_back[4] - Z0.X[4]), 2.0 * math.pi)),
        abs(math.remainder(float(X_back[5] - Z0.X[5]), 2.0 * math.pi)),
    )
    return max(err_pos, err_ang)


def divergence_report(
    body: Body,
    Z0: State,
    families: list[ScatteringFamily],
    T: float,
) -> dict:
    """Run the same initial datum under every family and compare outcomes.

    Reports, per family, the post-first-event velocity, final state and
    max_ledger_jump_rel, the relative_ledger_jump all_conserve holds below
    LEDGER_BOUND; per pair, |W'_i - W'_j| / |W0| of the post-first-event
    W' = M V' (velocity_divergence) and the sup-norm difference of the final
    states.  The families are distinct when every pairwise |W'_i - W'_j| /
    |W0| exceeds DISTINCT_BOUND, so it takes at least two families.  A datum
    with no collision within T yields {"degenerate": True}.  The families
    fly the one Z0, so they share its flight to the first contact and the
    frame built and checked there.
    """
    if len(families) < 2:
        raise ValueError("families must list at least two families to compare")
    trajectories = [simulate(body, Z0, fam, T) for fam in families]
    if any(tr.n_events() == 0 for tr in trajectories):
        return {
            "degenerate": True,
            "n_events": [tr.n_events() for tr in trajectories],
            "families": [tr.family_label for tr in trajectories],
        }
    per_family = []
    for tr in trajectories:
        per_family.append({
            "family": tr.family_label,
            "n_events": tr.n_events(),
            "V_post_first": tr.events[0].V_post,
            "final_X": tr.final.X,
            "final_V": tr.final.V,
            "max_ledger_jump": tr.max_ledger_jump(),
            "max_ledger_jump_rel": relative_ledger_jump(body, tr.events),
            "min_gap": tr.min_gap,
        })
    # differences of every pair, rows i against columns j
    diag = mass_weights(body.m, body.J)
    W1 = np.array([tr.events[0].V_post for tr in trajectories]) * (
        diag / math.hypot(*(Z0.V * diag).tolist()))
    vel_diff = np.linalg.norm(W1[:, None] - W1[None, :], axis=-1)
    XV = np.array([np.concatenate([tr.final.X, tr.final.V]) for tr in trajectories])
    fin_diff = np.max(np.abs(XV[:, None] - XV[None, :]), axis=-1)
    least = float(vel_diff[np.triu_indices(len(trajectories), 1)].min())
    return {
        "degenerate": False,
        "families": [tr.family_label for tr in trajectories],
        "per_family": per_family,
        "velocity_divergence": vel_diff,
        "final_state_divergence": fin_diff,
        "all_conserve": bool(all(p["max_ledger_jump_rel"] < LEDGER_BOUND for p in per_family)),
        "min_pairwise_velocity_divergence": least,
        "distinct": least > DISTINCT_BOUND,
    }
