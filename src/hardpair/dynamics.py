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
Resolution replaces the velocity with its image under a chosen scattering
family.  Because several families share the same conservation laws, one
initial condition continues into many distinct trajectories, and
divergence_report measures exactly that.

A conservation ledger (linear momentum, angular momentum about the origin,
kinetic energy) is kept across every event.  Angular momentum is audited
about a single point: invariance of the collision rules under translation
plus conservation of linear momentum extends it to every reference point.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from hardpair.bodies import Body
# d_beta is not called here; it stays bound because hpbench's tracer wraps
# the layer bindings of this module by name
from hardpair.geometry import (  # noqa: F401
    Beta,
    ContactData,
    closest_approach,
    d_beta,
    wrap_angle,
)
from hardpair.frames import build_frame, nu_hat
from hardpair.scattering import (
    GRAZING_RTOL,
    GrazingCollisionWarning,
    NotPreCollisionalError,
    ScatteringFamily,
    apply_scattering,
    normal_projection,
    scattering_matrix,
)

# A flight reaches contact once the separating slab is this thin, relative
# to the diameter, and closing.
_CONTACT_WIDTH = 1e-13
# Admissibility slack, relative to the diameter.
_ADMISSIBLE_RTOL = 1e-9
# Gap magnitudes below this are projected to exact contact before resolving.
_ANCHOR_TOL = 1e-12


class SimulationError(RuntimeError):
    """Trajectory evolution failed (inadmissible state or event explosion)."""


@dataclass(frozen=True)
class State:
    """Configuration X = (x, xbar, theta, thetabar), velocity V, and time."""

    X: np.ndarray
    V: np.ndarray
    t: float = 0.0

    def x(self) -> np.ndarray:
        return self.X[0:2]

    def xbar(self) -> np.ndarray:
        return self.X[2:4]

    def theta(self) -> float:
        return float(self.X[4])

    def thetabar(self) -> float:
        return float(self.X[5])

    def psi(self) -> float:
        rel = self.X[2:4] - self.X[0:2]
        return math.atan2(rel[1], rel[0])

    def beta(self) -> Beta:
        return Beta(self.theta(), self.thetabar(), self.psi())


def _require_finite(X: np.ndarray, V: np.ndarray) -> None:
    for name, arr in (("X", X), ("V", V)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"state {name} holds a non-finite value: {arr.tolist()}")


def make_state(X, V, t: float = 0.0) -> State:
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    if X.shape != (6,) or V.shape != (6,):
        raise ValueError("State requires six configuration and six velocity numbers")
    _require_finite(X, V)
    return State(X=X, V=V, t=float(t))


@dataclass(frozen=True)
class SimOptions:
    """Tunable tolerances; t_tol None falls back to 1e-12 of the remaining horizon.

    t_tol is the window within which a grazing root re-found after an event
    is merged into it. Each field is checked on construction; a value out of
    its domain raises ValueError naming the field.
    """

    t_tol: float | None = None
    grazing_rtol: float = GRAZING_RTOL
    max_events: int = 10**6
    sample_dt: float | None = None

    def __post_init__(self):
        # (field, may be None, may be zero)
        for name, optional, zero_ok in (
            ("t_tol", True, False), ("grazing_rtol", False, True), ("sample_dt", True, False)
        ):
            value = getattr(self, name)
            if optional and value is None:
                continue
            if not (
                isinstance(value, numbers.Real)
                and not isinstance(value, bool)
                and math.isfinite(value)
                and (value >= 0.0 if zero_ok else value > 0.0)
            ):
                rule = ("None or " if optional else "") + "a finite number " + (">= 0" if zero_ok else "> 0")
                raise ValueError(f"option {name} must be {rule}, got {value!r}")
        n = self.max_events
        if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1):
            raise ValueError(f"option max_events must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class CollisionEvent:
    """One resolved contact: geometry, velocities on both sides, diagnostics."""

    t: float
    X: np.ndarray
    beta: Beta
    d: float
    s1: float
    s2: float
    V_pre: np.ndarray
    V_post: np.ndarray
    proj_pre: float
    proj_post: float
    grazing: bool
    anchor_shift: float
    jumps: dict


@dataclass
class Trajectory:
    """A simulated path: events, sampled states, and the conservation audit."""

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
        worst = 0.0
        for ev in self.events:
            worst = max(worst, max(abs(v) for v in ev.jumps.values()))
        return worst


def conserved_quantities(body: Body, Z: State) -> dict:
    """Linear momentum, angular momentum about the origin, kinetic energy."""
    m, J = body.m, body.J
    x, xb = Z.X[0:2], Z.X[2:4]
    v, vb = Z.V[0:2], Z.V[2:4]
    om, omb = float(Z.V[4]), float(Z.V[5])
    cross = lambda a, b: float(a[0] * b[1] - a[1] * b[0])
    return {
        "lm_x": m * float(v[0] + vb[0]),
        "lm_y": m * float(v[1] + vb[1]),
        "am": m * (cross(x, v) + cross(xb, vb)) + J * (om + omb),
        "ke": 0.5 * (m * float(v @ v) + m * float(vb @ vb) + J * (om * om + omb * omb)),
    }


def free_flight(Z: State, dt: float) -> State:
    """Uniform translation and rotation for dt; velocities unchanged."""
    if dt < 0.0:
        raise ValueError("free flight requires dt >= 0")
    return State(X=Z.X + dt * Z.V, V=Z.V, t=Z.t + dt)


def _gap_at(
    body: Body,
    X: np.ndarray,
    seed: ContactData | None = None,
    solved: ContactData | None = None,
):
    """Gap plus the lab-frame contact solve behind it.

    seed, a solve at a nearby pose, warm-starts the solve.  solved is the
    solve at X itself, when the caller already holds it; then no solve is
    made.
    """
    x, y, xb, yb, theta, thetabar = X.tolist()
    dist = math.hypot(xb - x, yb - y)
    if dist == 0.0:
        raise ValueError("coincident centers: gap undefined")
    if solved is not None:
        return dist - solved.d, solved
    contact = closest_approach(
        body,
        wrap_angle(thetabar - theta),
        wrap_angle(math.atan2(yb - y, xb - x) - theta),
        theta=theta,
        _seed=None if seed is None else (seed.s1, seed.s2, seed.d),
    )
    return dist - contact.d, contact


def gap(body: Body, X) -> float:
    """Center distance minus the distance of closest approach at the current angles.

    Positive when separated, zero at contact, negative on overlap.
    """
    g, _ = _gap_at(body, np.asarray(X, dtype=float))
    return g


def _slab(V: np.ndarray, g: float, contact: ContactData):
    """Width of a slab separating the bodies, and its rate under V.

    g and contact are the gap and the lab-frame solve at a pose X.  The
    solve puts body 2 tangent to body 1 at separation d; at X it sits g
    further out along e, so the line through the contact point with normal
    n separates the bodies by w = g (e . n), e = (p - q) / d.  Holding n
    fixed, w changes at V . (-n, n, -p_perp.n, q_perp.n).
    """
    (px, py), (qx, qy), (nx, ny) = contact.p.tolist(), contact.q.tolist(), contact.n.tolist()
    vx, vy, vbx, vby, om, omb = V.tolist()
    e_n = ((px - qx) * nx + (py - qy) * ny) / contact.d
    rate = ((vbx - vx) * nx + (vby - vy) * ny
            - om * (px * ny - py * nx) + omb * (qx * ny - qy * nx))
    return g * e_n, rate


def _certified_step(w: float, rate: float, M: float) -> float:
    """First tau > 0 where w + rate tau - M tau^2 / 2 can reach zero (w >= 0).

    inf when it never does.  Each branch avoids cancellation.
    """
    if rate < 0.0:
        return 2.0 * w / (math.sqrt(rate * rate + 2.0 * M * w) - rate)
    if M == 0.0:
        return math.inf
    return (rate + math.sqrt(rate * rate + 2.0 * M * w)) / M


def _next_collision(body: Body, Z: State, t_max: float,
                    contact: ContactData | None = None):
    """Root time of the gap along free flight, the minimum gap over the
    poses visited, and the contact solve at the root (None without a root).

    contact is the contact solve at Z.X, when the caller holds it.
    With n held fixed, the slab width along the flight is
    w(t) = (xbar - x) . n - h(n; theta) - h(-n; thetabar), h the support
    function of the turned body, so |w''| <= K (omega^2 + omegabar^2) = M
    and w(tau) >= w + rate tau - M tau^2 / 2.  Each step goes to the first
    zero of that bound and solves there, warm from the previous solve; the
    flight ends at a pose whose slab is thinner than _CONTACT_WIDTH and
    closing, or without a root once the bound stays positive up to t_max.
    """
    g, contact = _gap_at(body, Z.X, solved=contact)
    if g < -_ADMISSIBLE_RTOL * body.diameter:
        raise SimulationError(f"starting gap {g:.3g} is negative beyond tolerance")
    if t_max <= 0.0:
        return None, g, None
    V = Z.V
    M = body.K * float(V[4] * V[4] + V[5] * V[5])
    thin = _CONTACT_WIDTH * body.diameter
    t, min_seen = 0.0, g
    while True:
        w, rate = _slab(V, g, contact)
        tau = _certified_step(max(w, 0.0), rate, M)
        # a step too short to move t means t is the root to time resolution
        if (w <= thin and rate < 0.0) or t + tau == t:
            # free_flight(Z, t) reproduces the pose contact was solved at
            return t, min_seen, contact
        t += tau
        if t >= t_max:
            return None, min_seen, None
        g, contact = _gap_at(body, Z.X + t * V, seed=contact)
        min_seen = min(min_seen, g)


def next_collision_time(body: Body, Z: State, t_max: float):
    """Time of the first contact within [0, t_max] along free flight, or None."""
    t, _, _ = _next_collision(body, Z, t_max)
    return t


def _resolve_at_contact(body: Body, Z: State, family: ScatteringFamily, opts: SimOptions,
                        contact: ContactData | None = None):
    """Scatter the velocity at a contact state; returns (new state, event).

    contact is the contact solve at Z.X, when the caller holds it.
    Anchoring moves the second center along the center line, which leaves
    the relative angles and so the contact solve unchanged.
    """
    g, contact = _gap_at(body, Z.X, solved=contact)
    if abs(g) > 1e-8 * body.diameter:
        raise SimulationError(f"resolve called away from contact: gap {g:.3g}")
    X = Z.X
    anchor_shift = 0.0
    if abs(g) < _ANCHOR_TOL:
        # project the second center along the center line to exact contact
        rel = X[2:4] - X[0:2]
        dist = float(np.linalg.norm(rel))
        X = X.copy()
        X[2:4] = X[0:2] + rel * ((dist - g) / dist)
        anchor_shift = abs(g)
        Z = State(X=X, V=Z.V, t=Z.t)
    beta = Z.beta()
    sm = scattering_matrix(family, build_frame(body, beta, contact))
    proj_pre = sm.normal_projection(Z.V)
    grazing = abs(proj_pre) <= opts.grazing_rtol * float(np.linalg.norm(Z.V))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GrazingCollisionWarning)
        V_post = apply_scattering(sm, Z.V)
    proj_post = sm.normal_projection(V_post)
    before = conserved_quantities(body, Z)
    Z_post = State(X=Z.X, V=V_post, t=Z.t)
    after = conserved_quantities(body, Z_post)
    jumps = {k: after[k] - before[k] for k in before}
    event = CollisionEvent(
        t=Z.t, X=Z.X, beta=beta, d=contact.d, s1=contact.s1, s2=contact.s2,
        V_pre=Z.V, V_post=V_post, proj_pre=proj_pre, proj_post=proj_post,
        grazing=grazing, anchor_shift=anchor_shift, jumps=jumps,
    )
    return Z_post, event


def resolve_collision(body: Body, Z: State, family: ScatteringFamily) -> State:
    """Replace the velocity by its scattering image at a contact state.

    The configuration is unchanged (up to the exact-contact projection when
    the gap is already below the anchoring tolerance).
    """
    Z_post, _ = _resolve_at_contact(body, Z, family, SimOptions())
    return Z_post


def simulate(
    body: Body,
    Z0: State,
    family: ScatteringFamily,
    T: float,
    opts: SimOptions | None = None,
) -> Trajectory:
    """Evolve for duration T, alternating free flight and collisions.

    Stops early with accumulation_suspected when more than opts.max_events
    contacts occur; repeated grazing roots within the time tolerance are
    merged rather than re-resolved.
    """
    opts = opts or SimOptions()
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"horizon T must be finite and nonnegative, got {T}")
    _require_finite(Z0.X, Z0.V)
    g0, contact = _gap_at(body, Z0.X)
    if g0 < -_ADMISSIBLE_RTOL * body.diameter:
        raise SimulationError(f"initial gap {g0:.3g} is negative beyond tolerance")
    start = contact

    Z = Z0
    t_end = Z0.t + T
    events: list[CollisionEvent] = []
    samples: list[State] = [Z0]
    min_gap = g0
    accumulation = False
    merged = 0
    last_event_t = None

    while True:
        remaining = t_end - Z.t
        if remaining <= 0.0:
            break
        t_tol = opts.t_tol if opts.t_tol is not None else 1e-12 * remaining
        dt, seen, contact = _next_collision(body, Z, remaining, contact)
        min_gap = min(min_gap, seen)
        if dt is None:
            Z = free_flight(Z, remaining)
            break
        Z = free_flight(Z, dt)
        if (
            last_event_t is not None
            and Z.t - last_event_t < t_tol
            and abs(normal_projection(Z.V, nu_hat(contact, body.m, body.J),
                                      body.m, body.J))
            <= opts.grazing_rtol * float(np.linalg.norm(Z.V))
        ):
            # same grazing root re-found within the time tolerance: count it
            # into the previous event and step past it
            merged += 1
            Z = free_flight(Z, min(t_tol, t_end - Z.t))
            contact = None
            continue
        # the post-event state keeps the pose, so contact stays valid for the
        # next flight
        Z, event = _resolve_at_contact(body, Z, family, opts, contact)
        events.append(event)
        samples.append(Z)
        last_event_t = Z.t
        if len(events) > opts.max_events:
            accumulation = True
            warnings.warn(
                f"stopping after {len(events)} events: accumulation suspected",
                stacklevel=2,
            )
            break

    if opts.sample_dt is not None:
        dense = _resample(body, Z0, events, t_end, opts.sample_dt)
        samples = sorted(dense + samples[1:], key=lambda s: s.t)
        # each solve warm-starts the next; the first from the start pose
        c = start
        for s in samples:
            g, c = _gap_at(body, s.X, seed=c)
            min_gap = min(min_gap, g)

    samples.append(Z)
    return Trajectory(
        initial=Z0, final=Z, events=events, samples=samples, min_gap=min_gap,
        family_label=family.label(), accumulation_suspected=accumulation,
        merged_grazing=merged,
    )


def _resample(body: Body, Z0: State, events, t_end: float, sample_dt: float):
    """States on a regular grid, replayed exactly from the event sequence."""
    out = []
    # replay: piecewise free flight from Z0 through the recorded events
    cur = Z0
    idx = 0
    t = Z0.t
    while t <= t_end + 1e-15:
        while idx < len(events) and events[idx].t <= t:
            dt_ev = events[idx].t - cur.t
            cur = State(X=cur.X + dt_ev * cur.V, V=events[idx].V_post, t=events[idx].t)
            idx += 1
        out.append(State(X=cur.X + (t - cur.t) * cur.V, V=cur.V, t=t))
        t += sample_dt
    return out


def time_reverse_check(body: Body, Z0: State, family: ScatteringFamily, T: float,
                       opts: SimOptions | None = None) -> float:
    """Forward T, negate velocities, forward T, negate again; distance to Z0.

    Returns the worst absolute error over positions and angles (angles
    compared modulo a full turn).  Linear involutive scattering makes the
    flow reversible, so the residual is set by root-finding accuracy alone.
    """
    fwd = simulate(body, Z0, family, T, opts)
    turned = State(X=fwd.final.X, V=-fwd.final.V, t=0.0)
    back = simulate(body, turned, family, T, opts)
    X_back = back.final.X
    err_pos = float(np.max(np.abs(X_back[0:4] - Z0.X[0:4])))
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
    opts: SimOptions | None = None,
) -> dict:
    """Run the same initial datum under every family and compare outcomes.

    Reports, per family, the post-first-event velocity, final state and
    conservation residuals, plus pairwise sup-norm differences of the
    post-first-event velocities and of the final states.  A datum with no
    collision within T yields {"degenerate": True}.
    """
    trajectories = [simulate(body, Z0, fam, T, opts) for fam in families]
    if any(tr.n_events() == 0 for tr in trajectories):
        return {
            "degenerate": True,
            "n_events": [tr.n_events() for tr in trajectories],
            "families": [tr.family_label for tr in trajectories],
        }
    scale = 1.0 + float(Z0.V @ Z0.V)
    per_family = []
    for tr in trajectories:
        per_family.append({
            "family": tr.family_label,
            "n_events": tr.n_events(),
            "V_post_first": tr.events[0].V_post,
            "final_X": tr.final.X,
            "final_V": tr.final.V,
            "max_ledger_jump": tr.max_ledger_jump(),
            "max_ledger_jump_rel": tr.max_ledger_jump() / scale,
            "min_gap": tr.min_gap,
        })
    k = len(trajectories)
    vel_diff = np.zeros((k, k))
    fin_diff = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            vel_diff[i, j] = float(np.max(np.abs(
                per_family[i]["V_post_first"] - per_family[j]["V_post_first"])))
            fin_diff[i, j] = float(max(
                np.max(np.abs(per_family[i]["final_X"] - per_family[j]["final_X"])),
                np.max(np.abs(per_family[i]["final_V"] - per_family[j]["final_V"])),
            ))
    return {
        "degenerate": False,
        "families": [tr.family_label for tr in trajectories],
        "per_family": per_family,
        "velocity_divergence": vel_diff,
        "final_state_divergence": fin_diff,
        "all_conserve": bool(all(p["max_ledger_jump_rel"] < 1e-9 for p in per_family)),
    }
