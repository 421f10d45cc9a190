"""The verification suite behind the `verify` subcommand.

Each check exercises one advertised guarantee end to end at a fixed sample
size, tolerance and seed.  It takes no argument and returns its terms, as
(verdict, text): the verdict on each figure it measured, and a text that
prints the figure next to the bound it is held to.  A check passes when every
term does.  CHECKS lists the eight checks, one per acceptance criterion; both
`verify` and the acceptance tests run that tuple, so they agree by construction.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from hardpair.bodies import make_ellipse, mass_weights
from hardpair.geometry import (
    FD_STEP,
    Beta,
    closest_approach,
    e_of,
    identity_residuals,
)
from hardpair.frames import (
    LineField,
    build_frame,
    e_beta_gram_schmidt,
    sample_contacts,
)
from hardpair.scattering import (
    ScatteringFamily,
    audit_scattering,
    explicit_epsi_velocities,
    impulse_scatter,
    scatter_stack,
)
from hardpair.dynamics import (
    DISTINCT_BOUND,
    LEDGER_BOUND,
    divergence_report,
    make_state,
    next_collision_time,
    relative_ledger_jump,
    simulate,
    time_reverse_check,
)
from hardpair.kinetic import (
    angular_speed_candidate,
    invariant_residual_table,
    standard_candidates,
)

# The frozen non-uniqueness datum: a colliding ellipse configuration whose
# pre-collision velocity has a large component in the complement plane, so
# all six families produce visibly different continuations.
NONUNIQ_X0 = [0.0, 0.0, -0.4300769504, -4.2832023206, 6.27925883, 1.4088799884]
NONUNIQ_V0 = [0.0050130786, 0.124744358, 0.2336652212, 0.7169422611,
              -0.5278013393, -0.5216380153]
NONUNIQ_T = 4.0
NONUNIQ_PHIS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3)
# The bodies the checks run on: the (2, 1) ellipse and the unit disk, the (1, 1) one.
ELL, DISK = make_ellipse(2.0, 1.0), make_ellipse(1.0, 1.0)


class CheckResult(NamedTuple):
    """One check's verdict; its wall time stays out of it (run_all reports it)."""

    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        """The check's line of `verify` output."""
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _bound(bound: float) -> str:
    """A bound as the lines print it: 1e-6, not 1e-06, and 0, not 0e+00."""
    return f"{bound:.0e}".replace("e-0", "e-") if bound else "0"


def _held(label: str, figure: float, bound: float, note: str = "", *,
          above: bool = False) -> tuple[bool, str]:
    """A term of a check: the verdict on the figure, held below the bound (above
    it when `above`; a NaN fails), and its text, which prints the bound."""
    passed = figure > bound if above else figure < bound
    return passed, f"{label} {figure:.2e} ({'>' if above else '<'}{_bound(bound)}{note})"


def six_families() -> list[ScatteringFamily]:
    return [
        ScatteringFamily.reflection(),
        ScatteringFamily.epsi(),
    ] + [
        ScatteringFamily.orientation_preserving(LineField.constant(phi))
        for phi in NONUNIQ_PHIS
    ]


def check_frames() -> list[tuple[bool, str]]:
    """Orthonormality of 1000 random frames and the dual Ebeta routes."""
    n, bound = 1000, 1e-10
    rng = np.random.default_rng(101)
    shapes = [DISK, ELL]
    worst_orth = worst_dual = 0.0
    for k in range(n):
        shape = shapes[k % 2]
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        fr = build_frame(shape, beta)
        worst_orth = max(worst_orth, float(fr.orthonormality_residual()))
        dual = e_beta_gram_schmidt(fr.psi, fr.d, fr.m, fr.J)
        worst_dual = max(worst_dual, float(np.max(np.abs(fr.Ebeta - dual))))
    return [_held("orthonormality", worst_orth, bound), _held("dual-route", worst_dual, bound)]


# The golden ratio's conjugate, the step of the golden-section search on lambda.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def perram_wertheim_distance(a: float, b: float, theta_rel: float, psi_rel: float) -> float:
    """D(theta_rel, psi_rel) of the congruent (a, b) ellipse pair, from the
    contact function of Perram and Wertheim (J. Comput. Phys. 58, 409, 1985).

    With A^-1 = diag(a^2, b^2) and B^-1 the same matrix turned by theta_rel,
    F(lam) = lam (1 - lam) r^T C^-1 r, C = (1 - lam) A^-1 + lam B^-1, is
    concave on [0, 1], and the pair at center offset r touches when its
    maximum is 1.  F is quadratic in r, so D = 1 / sqrt(max F at r = e(psi_rel)).
    C^-1 is the 2x2 adjugate over the determinant: the adjugate is linear in
    C, and det C = a^2 b^2 + lam (1 - lam) (a^2 - b^2)^2 sin^2 theta_rel, so
    both are sums of positive terms.  The route reads the ellipse's matrix,
    never its support function, so it stays independent of the contact
    solve.  Golden section narrows the bracket on lam to 1e-9.
    """
    a2, b2 = a * a, b * b
    # e^T adj(A^-1) e and e^T adj(B^-1) e, e = e(psi_rel)
    g1 = b2 * math.cos(psi_rel) ** 2 + a2 * math.sin(psi_rel) ** 2
    g2 = b2 * math.cos(psi_rel - theta_rel) ** 2 + a2 * math.sin(psi_rel - theta_rel) ** 2
    k = ((a2 - b2) * math.sin(theta_rel)) ** 2

    def F(lam: float) -> float:
        mu = 1.0 - lam
        return lam * mu * (mu * g1 + lam * g2) / (a2 * b2 + lam * mu * k)

    lo, hi = 0.0, 1.0
    x1, x2 = hi - _GOLDEN, lo + _GOLDEN
    f1, f2 = F(x1), F(x2)
    while hi - lo > 1e-9:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = F(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = F(x1)
    return 1.0 / math.sqrt(max(f1, f2))


def pw_solver_gap(body, poses) -> float:
    """The largest |solver D - Perram-Wertheim D| over the diameter, at the
    (theta_rel, psi_rel) rows of poses, for an ellipse body."""
    gaps = (closest_approach(body, th, ps).d - perram_wertheim_distance(body.a, body.b, th, ps)
            for th, ps in poses.tolist())
    return max(map(abs, gaps)) / body.diameter


def pw_margin(body, X) -> float:
    """(center distance - Perram-Wertheim D) over the diameter at the
    configuration X of an ellipse pair: 0 at contact, > 0 when apart."""
    x, y, xb, yb, theta, thetabar = X.tolist()
    d_pw = perram_wertheim_distance(body.a, body.b, thetabar - theta,
                                    math.atan2(yb - y, xb - x) - theta)
    return (math.hypot(xb - x, yb - y) - d_pw) / body.diameter


def check_geometry_oracle() -> list[tuple[bool, str]]:
    """Tangency solver versus Perram and Wertheim's contact function."""
    rng = np.random.default_rng(102)
    poses = rng.uniform(0.0, 2.0 * math.pi, (200, 2))
    terms = [_held(f"{ratio:g}:1 |solver-PW|/diam", pw_solver_gap(make_ellipse(ratio, 1.0), poses),
                   1e-12) for ratio in (2.0, 5.0, 20.0, 50.0)]
    worst_disk = max(abs(closest_approach(DISK, th, ps).d - 2.0)
                     for th, ps in rng.uniform(0.0, 2.0 * math.pi, (50, 2)).tolist())
    return terms + [_held("disk |d-2r|/diam", worst_disk / DISK.diameter, 1e-10)]


def check_identities() -> list[tuple[bool, str]]:
    """Direction identities for the contact normal and the gap gradient.

    The identities are evaluated with finite differences of D with step
    FD_STEP, since the shipped derivatives satisfy them by construction; the
    shipped derivatives are compared against the same differences.
    """
    n = 100
    rng = np.random.default_rng(103)
    worst_e = worst_d = worst_fd = 0.0
    for _ in range(n):
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        res = identity_residuals(ELL, beta)
        worst_e = max(worst_e, res["n_direction"], res["m_nu_gamma"])
        worst_fd = max(worst_fd, res["fd_derivative_gap"])
        res = identity_residuals(DISK, beta)
        worst_d = max(worst_d, res["n_direction"], res["m_nu_gamma"])
    return [
        _held("ellipse collinearity", worst_e, 1e-5),
        _held("disk", worst_d, 1e-10),
        _held("derivatives against finite differences", worst_fd, 1e-6, f" at h={FD_STEP:g}"),
    ]


def check_scattering() -> list[tuple[bool, str]]:
    """Involution, determinant, conservation, half-space flip, dual routes."""
    n, bound = 10000, 1e-10
    m, J = ELL.m, ELL.J
    fams = [
        ScatteringFamily.reflection(),
        ScatteringFamily.epsi(),
        ScatteringFamily.orientation_preserving(LineField.constant(math.pi / 4)),
    ]
    want_sign = (-1, -1, 1)
    # V stays unflipped, so the flip check sees both half-spaces
    frames, V, contact = next(sample_contacts(ELL, n, 104, n))
    Vp, reports = audit_scattering(fams, frames, V)
    flip_ok = all(r["half_space_flip_ok"] for r in reports)
    return [
        _held("involution", max(r["involution"] for r in reports), bound),
        _held("|det|-1", max(r["abs_det_residual"] if r["det_sign"] == want else math.inf
                             for r, want in zip(reports, want_sign)), bound),
        _held("LM", max(max(r["linear_momentum_x"], r["linear_momentum_y"]) for r in reports),
              bound),
        _held("AM", max(r["angular_momentum"] for r in reports), bound),
        _held("KE", max(r["kinetic_energy"] for r in reports), bound),
        (flip_ok, f"flip {'ok' if flip_ok else 'VIOLATED'}"),
        # the dual routes take the contact data, not the frame
        _held("impulse", float(np.max(np.abs(Vp[0] - impulse_scatter(contact, m, J, V)))),
              bound),
        _held("epsi closed form", float(np.max(np.abs(
            Vp[1] - explicit_epsi_velocities(frames.psi, frames.d, m, J, V)))), bound),
    ]


def check_disk_reduction() -> list[tuple[bool, str]]:
    """Reflection on disks is the specular exchange; spins never change."""
    n, bound = 1000, 1e-12
    diag = mass_weights(DISK.m, DISK.J)
    frames, V, _ = next(sample_contacts(DISK, n, 105, n))
    Vp = scatter_stack([ScatteringFamily.reflection()], frames, V * diag)[0] / diag
    nvec = np.stack([np.cos(frames.psi), np.sin(frames.psi)], axis=1)
    k = np.sum((V[:, 0:2] - V[:, 2:4]) * nvec, axis=1)[:, None]
    expect = np.concatenate([V[:, 0:2] - k * nvec, V[:, 2:4] + k * nvec, V[:, 4:6]], axis=1)
    return [_held("specular exchange", float(np.max(np.abs(Vp - expect))), bound),
            _held("spin change", float(np.max(np.abs(Vp[:, 4:6] - V[:, 4:6]))), bound)]


def colliding_ellipse_data(n: int, seed: int):
    """Deterministic initial data on the (2,1) ellipse pair that must collide.

    The centers start more than 2a apart, and the relative velocity, aimed
    with impact parameter at most 0.8 (2b), brings them to distance 2b in free
    flight at t_2b <= 2.5 < T = 4.  The distance of closest approach lies in
    [2b, 2a], so every datum collides before T whatever its angles and spins.
    """
    rng = np.random.default_rng(seed)
    a, b = 2.0, 1.0
    out = []
    for _ in range(n):
        th, thb, psi = rng.uniform(0.0, 2.0 * math.pi, 3)
        R = 2.0 * a + rng.uniform(0.3, 1.0)
        aim = rng.uniform(-0.8, 0.8) * 2.0 * b
        delta = math.asin(aim / R)
        # the relative velocity runs along -e(psi + delta), at distance aim
        # from the first center; it covers `along` to center distance 2b
        along = R * math.cos(delta) - math.sqrt((2.0 * b) ** 2 - aim * aim)
        u = -(along / rng.uniform(1.5, 2.5)) * e_of(psi + delta)
        v = rng.normal(0.0, 0.15, 2)
        om, omb = rng.uniform(-0.5, 0.5, 2)
        Z0 = make_state([0.0, 0.0, R * math.cos(psi), R * math.sin(psi), th, thb],
                        [*v, *(v + u), om, omb])
        out.append((Z0, 4.0))
    return make_ellipse(a, b), out


def check_dynamics() -> list[tuple[bool, str]]:
    """Analytic collision time, conservation ledger, gap floor, reversibility,
    and every event and replayed state against Perram and Wertheim's D."""
    n_data, n_reversals, tol = 50, 8, 1e-9
    Z = make_state([0, 0, 4, 0, 0, 0], [1, 0, 0, 0, 0, 0])
    t_star = next_collision_time(DISK, Z, 10.0)
    t_err = abs(t_star - 2.0) if t_star is not None else math.inf

    ell, data = colliding_ellipse_data(n_data, 106)
    fams = six_families()
    worst_ledger = 0.0
    worst_gap = 0.0
    touch, margins = [], []
    reversals = []
    missed = 0
    for idx, (Z0, T) in enumerate(data):
        fam = fams[idx % len(fams)]
        tr = simulate(ell, Z0, fam, T, T / 40)
        missed += tr.n_events() == 0
        worst_ledger = max(worst_ledger, relative_ledger_jump(ell, tr.events))
        worst_gap = max(worst_gap, -tr.min_gap / ell.diameter)
        touch += [abs(pw_margin(ell, ev.X)) for ev in tr.events]
        margins += [pw_margin(ell, s.X) for s in tr.samples]
        if tr.n_events() <= 5 and len(reversals) < n_reversals:
            reversals.append(time_reverse_check(ell, Z0, fam, T))
    terms = [
        _held("head-on |t*-2|", t_err, tol),
        _held("ledger", worst_ledger, LEDGER_BOUND, f", {n_data} data"),
        _held("gap deficit/diam", worst_gap, tol),
        _held("reversal", max(reversals, default=math.inf), 1e-6),
        _held("PW touch/diam", max(touch, default=math.inf), 1e-12, f", {len(touch)} events"),
        _held("PW margin/diam", min(margins), 0.0, f", {len(margins)} states", above=True),
    ]
    if missed:
        terms.append((False, f"{missed} data without a collision"))
    return terms


def check_non_uniqueness() -> list[tuple[bool, str]]:
    """Six families on the frozen datum: all conserve, all differ."""
    rep = divergence_report(ELL, make_state(NONUNIQ_X0, NONUNIQ_V0), six_families(), NONUNIQ_T)
    if rep["degenerate"]:
        return [(False, "degenerate datum")]
    least = rep["min_pairwise_velocity_divergence"]
    ledger = max(p["max_ledger_jump_rel"] for p in rep["per_family"])
    return [
        (rep["distinct"], f"min pairwise |W'_i-W'_j|/|W0| {least:.3e} (>{_bound(DISTINCT_BOUND)})"),
        (rep["all_conserve"], f"ledger {ledger:.2e} (<{_bound(LEDGER_BOUND)})"),
    ]


def check_kinetic() -> list[tuple[bool, str]]:
    """Known invariants vanish under every family; bare spin only on disks."""
    n = 10000
    fams = [
        ScatteringFamily.reflection(),
        ScatteringFamily.epsi(),
        ScatteringFamily.orientation_preserving(LineField.constant(0.0)),
        ScatteringFamily.orientation_preserving(LineField.constant(math.pi / 4)),
    ]
    table = invariant_residual_table(ELL, fams, standard_candidates(ELL), n, 107)
    known = ("1", "v_x", "v_y", "m|v|^2+Jw^2", "sin(theta)")
    w_disk = invariant_residual_table(
        DISK, [ScatteringFamily.reflection()], [angular_speed_candidate()], n, 107,
    )["w"]["reflection"]
    return [
        _held("known invariants", max(max(table[name].values()) for name in known), 1e-9),
        _held("spin on disk", w_disk, 1e-10),
        _held("on ellipse", min(table["w"].values()), 1e-3, above=True),
    ]


# One check per acceptance criterion, in the order `verify` prints them.
CHECKS = (
    check_frames,
    check_geometry_oracle,
    check_identities,
    check_scattering,
    check_disk_reduction,
    check_dynamics,
    check_non_uniqueness,
    check_kinetic,
)


def name_of(check) -> str:
    """The name a check's line prints: check_disk_reduction prints disk-reduction."""
    return check.__name__.removeprefix("check_").replace("_", "-")


def run(check) -> CheckResult:
    """Run one check: it passes when every one of its terms does."""
    terms = check()
    return CheckResult(name_of(check), all(ok for ok, _ in terms),
                       ", ".join(text for _, text in terms))


def run_all() -> list[tuple[CheckResult, float]]:
    """Run every check in CHECKS, each paired with its wall time in seconds."""
    out = []
    for check in CHECKS:
        t0 = time.perf_counter()
        result = run(check)
        out.append((result, time.perf_counter() - t0))
    return out
