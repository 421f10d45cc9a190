"""The verification suite behind the `verify` subcommand.

Each check exercises one advertised guarantee end to end at a fixed sample
size, tolerance and seed, and reports a single pass/fail result with a
numeric detail string.  The test suite runs the same checks; keeping them
here makes the CLI summary and the tests agree by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from hardpair.bodies import make_disk, make_ellipse, mass_weights
from hardpair.geometry import (
    FD_STEP,
    Beta,
    closest_approach,
    closest_approach_oracle,
    e_of,
    ellipse_shape,
    identity_residuals,
    wrap_angle,
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
    divergence_report,
    make_state,
    next_collision_time,
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


@dataclass
class CheckResult:
    """One check's verdict; its wall time stays out of it (run_all reports it)."""

    name: str
    passed: bool
    detail: str


def six_families() -> list[ScatteringFamily]:
    return [
        ScatteringFamily.reflection(),
        ScatteringFamily.epsi(),
    ] + [
        ScatteringFamily.orientation_preserving(LineField.constant(phi))
        for phi in NONUNIQ_PHIS
    ]


def check_frames(n: int = 1000) -> CheckResult:
    """Orthonormality of 1000 random frames and the dual Ebeta routes."""
    rng = np.random.default_rng(101)
    shapes = [make_disk(1.0), make_ellipse(2.0, 1.0)]
    worst_orth = worst_dual = 0.0
    for k in range(n):
        shape = shapes[k % 2]
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        fr = build_frame(shape, beta)
        worst_orth = max(worst_orth, float(fr.orthonormality_residual()))
        dual = e_beta_gram_schmidt(fr.psi, fr.d, fr.m, fr.J)
        worst_dual = max(worst_dual, float(np.max(np.abs(fr.Ebeta - dual))))
    passed = worst_orth < 1e-10 and worst_dual < 1e-10
    return CheckResult(
        "frames",
        passed,
        f"orthonormality {worst_orth:.2e} (<1e-10), dual-route {worst_dual:.2e} (<1e-10)",
    )


def check_geometry_oracle(n: int = 200) -> CheckResult:
    """Tangency solver versus the independent bisection oracle."""
    rng = np.random.default_rng(102)
    ell = make_ellipse(2.0, 1.0)
    shape = ellipse_shape(2.0, 1.0)
    disk = make_disk(1.0)
    worst = 0.0
    for _ in range(n):
        th, ps = rng.uniform(0.0, 2.0 * math.pi, 2)
        d_fast = closest_approach(ell, th, ps).d
        d_slow = closest_approach_oracle(*shape, th, ps)
        worst = max(worst, abs(d_fast - d_slow))
    worst_disk = 0.0
    for _ in range(50):
        th, ps = rng.uniform(0.0, 2.0 * math.pi, 2)
        worst_disk = max(worst_disk, abs(closest_approach(disk, th, ps).d - 2.0))
    passed = worst < 1e-6 and worst_disk < 1e-10
    return CheckResult(
        "geometry-oracle",
        passed,
        f"ellipse |solver-oracle| {worst:.2e} (<1e-6), disk |d-2r| {worst_disk:.2e} (<1e-10)",
    )


def check_identities(n: int = 100) -> CheckResult:
    """Direction identities for the contact normal and the gap gradient.

    The identities are evaluated with finite differences of D with step
    FD_STEP, since the shipped derivatives satisfy them by construction; the
    shipped derivatives are compared against the same differences.
    """
    rng = np.random.default_rng(103)
    ell = make_ellipse(2.0, 1.0)
    disk = make_disk(1.0)
    worst_e = worst_d = worst_fd = 0.0
    for _ in range(n):
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        res = identity_residuals(ell, beta)
        worst_e = max(worst_e, res["n_direction"], res["m_nu_gamma"])
        worst_fd = max(worst_fd, res["fd_derivative_gap"])
        res = identity_residuals(disk, beta)
        worst_d = max(worst_d, res["n_direction"], res["m_nu_gamma"])
    passed = worst_e < 1e-5 and worst_d < 1e-10 and worst_fd < 1e-6
    return CheckResult(
        "identities",
        passed,
        (
            f"ellipse collinearity {worst_e:.2e} (<1e-5), disk {worst_d:.2e} (<1e-10), "
            f"derivatives against finite differences {worst_fd:.2e} (<1e-6 at h={FD_STEP:g})"
        ),
    )


def check_scattering(n: int = 10000) -> CheckResult:
    """Involution, determinant, conservation, half-space flip, dual routes."""
    ell = make_ellipse(2.0, 1.0)
    m, J = ell.m, ell.J
    fams = [
        ScatteringFamily.reflection(),
        ScatteringFamily.epsi(),
        ScatteringFamily.orientation_preserving(LineField.constant(math.pi / 4)),
    ]
    want_sign = (-1, -1, 1)
    # V stays unflipped, so the flip check sees both half-spaces
    frames, V, normal, pn, qn = next(sample_contacts(ell, n, 104, n))
    Vp, reports = audit_scattering(fams, frames, V)
    worst = {
        "involution": max(r["involution"] for r in reports),
        "det": max(
            r["abs_det_residual"] if r["det_sign"] == want else math.inf
            for r, want in zip(reports, want_sign)),
        "lm": max(max(r["linear_momentum_x"], r["linear_momentum_y"]) for r in reports),
        "am": max(r["angular_momentum"] for r in reports),
        "ke": max(r["kinetic_energy"] for r in reports),
        # the dual routes take the contact data, not the frame
        "impulse": float(np.max(np.abs(Vp[0] - impulse_scatter(normal, pn, qn, m, J, V)))),
        "epsi_explicit": float(np.max(np.abs(
            Vp[1] - explicit_epsi_velocities(frames.psi, frames.d, m, J, V)))),
    }
    flip_ok = all(r["half_space_flip_ok"] for r in reports)
    passed = (
        worst["involution"] < 1e-10 and worst["det"] < 1e-10
        and worst["lm"] < 1e-10 and worst["am"] < 1e-10 and worst["ke"] < 1e-10
        and flip_ok and worst["impulse"] < 1e-10 and worst["epsi_explicit"] < 1e-10
    )
    return CheckResult(
        "scattering",
        passed,
        (
            f"involution {worst['involution']:.2e}, |det|-1 {worst['det']:.2e}, "
            f"LM {worst['lm']:.2e}, AM {worst['am']:.2e}, KE {worst['ke']:.2e} "
            f"(<1e-10 each), flip {'ok' if flip_ok else 'VIOLATED'}, "
            f"impulse {worst['impulse']:.2e}, epsi closed form {worst['epsi_explicit']:.2e}"
        ),
    )


def check_disk_reduction(n: int = 1000) -> CheckResult:
    """Reflection on disks is the specular exchange; spins never change."""
    disk = make_disk(1.0)
    diag = mass_weights(disk.m, disk.J)
    frames, V, *_ = next(sample_contacts(disk, n, 105, n))
    Vp = scatter_stack([ScatteringFamily.reflection()], frames, V * diag)[0] / diag
    nvec = np.stack([np.cos(frames.psi), np.sin(frames.psi)], axis=1)
    k = np.sum((V[:, 0:2] - V[:, 2:4]) * nvec, axis=1)[:, None]
    expect = np.concatenate([V[:, 0:2] - k * nvec, V[:, 2:4] + k * nvec, V[:, 4:6]], axis=1)
    worst = float(np.max(np.abs(Vp - expect)))
    worst_spin = float(np.max(np.abs(Vp[:, 4:6] - V[:, 4:6])))
    passed = worst < 1e-12 and worst_spin < 1e-12
    return CheckResult(
        "disk-reduction",
        passed,
        f"specular exchange {worst:.2e} (<1e-12), spin change {worst_spin:.2e}",
    )


def colliding_ellipse_data(n: int, seed: int):
    """Deterministic colliding initial data on the (2,1) ellipse pair.

    Each datum is anchored at a random contact configuration, backed off
    along the center line, and given an approach velocity with tangential
    and spin noise, so nearly every draw collides; draws that do not are
    skipped.
    """
    rng = np.random.default_rng(seed)
    ell = make_ellipse(2.0, 1.0)
    out = []
    attempts = 0
    while len(out) < n and attempts < 20 * n:
        attempts += 1
        th, thb, psi = rng.uniform(0.0, 2.0 * math.pi, 3)
        c = closest_approach(ell, wrap_angle(thb - th), wrap_angle(psi - th))
        margin = rng.uniform(0.6, 1.4)
        e = e_of(psi)
        x2 = (c.d + margin) * e
        v = rng.normal(0.0, 0.15, 2)
        vb = v - rng.uniform(0.5, 1.1) * e + rng.normal(0.0, 0.1, 2)
        om, omb = rng.uniform(-0.5, 0.5, 2)
        Z0 = make_state([0.0, 0.0, x2[0], x2[1], th, thb], [*v, *vb, om, omb])
        T = 4.0
        if next_collision_time(ell, Z0, T) is None:
            continue
        out.append((Z0, T))
    return ell, out


def check_dynamics(n_data: int = 50) -> CheckResult:
    """Analytic collision time, conservation ledger, gap floor, reversibility."""
    disk = make_disk(1.0)
    Z = make_state([0, 0, 4, 0, 0, 0], [1, 0, 0, 0, 0, 0])
    t_star = next_collision_time(disk, Z, 10.0)
    t_err = abs(t_star - 2.0) if t_star is not None else math.inf

    ell, data = colliding_ellipse_data(n_data, 106)
    fams = six_families()
    worst_ledger = 0.0
    worst_gap = 0.0
    reversals = []
    for idx, (Z0, T) in enumerate(data):
        fam = fams[idx % len(fams)]
        tr = simulate(ell, Z0, fam, T)
        worst_ledger = max(worst_ledger, tr.max_ledger_jump())
        worst_gap = max(worst_gap, -tr.min_gap / ell.diameter)
        if tr.n_events() <= 5 and len(reversals) < 8:
            reversals.append(time_reverse_check(ell, Z0, fam, T))
    worst_rev = max(reversals) if reversals else math.inf
    passed = (
        t_err < 1e-9 and worst_ledger < 1e-9 and worst_gap < 1e-9
        and worst_rev < 1e-6 and len(data) == n_data
    )
    return CheckResult(
        "dynamics",
        passed,
        (
            f"head-on |t*-2| {t_err:.2e} (<1e-9), ledger {worst_ledger:.2e} (<1e-9, {len(data)} data), "
            f"gap deficit {worst_gap:.2e} (<1e-9*diam), reversal {worst_rev:.2e} (<1e-6)"
        ),
    )


def check_nonuniqueness() -> CheckResult:
    """Six families on the frozen datum: all conserve, all differ."""
    rep = divergence_report(make_ellipse(2.0, 1.0), make_state(NONUNIQ_X0, NONUNIQ_V0),
                            six_families(), NONUNIQ_T)
    passed = not rep["degenerate"] and rep["all_conserve"] and rep["distinct"]
    detail = (
        f"degenerate datum"
        if rep["degenerate"]
        else (
            f"min pairwise velocity divergence {rep['min_pairwise_velocity_divergence']:.3e} "
            f"(>1e-6*|V|={1e-6 * rep['velocity_scale']:.1e}), "
            f"all conserve: {rep['all_conserve']}"
        )
    )
    return CheckResult("non-uniqueness", passed, detail)


def check_kinetic(n: int = 10000) -> CheckResult:
    """Known invariants vanish under every family; bare spin only on disks."""
    ell = make_ellipse(2.0, 1.0)
    disk = make_disk(1.0)
    fams = [
        ScatteringFamily.reflection(),
        ScatteringFamily.epsi(),
        ScatteringFamily.orientation_preserving(LineField.constant(0.0)),
        ScatteringFamily.orientation_preserving(LineField.constant(math.pi / 4)),
    ]
    table = invariant_residual_table(ell, fams, standard_candidates(ell), n, 107)
    known = ("1", "v_x", "v_y", "m|v|^2+Jw^2", "sin(theta)")
    worst_known = max(max(table[name].values()) for name in known)
    w_ellipse = min(table["w"].values())
    w_disk = invariant_residual_table(
        disk, [ScatteringFamily.reflection()], [angular_speed_candidate()], n, 107,
    )["w"]["reflection"]
    passed = worst_known < 1e-9 and w_disk < 1e-10 and w_ellipse > 1e-3
    return CheckResult(
        "kinetic",
        passed,
        (
            f"known invariants {worst_known:.2e} (<1e-9), "
            f"spin on disk {w_disk:.2e} (<1e-10), on ellipse {w_ellipse:.2e} (>1e-3)"
        ),
    )


def run_all(quick: bool = False) -> list[tuple[CheckResult, float]]:
    """Run every check, each paired with its wall time in seconds; quick mode
    scales sample counts down for a smoke pass."""
    k = 10 if quick else 1
    checks = (
        lambda: check_frames(n=1000 // k),
        lambda: check_geometry_oracle(n=200 // k),
        lambda: check_identities(n=100 // k),
        lambda: check_scattering(n=10000 // k),
        lambda: check_disk_reduction(n=1000 // k),
        lambda: check_dynamics(n_data=50 // k),
        check_nonuniqueness,
        lambda: check_kinetic(n=10000 // k),
    )
    out = []
    for check in checks:
        t0 = time.perf_counter()
        result = check()
        out.append((result, time.perf_counter() - t0))
    return out
