"""Monte-Carlo probe of collision invariants for each scattering family.

A collision invariant is a single-particle functional phi(v, omega, theta)
whose two-particle sum is unchanged by scattering at every contact.  The
probe samples contact configurations uniformly on the angle torus and
velocities from a standard normal in mass-weighted coordinates (rejected to
the approaching half-space), applies a family's map and reports the worst
observed defect.  Known invariants (constants, the velocity components, the
kinetic energy m|v|^2 + J w^2, and any pure function of the orientation)
should sit at rounding error; a candidate like the bare angular speed
separates bodies with and without rotational coupling: the reflection map
on disks never touches the spins, while on ellipses the contact offsets
trade spin against translation at almost every contact.

The same machinery shows that Maxwellian densities are stationary under
every family: their log-density is an affine combination of conserved
quantities.

Sampler.  Every probe reads one sample stream, made in blocks of at most
_BLOCK samples.  Within a block a scalar loop draws, per sample and in this
order, the angles beta (uniform on [0, 2pi)^3), then solves the contact and
nu at beta, then draws W standard normal in mass-weighted coordinates until
W.nu < 0 (V = M^-1 W).  Everything after the draws runs on arrays over the
block: the frames (frames.build_frames), every family's map
(scattering.scatter_stack) and every candidate.  A seed therefore gives the
same samples whatever the families, candidates or block size.

Candidate contract.  InvariantCandidate.fn takes v of shape (..., 2) and
w, theta of shape (...) and returns an array of shape (...); the probe
raises ValueError naming the candidate otherwise.  Plain NumPy expressions
(v[..., 0] ** 3, np.cos) meet it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hardpair.bodies import Body, MassInertiaMatrix
from hardpair.geometry import Beta
# build_frame and scattering_matrix are not called here; they stay bound
# because hpbench's tracer wraps the layer bindings of this module by name
from hardpair.frames import build_frame, build_frames, contact_normal  # noqa: F401
from hardpair.scattering import (  # noqa: F401
    ScatteringFamily,
    scatter_stack,
    scattering_matrix,
)

_VARIANTS = (
    "constant",
    "momentum_x",
    "momentum_y",
    "kinetic_energy",
    "angular_speed",
    "theta_function",
    "custom",
)

# Samples per array pass.  A block holds a few (_BLOCK, 6, 6) stacks, so
# memory stays flat in n_samples.
_BLOCK = 256


@dataclass(frozen=True)
class InvariantCandidate:
    """A named functional phi(v, omega, theta) tested for collision invariance.

    fn maps v (shape (..., 2)) and w, th (shape (...)) to shape (...).
    """

    name: str
    variant: str
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown candidate variant {self.variant!r}")

    def value(self, v: np.ndarray, w: np.ndarray, th: np.ndarray) -> np.ndarray:
        """fn(v, w, th), checked to have the shape of th."""
        out = np.asarray(self.fn(v, w, th), dtype=float)
        if out.shape != np.shape(th):
            raise ValueError(
                f"candidate {self.name!r} returned shape {out.shape}, "
                f"expected {np.shape(th)}"
            )
        return out

    def pair_sum(self, V: np.ndarray, theta, thetabar) -> np.ndarray:
        """phi summed over both bodies; V has shape (..., 6), the angles (...)."""
        return (self.value(V[..., 0:2], V[..., 4], theta)
                + self.value(V[..., 2:4], V[..., 5], thetabar))


def constant_candidate() -> InvariantCandidate:
    return InvariantCandidate("1", "constant", lambda v, w, th: np.ones_like(w))


def momentum_candidate(axis: int) -> InvariantCandidate:
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    name = "v_x" if axis == 0 else "v_y"
    variant = "momentum_x" if axis == 0 else "momentum_y"
    return InvariantCandidate(name, variant, lambda v, w, th, a=axis: v[..., a])


def kinetic_energy_candidate(m: float, J: float) -> InvariantCandidate:
    return InvariantCandidate(
        "m|v|^2+Jw^2", "kinetic_energy",
        lambda v, w, th: m * np.sum(v * v, axis=-1) + J * w * w,
    )


def angular_speed_candidate() -> InvariantCandidate:
    return InvariantCandidate("w", "angular_speed", lambda v, w, th: w)


def theta_function_candidate(a: Callable[[np.ndarray], np.ndarray], name: str) -> InvariantCandidate:
    """Any pure function of the orientation; collisions never change angles.

    a acts elementwise on arrays of angles (np.sin, not math.sin).
    """
    return InvariantCandidate(name, "theta_function", lambda v, w, th: a(th))


def custom_candidate(name: str, fn: Callable) -> InvariantCandidate:
    return InvariantCandidate(name, "custom", fn)


def standard_candidates(body: Body) -> list[InvariantCandidate]:
    """The reference battery: known invariants plus the angular-speed contrast."""
    return [
        constant_candidate(),
        momentum_candidate(0),
        momentum_candidate(1),
        kinetic_energy_candidate(body.m, body.J),
        theta_function_candidate(np.sin, "sin(theta)"),
        angular_speed_candidate(),
    ]


def _sample_blocks(body: Body, n_samples: int, seed: int):
    """The shared sample stream, as (frames, W) blocks of at most _BLOCK samples.

    W (shape (k, 6)) holds the mass-weighted pre-collision velocities,
    standard normal and resampled until strictly approaching at the sampled
    contact; frames holds the k frames they were drawn at.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, n_samples, _BLOCK):
        k = min(_BLOCK, n_samples - start)
        angles = np.empty((k, 3))
        d = np.empty(k)
        nu = np.empty((k, 6))
        W = np.empty((k, 6))
        for i in range(k):
            beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
            contact, nu[i] = contact_normal(body, beta)
            while True:
                W[i] = rng.standard_normal(6)
                if float(W[i] @ nu[i]) < 0.0:
                    break
            angles[i] = beta.theta, beta.thetabar, beta.psi
            d[i] = contact.d
        theta, thetabar, psi = angles.T
        yield build_frames(theta, thetabar, psi, d, nu, body.m, body.J), W


def _worst_defects(
    body: Body,
    families: list[ScatteringFamily],
    cands: list[InvariantCandidate],
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Worst |Phi(V') - Phi(V)| per (candidate, family), shape (len(cands), len(families))."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    diag = MassInertiaMatrix.from_mass(body.m, body.J).diag
    worst = np.zeros((len(cands), len(families)))
    for frames, W in _sample_blocks(body, n_samples, seed):
        V = W / diag
        Vp = scatter_stack(families, frames, W) / diag
        th = np.broadcast_to(frames.theta, Vp.shape[:-1])
        thb = np.broadcast_to(frames.thetabar, Vp.shape[:-1])
        for c, cand in enumerate(cands):
            before = cand.pair_sum(V, frames.theta, frames.thetabar)
            after = cand.pair_sum(Vp, th, thb)
            worst[c] = np.maximum(worst[c], np.max(np.abs(after - before), axis=1))
    return worst


def invariant_residual(
    body: Body,
    family: ScatteringFamily,
    cand: InvariantCandidate,
    n_samples: int,
    seed: int,
) -> float:
    """Worst |Phi(V') - Phi(V)| over sampled pre-collisional (beta, V)."""
    return float(_worst_defects(body, [family], [cand], n_samples, seed)[0, 0])


def invariant_residual_table(
    body: Body,
    families: list[ScatteringFamily],
    cands: list[InvariantCandidate],
    n_samples: int,
    seed: int,
) -> dict:
    """Residuals for every (candidate, family) pair over one shared sample set.

    Returns {candidate name: {family label: worst residual}}.  Sharing the
    samples makes the table directly comparable across columns and an order
    of magnitude cheaper than independent runs.
    """
    worst = _worst_defects(body, families, cands, n_samples, seed)
    labels = [fam.label() for fam in families]
    return {
        cand.name: {label: float(x) for label, x in zip(labels, row)}
        for cand, row in zip(cands, worst)
    }


def maxwellian_residual(
    body: Body,
    family: ScatteringFamily,
    u,
    temperature: float,
    n_samples: int,
    seed: int,
) -> float:
    """Worst defect of the two-particle log-Maxwellian across collisions.

    The density has log M = const - (m|v - u|^2 + J w^2) / temperature.
    Expanding the square, the two-particle sum is an affine combination of
    kinetic energy and linear momentum, so every family fixes it; the probe
    confirms this at rounding-error scale.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    u = np.asarray(u, dtype=float)
    if u.shape != (2,):
        raise ValueError("drift u must be a 2-vector")
    m, J = body.m, body.J

    def log_m(v: np.ndarray, w: np.ndarray, th: np.ndarray) -> np.ndarray:
        dv = v - u
        return -(m * np.sum(dv * dv, axis=-1) + J * w * w) / temperature

    return invariant_residual(body, family, custom_candidate("log M", log_m), n_samples, seed)
