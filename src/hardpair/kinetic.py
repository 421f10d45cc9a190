"""Monte-Carlo probe of collision invariants for each scattering family.

A collision invariant is a single-particle functional phi(v, omega, theta)
whose two-particle sum is unchanged by scattering at every contact.  The
probe samples contact configurations uniformly on the angle torus and
velocities from a standard normal in mass-weighted coordinates (reflected
into the approaching half-space), applies a family's map and reports the worst
observed defect.  Known invariants (constants, the velocity components, the
kinetic energy m|v|^2 + J w^2, and any pure function of the orientation)
should sit at rounding error; a candidate like the bare angular speed
separates bodies with and without rotational coupling: the reflection map
on disks never touches the spins, while on ellipses the contact offsets
trade spin against translation at almost every contact.

The same table shows that Maxwellian densities are stationary under every
family: the log-density -(m|v - u|^2 + J w^2) / T is an affine combination
of kinetic energy and linear momentum, so as a candidate it sits at
rounding error.

Sampler.  Every probe reads one sample stream, frames.sample_contacts in
blocks of at most _BLOCK samples.  It draws the angles beta (uniform on
[0, 2pi)^3) and W (standard normal in mass-weighted coordinates) as arrays
from two streams spawned from the seed, and makes one contact call per
block (geometry.d_beta on the block's angle arrays, one kernel solve per
pose inside it).  The probe sends W to -W wherever W.nu > 0; the normal law
is symmetric, so W has the law conditioned on W.nu < 0 (W.nu = 0 has
probability zero), and V = M^-1 W.  Everything else runs on arrays over the
block: the contact record, the frames (frames.build_frames), every family's
map (scattering.scatter_stack, one pass) and every candidate, called once
on V and all the families' V' stacked, both bodies on a leading axis.  The
streams are read row by row, so a seed gives the same samples whatever the
families, candidates or block size.

Candidate contract.  InvariantCandidate.fn takes v of shape (..., 2) and
w, theta of shape (...) and returns shape (...), elementwise over any
leading axes; the probe raises ValueError naming the candidate otherwise.
It calls fn once per block, axis 0 holding the two bodies.  Plain NumPy
expressions (v[..., 0] ** 3, np.cos) meet it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from hardpair.bodies import Body, mass_weights
# build_frame and scattering_matrix are not called here; they stay bound
# because hpbench's tracer wraps the layer bindings of this module by name
from hardpair.frames import build_frame, sample_contacts  # noqa: F401
from hardpair.scattering import (  # noqa: F401
    ScatteringFamily,
    scatter_stack,
    scattering_matrix,
)

# Samples per array pass.  A block holds a few (_BLOCK, 6, 6) stacks, so
# memory stays flat in n_samples.
_BLOCK = 256


class InvariantCandidate(NamedTuple):
    """A named functional phi(v, omega, theta) tested for collision invariance.

    fn maps v (shape (..., 2)) and w, th (shape (...)) to shape (...).
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def value(self, v: np.ndarray, w: np.ndarray, th: np.ndarray) -> np.ndarray:
        """fn(v, w, th), checked to have the shape of th."""
        out = np.asarray(self.fn(v, w, th), dtype=float)
        if out.shape != np.shape(th):
            raise ValueError(
                f"candidate {self.name!r} returned shape {out.shape}, "
                f"expected {np.shape(th)}"
            )
        return out


def constant_candidate() -> InvariantCandidate:
    return InvariantCandidate("1", lambda v, w, th: np.ones_like(w))


def momentum_candidate(axis: int) -> InvariantCandidate:
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    name = "v_x" if axis == 0 else "v_y"
    return InvariantCandidate(name, lambda v, w, th, a=axis: v[..., a])


def kinetic_energy_candidate(m: float, J: float) -> InvariantCandidate:
    return InvariantCandidate(
        "m|v|^2+Jw^2",
        lambda v, w, th: m * np.sum(v * v, axis=-1) + J * w * w,
    )


def angular_speed_candidate() -> InvariantCandidate:
    return InvariantCandidate("w", lambda v, w, th: w)


def theta_function_candidate(a: Callable[[np.ndarray], np.ndarray], name: str) -> InvariantCandidate:
    """Any pure function of the orientation; collisions never change angles.

    a acts elementwise on arrays of angles (np.sin, not math.sin).
    """
    return InvariantCandidate(name, lambda v, w, th: a(th))


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
    """The probe's sample stream, as (frames, W) blocks of at most _BLOCK samples.

    W (shape (k, 6)) holds the mass-weighted pre-collision velocities,
    standard normal and turned to -W where they separate at the sampled
    contact; frames holds the k frames they were drawn at.
    """
    for frames, W, *_ in sample_contacts(body, n_samples, seed, _BLOCK):
        W[(W * frames.nu).sum(axis=1) > 0.0] *= -1.0
        yield frames, W


def _worst_defects(
    body: Body,
    families: list[ScatteringFamily],
    cands: list[InvariantCandidate],
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Worst |Phi(V') - Phi(V)| per (candidate, family), shape (len(cands), len(families))."""
    diag = mass_weights(body.m, body.J)
    worst = np.zeros((len(cands), len(families)))
    for frames, W in _sample_blocks(body, n_samples, seed):
        # block 0 holds V, block 1 + f family f's V'
        V = np.concatenate((W[None], scatter_stack(families, frames, W))) / diag
        # axis 0: the two bodies, as views of V
        v = V[..., 0:4].reshape(V.shape[:-1] + (2, 2)).transpose(2, 0, 1, 3)
        w = V[..., 4:6].transpose(2, 0, 1)
        th = np.empty(w.shape)
        th[0], th[1] = frames.theta, frames.thetabar
        s = np.array([cand.value(v, w, th) for cand in cands])
        s = s[:, 0] + s[:, 1]
        worst = np.maximum(worst, np.max(np.abs(s[:, 1:] - s[:, :1]), axis=-1))
    return worst


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
    of magnitude cheaper than independent runs.  Rows are keyed by name and
    columns by label, so candidates that share a name, or families that
    share a label, raise ValueError naming both positions; a bad n_samples
    or seed raises as frames.sample_contacts does.
    """
    labels = [fam.label() for fam in families]
    for field, what, keys in (("candidates", "name", [c.name for c in cands]),
                              ("families", "label", labels)):
        for j, key in enumerate(keys):
            if key in keys[:j]:
                raise ValueError(f"{field}[{keys.index(key)}] and {field}[{j}] "
                                 f"share the {what} {key!r}")
    worst = _worst_defects(body, families, cands, n_samples, seed)
    return {
        cand.name: {label: float(x) for label, x in zip(labels, row)}
        for cand, row in zip(cands, worst)
    }
