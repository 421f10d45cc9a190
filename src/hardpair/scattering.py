"""Collision maps: families of linear scattering matrices at a contact.

Every family conjugates an orthogonal involution A of mass-weighted velocity
space by the mass-inertia matrix, s = M^-1 A M.  A fixes the conserved
directions E1, E2, Ebeta and negates the collision normal nu; the families
differ in what they do on the leftover two-plane:

  reflection              A = I - 2 nu nu^T             (det -1)
  epsi                    A = 2(E1 E1^T + E2 E2^T + Ebeta Ebeta^T) - I
                          negates the whole complement  (det -1)
  orientation preserving  A = I - 2 nu nu^T - 2 F F^T   (det +1)
                          with F picked from the complement plane by a
                          line field over the relative configuration

All of them conserve linear momentum, angular momentum and kinetic energy
and map approaching velocities to separating ones, so a single pre-collision
state admits many distinct physical continuations.

Two independent routes cross-check the matrices: an impulse computation
along the contact normal reproduces the reflection family, and closed-form
velocity expressions reproduce the epsi family.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from hardpair.bodies import MassInertiaMatrix
from hardpair.frames import (
    E1_HAT,
    E2_HAT,
    Frame,
    Frames,
    LineField,
    angular_momentum_vector,
    complement_basis,
    line_field_from_config,
    rotate_blocks,
)
from hardpair.geometry import Beta, ContactData, e_of, perp

# Relative tolerance on V.(M nu) below which a collision counts as grazing.
GRAZING_RTOL = 1e-9

_VARIANTS = ("reflection", "epsi", "op")


class NotPreCollisionalError(ValueError):
    """The velocity is separating at the contact; no collision to resolve."""


class GrazingCollisionWarning(UserWarning):
    """The velocity is tangent to the contact within tolerance; map applied anyway."""


@dataclass(frozen=True)
class ScatteringFamily:
    """A named collision rule; 'op' additionally carries its line field."""

    variant: str
    line_field: LineField | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown scattering variant {self.variant!r}")
        if self.variant == "op" and self.line_field is None:
            raise ValueError("orientation-preserving family requires a line field")

    @staticmethod
    def reflection() -> "ScatteringFamily":
        return ScatteringFamily("reflection")

    @staticmethod
    def epsi() -> "ScatteringFamily":
        return ScatteringFamily("epsi")

    @staticmethod
    def orientation_preserving(line_field: LineField) -> "ScatteringFamily":
        return ScatteringFamily("op", line_field=line_field)

    def label(self) -> str:
        if self.variant == "op":
            lf = self.line_field
            if lf.kind == "constant":
                return f"op(phi={lf.phi:.6g})"
            return "op(fourier)"
        return self.variant


def family_from_config(cfg: dict) -> ScatteringFamily:
    """Build a family from {"family": "reflection"|"epsi"|"op", ...}.

    The 'op' variant requires a "line_field" sub-object.
    """
    if not isinstance(cfg, dict):
        raise ValueError("family config must be an object")
    name = cfg.get("family")
    if name == "reflection":
        return ScatteringFamily.reflection()
    if name == "epsi":
        return ScatteringFamily.epsi()
    if name == "op":
        if "line_field" not in cfg:
            raise ValueError("family 'op' requires a 'line_field' object")
        return ScatteringFamily.orientation_preserving(
            line_field_from_config(cfg["line_field"])
        )
    raise ValueError(f"unknown family {name!r}")


@dataclass(frozen=True)
class ScatterMatrix:
    """The velocity-space map s = M^-1 A M together with its orthogonal core."""

    s: np.ndarray
    A: np.ndarray
    frame: Frame
    family: ScatteringFamily

    def normal_projection(self, V: np.ndarray) -> float:
        """V.(M nu); negative for approaching states, positive for separating."""
        return normal_projection(V, self.frame.nu, self.frame.m, self.frame.J)


def normal_projection(V: np.ndarray, nu: np.ndarray, m: float, J: float) -> float:
    """V.(M nu) for the collision normal nu of a frame with mass data (m, J)."""
    mim = MassInertiaMatrix.from_mass(m, J)
    return float(mim.apply(np.asarray(V, dtype=float)) @ nu)


def _cores(families: list[ScatteringFamily], frames: Frames) -> list:
    """Each family's orthogonal core A at every frame, as (sign, U).

    A = sign (I - 2 U^T U), where U (shape (N, k, 6)) holds orthonormal
    rows: nu for reflection (sign +1), nu and the line-field direction for
    op (sign +1), and E1, E2, Ebeta for epsi (sign -1, i.e.
    A = 2 (E1 E1^T + E2 E2^T + Ebeta Ebeta^T) - I).

    The 'op' line field is a function of the reduced relative configuration
    (thetabar - theta, psi - theta) alone, and its angle is interpreted in
    the canonical gauge: the complement pair is constructed in the
    rotated-back configuration (theta = 0) and the selected direction is
    transported to the lab by the block rotation.  That transport is what
    makes the assembled map rotation covariant, i.e. a genuine function of
    the relative configuration; the per-frame seed basis (F1, F2) alone
    would not be, since coordinate seeds break the rotation symmetry.  The
    rotated-back pair is built once and shared by every op family.
    """
    if frames.orthonormality_residual().max() > 1e-8:
        raise ValueError("frame is not orthonormal; refusing to build a scattering matrix")
    reduced = None
    cores = []
    for fam in families:
        if fam.variant == "reflection":
            cores.append((1.0, frames.nu[:, None, :]))
        elif fam.variant == "epsi":
            cores.append((-1.0, frames.basis()[:, 0:3]))
        else:
            if reduced is None:
                back = -frames.theta
                reduced = complement_basis(
                    E1_HAT, E2_HAT, rotate_blocks(frames.Ebeta, back),
                    rotate_blocks(frames.nu, back))
            phi = fam.line_field.angle(*frames.reduced())[:, None]
            fhat = rotate_blocks(np.cos(phi) * reduced[0] + np.sin(phi) * reduced[1],
                                 frames.theta)
            cores.append((1.0, np.stack([frames.nu, fhat], axis=1)))
    return cores


def scattering_matrix(family: ScatteringFamily, frame: Frame) -> ScatterMatrix:
    """Assemble the family's matrix s = M^-1 A M at the given frame.

    The N = 1 case of the maps scatter_stack applies; see _cores for A and
    the gauge of the 'op' line field.
    """
    ((sign, U),) = _cores([family], frame.stack())
    U = U[0]
    A = sign * (np.eye(6) - 2.0 * (U.T @ U))
    mim = MassInertiaMatrix.from_mass(frame.m, frame.J)
    diag = mim.diag
    s = A * (diag[np.newaxis, :] / diag[:, np.newaxis])
    return ScatterMatrix(s=s, A=A, frame=frame, family=family)


def scatter_stack(families: list[ScatteringFamily], frames: Frames, W: np.ndarray) -> np.ndarray:
    """Mass-weighted velocities W = M V (shape (N, 6)) mapped by every family.

    Returns shape (len(families), N, 6): block f, row i is A W[i] for family
    f at frame i.  Each map is applied as its low-rank update of W, so no
    matrix is formed; the frames are checked for orthonormality once.
    """
    out = np.empty((len(families),) + W.shape)
    for f, (sign, U) in enumerate(_cores(families, frames)):
        c = U @ W[:, :, None]
        out[f] = sign * (W - 2.0 * np.sum(c * U, axis=1))
    return out


def apply_scattering(sm: ScatterMatrix, V: np.ndarray) -> np.ndarray:
    """Map a pre-collisional velocity through the family.

    Rejects separating inputs: V.(M nu) must be negative, up to the grazing
    tolerance GRAZING_RTOL * |V|.  Grazing inputs (|V.(M nu)| within
    tolerance) are mapped anyway, with a GrazingCollisionWarning; the map
    fixes the grazing hyperplane so this is harmless.  A non-finite V raises
    ValueError.
    """
    V = np.asarray(V, dtype=float)
    if not np.isfinite(V).all():
        raise ValueError(f"velocity V holds a non-finite value: {V.tolist()}")
    proj = sm.normal_projection(V)
    tol = GRAZING_RTOL * float(np.linalg.norm(V))
    if proj > tol:
        raise NotPreCollisionalError(
            f"velocity is separating at the contact: V.(M nu) = {proj:.6g} > {tol:.6g}"
        )
    if abs(proj) <= tol:
        warnings.warn(
            f"grazing collision: |V.(M nu)| = {abs(proj):.3g} within tolerance",
            GrazingCollisionWarning,
            stacklevel=2,
        )
    return sm.s @ V


def impulse_scatter(contact: ContactData, m: float, J: float, V: np.ndarray) -> np.ndarray:
    """Resolve the collision by a normal impulse at the contact point.

    The impulse magnitude alpha = 2 (v + w p_perp - vbar - wbar q_perp).n / Lambda,
    Lambda = 2/m + (p_perp.n)^2/J + (q_perp.n)^2/J, is the nonzero root of the
    energy-conservation quadratic; alpha = 0 (the identity branch) is the
    other root and is not a collision.  Agrees with the reflection family's
    matrix route to rounding error.
    """
    V = np.asarray(V, dtype=float)
    v, vbar = V[0:2], V[2:4]
    om, omb = V[4], V[5]
    n = contact.n
    pn = contact.p_perp_n()
    qn = contact.q_perp_n()
    rel_n = float((v - vbar) @ n) + om * pn - omb * qn
    lam = 2.0 / m + (pn * pn + qn * qn) / J
    alpha = 2.0 * rel_n / lam
    return np.concatenate([
        v - (alpha / m) * n,
        vbar + (alpha / m) * n,
        [om - (alpha / J) * pn, omb + (alpha / J) * qn],
    ])


def explicit_epsi_velocities(
    beta: Beta, d: float, m: float, J: float, V: np.ndarray
) -> np.ndarray:
    """Closed-form post-collision velocities of the epsi family.

    With g = m d e(psi)_perp.(vbar - v) + 2J(omega + omegabar) and
    N = 2 m d^2 + 8 J:

        v'    = vbar - (2 g d / N) e_perp      omega'    = -omega    + 4 g / N
        vbar' = v    + (2 g d / N) e_perp      omegabar' = -omegabar + 4 g / N

    Agrees with the epsi matrix route to rounding error.
    """
    V = np.asarray(V, dtype=float)
    v, vbar = V[0:2], V[2:4]
    om, omb = V[4], V[5]
    ep = perp(e_of(beta.psi))
    g = m * d * float(ep @ (vbar - v)) + 2.0 * J * (om + omb)
    n_den = 2.0 * m * d * d + 8.0 * J
    kick = (2.0 * g * d / n_den) * ep
    spin = 4.0 * g / n_den
    return np.concatenate([vbar - kick, v + kick, [spin - om, spin - omb]])


def verify_scattering(
    sm: ScatterMatrix,
    m: float,
    J: float,
    d: float,
    psi: float,
    n_samples: int,
    seed: int = 0,
) -> dict:
    """Monte-Carlo audit of one scattering matrix.

    Samples standard-normal velocities and reports worst-case residuals:

      matrix_involution     max |A A - I|
      involution            max |s(sV) - V| over samples
      linear_momentum_x/_y  conservation defect, scaled by 1/(1 + |V|^2)
      angular_momentum      defect of the moment functional about the first
                            center (built from psi and d), same scaling
      kinetic_energy        | |M sV|^2 - |MV|^2 |, same scaling
      det, det_sign, abs_det_residual
      half_space_flip_ok    every strictly approaching sample maps to a
                            strictly separating one
      half_space_flip_worst max |proj(sV) + proj(V)| over those samples
      grazing_count         samples inside the grazing band (excluded from
                            the flip check)
    """
    rng = np.random.default_rng(seed)
    A, s = sm.A, sm.s
    mim = MassInertiaMatrix.from_mass(m, J)
    nu = sm.frame.nu
    gam = angular_momentum_vector(psi, d, m, J)
    lm_x = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    lm_y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0])

    det = float(np.linalg.det(A))
    report = {
        "matrix_involution": float(np.max(np.abs(A @ A - np.eye(6)))),
        "det": det,
        "det_sign": 1 if det > 0 else -1,
        "abs_det_residual": abs(abs(det) - 1.0),
        "n_samples": int(n_samples),
    }

    inv_worst = 0.0
    lmx_worst = lmy_worst = am_worst = ke_worst = 0.0
    flip_ok = True
    flip_worst = 0.0
    grazing = 0
    for _ in range(n_samples):
        V = rng.standard_normal(6)
        scale = 1.0 + float(V @ V)
        Vp = s @ V
        inv_worst = max(inv_worst, float(np.max(np.abs(s @ Vp - V))))
        lmx_worst = max(lmx_worst, abs(m * float(lm_x @ (Vp - V))) / scale)
        lmy_worst = max(lmy_worst, abs(m * float(lm_y @ (Vp - V))) / scale)
        am_worst = max(am_worst, abs(float(gam @ (Vp - V))) / scale)
        w, wp = mim.apply(V), mim.apply(Vp)
        ke_worst = max(ke_worst, abs(float(wp @ wp) - float(w @ w)) / scale)
        proj = float(mim.apply(V) @ nu)
        band = GRAZING_RTOL * float(np.linalg.norm(V))
        if abs(proj) <= band:
            grazing += 1
            continue
        # orient so the sample is approaching, then demand strict separation
        if proj > 0.0:
            V, Vp, proj = -V, -Vp, -proj
        proj_post = float(mim.apply(Vp) @ nu)
        if not proj_post > 0.0:
            flip_ok = False
        flip_worst = max(flip_worst, abs(proj_post + proj))

    report["involution"] = inv_worst
    report["linear_momentum_x"] = lmx_worst
    report["linear_momentum_y"] = lmy_worst
    report["angular_momentum"] = am_worst
    report["kinetic_energy"] = ke_worst
    report["half_space_flip_ok"] = bool(flip_ok)
    report["half_space_flip_worst"] = flip_worst
    report["grazing_count"] = grazing
    return report
