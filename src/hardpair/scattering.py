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
state admits many distinct physical continuations.  Every family is an
isometry of W = M V, so |W| is the one unit a verdict about a map needs: the
grazing test and every audit figure are a defect in W over |W|, the same at
any unit of length or mass.

Two independent routes cross-check the matrices: an impulse computation
along the contact normal reproduces the reflection family, and closed-form
velocity expressions reproduce the epsi family.

Each map is A = sign (I - 2 U^T U) for a few orthonormal rows U.  At one
frame, frame_rows checks the rows for orthonormality, takes them as
Python floats and forms W = M V, W.nu, the velocity's verdict (refused if
separating, flagged if grazing) and W reflected in nu, once however many
families map there; _map_rows then applies each family's map as that
low-rank update on floats without forming a matrix, and scatter_velocity
returns its V' as an array.  scatter_stack is the same map on arrays, one
pass for all families over a stack of frames; audit_scattering checks that
map, applied twice for the involution, and forms A (_cores) only for det A
and A A - I.  One frame and a stack pass one orthonormality test,
_require_orthonormal, which forms the basis the rows are read from once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from hardpair.bodies import mass_weights
# complement_basis is not called here; it stays bound because hpbench's
# tracer wraps the layer bindings of this module by name
from hardpair.frames import (  # noqa: F401
    _EYE6,
    Frames,
    LineField,
    _basis_residual,
    _dot,
    _rows,
    complement_basis,
)
from hardpair.geometry import ContactData

# Relative tolerance on W.nu, W = M V, below which a collision counts as grazing.
GRAZING_RTOL = 1e-9
# Largest |B B^T - I| over a frame's rows B at which a map accepts the frame.
_ORTHONORMAL_TOL = 1e-8

_VARIANTS = ("reflection", "epsi", "op")
_NOT_ORTHONORMAL = "frame is not orthonormal; refusing to build a scattering matrix"


def is_grazing(proj, speed):
    """|proj| <= GRAZING_RTOL * speed, for proj = W.nu and speed = |W|, W = M V.

    Floats give a bool, arrays an array of bools.
    """
    return abs(proj) <= GRAZING_RTOL * speed


class NotPreCollisionalError(ValueError):
    """The velocity is separating at the contact; no collision to resolve."""


@dataclass(frozen=True)
class ScatteringFamily:
    """A named collision rule; 'op' additionally carries its line field."""

    variant: str
    line_field: LineField | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown scattering variant {self.variant!r}")
        if self.variant == "op" and not isinstance(self.line_field, LineField):
            raise ValueError(f"the op family requires a LineField, got {self.line_field!r}")
        if self.variant != "op" and self.line_field is not None:
            raise ValueError(f"the {self.variant} family takes no line field")

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


class ScatterMatrix(NamedTuple):
    """The velocity-space map s = M^-1 A M together with its orthogonal core."""

    s: np.ndarray
    A: np.ndarray
    frame: Frames
    family: ScatteringFamily


def _require_orthonormal(frames: Frames) -> np.ndarray:
    """The basis of every frame (one frame or a stack), Frames.basis, once
    its rows pass as orthonormal to _ORTHONORMAL_TOL; else ValueError.  A
    NaN row fails too."""
    b = frames.basis()
    if not _basis_residual(b).max() <= _ORTHONORMAL_TOL:
        raise ValueError(_NOT_ORTHONORMAL)
    return b


def _cores(families: list[ScatteringFamily], frames: Frames) -> list:
    """Each family's orthogonal core A at every frame, as (sign, U), on frames
    the caller has checked; scattering_matrix and the audit form A from it.

    A = sign (I - 2 U^T U), where U (shape (N, k, 6), or (k, 6) for one
    frame) holds orthonormal rows: nu for reflection (sign +1), nu and the
    line-field direction for op (sign +1), and E1, E2, Ebeta for epsi
    (sign -1, i.e. A = 2 (E1 E1^T + E2 E2^T + Ebeta Ebeta^T) - I).

    The 'op' line field is a function of the reduced relative configuration
    (thetabar - theta, psi - theta) alone, and its angle phi picks
    cos(phi) F1 + sin(phi) F2.  The frames seed (F1, F2) with the first
    body's axes, so the pair turns with the configuration.  That is what
    makes the assembled map rotation covariant, i.e. a genuine function of
    the relative configuration; a pair seeded with axes fixed in the lab
    would not be, since such seeds break the rotation symmetry.
    """
    rel = frames.reduced()
    cores = []
    for fam in families:
        if fam.variant == "reflection":
            cores.append((1.0, frames.nu[..., None, :]))
        elif fam.variant == "epsi":
            cores.append((-1.0, _rows(frames.E1, frames.E2, frames.Ebeta)))
        else:
            phi = np.asarray(fam.line_field.angle(*rel))[..., None]
            fhat = np.cos(phi) * frames.F1 + np.sin(phi) * frames.F2
            cores.append((1.0, np.stack([frames.nu, fhat], axis=-2)))
    return cores


def frame_rows(frame: Frames, V: np.ndarray) -> tuple:
    """The half of a map at one frame that no family changes, on floats:
    (B, W, proj, grazing, Wr, rm, rj), B the rows E1, E2, Ebeta, nu, F1, F2,
    W = M V with M = diag(rm, rm, rm, rm, rj, rj), rm = sqrt(m) and
    rj = sqrt(J), proj = W.nu, grazing = is_grazing(proj, |W|) and
    Wr = W - 2 proj nu, W reflected in nu, which the reflection and op maps
    share.  Raises as scatter_velocity does; the rows are checked as
    scatter_stack checks a stack."""
    B = _require_orthonormal(frame).tolist()
    v = np.asarray(V, dtype=float).tolist()
    if not all(map(math.isfinite, v)):
        raise ValueError(f"velocity V holds a non-finite value: {v}")
    rm, rj = math.sqrt(frame.m), math.sqrt(frame.J)
    W = [rm * v[0], rm * v[1], rm * v[2], rm * v[3], rj * v[4], rj * v[5]]
    proj = _dot(W, B[3])
    # hypot, unlike the norm, does not overflow for |W| near the float range
    speed = math.hypot(*W)
    grazing = is_grazing(proj, speed)
    if proj > 0.0 and not grazing:
        raise NotPreCollisionalError(
            "velocity is separating at the contact: "
            f"V.(M nu) = {proj:.6g} > {GRAZING_RTOL * speed:.6g}"
        )
    c = 2.0 * proj
    return B, W, proj, grazing, [x - c * y for x, y in zip(W, B[3])], rm, rj


def scattering_matrix(family: ScatteringFamily, frame: Frames) -> ScatterMatrix:
    """Assemble the family's matrix s = M^-1 A M at the given frame.

    No path of the program forms the matrix; it is the reference the
    low-rank updates are tested against.

    A = sign (I - 2 U^T U) from the rows _cores builds on arrays; see _cores
    for the gauge of the 'op' line field.
    """
    _require_orthonormal(frame)
    [(sign, U)] = _cores([family], frame)
    A = sign * (np.eye(6) - 2.0 * (U.T @ U))
    diag = mass_weights(frame.m, frame.J)
    s = A * (diag[np.newaxis, :] / diag[:, np.newaxis])
    return ScatterMatrix(s=s, A=A, frame=frame, family=family)


def scatter_stack(families: list[ScatteringFamily], frames: Frames, W: np.ndarray) -> np.ndarray:
    """Mass-weighted velocities W = M V (shape (N, 6)) mapped by every family.

    Returns shape (len(families), N, 6): block f, row i is A W[i] for family
    f at frame i, or at the one frame (vectors of shape (6,)).  This is
    _map_rows on arrays in one pass: the frames are checked and W.nu and Wr
    (W reflected in nu, reflection's W') formed once; every op family's row
    cos(phi) F1 + sin(phi) F2 goes into one (k, N, 6) stack taken off Wr,
    and epsi takes its three conserved rows off W and negates.
    """
    return _map_stack(families, frames, _require_orthonormal(frames), W)


def _map_stack(families: list[ScatteringFamily], frames: Frames, B: np.ndarray, W: np.ndarray):
    """scatter_stack on the frames' basis B, once _require_orthonormal has passed it."""
    nu = B[..., 3, :]
    Wr = W - (2.0 * np.sum(W * nu, axis=-1))[..., None] * nu
    out = np.empty((len(families),) + W.shape)
    ops = [f for f, fam in enumerate(families) if fam.variant == "op"]
    if ops:
        rel = frames.reduced()
        phi = np.array([families[f].line_field.angle(*rel) for f in ops]).reshape(len(ops), -1, 1)
        U = np.cos(phi) * B[..., 4, :] + np.sin(phi) * B[..., 5, :]
        out[ops] = Wr - (2.0 * np.sum(U * W, axis=-1))[..., None] * U
    for f, fam in enumerate(families):
        if fam.variant == "reflection":
            out[f] = Wr
        elif fam.variant == "epsi":
            E = B[..., 0:3, :]
            out[f] = 2.0 * np.sum((E @ W[..., :, None]) * E, axis=-2) - W
    return out


def scatter_velocity(family: ScatteringFamily, frame: Frames, V: np.ndarray):
    """Map a pre-collisional velocity through the family at one frame.

    Applies the low-rank update W' = sign (W - 2 sum_u (u.W) u) to W = M V,
    on floats, without forming a matrix.  Returns (V', V.(M nu), V'.(M nu),
    grazing), grazing being is_grazing(V.(M nu), |M V|).  A frame that is not
    orthonormal or a non-finite V raises ValueError, and a separating V
    (V.(M nu) above GRAZING_RTOL |M V|) raises NotPreCollisionalError.  A
    grazing V is mapped without a warning.
    """
    rows = frame_rows(frame, V)
    Wp, Vp = _map_rows(family, frame, rows)
    return np.array(Vp), rows[2], _dot(Wp, rows[0][3]), rows[3]


# the float twin of scatter_stack: it runs six times per datum, and on floats it is the cheaper
def _map_rows(family: ScatteringFamily, frame: Frames, rows: tuple) -> tuple[list, list]:
    """The family's map at one frame from rows = frame_rows(frame, V), on
    floats: (W', V'), W' = A W and V' = M^-1 W', A as _cores builds it.

    Each row u of A's core takes 2 (u.W) u off W.  Reflection's one row,
    nu, gives the reflected W that rows carry; op takes its line-field row
    off that, and epsi takes its three conserved rows off W and negates.
    """
    B, W, _, _, Wr, rm, rj = rows
    if family.variant == "reflection":
        Wp = Wr
    elif family.variant == "epsi":
        Wp = W
        for u in B[0:3]:
            c = 2.0 * _dot(u, W)
            Wp = [x - c * y for x, y in zip(Wp, u)]
        Wp = [-x for x in Wp]
    else:
        phi = family.line_field.angle(*frame.reduced())
        cos, sin = math.cos(phi), math.sin(phi)
        u = [cos * x + sin * y for x, y in zip(B[4], B[5])]
        c = 2.0 * _dot(u, W)
        Wp = [x - c * y for x, y in zip(Wr, u)]
    return Wp, [Wp[0] / rm, Wp[1] / rm, Wp[2] / rm, Wp[3] / rm, Wp[4] / rj, Wp[5] / rj]


def impulse_scatter(contact: ContactData, m: float, J: float, V: np.ndarray) -> np.ndarray:
    """Resolve the collision by a normal impulse at the contact point.

    Reads the lab-frame contact normal n, pn = p_perp.n and qn = q_perp.n
    off contact, the contact record, and never the frame.  One contact
    takes V of shape (6,); a record of N contacts takes V of shape (N, 6).

    The impulse magnitude alpha = 2 (v + w p_perp - vbar - wbar q_perp).n / Lambda,
    Lambda = 2/m + (p_perp.n)^2/J + (q_perp.n)^2/J, is the nonzero root of the
    energy-conservation quadratic; alpha = 0 (the identity branch) is the
    other root and is not a collision.  Agrees with the reflection family's
    matrix route to rounding error.
    """
    n, pn, qn = contact.n, contact.p_perp_n(), contact.q_perp_n()
    V = np.asarray(V, dtype=float)
    v, vbar = V[..., 0:2], V[..., 2:4]
    om, omb = V[..., 4], V[..., 5]
    rel_n = np.sum((v - vbar) * n, axis=-1) + om * pn - omb * qn
    lam = 2.0 / m + (pn * pn + qn * qn) / J
    alpha = 2.0 * rel_n / lam
    kick = (alpha / m)[..., None] * n
    return np.concatenate([
        v - kick,
        vbar + kick,
        (om - (alpha / J) * pn)[..., None],
        (omb + (alpha / J) * qn)[..., None],
    ], axis=-1)


def explicit_epsi_velocities(psi, d, m: float, J: float, V: np.ndarray) -> np.ndarray:
    """Closed-form post-collision velocities of the epsi family.

    psi is the center-line angle and d the center separation: floats with V
    of shape (6,) at one pose, or arrays of shape (N,) with V of shape (N, 6).
    With g = m d e(psi)_perp.(vbar - v) + 2J(omega + omegabar) and
    N = 2 m d^2 + 8 J:

        v'    = vbar - (2 g d / N) e_perp      omega'    = -omega    + 4 g / N
        vbar' = v    + (2 g d / N) e_perp      omegabar' = -omegabar + 4 g / N

    Agrees with the epsi matrix route to rounding error.
    """
    V = np.asarray(V, dtype=float)
    v, vbar = V[..., 0:2], V[..., 2:4]
    om, omb = V[..., 4], V[..., 5]
    ep = np.stack([-np.sin(psi), np.cos(psi)], axis=-1)
    g = m * d * np.sum(ep * (vbar - v), axis=-1) + 2.0 * J * (om + omb)
    n_den = 2.0 * m * d * d + 8.0 * J
    kick = (2.0 * g * d / n_den)[..., None] * ep
    spin = (4.0 * g / n_den)[..., None]
    return np.concatenate([vbar - kick, v + kick, spin - V[..., 4:6]], axis=-1)


def audit_scattering(
    families: list[ScatteringFamily], frames: Frames, V: np.ndarray
) -> tuple[np.ndarray, list[dict]]:
    """Monte-Carlo audit of every family's map over a stack of frames.

    V (shape (N, 6)) holds one velocity at each of N frames, or N
    velocities at one frame (vectors of shape (6,)).  The mass data come
    from the frames.  Returns the post-collision velocities
    (shape (len(families), N, 6)) and, per family, the worst case over the
    samples of these defects in W = M V over |W|, W' = A W mapped:

      matrix_involution     max |A A - I|
      involution            |A W' - W| / |W|, the map applied a second time
      linear_momentum_x/_y  |E1.(W' - W)| / |W| and |E2.(W' - W)| / |W|
      angular_momentum      |Ebeta.(W' - W)| / |W|
      kinetic_energy        | |W'|^2 - |W|^2 | / |W|^2
      det, abs_det_residual the determinant of A farthest from |det| = 1,
                            and that distance
      det_sign              the sign of every det A; 0 if the signs differ
      half_space_flip_ok    every strictly approaching sample maps to a
                            strictly separating one (and, by linearity,
                            every strictly separating one to an approaching one)
      half_space_flip_worst |W'.nu + W.nu| / |W| over those samples
      grazing_count         samples with is_grazing(W.nu, |W|), left out of
                            the flip check

    W' and the map's second application are scatter_stack's map, the one
    that ships, on frames checked once; A = sign (I - 2 U^T U) from _cores
    is formed only for the determinant and A A - I.
    """
    V = np.asarray(V, dtype=float)
    diag = mass_weights(frames.m, frames.J)
    W = V * diag
    w2 = np.sum(W * W, axis=-1)
    speed = np.sqrt(w2)
    conserved = _rows(frames.E1, frames.E2, frames.Ebeta)
    pre = np.sum(W * frames.nu, axis=-1)
    grazing = is_grazing(pre, speed)
    flip = ~grazing
    B = _require_orthonormal(frames)
    Wps = _map_stack(families, frames, B, W)
    reports = []
    for fam, Wp, (sign, U) in zip(families, Wps, _cores(families, frames)):
        drift = np.abs(conserved @ (Wp - W)[..., :, None])[..., 0] / speed[:, None]
        A = sign * (_EYE6 - 2.0 * (U.swapaxes(-1, -2) @ U))
        det = np.linalg.det(A).reshape(-1)
        worst = int(np.argmax(np.abs(np.abs(det) - 1.0)))
        signs = np.where(det > 0.0, 1, -1)
        post = np.sum(Wp * frames.nu, axis=-1)
        back = np.linalg.norm(_map_stack([fam], frames, B, Wp)[0] - W, axis=-1)
        reports.append({
            "matrix_involution": float(np.max(np.abs(A @ A - _EYE6))),
            "involution": float(np.max(back / speed)),
            "linear_momentum_x": float(np.max(drift[:, 0])),
            "linear_momentum_y": float(np.max(drift[:, 1])),
            "angular_momentum": float(np.max(drift[:, 2])),
            "kinetic_energy": float(np.max(np.abs(np.sum(Wp * Wp, axis=-1) - w2) / w2)),
            "det": float(det[worst]),
            "det_sign": int(signs[0]) if np.all(signs == signs[0]) else 0,
            "abs_det_residual": abs(abs(float(det[worst])) - 1.0),
            "half_space_flip_ok": bool(np.all(np.sign(post[flip]) == -np.sign(pre[flip]))),
            "half_space_flip_worst": float(np.max(np.abs(post + pre)[flip] / speed[flip],
                                                  initial=0.0)),
            "grazing_count": int(np.count_nonzero(grazing)),
            "n_samples": len(V),
        })
    return Wps / diag, reports
