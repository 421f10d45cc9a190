"""Orthonormal conservation frames in six-dimensional velocity space.

A two-body planar velocity is V = (v, vbar, omega, omegabar) in R^6.  In the
mass-weighted coordinates W = M V the conservation laws single out three
orthonormal directions: E1, E2 for the two components of linear momentum and
Ebeta for angular momentum about the first body's center (Gram-Schmidt
orthogonalized against E1, E2).  The collision-normal direction nu is the
unit vector whose half-spaces W.nu < 0 / > 0 separate approaching from
separating velocities at the contact; it is automatically orthogonal to the
conservation triple.  The leftover two-plane carries an orthonormal pair
(F1, F2), and a line field picks one undirected direction from that plane
per relative configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hardpair.bodies import Body, MassInertiaMatrix
from hardpair.geometry import Beta, ContactData, d_beta, e_of, perp

E1_HAT = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0]) / math.sqrt(2.0)
E2_HAT = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
E1_HAT.setflags(write=False)
E2_HAT.setflags(write=False)

# Complement seeds, tried in order; a projected seed survives if its norm
# stays above this floor.  The first three are the canonical choices; the
# remaining coordinate directions are deterministic reserves for symmetric
# configurations where canonical seeds fall inside the spanned subspace
# (head-on disk contact kills both translational seeds at once).  Because
# the complement plane has trace-2 projector, at least two of the six
# coordinate seeds always survive the floor.
_COMPLEMENT_SEEDS = (
    (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 1.0, 0.0),
    (0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
)
_SEED_NORM_FLOOR = 1e-6


class DegenerateFrameError(RuntimeError):
    """The complement construction found fewer than two independent directions."""


@dataclass(frozen=True)
class Frame:
    """Orthonormal basis of velocity space adapted to one contact configuration.

    E1, E2, Ebeta span the conserved directions, nu is the collision normal,
    and F1, F2 span the orthogonal complement of the four.  The mass data and
    the configuration (beta, d) used in the construction are kept so that
    downstream consumers can evaluate line fields and conservation
    functionals without re-deriving them.
    """

    E1: np.ndarray
    E2: np.ndarray
    Ebeta: np.ndarray
    nu: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    m: float
    J: float
    beta: Beta
    d: float

    def basis(self) -> np.ndarray:
        """The six frame vectors stacked as rows (E1, E2, Ebeta, nu, F1, F2)."""
        return np.stack([self.E1, self.E2, self.Ebeta, self.nu, self.F1, self.F2])

    def orthonormality_residual(self) -> float:
        b = self.basis()
        return float(np.max(np.abs(b @ b.T - np.eye(6))))


def block_rotation(phi: float) -> np.ndarray:
    """Rotation of both translational velocity blocks by phi; spins untouched.

    This is how a rotation of the plane acts on 6-vectors (v, vbar, w, wbar).
    It commutes with the mass-inertia matrix.
    """
    c, s = math.cos(phi), math.sin(phi)
    R6 = np.eye(6)
    R6[0, 0] = R6[1, 1] = R6[2, 2] = R6[3, 3] = c
    R6[0, 1] = R6[2, 3] = -s
    R6[1, 0] = R6[3, 2] = s
    return R6


def nu_hat(contact: ContactData, m: float, J: float) -> np.ndarray:
    """Unit collision-normal direction in mass-weighted velocity space.

    Built as M^-1 (-n, n, -p_perp.n, q_perp.n) normalized by
    sqrt(2/m + (p_perp.n)^2/J + (q_perp.n)^2/J).  The rate of change of the
    gap under velocity V is proportional to V.(M nu), so V.(M nu) < 0
    characterizes approaching (pre-collisional) states.
    """
    pn = contact.p_perp_n()
    qn = contact.q_perp_n()
    lam = 2.0 / m + (pn * pn + qn * qn) / J
    n = contact.n
    w = np.array([-n[0], -n[1], n[0], n[1], -pn, qn])
    mim = MassInertiaMatrix.from_mass(m, J)
    return mim.apply_inverse(w) / math.sqrt(lam)


def angular_momentum_vector(psi: float, d: float, m: float, J: float) -> np.ndarray:
    """Unit gradient of angular momentum about the first body's center.

    With the first center at the origin and the second at d*e(psi), the
    angular momentum is m*d*e(psi)_perp . vbar + J*(omega + omegabar); its
    velocity-space gradient is (0, 0, m d e_perp, J, J), returned normalized.
    """
    ep = d * perp(e_of(psi))
    g = np.array([0.0, 0.0, m * ep[0], m * ep[1], J, J])
    return g / math.sqrt(m * m * d * d + 2.0 * J * J)


def e_beta(beta: Beta, d: float, m: float, J: float) -> np.ndarray:
    """Angular-momentum frame vector, closed form.

    Equals the Gram-Schmidt orthogonalization of M^-1 times the angular
    momentum gradient against E1, E2 (see e_beta_gram_schmidt), evaluated in
    closed form.  At d = 0 it degenerates gracefully to the pure spin
    direction (0,0,0,0,1,1)/sqrt(2).
    """
    sm = math.sqrt(m)
    sj = math.sqrt(J)
    sp = math.sin(beta.psi)
    cp = math.cos(beta.psi)
    vec = np.array([sm * d * sp, -sm * d * cp, -sm * d * sp, sm * d * cp, 2.0 * sj, 2.0 * sj])
    return vec / math.sqrt(2.0 * m * d * d + 8.0 * J)


def e_beta_gram_schmidt(beta: Beta, d: float, m: float, J: float) -> np.ndarray:
    """Angular-momentum frame vector via explicit Gram-Schmidt.

    Independent construction used to cross-check e_beta: take the normalized
    angular-momentum gradient, pull it to mass-weighted coordinates with
    M^-1, orthogonalize against E1 and E2, and normalize.
    """
    gam = angular_momentum_vector(beta.psi, d, m, J)
    mim = MassInertiaMatrix.from_mass(m, J)
    u = mim.apply_inverse(gam)
    for e in (E1_HAT, E2_HAT):
        u = u - (u @ e) * e
    nrm = np.linalg.norm(u)
    if nrm <= 0.0:
        raise DegenerateFrameError("angular-momentum direction lies in the momentum plane")
    return u / nrm


def complement_basis(
    E1: np.ndarray, E2: np.ndarray, Ebeta: np.ndarray, nu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal basis (F1, F2) of span{E1,E2,Ebeta,nu}^perp.

    Projects the seeds e_x, e_xbar_x, e_omega (then the remaining coordinate
    directions as reserves) in order onto the complement; the first two whose
    projections survive with norm > 1e-6 are kept and orthonormalized.  A
    fixed seed order makes the output a pure function of the inputs.  The
    spanned two-plane (the projector F1 F1^T + F2 F2^T) does not depend on
    the seed order.
    """
    base = (E1, E2, Ebeta, nu)
    found: list[np.ndarray] = []
    for seed in _COMPLEMENT_SEEDS:
        u = np.array(seed)
        for b in base:
            u = u - (u @ b) * b
        for f in found:
            u = u - (u @ f) * f
        nrm = np.linalg.norm(u)
        if nrm <= _SEED_NORM_FLOOR:
            continue
        u = u / nrm
        # Second projection pass: one round of Gram-Schmidt loses up to
        # eps/norm of orthogonality to cancellation; a repeat restores it
        # to machine precision.
        for b in base:
            u = u - (u @ b) * b
        for f in found:
            u = u - (u @ f) * f
        found.append(u / np.linalg.norm(u))
        if len(found) == 2:
            return found[0], found[1]
    raise DegenerateFrameError(
        "complement seeds collapsed; frame vectors are not orthonormal"
    )


@dataclass(frozen=True)
class LineField:
    """Undirected direction angle phi(theta_rel, psi_rel) valued in [0, pi).

    Angles phi and phi + pi give the same rank-one projector F F^T, so the
    value is a point of the projective line; 'angle' reduces mod pi.  Two
    kinds: a constant angle, and a finite Fourier series over the relative
    2-torus with rows (k1, k2, cos_coeff, sin_coeff).
    """

    kind: str
    phi: float = 0.0
    coeffs: tuple[tuple[float, float, float, float], ...] = ()

    def __post_init__(self):
        if self.kind not in ("constant", "fourier"):
            raise ValueError(f"unknown line field kind {self.kind!r}")

    @staticmethod
    def constant(phi: float) -> "LineField":
        return LineField("constant", phi=float(phi))

    @staticmethod
    def fourier(coeffs) -> "LineField":
        rows = tuple(tuple(float(x) for x in row) for row in coeffs)
        if any(len(row) != 4 for row in rows):
            raise ValueError("fourier coeffs must be rows (k1, k2, cos_coeff, sin_coeff)")
        return LineField("fourier", coeffs=rows)

    def angle(self, theta_rel: float, psi_rel: float) -> float:
        if self.kind == "constant":
            a = self.phi
        else:
            a = 0.0
            for k1, k2, c, s in self.coeffs:
                arg = k1 * theta_rel + k2 * psi_rel
                a += c * math.cos(arg) + s * math.sin(arg)
        return a % math.pi


def line_field_from_config(cfg: dict) -> LineField:
    """Build a LineField from its configuration dictionary.

    Accepted shapes: {"kind": "constant", "phi": x} and
    {"kind": "fourier", "coeffs": [[k1, k2, c, s], ...]}.
    """
    if not isinstance(cfg, dict):
        raise ValueError("line_field config must be an object")
    kind = cfg.get("kind")
    if kind == "constant":
        if "phi" not in cfg:
            raise ValueError("constant line_field requires 'phi'")
        return LineField.constant(cfg["phi"])
    if kind == "fourier":
        if "coeffs" not in cfg:
            raise ValueError("fourier line_field requires 'coeffs'")
        return LineField.fourier(cfg["coeffs"])
    raise ValueError(f"unknown line_field kind {kind!r}")


def line_field_vector(
    frame: Frame, lf: LineField, theta_rel: float, psi_rel: float
) -> np.ndarray:
    """Unit vector cos(phi) F1 + sin(phi) F2 selected by the line field."""
    phi = lf.angle(theta_rel, psi_rel)
    return math.cos(phi) * frame.F1 + math.sin(phi) * frame.F2


def build_frame(body: Body, beta: Beta, contact: ContactData | None = None) -> Frame:
    """Assemble the full six-vector frame at one contact configuration.

    Solves the tangency problem for the contact data at beta, then builds
    nu, Ebeta and the complement pair.  Mass data comes from the body.
    A caller that already holds the lab-frame contact data at beta (as
    d_beta returns it) passes it as contact, and no solve is made.
    """
    if contact is None:
        contact = d_beta(body, beta)
    m, J = body.m, body.J
    nu = nu_hat(contact, m, J)
    eb = e_beta(beta, contact.d, m, J)
    F1, F2 = complement_basis(E1_HAT, E2_HAT, eb, nu)
    return Frame(
        E1=E1_HAT, E2=E2_HAT, Ebeta=eb, nu=nu, F1=F1, F2=F2,
        m=m, J=J, beta=beta, d=contact.d,
    )
