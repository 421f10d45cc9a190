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
from typing import NamedTuple

import numpy as np

from hardpair.bodies import Body, MassInertiaMatrix
from hardpair.geometry import TWO_PI, Beta, ContactData, d_beta, e_of, perp

E1_HAT = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0]) / math.sqrt(2.0)
E2_HAT = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
E1_HAT.setflags(write=False)
E2_HAT.setflags(write=False)
_EYE6 = np.eye(6)
_EYE6.setflags(write=False)

# Complement seeds, tried in order; a projected seed survives if its norm
# stays above this floor.  The first two are the canonical choices; the
# others are deterministic reserves for symmetric configurations where
# canonical seeds fall inside the spanned subspace (head-on disk contact
# kills both translational seeds at once).  Rows, in order: e_x, e_omega,
# e_y, e_omegabar.  e_xbar_x and e_xbar_y are left out: E1 and E2 lie in
# the base, so P e_xbar_x = -P e_x and P e_xbar_y = -P e_y; each clears the
# floor only where its partner does, and once the partner is taken its
# remainder is zero.  With E1 and E2 the four seeds span R^6, so their
# projections span the complement plane.
_COMPLEMENT_SEEDS = np.eye(6)[[0, 4, 1, 5]]
_COMPLEMENT_SEEDS.setflags(write=False)
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

    def stack(self) -> "Frames":
        """This frame as the one-row Frames."""
        b = self.beta
        return Frames(
            E1=self.E1, E2=self.E2, Ebeta=self.Ebeta[None], nu=self.nu[None],
            F1=self.F1[None], F2=self.F2[None], theta=np.array([b.theta]),
            thetabar=np.array([b.thetabar]), psi=np.array([b.psi]),
            d=np.array([self.d]),
        )

    def orthonormality_residual(self) -> float:
        return float(self.stack().orthonormality_residual()[0])


class Frames(NamedTuple):
    """N frames as arrays; row i of each array belongs to pose i.

    Ebeta, nu, F1 and F2 have shape (N, 6); theta, thetabar, psi and d have
    shape (N,).  E1 and E2 (shape (6,)) are shared by every pose.  A single
    Frame is the N = 1 case (Frame.stack).  A named tuple rather than a
    dataclass: it is built once per scattering_matrix call and is cheaper to
    build and to define.
    """

    E1: np.ndarray
    E2: np.ndarray
    Ebeta: np.ndarray
    nu: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    theta: np.ndarray
    thetabar: np.ndarray
    psi: np.ndarray
    d: np.ndarray

    def basis(self) -> np.ndarray:
        """Shape (N, 6, 6): per pose the rows E1, E2, Ebeta, nu, F1, F2."""
        return _rows(self.E1, self.E2, self.Ebeta, self.nu, self.F1, self.F2)

    def orthonormality_residual(self) -> np.ndarray:
        """Per pose, max |B B^T - I| over the basis rows B; shape (N,)."""
        b = self.basis()
        return np.abs(b @ b.transpose(0, 2, 1) - _EYE6).max(axis=(1, 2))

    def reduced(self) -> tuple[np.ndarray, np.ndarray]:
        """Relative angles (thetabar - theta, psi - theta) mod 2pi, as Beta.reduced."""
        return (self.thetabar - self.theta) % TWO_PI, (self.psi - self.theta) % TWO_PI


def block_rotation(phi: float) -> np.ndarray:
    """Rotation of both translational velocity blocks by phi; spins untouched.

    This is how a rotation of the plane acts on 6-vectors (v, vbar, w, wbar).
    It commutes with the mass-inertia matrix.
    """
    # rotate_blocks turns the rows of I into the columns of the rotation
    return rotate_blocks(np.eye(6), np.full(6, phi)).T


def rotate_blocks(X: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Row i of X (shape (N, 6)) turned by block_rotation(phi[i]).

    The two translational pairs are turned as complex numbers x + iy.
    """
    out = X.copy()
    z = out[:, 0:4].view(np.complex128)
    z *= np.exp(1j * phi)[:, None]
    return out


def nu_hat(contact: ContactData, m: float, J: float) -> np.ndarray:
    """Unit collision-normal direction in mass-weighted velocity space.

    Built from lab-frame contact data as M^-1 (-n, n, -p_perp.n, q_perp.n)
    normalized by sqrt(2/m + (p_perp.n)^2/J + (q_perp.n)^2/J).  With n held
    fixed, V . (-n, n, -p_perp.n, q_perp.n) is the rate at which the slab
    between the bodies opens, so the rate of change of the gap under
    velocity V is proportional to V.(M nu) and V.(M nu) < 0 characterizes
    approaching (pre-collisional) states.
    """
    nx, ny = contact.n.tolist()
    pn, qn = contact.p_perp_n(), contact.q_perp_n()
    lam = 2.0 / m + (pn * pn + qn * qn) / J
    tm = 1.0 / math.sqrt(m * lam)
    tj = 1.0 / math.sqrt(J * lam)
    return np.array((-nx * tm, -ny * tm, nx * tm, ny * tm, -pn * tj, qn * tj))


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
    return _e_beta(beta.psi, d, m, J)


def _e_beta(psi, d, m: float, J: float) -> np.ndarray:
    """e_beta at one pose (psi, d floats; shape (6,)) or N (arrays; shape (N, 6))."""
    sp = math.sqrt(m) * d * np.sin(psi)
    cp = math.sqrt(m) * d * np.cos(psi)
    spin = 2.0 * math.sqrt(J) + 0.0 * sp
    vec = np.array([sp, -cp, -sp, cp, spin, spin]).T
    return vec / np.sqrt(2.0 * m * d * d + 8.0 * J)[..., None]


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

    Takes one frame's vectors (shape (6,)) or N frames' (shape (N, 6); a
    shared vector may stay (6,)); F1 and F2 have the broadcast shape.  The
    seeds e_x, e_omega (then e_y, e_omegabar as reserves) are projected in
    order onto the complement by
    P = I - B^T B, B the four given rows; per frame, the first two whose
    projections survive with norm > 1e-6 are kept and orthonormalized.  A
    fixed seed order makes the output a pure function of the inputs.  The
    spanned two-plane (the projector F1 F1^T + F2 F2^T) does not depend on
    the seed order.
    """
    base = _rows(E1, E2, Ebeta, nu)
    P = _EYE6 - base.transpose(0, 2, 1) @ base
    # row k of U[i] is P[i] applied to seed k (P is symmetric)
    U = np.asarray(_COMPLEMENT_SEEDS, dtype=float) @ P
    rows = np.arange(len(P))
    F1, k1 = _surviving_seed(U, P, rows, -1)
    U -= (U @ F1[:, :, None]) * F1[:, None, :]
    F2, _ = _surviving_seed(U, P, rows, k1[:, None], F1)
    shape = np.broadcast(E1, E2, Ebeta, nu).shape
    return F1.reshape(shape), F2.reshape(shape)


def _rows(*vecs: np.ndarray) -> np.ndarray:
    """Vectors of shape (6,) or (N, 6) as the rows of an (N, k, 6) stack."""
    shape = np.broadcast(*vecs).shape
    out = np.empty((shape[0] if len(shape) == 2 else 1, len(vecs), 6))
    for i, v in enumerate(vecs):
        out[:, i] = v
    return out


def _surviving_seed(U, P, rows, after, found=None):
    """Per frame, the first projected seed past index after that clears the floor.

    Returns it projected a second time and normalized, with its index.
    """
    nrm = np.sqrt((U * U).sum(-1))
    ok = (nrm > _SEED_NORM_FLOOR) & (np.arange(U.shape[1]) > after)
    k = ok.argmax(1)
    if not ok[rows, k].all():
        raise DegenerateFrameError(
            "complement seeds collapsed; frame vectors are not orthonormal"
        )
    # Second projection pass: one round of Gram-Schmidt loses up to
    # eps/norm of orthogonality to cancellation; a repeat restores it to
    # machine precision.
    u = (P @ U[rows, k][:, :, None])[:, :, 0]
    if found is not None:
        u -= (u * found).sum(-1)[:, None] * found
    return u / np.sqrt((u * u).sum(-1))[:, None], k


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

    def angle(self, theta_rel, psi_rel):
        """The angle at one relative configuration, or at arrays of them."""
        theta_rel, psi_rel = np.asarray(theta_rel), np.asarray(psi_rel)
        if self.kind == "constant":
            a = np.full(theta_rel.shape, self.phi)
        else:
            a = np.zeros(theta_rel.shape)
            for k1, k2, c, s in self.coeffs:
                arg = k1 * theta_rel + k2 * psi_rel
                a = a + (c * np.cos(arg) + s * np.sin(arg))
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


def contact_normal(
    body: Body, beta: Beta, contact: ContactData | None = None
) -> tuple[ContactData, np.ndarray]:
    """Lab-frame contact data at beta and the collision normal nu there.

    The tangency problem is solved unless the caller already holds the
    lab-frame contact data at beta (as d_beta returns it).
    """
    if contact is None:
        contact = d_beta(body, beta)
    return contact, nu_hat(contact, body.m, body.J)


def build_frames(
    theta: np.ndarray,
    thetabar: np.ndarray,
    psi: np.ndarray,
    d: np.ndarray,
    nu: np.ndarray,
    m: float,
    J: float,
) -> Frames:
    """Frames at N poses from their angles, separations d and normals nu.

    Ebeta comes in closed form and the complement pair from one stacked
    complement_basis call.
    """
    eb = _e_beta(psi, d, m, J)
    F1, F2 = complement_basis(E1_HAT, E2_HAT, eb, nu)
    return Frames(
        E1=E1_HAT, E2=E2_HAT, Ebeta=eb, nu=nu, F1=F1, F2=F2,
        theta=theta, thetabar=thetabar, psi=psi, d=d,
    )


def build_frame(body: Body, beta: Beta, contact: ContactData | None = None) -> Frame:
    """Assemble the full six-vector frame at one contact configuration.

    Solves the tangency problem for the contact data at beta (unless
    contact, the lab-frame contact data at beta, is given), then builds nu,
    Ebeta and the complement pair with the code build_frames runs on N
    poses.  Mass data comes from the body.
    """
    contact, nu = contact_normal(body, beta, contact)
    m, J = body.m, body.J
    eb = e_beta(beta, contact.d, m, J)
    F1, F2 = complement_basis(E1_HAT, E2_HAT, eb, nu)
    return Frame(
        E1=E1_HAT, E2=E2_HAT, Ebeta=eb, nu=nu, F1=F1, F2=F2,
        m=m, J=J, beta=beta, d=contact.d,
    )
