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

The pair (F1, F2) is seeded with the first body's axes.  Seeds fixed in
the lab would break the rotation symmetry; seeds that turn with the body
make the pair a function of the relative configuration, so a line field's
angle picks the same physical direction at every global rotation.
build_frames assembles the Frames at a Beta from its contact record: N
poses from a Beta of arrays and its record of N contacts, or one pose from
floats, where complement_basis takes its float path.  It reads d off the
record and nu from nu_hat, the one writer of the normal.  One frame is the
unbatched case, and build_frame is build_frames at one pose after its
contact solve.  sample_contacts draws random contact poses in blocks and
builds their frames: per block, one Beta of arrays and one d_beta call on
it give the contact record, and the block's frames are built from it.  The
invariant probe and the verification checks read their samples from it.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from hardpair._kernel import TWO_PI
from hardpair.bodies import Body, mass_weights
from hardpair.geometry import Beta, ContactData, d_beta, wrap_angle

E1_HAT = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0]) / math.sqrt(2.0)
E2_HAT = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
E1_HAT.setflags(write=False)
E2_HAT.setflags(write=False)
_EYE6 = np.eye(6)
_EYE6.setflags(write=False)

# Complement seeds in the first body's axes, tried in order; each is turned
# with the first body and projected onto the lab complement, and a projected
# seed survives if its norm stays above this floor.  The first two are the
# usual choices; the others are deterministic reserves for symmetric
# configurations where the first two fall inside the spanned subspace
# (head-on disk contact kills both translational seeds at once).  Rows, in
# order: e_x, e_omega, e_y, e_omegabar.  e_xbar_x and e_xbar_y are left out:
# E1 and E2 lie in the base, so P e_xbar_x = -P e_x and P e_xbar_y = -P e_y;
# each clears the floor only where its partner does, and once the partner is
# taken its remainder is zero.  With E1 and E2 the four seeds span R^6, so
# their projections span the complement plane.
_COMPLEMENT_SEEDS = np.eye(6)[[0, 4, 1, 5]]
_COMPLEMENT_SEEDS.setflags(write=False)
_SEED_NORM_FLOOR = 1e-6


class DegenerateFrameError(RuntimeError):
    """The complement construction found fewer than two independent directions."""


class Frames(NamedTuple):
    """Orthonormal bases of velocity space adapted to N contact configurations.

    E1, E2, Ebeta span the conserved directions, nu is the collision normal,
    and F1, F2 span the orthogonal complement of the four.  Row i of each
    array belongs to pose i: Ebeta, nu, F1 and F2 have shape (N, 6), and the
    configuration theta, thetabar, psi and the separation d have shape (N,).
    E1 and E2 (shape (6,)) and the mass data m, J are shared by every pose.
    One frame is the unbatched case: vectors of shape (6,) and floats.  A
    named tuple rather than a dataclass: it is cheaper to build and to define.
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
    m: float
    J: float

    def basis(self) -> np.ndarray:
        """Shape (N, 6, 6), or (6, 6) for one frame: the rows E1, E2, Ebeta, nu, F1, F2."""
        return _rows(self.E1, self.E2, self.Ebeta, self.nu, self.F1, self.F2)

    def orthonormality_residual(self) -> np.ndarray:
        """Per pose, max |B B^T - I| over the basis rows B; shape (N,), or () for one frame."""
        return _basis_residual(self.basis())

    def reduced(self) -> tuple[np.ndarray, np.ndarray]:
        """Relative angles (thetabar - theta, psi - theta) mod 2pi, as Beta.reduced."""
        return wrap_angle(self.thetabar - self.theta), wrap_angle(self.psi - self.theta)


def _basis_residual(b: np.ndarray) -> np.ndarray:
    """max |B B^T - I| over the rows B of each basis in b, shape (N, 6, 6) or
    (6, 6): shape (N,), or () for one basis."""
    return np.abs(b @ b.swapaxes(-1, -2) - _EYE6).max(axis=(-2, -1))


def nu_hat(contact: ContactData, m: float, J: float) -> np.ndarray:
    """Unit collision-normal direction in mass-weighted velocity space.

    Built from lab-frame contact data as M^-1 (-n, n, -p_perp.n, q_perp.n)
    normalized by sqrt(2/m + (p_perp.n)^2/J + (q_perp.n)^2/J).  With n held
    fixed, V . (-n, n, -p_perp.n, q_perp.n) is the rate at which the slab
    between the bodies opens, so the rate of change of the gap under
    velocity V is proportional to V.(M nu) and V.(M nu) < 0 characterizes
    approaching (pre-collisional) states.  One contact gives shape (6,), a
    record of N contacts shape (N, 6).
    """
    pn, qn = contact.p_perp_n(), contact.q_perp_n()
    lam = 2.0 / m + (pn * pn + qn * qn) / J
    n = contact.n * (1.0 / np.sqrt(m * lam))[..., None]
    tj = 1.0 / np.sqrt(J * lam)
    nu = np.empty(n.shape[:-1] + (6,))
    nu[..., 0:2], nu[..., 2:4] = -n, n
    nu[..., 4], nu[..., 5] = -pn * tj, qn * tj
    return nu


def angular_momentum_vector(psi, d, m: float, J: float) -> np.ndarray:
    """Unit gradient of angular momentum about the first body's center.

    With the first center at the origin and the second at d*e(psi), the
    angular momentum is m*d*e(psi)_perp . vbar + J*(omega + omegabar); its
    velocity-space gradient is (0, 0, m d e_perp, J, J), returned normalized.
    psi and d are floats (shape (6,)) or arrays of shape (N,) (shape (N, 6)).
    """
    gx = m * (d * -np.sin(psi))
    gy = m * (d * np.cos(psi))
    zero = 0.0 * gx
    g = np.array([zero, zero, gx, gy, J + zero, J + zero]).T
    return g / np.sqrt(m * m * d * d + 2.0 * J * J)[..., None]


def e_beta(psi, d, m: float, J: float) -> np.ndarray:
    """Angular-momentum frame vector, closed form.

    Equals the Gram-Schmidt orthogonalization of M^-1 times the angular
    momentum gradient against E1, E2 (see e_beta_gram_schmidt), evaluated in
    closed form.  At d = 0 it degenerates gracefully to the pure spin
    direction (0,0,0,0,1,1)/sqrt(2).  One pose takes floats psi, d (shape
    (6,)), N poses arrays of shape (N,) (shape (N, 6)).
    """
    sp = math.sqrt(m) * d * np.sin(psi)
    cp = math.sqrt(m) * d * np.cos(psi)
    spin = 2.0 * math.sqrt(J) + 0.0 * sp
    vec = np.array([sp, -cp, -sp, cp, spin, spin]).T
    return vec / np.sqrt(2.0 * m * d * d + 8.0 * J)[..., None]


def e_beta_gram_schmidt(psi: float, d: float, m: float, J: float) -> np.ndarray:
    """Angular-momentum frame vector via explicit Gram-Schmidt.

    Independent construction used to cross-check e_beta: take the normalized
    angular-momentum gradient, pull it to mass-weighted coordinates with
    M^-1, orthogonalize against E1 and E2, and normalize.
    """
    u = angular_momentum_vector(psi, d, m, J) / mass_weights(m, J)
    for e in (E1_HAT, E2_HAT):
        u = u - (u @ e) * e
    nrm = np.linalg.norm(u)
    if nrm <= 0.0:
        raise DegenerateFrameError("angular-momentum direction lies in the momentum plane")
    return u / nrm


def complement_basis(
    E1: np.ndarray, E2: np.ndarray, Ebeta: np.ndarray, nu: np.ndarray, theta
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal basis (F1, F2) of span{E1,E2,Ebeta,nu}^perp.

    Takes one frame's vectors (shape (6,)) and the first body's angle theta,
    or N frames' (shape (N, 6); a shared vector may stay (6,)) and angles
    (shape (N,)); F1 and F2 have the broadcast shape of the vectors.  The
    seeds are the first body's axes: e_x, e_omega (then e_y, e_omegabar as
    reserves), turned by theta, are projected in order onto the complement
    by P = I - B^T B, B the four given rows; per frame, the first two whose
    projections survive with norm > 1e-6 are kept and orthonormalized.  So
    the output is a pure function of the inputs, and turning the vectors
    and theta together turns the pair with them.  The spanned two-plane
    (the projector F1 F1^T + F2 F2^T) does not depend on the seeds.  One
    frame runs on Python floats, a stack as array code; the two agree to
    rounding.
    """
    # kept: one frame on floats costs about a third of the stacked path at N = 1
    if np.ndim(E1) == np.ndim(E2) == np.ndim(Ebeta) == np.ndim(nu) == 1:
        return _complement_one(theta, E1, E2, Ebeta, nu)
    base = _rows(E1, E2, Ebeta, nu)
    P = _EYE6 - base.transpose(0, 2, 1) @ base
    # A seed s turned by theta is cos(theta) A + sin(theta) B + C, with A its
    # translational part, B that part turned a quarter and C its spin part.
    S = np.asarray(_COMPLEMENT_SEEDS, dtype=float)
    A = S * (1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    B = S[:, [1, 0, 3, 2, 4, 5]] * (-1.0, 1.0, -1.0, 1.0, 0.0, 0.0)
    c, s = np.cos(theta)[..., None, None], np.sin(theta)[..., None, None]
    # row k of U[i] is P[i] applied to turned seed k (P is symmetric)
    U = (c * A + s * B + (S - A)) @ P
    rows = np.arange(len(P))
    F1, k1 = _surviving_seed(U, P, rows, -1)
    U -= (U @ F1[:, :, None]) * F1[:, None, :]
    F2, _ = _surviving_seed(U, P, rows, k1[:, None], F1)
    shape = np.broadcast(E1, E2, Ebeta, nu).shape
    return F1.reshape(shape), F2.reshape(shape)


def _rows(*vecs: np.ndarray) -> np.ndarray:
    """k vectors of shape (6,) or (N, 6) as the rows of a (k, 6) or (N, k, 6) stack."""
    out = np.empty(np.broadcast(*vecs).shape[:-1] + (len(vecs), 6))
    for i, v in enumerate(vecs):
        out[..., i, :] = v
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


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3] + a[4] * b[4] + a[5] * b[5]


def _complement_one(theta: float, *vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """complement_basis at one frame, on floats: the same seeds, floor and passes."""
    b0, b1, b2, b3 = (np.asarray(v, dtype=float).tolist() for v in vecs)
    ct, st = math.cos(theta), math.sin(theta)
    found = []

    def project(u):
        # P u with P = I - B^T B, then the directions already found taken out
        c0, c1, c2, c3 = _dot(b0, u), _dot(b1, u), _dot(b2, u), _dot(b3, u)
        u = [x - c0 * y0 - c1 * y1 - c2 * y2 - c3 * y3
             for x, y0, y1, y2, y3 in zip(u, b0, b1, b2, b3)]
        for f in found:
            c = _dot(u, f)
            u = [x - c * y for x, y in zip(u, f)]
        return u

    for x, y, xb, yb, w, wb in np.asarray(_COMPLEMENT_SEEDS, dtype=float).tolist():
        u = project([ct * x - st * y, st * x + ct * y, ct * xb - st * yb, st * xb + ct * yb,
                     w, wb])
        if not math.sqrt(_dot(u, u)) > _SEED_NORM_FLOOR:
            continue
        # second projection pass, as in _surviving_seed
        u = project(u)
        nrm = math.sqrt(_dot(u, u))
        found.append([x / nrm for x in u])
        if len(found) == 2:
            return np.array(found[0]), np.array(found[1])
    raise DegenerateFrameError("complement seeds collapsed; frame vectors are not orthonormal")


def _finite(x, name: str) -> float:
    """x as a float; ValueError naming the field unless it is a finite real number.

    An integer past the float range is not finite as a float.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not abs(x) <= sys.float_info.max:
        raise ValueError(f"line field {name} takes only finite numbers, got {x!r}")
    return float(x)


def _wave_number(k, name: str) -> float:
    """k as a float; ValueError naming the field unless it is an integer in [-2**53, 2**53]."""
    if isinstance(k, bool) or not isinstance(k, numbers.Real) or abs(k) > 2**53 or k % 1:
        raise ValueError(f"line field {name} must be an integer in [-2**53, 2**53], got {k!r}")
    return float(k)


@dataclass(frozen=True)
class LineField:
    """Undirected direction angle phi(theta_rel, psi_rel) valued in [0, pi).

    Angles phi and phi + pi give the same rank-one projector F F^T, so the
    value is a point of the projective line; 'angle' reduces mod pi.  Two
    kinds: a constant angle, and a finite Fourier series over the relative
    2-torus with rows (k1, k2, cos_coeff, sin_coeff); the wave numbers k1, k2
    are integers, so the angle is a function on the torus.
    """

    kind: str
    phi: float = 0.0
    coeffs: tuple[tuple[float, float, float, float], ...] = ()

    def __post_init__(self):
        if self.kind == "constant":
            if self.coeffs != ():
                raise ValueError("a constant line field takes no coeffs")
            object.__setattr__(self, "phi", _finite(self.phi, "phi"))
        elif self.kind == "fourier":
            if self.phi != 0.0:
                raise ValueError("a fourier line field takes no phi")
            if not isinstance(self.coeffs, (list, tuple)) or any(
                    not isinstance(row, (list, tuple)) or len(row) != 4 for row in self.coeffs):
                raise ValueError("fourier coeffs must be rows (k1, k2, cos_coeff, sin_coeff)")
            object.__setattr__(self, "coeffs", tuple(
                (_wave_number(k1, f"coeffs[{i}][0]"), _wave_number(k2, f"coeffs[{i}][1]"),
                 _finite(c, "coeffs"), _finite(s, "coeffs"))
                for i, (k1, k2, c, s) in enumerate(self.coeffs)))
        else:
            raise ValueError(f"unknown line field kind {self.kind!r}")

    @staticmethod
    def constant(phi: float) -> "LineField":
        return LineField("constant", phi=phi)

    @staticmethod
    def fourier(coeffs) -> "LineField":
        return LineField("fourier", coeffs=coeffs)

    def angle(self, theta_rel, psi_rel):
        """The angle at one relative configuration, or at arrays of them."""
        a = 0.0 * theta_rel
        if self.kind == "constant":
            return (a + self.phi) % math.pi
        for k1, k2, c, s in self.coeffs:
            arg = k1 * theta_rel + k2 * psi_rel
            a = a + (c * np.cos(arg) + s * np.sin(arg))
        return a % math.pi


def build_frames(beta: Beta, contact: ContactData, m: float, J: float) -> Frames:
    """The frames at the poses beta, from contact, their contact record.

    d is contact.d and nu is nu_hat(contact, m, J); Ebeta comes in closed
    form and the complement pair, seeded with each pose's first-body axes,
    from one stacked complement_basis call.  A Beta of (N,) arrays with its
    record of N contacts (d_beta at that Beta) gives N frames; a Beta of
    floats with one contact gives the one frame of build_frame, built on
    Python floats.
    """
    nu = nu_hat(contact, m, J)
    eb = e_beta(beta.psi, contact.d, m, J)
    F1, F2 = complement_basis(E1_HAT, E2_HAT, eb, nu, beta.theta)
    return Frames(
        E1=E1_HAT, E2=E2_HAT, Ebeta=eb, nu=nu, F1=F1, F2=F2,
        theta=beta.theta, thetabar=beta.thetabar, psi=beta.psi, d=contact.d, m=m, J=J,
    )


def sample_contacts(body: Body, n_samples: int, seed: int, block: int):
    """n_samples random contact poses, in blocks of at most block poses.

    Two streams are spawned from seed.  The first draws the angles beta
    uniform on [0, 2pi)^3 as a (k, 3) array per block, the second a
    standard-normal (k, 6) array W; both consume their stream row by row,
    so the samples do not depend on block.  Each block makes one Beta of
    its k poses and one d_beta call on it (one kernel solve per pose
    inside it), and builds its frames from that record.  Yields per block
    (frames, W, contact): the frames at the poses, W, and the record of k
    contacts the frames come from.  ValueError names n_samples, seed or
    block unless it is an int >= 1, >= 0 or >= 1 (a seed of None would
    draw OS entropy).
    """
    for name, x, least in (("n_samples", n_samples, 1), ("seed", seed, 0), ("block", block, 1)):
        if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < least:
            raise ValueError(f"{name} must be an int >= {least}, got {x!r}")
    return _contact_blocks(body, n_samples, seed, block)


def _contact_blocks(body: Body, n_samples: int, seed: int, block: int):
    """sample_contacts' generator, once its arguments are checked."""
    beta_rng, w_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    for start in range(0, n_samples, block):
        k = min(block, n_samples - start)
        beta = Beta(*beta_rng.uniform(0.0, TWO_PI, (k, 3)).T)
        contact = d_beta(body, beta)
        yield build_frames(beta, contact, body.m, body.J), w_rng.standard_normal((k, 6)), contact


def build_frame(body: Body, beta: Beta, contact: ContactData | None = None) -> Frames:
    """The frame at one contact configuration: Frames with vectors of shape (6,).

    Solves the tangency problem for the contact data at beta (unless
    contact, the lab-frame contact data at beta, is given), then returns
    build_frames(beta, contact, body.m, body.J): its floats take the float
    path of complement_basis.
    """
    if contact is None:
        contact = d_beta(body, beta)
    return build_frames(beta, contact, body.m, body.J)
