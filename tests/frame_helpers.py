"""Frame utilities that only the tests use.

block_rotation writes the plane rotation out as a 6x6 matrix,
line_field_vector reads a line field's direction off one frame, and
normal_projection gives V.(M nu) as its own array product; the program
itself turns only the complement seeds, inside frames.complement_basis,
builds the line-field direction inside the op family's core and takes
V.(M nu) inside scattering.frame_rows.
"""

import math

import numpy as np

from hardpair.bodies import mass_weights

# The fields of Frames that hold one entry per pose.
PER_POSE = ("Ebeta", "nu", "F1", "F2", "theta", "thetabar", "psi", "d")


def block_rotation(phi: float) -> np.ndarray:
    """Rotation of both translational velocity blocks by phi; spins untouched.

    This is how a rotation of the plane acts on 6-vectors (v, vbar, w, wbar).
    It commutes with the mass weighting.
    """
    c, s = math.cos(phi), math.sin(phi)
    turn = np.array([[c, -s], [s, c]])
    R = np.eye(6)
    R[0:2, 0:2] = R[2:4, 2:4] = turn
    return R


def line_field_vector(frame, lf, theta_rel: float, psi_rel: float) -> np.ndarray:
    """Unit vector cos(phi) F1 + sin(phi) F2 selected by the line field."""
    phi = lf.angle(theta_rel, psi_rel)
    return math.cos(phi) * frame.F1 + math.sin(phi) * frame.F2


def normal_projection(V: np.ndarray, nu: np.ndarray, m: float, J: float) -> float:
    """V.(M nu) for the collision normal nu of a frame with mass data (m, J).

    Negative for approaching states, positive for separating ones.
    """
    return float((mass_weights(m, J) * np.asarray(V, dtype=float)) @ nu)


def one_row(frame):
    """One frame (vectors of shape (6,)) as the N = 1 stack."""
    return copies(frame, 1)


def copies(frame, n: int):
    """One frame as the stack of n copies of it."""
    return frame._replace(**{name: np.repeat(np.asarray(getattr(frame, name))[None], n, axis=0)
                             for name in PER_POSE})


def pose(frames, i: int):
    """Pose i of a stack as one frame: vectors of shape (6,) and floats."""
    return frames._replace(**{name: getattr(frames, name)[i] for name in PER_POSE})

