"""Shapes and turns that only the tests use.

ellipse_boundary is the counterclockwise boundary map of an (a, b) ellipse,
the input make_implicit takes, and rotation the 2x2 turn of the plane; the
program itself builds ellipses from their closed-form support function and
turns its vectors in scalar arithmetic.
"""

import math

import numpy as np


def ellipse_boundary(a: float, b: float):
    """The map t -> (a cos t, b sin t), from parameters of shape (n,) to
    points of shape (n, 2)."""
    return lambda t: np.stack([a * np.cos(t), b * np.sin(t)], axis=1)


def rotation(phi: float) -> np.ndarray:
    """The counterclockwise turn of the plane by phi."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])
