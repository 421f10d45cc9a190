"""Contact kernel: the one normal-angle solve for a pair of congruent convex bodies.

One pure-Python implementation, in _ref. Callers reach it through this
module's bindings (`_kernel.ellipse_contact`, `_kernel.support_contact`),
which tests and tracing replace in place.
"""

from hardpair._kernel._ref import ellipse_contact, ellipse_support, support_contact

BACKEND = "python"
