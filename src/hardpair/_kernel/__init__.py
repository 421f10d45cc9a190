"""Contact kernel: the tangency solve for two congruent ellipses.

One pure-Python implementation, in _ref. Callers reach it through this
module's bindings (`_kernel.ellipse_contact`), which tests and tracing
replace in place.
"""

from hardpair._kernel._ref import ellipse_contact, ellipse_contact_derivatives

BACKEND = "python"
