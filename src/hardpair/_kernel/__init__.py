"""Contact-solver backend selection.

Prefers the compiled extension (_fast) when it was built; falls back to the
pure-Python reference (_ref) otherwise. Setting HARDPAIR_FORCE_FALLBACK=1 in
the environment forces the reference implementation, which is what the
backend-agreement tests and benchmarks use.

The contact derivatives are one 3x3 solve at an already converged tangency,
so both backends take them from the reference module.
"""

import os

from hardpair._kernel._ref import ellipse_contact_derivatives

if os.environ.get("HARDPAIR_FORCE_FALLBACK", "") == "1":
    from hardpair._kernel import _ref as _impl
else:
    try:
        from hardpair._kernel import _fast as _impl  # type: ignore[attr-defined]
    except ImportError:
        from hardpair._kernel import _ref as _impl

ellipse_contact = _impl.ellipse_contact
BACKEND = _impl.BACKEND_NAME
