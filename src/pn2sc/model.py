"""``ElementKind``, under the module name perfbench imports it from.

This module is here only for perfbench (``perfbench/traced_op.py``) and
goes once perfbench imports ``ElementKind`` from ``pn2sc.io``. The
element store it once held is the tests' reference now
(``tests/store_reference.py``); nothing in ``pn2sc`` imports this module.
"""

from .io import ElementKind

__all__ = ["ElementKind"]
