"""Simplicity of Leavitt path algebras and of their commutator Lie algebras.

The package models finite directed multigraphs, decides simplicity and pure
infinite simplicity of the associated path algebra, decides simplicity of the
commutator Lie algebra over any prime subfield by two independent routes
(B-vector span membership and K-theoretic order/divisibility of the unit
class), and certifies positive membership verdicts with exact symbolic
commutator witnesses in the Cohn path algebra.
"""

__version__ = "0.1.0"

from . import analysis, cohn, graph, linalg, verdict
from .analysis import *
from .cohn import *
from .graph import *
from .linalg import *
from .verdict import *

__all__ = [
    "__version__",
    *graph.__all__,
    *analysis.__all__,
    *linalg.__all__,
    *cohn.__all__,
    *verdict.__all__,
]
