"""Petri net to hierarchical statechart transformation.

The transformation that ``pn2sc transform`` runs, on flat int-indexed
lists (``transform_net``), JSON reading and canonical writing, a
series-parallel benchmark generator, and a structural validator. The
same transformation on a ``ModelStore`` (``pn2sc.model``, ``init`` and
``reduce``) is the tests' reference; nothing exported here imports it.
"""

from .flat import (
    AndFiring,
    OrFiring,
    ReductionResult,
    ReductionStatus,
    Side,
    transform_net,
)
from .generate import GenSpec, generate_sp_net
from .io import (
    DocumentError,
    ElementKind,
    PetriNetDocument,
    StatechartDocument,
    parse_petri_net,
    parse_statechart,
    petri_net_to_bytes,
    statechart_document_chunks,
    statechart_document_to_bytes,
    statechart_text,
)
from .validate import (
    ValidationLevel,
    ValidationReport,
    validate_counts,
    validate_full,
)

__all__ = [
    "AndFiring",
    "DocumentError",
    "ElementKind",
    "GenSpec",
    "OrFiring",
    "PetriNetDocument",
    "ReductionResult",
    "ReductionStatus",
    "Side",
    "StatechartDocument",
    "ValidationLevel",
    "ValidationReport",
    "generate_sp_net",
    "parse_petri_net",
    "parse_statechart",
    "petri_net_to_bytes",
    "statechart_document_chunks",
    "statechart_document_to_bytes",
    "statechart_text",
    "transform_net",
    "validate_counts",
    "validate_full",
]

__version__ = "0.2.0"
