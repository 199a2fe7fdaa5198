"""Petri net to hierarchical statechart transformation.

A typed in-memory model store, a one-pass initialization that maps each
place to its OR state, the AND/OR reduction rules applied to a fixpoint,
the same transformation on flat int-indexed lists (``transform_net``,
which ``pn2sc transform`` runs), JSON serialization, a series-parallel
benchmark generator, and a structural validator.
"""

from .flat import transform_net
from .generate import GenSpec, generate_sp_net
from .init import initialize_statechart
from .io import (
    DocumentError,
    PetriNetDocument,
    StatechartDocument,
    parse_statechart,
    read_petri_net,
    read_statechart,
    write_statechart,
)
from .model import ElementKind, LivenessError, ModelError, ModelStore
from .reduce import (
    ReductionError,
    ReductionResult,
    ReductionStatus,
    Side,
    and_rule,
    assign_hyperedges,
    create_statechart,
    create_top,
    fixpoint,
    or_rule,
)
from .validate import (
    ValidationLevel,
    ValidationReport,
    validate_counts,
    validate_full,
)

__all__ = [
    "ElementKind",
    "GenSpec",
    "LivenessError",
    "ModelError",
    "ModelStore",
    "DocumentError",
    "PetriNetDocument",
    "ReductionError",
    "ReductionResult",
    "ReductionStatus",
    "Side",
    "StatechartDocument",
    "ValidationLevel",
    "ValidationReport",
    "and_rule",
    "assign_hyperedges",
    "create_statechart",
    "create_top",
    "fixpoint",
    "generate_sp_net",
    "initialize_statechart",
    "or_rule",
    "parse_statechart",
    "read_petri_net",
    "read_statechart",
    "transform_net",
    "validate_counts",
    "validate_full",
    "write_statechart",
]

__version__ = "0.1.0"
