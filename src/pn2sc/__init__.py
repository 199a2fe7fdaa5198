"""Petri net to hierarchical statechart transformation.

The transformation that ``pn2sc transform`` runs, on flat int-indexed
lists (``transform_net``), JSON reading and canonical writing, a
series-parallel benchmark generator, and a structural validator. The
same transformation on a ``ModelStore`` (``pn2sc.model``, ``init`` and
``reduce``) is the tests' reference; nothing exported here imports it.

Importing this package loads none of its modules: each export is
imported from its module on first use (PEP 562), so a command pays only
for the modules it runs.
"""

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

#: The module that defines each export.
_MODULES = {
    "flat": ("AndFiring", "OrFiring", "ReductionResult", "ReductionStatus",
             "Side", "transform_net"),
    "generate": ("GenSpec", "generate_sp_net"),
    "io": ("DocumentError", "ElementKind", "PetriNetDocument",
           "StatechartDocument", "parse_petri_net", "parse_statechart",
           "petri_net_to_bytes", "statechart_document_chunks",
           "statechart_document_to_bytes", "statechart_text"),
    "validate": ("ValidationLevel", "ValidationReport", "validate_counts",
                 "validate_full"),
}


def __getattr__(name: str) -> object:
    """Import an export from its module the first time it is asked for.
    Any other name raises AttributeError, so ``from pn2sc import io``
    still imports the submodule."""
    for module, names in _MODULES.items():
        if name in names:
            from importlib import import_module

            value = getattr(import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
