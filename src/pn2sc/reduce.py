"""The reduction, under the names perfbench imports.

This module is here only for perfbench (``perfbench/run.py`` and
``perfbench/traced_op.py``) and goes once perfbench calls
``flat.FlatModel`` directly. Each function runs the ``FlatModel`` method
of its name, which ``pn2sc transform`` runs too; a model stands for
both the net and the statechart that perfbench passes. Nothing in
``pn2sc`` imports this module.
"""

from __future__ import annotations

from .flat import AndFiring, FiringObserver, FlatModel, ReductionResult, Side

__all__ = ["AndFiring", "Side", "assign_hyperedges", "create_statechart",
           "create_top", "fixpoint"]


def fixpoint(model: FlatModel, sc: FlatModel, trace: None,
             on_fire: FiringObserver | None = None) -> None:
    """``model.fixpoint(on_fire)``. For perfbench only."""
    model.fixpoint(on_fire)


def create_top(model: FlatModel, sc: FlatModel) -> ReductionResult:
    """``model.create_top()``. For perfbench only."""
    return model.create_top()


def assign_hyperedges(model: FlatModel) -> None:
    """``model.assign_hyperedges()``. For perfbench only."""
    model.assign_hyperedges()


def create_statechart(
    model: FlatModel, on_fire: FiringObserver | None = None
) -> tuple[FlatModel, ReductionResult]:
    """``(model, model.reduce(on_fire))``. For perfbench only."""
    return model, model.reduce(on_fire)
