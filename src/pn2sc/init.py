"""The initialization step, under the names perfbench imports.

This module is here only for perfbench (``perfbench/traced_op.py``) and
goes once perfbench times ``flat.FlatModel`` directly. Building a
``FlatModel`` (``io.store_from_petri_net``) is the initialization, so
nothing is left to do here; nothing in ``pn2sc`` imports this module.
"""

from __future__ import annotations

TYPE_CHECKING = False  # as typing's, without importing typing
if TYPE_CHECKING:
    from .flat import FlatModel


def initialize_statechart(model: FlatModel) -> tuple[FlatModel, None]:
    """``(model, None)``: the model is its own statechart, and it needs
    no map from places to ORs besides its own. For perfbench only."""
    return model, None
