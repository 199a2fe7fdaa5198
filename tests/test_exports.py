from __future__ import annotations

import pn2sc


def test_every_export_resolves():
    for name in pn2sc.__all__:
        getattr(pn2sc, name)
