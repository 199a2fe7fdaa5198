from __future__ import annotations

from pathlib import Path

import pytest

from helpers import GOLDEN_DIR


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR
