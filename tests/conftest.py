from __future__ import annotations

import warnings

import numpy as np
import pytest

warnings.filterwarnings("ignore", message=".*TBB.*")


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
