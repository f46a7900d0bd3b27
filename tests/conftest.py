import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every property test draws the same examples on every run; a test sets
# only its own max_examples
settings.register_profile("swgfem", derandomize=True, deadline=None)
settings.load_profile("swgfem")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
