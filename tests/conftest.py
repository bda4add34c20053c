import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# Property tests draw the same examples on every run, with no time limit
# per example and no database of earlier failures to replay.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
