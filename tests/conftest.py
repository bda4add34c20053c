import os
import sys
from pathlib import Path

# BLAS reads its thread count when numpy loads, which is here unless some
# earlier import loaded it; later changes to these variables do not apply.
# The tests run with one thread, as the benchmark does, unless the caller
# sets a count: with more, numpy's and scipy's OpenBLAS pools contend.
_BLAS_THREADS = {
    var: os.environ.setdefault(var, "1") for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
}

import numpy as np
import pytest
import scipy
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# Property tests draw the same examples on every run, with no time limit
# per example and no database of earlier failures to replay.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def _blas_configuration():
    threads = "  ".join(f"{var}={val}" for var, val in _BLAS_THREADS.items())
    return f"numpy {np.__version__}  scipy {scipy.__version__}  {threads}"


def pytest_report_header(config):
    """The BLAS configuration that golden traces are deterministic within."""
    return _blas_configuration()


def pytest_terminal_summary(terminalreporter, config):
    # -q hides the session header; state the configuration at the end instead
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_blas_configuration())
