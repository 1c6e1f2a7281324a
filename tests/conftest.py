"""Shared fixtures and reference data for the test suite."""

import builtins
import errno

import numpy as np
import pytest

import pcmaudit.matrix
from pcmaudit import build_matrix

# Known 4x4 matrix on the discrete scale whose dominant eigenvector reacts
# non-monotonically to small increases of entry (1, 3). Its CR is ~0.4869,
# the smallest among all discrete 4x4 matrices with that behaviour.
KINKED_UPPER = (8.0, 1.0, 5.0, 3.0, 7.0, 9.0)

# Reference values for that matrix: the ratio w1/w4 of the dominant
# eigenvector, before and after multiplying entry (1, 3) by the given factor.
KINKED_RATIO_BASE = 13.8783595736233
KINKED_RATIO_FACTOR_1001 = 13.8783572425025
KINKED_RATIO_FACTOR_101 = 13.8783572014778


# The counterexample with a12 raised to 1e30: no eigen solve passes the
# residual test on it, so it is a real non-convergent input.
STALLED_UPPER = (1e30, 1.0, 5.0, 3.0, 7.0, 9.0)


@pytest.fixture
def kinked_matrix():
    """The 4x4 counterexample matrix with entry (1, 3) at 1."""
    return build_matrix(4, KINKED_UPPER)


@pytest.fixture
def kinked_matrix_at():
    """Builder for the parametric variant: entry (1, 3) set to alpha."""

    def _build(alpha: float):
        return build_matrix(4, (8.0, alpha, 5.0, 3.0, 7.0, 9.0))

    return _build


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_upper(rng, n, low=1 / 9, high=9.0):
    """Random positive upper-triangle entries, log-uniform over the scale."""
    m = n * (n - 1) // 2
    return np.exp(rng.uniform(np.log(low), np.log(high), size=m))


class _DiskFull:
    """A text file that stores half of the first write, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def disk_full(monkeypatch):
    """Make every file the package writes fail halfway through."""

    def fake_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        return _DiskFull(fh) if "w" in mode else fh

    monkeypatch.setattr(pcmaudit.matrix, "open", fake_open, raising=False)
