"""Shared fixtures.

Quantized tensors are expensive to build (k-means training), so the
fixtures are session-scoped and use reduced shapes; the statistics the
kernels draw from them (hotness skew, conflict degrees) are intensive
quantities that do not depend on tensor size.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

# When a ``@given`` test fails, hypothesis writes a failure patch with
# libcst, whose first import warns (DeprecationWarning from
# ``mypy_extensions.TypedDict``).  ``filterwarnings = error`` turns that
# warning, raised inside a pytest hook, into an INTERNALERROR that hides
# the falsifying example and stops the session.  Importing the patch
# writer here, with the warning silenced, keeps the failure a report.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis skips the patch
        pass

from repro.gpu.spec import RTX4090
from repro.llm.model import structured_matrix
from repro.vq.algorithms import make_quantizer


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def weight():
    """A small structured weight matrix (rows, cols divisible by 8)."""
    return structured_matrix(np.random.default_rng(7), 128, 256)


@pytest.fixture(scope="session")
def kv_data():
    """A small KV slice: 512 tokens x (2 heads x 128 channels)."""
    return structured_matrix(np.random.default_rng(11), 512, 256)


def _quantize(algo, tensor, seed=0):
    q = make_quantizer(algo, seed=seed, kmeans_iters=4, train_sample=4096)
    return q.quantize(tensor)


@pytest.fixture(scope="session")
def qt_gptvq(weight):
    return _quantize("gptvq-2", weight)


@pytest.fixture(scope="session")
def weight_large():
    """A larger weight so AQLM's 4096-entry codebook is non-degenerate
    (more sub-vectors than entries)."""
    return structured_matrix(np.random.default_rng(13), 256, 512)


@pytest.fixture(scope="session")
def qt_aqlm(weight_large):
    q = make_quantizer("aqlm-3", seed=0, kmeans_iters=3,
                       train_sample=16384)
    return q.quantize(weight_large)


@pytest.fixture(scope="session")
def qt_quip(weight):
    return _quantize("quip#-4", weight)


@pytest.fixture(scope="session")
def qt_cq2_kv(kv_data):
    return _quantize("cq-2", kv_data)


@pytest.fixture(scope="session")
def qt_cq4_kv(kv_data):
    return _quantize("cq-4", kv_data)


@pytest.fixture(scope="session")
def spec():
    return RTX4090
