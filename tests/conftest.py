import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))  # make `oracles` importable from tests

# HYPOTHESIS_PROFILE=ci: reproducible examples, and more of them for the
# properties that leave the example count to the profile
settings.register_profile("ci", derandomize=True, max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_runtest_logreport(report):
    # one pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        print(f"\nACCEPTANCE {name}: {status} ({report.duration:.1f}s)")


@pytest.fixture
def golden_feature_table() -> dict[str, tuple[int, ...]]:
    table = {}
    with open(TESTS_DIR / "data" / "feature_table_golden.tsv", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            symbol, bits = line.split("\t")
            table[symbol] = tuple(int(b) for b in bits.split())
    return table


def numeric_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
