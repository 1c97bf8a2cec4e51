"""Unit tests for confidence intervals and similarity judgements."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.metrics import (
    mean_confidence_interval,
    statistically_similar,
    summarize,
    welch_ttest,
)


class TestMeanConfidenceInterval:
    def test_single_value_zero_width(self):
        ci = mean_confidence_interval([0.4])
        assert ci.mean == 0.4
        assert ci.half_width == 0.0
        assert ci.n == 1

    def test_constant_sample_zero_width(self):
        ci = mean_confidence_interval([0.2, 0.2, 0.2])
        assert ci.half_width == pytest.approx(0.0, abs=1e-12)

    def test_95_interval_against_known_values(self):
        # For [1, 2, 3]: mean 2, sd 1, sem 1/sqrt(3), t(0.975, df=2) = 4.303.
        ci = mean_confidence_interval([1.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0)
        assert ci.half_width == pytest.approx(4.3026 / np.sqrt(3), rel=1e-3)
        assert ci.low == pytest.approx(ci.mean - ci.half_width)
        assert ci.high == pytest.approx(ci.mean + ci.half_width)

    def test_wider_confidence_wider_interval(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert (
            mean_confidence_interval(values, 0.99).half_width
            > mean_confidence_interval(values, 0.90).half_width
        )

    def test_more_samples_tighter_interval(self, rng):
        few = rng.normal(0, 1, 5)
        many = rng.normal(0, 1, 100)
        assert mean_confidence_interval(many).half_width < mean_confidence_interval(few).half_width

    def test_coverage_simulation(self, rng):
        # ~95% of intervals from a known distribution should cover the mean.
        hits = 0
        trials = 300
        for _ in range(trials):
            sample = rng.normal(10.0, 2.0, 15)
            ci = mean_confidence_interval(sample)
            hits += ci.low <= 10.0 <= ci.high
        assert 0.90 <= hits / trials <= 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0], confidence=1.0)

    def test_str_format(self):
        assert "±" in str(mean_confidence_interval([1.0, 2.0]))


class TestWelch:
    def test_identical_samples_high_p(self, rng):
        a = rng.normal(0, 1, 40)
        _, p = welch_ttest(a, a + rng.normal(0, 1e-9, 40))
        assert p > 0.5

    def test_separated_samples_low_p(self, rng):
        a = rng.normal(0, 1, 40)
        b = rng.normal(5, 1, 40)
        _, p = welch_ttest(a, b)
        assert p < 1e-6

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            welch_ttest([1.0], [1.0, 2.0])


class TestStatisticallySimilar:
    def test_same_distribution_similar(self, rng):
        a = rng.normal(0.3, 0.05, 20)
        b = rng.normal(0.3, 0.05, 20)
        assert statistically_similar(a, b)

    def test_different_distributions_not_similar(self, rng):
        a = rng.normal(0.1, 0.02, 20)
        b = rng.normal(0.6, 0.02, 20)
        assert not statistically_similar(a, b)

    def test_degenerate_identical_zero_variance(self):
        assert statistically_similar([0.5, 0.5], [0.5, 0.5])

    def test_degenerate_different_zero_variance(self):
        assert not statistically_similar([0.1, 0.1], [0.9, 0.9])


class TestSummarize:
    def test_fields(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["mean"] == 2.0
        assert s["min"] == 1.0
        assert s["max"] == 3.0
        assert s["n"] == 3
        assert s["std"] == pytest.approx(1.0)

    def test_single_value_std_zero(self):
        assert summarize([5.0])["std"] == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])


def test_scipy_stats_is_imported_lazily():
    # scipy.stats dominates the cost of importing repro; a study or serve
    # process that never computes a multi-repeat CI or a t-test skips it.
    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        "import sys\n"
        "import repro, repro.experiments.executors, repro.serve.server\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    output = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout.strip()
    assert output == "[]"
    # ...and the statistics still work once asked for.
    assert mean_confidence_interval([1.0, 2.0, 3.0]).half_width > 0.0
    assert 0.0 < welch_ttest([1.0, 2.0, 3.0], [2.0, 3.0, 5.0])[1] < 1.0
