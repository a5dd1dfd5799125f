"""Metric tests, including properties of the Table-1 divergences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import metrics


dist = st.lists(
    st.floats(min_value=0.01, max_value=10.0), min_size=3, max_size=12
)


class TestRegressionMetrics:
    def test_wmape_perfect(self):
        assert metrics.wmape([1, 2, 3], [1, 2, 3]) == 0.0

    def test_wmape_weighted(self):
        # Error of 1 on a total of 10 -> 10%.
        assert metrics.wmape([4, 6], [5, 6]) == pytest.approx(0.1)

    def test_wmape_zero_truth(self):
        assert metrics.wmape([0, 0], [0, 0]) == 0.0
        assert metrics.wmape([0, 0], [1, 0]) == float("inf")

    def test_mae(self):
        assert metrics.mae([1, 3], [2, 5]) == pytest.approx(1.5)


class TestClassificationMetrics:
    def test_precision_recall(self):
        y_true = [1, 1, 0, 0, 1]
        y_pred = [1, 0, 1, 0, 1]
        pr = metrics.precision_recall(y_true, y_pred)
        assert pr["tp"] == 2 and pr["fp"] == 1 and pr["fn"] == 1
        assert pr["precision"] == pytest.approx(2 / 3)
        assert pr["recall"] == pytest.approx(2 / 3)

    def test_no_positive_predictions(self):
        pr = metrics.precision_recall([0, 0], [0, 0])
        assert pr["precision"] == 1.0

    def test_top_k_accuracy(self):
        ranked = [[2, 0, 1], [1, 2, 0]]
        assert metrics.top_k_accuracy([2, 0], ranked, k=1) == 0.5
        assert metrics.top_k_accuracy([2, 0], ranked, k=3) == 1.0


class TestDivergences:
    @pytest.mark.parametrize("name,fn", list(metrics.TABLE1_METRICS.items()))
    def test_identical_distributions_near_zero(self, name, fn):
        p = np.array([0.2, 0.3, 0.5])
        assert fn(p, p) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("name,fn", list(metrics.TABLE1_METRICS.items()))
    def test_different_distributions_positive(self, name, fn):
        p = np.array([0.9, 0.05, 0.05])
        q = np.array([0.05, 0.05, 0.9])
        assert fn(p, q) > 0.01

    @given(p=dist, q=dist)
    @settings(max_examples=30, deadline=None)
    def test_js_symmetric_and_bounded(self, p, q):
        n = min(len(p), len(q))
        p, q = np.array(p[:n]), np.array(q[:n])
        d1 = metrics.jensen_shannon(p, q)
        d2 = metrics.jensen_shannon(q, p)
        assert d1 == pytest.approx(d2, abs=1e-9)
        assert 0.0 <= d1 <= np.log(2) + 1e-9

    def test_js_of_proportional_inputs_is_exactly_zero(self):
        # Rounding once made this pair -5.6e-17, failing the bound above.
        d = metrics.jensen_shannon(np.array([1.0, 1.0, 1.0]),
                                   np.array([0.01, 0.01, 0.01]))
        assert d == 0.0

    @given(p=dist, q=dist)
    @settings(max_examples=30, deadline=None)
    def test_variational_bounded_by_two(self, p, q):
        n = min(len(p), len(q))
        d = metrics.variational_distance(np.array(p[:n]), np.array(q[:n]))
        assert 0.0 <= d <= 2.0 + 1e-9

    @given(p=dist, q=dist)
    @settings(max_examples=30, deadline=None)
    def test_bhattacharyya_nonnegative(self, p, q):
        n = min(len(p), len(q))
        assert metrics.bhattacharyya(np.array(p[:n]), np.array(q[:n])) >= -1e-12

    def test_renyi_alpha_validation(self):
        with pytest.raises(ValueError):
            metrics.renyi_divergence([1, 1], [1, 1], alpha=1.0)

    def test_normalization_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            metrics.jensen_shannon([0, 0], [1, 1])

    def test_cosine_scale_invariant(self):
        p = np.array([1.0, 2.0, 3.0])
        assert metrics.cosine_distance(p, 10 * p) == pytest.approx(0.0, abs=1e-9)
