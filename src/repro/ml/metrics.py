"""Evaluation metrics.

Includes the six distribution-distance measures of the paper's Table 1
(Jensen-Shannon, Rényi, Bhattacharyya, cosine, Euclidean, variational),
the WMAPE used for instruction prediction (Section 5.2), classification
precision/recall (Section 5.3), MAE (Section 5.4), and top-k ranking
accuracy (Section 5.7).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

_EPS = 1e-12


def wmape(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Weighted mean absolute percentage error:
    ``sum|err| / sum|true|`` — robust to small denominators, which is
    why the paper reports it for per-block instruction counts."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    denom = np.abs(y_true).sum()
    if denom < _EPS:
        return 0.0 if np.abs(y_pred).sum() < _EPS else float("inf")
    return float(np.abs(y_true - y_pred).sum() / denom)


def mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    return float(np.abs(y_true - y_pred).mean())


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    return float((y_true == y_pred).mean())


def precision_recall(
    y_true: np.ndarray, y_pred: np.ndarray, positive: int = 1
) -> Dict[str, float]:
    """Binary precision/recall (paper Section 5.3: TP/(TP+FP),
    TP/(TP+FN))."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = int(np.sum((y_pred == positive) & (y_true == positive)))
    fp = int(np.sum((y_pred == positive) & (y_true != positive)))
    fn = int(np.sum((y_pred != positive) & (y_true == positive)))
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1, "tp": tp,
            "fp": fp, "fn": fn}


def top_k_accuracy(
    true_best: Sequence[int], ranked_lists: Sequence[Sequence[int]], k: int
) -> float:
    """Fraction of queries whose true-best item appears in the top-k of
    the predicted ranking (Figure 14a)."""
    hits = 0
    for best, ranking in zip(true_best, ranked_lists):
        if best in list(ranking)[:k]:
            hits += 1
    return hits / len(list(true_best)) if len(list(true_best)) else 0.0


# -- distribution distances (Table 1) ---------------------------------

def _normalize(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total < _EPS:
        raise ValueError("distribution sums to zero")
    return p / total


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    p, q = _normalize(p), _normalize(q)
    mask = p > _EPS
    return float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], _EPS))))


def jensen_shannon(p: np.ndarray, q: np.ndarray) -> float:
    p, q = _normalize(p), _normalize(q)
    m = 0.5 * (p + q)
    # Rounding can leave proportional inputs a hair below zero
    # (p=[1,1,1], q=[0.01,0.01,0.01] gives -5.6e-17); the divergence
    # itself never is.
    return max(0.0, 0.5 * kl_divergence(p, m) + 0.5 * kl_divergence(q, m))


def renyi_divergence(p: np.ndarray, q: np.ndarray, alpha: float = 0.5) -> float:
    if alpha <= 0 or alpha == 1.0:
        raise ValueError("alpha must be positive and != 1")
    p, q = _normalize(p), _normalize(q)
    mask = (p > _EPS) | (q > _EPS)
    total = np.sum(
        np.power(np.maximum(p[mask], _EPS), alpha)
        * np.power(np.maximum(q[mask], _EPS), 1.0 - alpha)
    )
    return float(np.log(max(total, _EPS)) / (alpha - 1.0))


def bhattacharyya(p: np.ndarray, q: np.ndarray) -> float:
    p, q = _normalize(p), _normalize(q)
    coefficient = np.sum(np.sqrt(p * q))
    return float(-np.log(max(coefficient, _EPS)))


def cosine_distance(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    denom = np.linalg.norm(p) * np.linalg.norm(q)
    if denom < _EPS:
        return 0.0
    return float(1.0 - np.dot(p, q) / denom)


def euclidean_distance(p: np.ndarray, q: np.ndarray) -> float:
    p, q = _normalize(p), _normalize(q)
    return float(np.linalg.norm(p - q))


def variational_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance, scaled as in the synthesis literature
    (L1 distance between the distributions)."""
    p, q = _normalize(p), _normalize(q)
    return float(np.abs(p - q).sum())


#: Names/metric functions matching Table 1's rows.
TABLE1_METRICS = {
    "Jensen-Shannon divergence": jensen_shannon,
    "Renyi divergence": renyi_divergence,
    "Bhattacharyya distance": bhattacharyya,
    "Cosine distance": cosine_distance,
    "Euclidean distance": euclidean_distance,
    "Variational distance": variational_distance,
}
