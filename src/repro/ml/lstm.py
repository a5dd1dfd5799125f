"""LSTM + fully-connected regression head (paper Figure 6).

"The LSTM recurrently takes in LLVM instruction sequence encodings, and
outputs a hidden state ...; the information is then fed into a Fully
Connected (FC) layer for regression — i.e., predicting the number of
instructions."

Implementation: a single-layer LSTM with full BPTT and Adam, written
directly on numpy.  Targets are trained in ``log1p`` space (counts are
positive and heavy-tailed); predictions are clamped at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

#: rows per inference slice.  Very large batches (a whole evaluation
#: dataset) are processed in slices of this many sequences so peak
#: activation memory stays bounded; slicing cannot change results
#: because rows are independent.
INFER_CHUNK_ROWS = 2048


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


@dataclass
class _AdamState:
    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    t: int = 0


class LSTMRegressor:
    """Sequence regressor: one-hot instruction sequences -> counts."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int = 32,
        fc_dim: int = 32,
        lr: float = 5e-3,
        seed: int = 0,
    ) -> None:
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.fc_dim = fc_dim
        self.lr = lr
        rng = np.random.default_rng(seed)
        H, D, F = hidden_dim, input_dim, fc_dim
        scale_x = 1.0 / np.sqrt(D)
        scale_h = 1.0 / np.sqrt(H)
        self.params: Dict[str, np.ndarray] = {
            # Gate order: [input, forget, cell, output] stacked.
            "Wx": rng.normal(0.0, scale_x, size=(D, 4 * H)).astype(np.float64),
            "Wh": rng.normal(0.0, scale_h, size=(H, 4 * H)).astype(np.float64),
            "b": np.zeros(4 * H),
            # FC head sees [final hidden state, sequence length]: the
            # length feature relieves the recurrent state from having
            # to count raw positions across long blocks.
            "W1": rng.normal(0.0, scale_h, size=(H + 1, F)),
            "b1": np.zeros(F),
            "W2": rng.normal(0.0, 1.0 / np.sqrt(F), size=(F, 1)),
            "b2": np.zeros(1),
        }
        # Forget-gate bias init at 1.0 (standard practice).
        self.params["b"][H : 2 * H] = 1.0
        self._adam = _AdamState(
            m={k: np.zeros_like(p) for k, p in self.params.items()},
            v={k: np.zeros_like(p) for k, p in self.params.items()},
        )
        self.history: List[float] = []

    # -- forward -------------------------------------------------------
    def _forward(self, X: np.ndarray, mask: np.ndarray):
        """X: [B,T,D]; mask: [B,T].  Returns (pred[B], cache)."""
        B, T, _D = X.shape
        H = self.hidden_dim
        p = self.params
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        caches = []
        for t in range(T):
            x_t = X[:, t, :]
            m_t = mask[:, t][:, None]
            z = x_t @ p["Wx"] + h @ p["Wh"] + p["b"]
            i = _sigmoid(z[:, :H])
            f = _sigmoid(z[:, H : 2 * H])
            g = np.tanh(z[:, 2 * H : 3 * H])
            o = _sigmoid(z[:, 3 * H :])
            c_new = f * c + i * g
            h_new = o * np.tanh(c_new)
            c_next = m_t * c_new + (1.0 - m_t) * c
            h_next = m_t * h_new + (1.0 - m_t) * h
            caches.append((x_t, h, c, i, f, g, o, c_new, m_t))
            h, c = h_next, c_next
        length = mask.sum(axis=1, keepdims=True) / max(T, 1)
        features = np.concatenate([h, length], axis=1)
        a1 = features @ p["W1"] + p["b1"]
        r1 = np.maximum(a1, 0.0)
        out = (r1 @ p["W2"] + p["b2"]).ravel()
        return out, (caches, features, a1, r1)

    def _infer_from_projections(
        self, Zx: np.ndarray, mask: np.ndarray, norm_len: int
    ) -> np.ndarray:
        """Inference-only recurrence: ``Zx[B, T_eff, 4H]`` holds the
        already-projected inputs (``x_t @ Wx`` for every timestep at
        once — one fused matmul or, for one-hot rows, an exact
        embedding gather), so the loop does a single ``[B,H]@[H,4H]``
        matmul per timestep and no BPTT caches are built.  ``mask`` is
        the *full* padded mask (its width may exceed ``Zx``'s T: fully
        masked tail timesteps carry h/c unchanged, so truncating them
        is exact).  ``norm_len`` is the padded width the length feature
        is normalized by — it must be the encoder's ``max_len``, not
        the truncated T, or truncation would change predictions.

        Results are independent of batch composition: the output
        projection is a per-row reduction (a width-1 matmul would
        dispatch to a GEMV whose accumulation order varies with B), and
        single-row batches are padded to two rows so every matmul takes
        the same GEMM path as larger batches.  This is what makes
        cached, chunked, and per-request predictions bit-identical.

        Returns log-space predictions ``[B]``.
        """
        B, T_eff, _ = Zx.shape
        single = B == 1
        if single:
            Zx = np.concatenate([Zx, Zx], axis=0)
            mask = np.concatenate([mask, mask], axis=0)
            B = 2
        H = self.hidden_dim
        p = self.params
        Wh, b = p["Wh"], p["b"]
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        for t in range(T_eff):
            z = Zx[:, t, :] + h @ Wh + b
            i = _sigmoid(z[:, :H])
            f = _sigmoid(z[:, H : 2 * H])
            g = np.tanh(z[:, 2 * H : 3 * H])
            o = _sigmoid(z[:, 3 * H :])
            c_new = f * c + i * g
            h_new = o * np.tanh(c_new)
            m_t = mask[:, t][:, None]
            c = m_t * c_new + (1.0 - m_t) * c
            h = m_t * h_new + (1.0 - m_t) * h
        length = mask.sum(axis=1, keepdims=True) / max(norm_len, 1)
        features = np.concatenate([h, length], axis=1)
        r1 = np.maximum(features @ p["W1"] + p["b1"], 0.0)
        out = (r1 * p["W2"].ravel()).sum(axis=1) + p["b2"].ravel()
        return out[:1] if single else out

    def _backward(self, X, mask, d_out, cache):
        B, T, _D = X.shape
        H = self.hidden_dim
        p = self.params
        caches, features, a1, r1 = cache
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        # FC head.
        grads["W2"] = r1.T @ d_out[:, None]
        grads["b2"] = d_out.sum(keepdims=True)
        d_r1 = d_out[:, None] @ p["W2"].T
        d_a1 = d_r1 * (a1 > 0.0)
        grads["W1"] = features.T @ d_a1
        grads["b1"] = d_a1.sum(axis=0)
        # The trailing length feature is an input, not a parameter.
        dh = (d_a1 @ p["W1"].T)[:, :H]
        dc = np.zeros((B, H))
        # BPTT.
        for t in range(T - 1, -1, -1):
            x_t, h_prev, c_prev, i, f, g, o, c_new, m_t = caches[t]
            dh_t = dh * m_t
            dc_t = dc * m_t
            dh_carry = dh * (1.0 - m_t)
            dc_carry = dc * (1.0 - m_t)
            tanh_c = np.tanh(c_new)
            do = dh_t * tanh_c
            dc_inner = dc_t + dh_t * o * (1.0 - tanh_c**2)
            di = dc_inner * g
            df = dc_inner * c_prev
            dg = dc_inner * i
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g**2),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            grads["Wx"] += x_t.T @ dz
            grads["Wh"] += h_prev.T @ dz
            grads["b"] += dz.sum(axis=0)
            dh = dz @ p["Wh"].T + dh_carry
            dc = dc_inner * f + dc_carry
        return grads

    def _adam_step(self, grads: Dict[str, np.ndarray]) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self._adam.t += 1
        t = self._adam.t
        for key, grad in grads.items():
            np.clip(grad, -5.0, 5.0, out=grad)
            self._adam.m[key] = beta1 * self._adam.m[key] + (1 - beta1) * grad
            self._adam.v[key] = beta2 * self._adam.v[key] + (1 - beta2) * grad**2
            m_hat = self._adam.m[key] / (1 - beta1**t)
            v_hat = self._adam.v[key] / (1 - beta2**t)
            self.params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + eps)

    # -- public API -------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        mask: np.ndarray,
        y: np.ndarray,
        epochs: int = 40,
        batch_size: int = 32,
        seed: int = 0,
        verbose: bool = False,
    ) -> "LSTMRegressor":
        """Train on sequences ``X`` with targets ``y`` (raw counts)."""
        rng = np.random.default_rng(seed)
        y_log = np.log1p(np.asarray(y, dtype=float))
        n = X.shape[0]
        for epoch in range(epochs):
            order = rng.permutation(n)
            losses = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                xb, mb, yb = X[idx], mask[idx], y_log[idx]
                pred, cache = self._forward(xb, mb)
                err = pred - yb
                losses.append(float(np.mean(err**2)))
                d_out = 2.0 * err / len(idx)
                grads = self._backward(xb, mb, d_out, cache)
                self._adam_step(grads)
            self.history.append(float(np.mean(losses)))
            if verbose:  # pragma: no cover - debugging aid
                print(f"epoch {epoch}: mse={self.history[-1]:.4f}")
        return self

    def predict(
        self,
        X: np.ndarray,
        mask: np.ndarray,
        chunk_rows: Optional[int] = None,
    ) -> np.ndarray:
        """Batched inference over dense (one-hot) sequences.

        Unlike the training forward pass this projects every timestep's
        input in one fused matmul, truncates the recurrence to the
        longest unmasked length in each slice, and processes at most
        ``chunk_rows`` sequences at a time (default
        :data:`INFER_CHUNK_ROWS`) to bound peak memory.  Rows are
        independent, so slicing and truncation cannot change results.
        """
        chunk_rows = INFER_CHUNK_ROWS if chunk_rows is None else chunk_rows
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        B, T, D = X.shape
        p = self.params
        out = np.empty(B)
        for start in range(0, B, chunk_rows):
            xb = X[start : start + chunk_rows]
            mb = mask[start : start + chunk_rows]
            t_eff = int(mb.sum(axis=1).max()) if len(mb) else 0
            Zx = (
                xb[:, :t_eff, :].reshape(len(xb) * t_eff, D) @ p["Wx"]
            ).reshape(len(xb), t_eff, 4 * self.hidden_dim)
            out[start : start + chunk_rows] = \
                self._infer_from_projections(Zx, mb, norm_len=T)
        return np.maximum(np.expm1(out), 0.0)

    def predict_ids(
        self,
        ids: np.ndarray,
        mask: np.ndarray,
        chunk_rows: Optional[int] = None,
    ) -> np.ndarray:
        """Batched inference over integer token ids ``[B, T]``.

        The input projection of a one-hot row is exactly one row of
        ``Wx``, so the fused matmul becomes an embedding gather —
        bit-identical to :meth:`predict` on the equivalent one-hot
        tensor (a one-hot dot product sums a single nonzero term) and
        much faster, because the dense ``[B, T, vocab]`` tensor is
        never materialized.
        """
        chunk_rows = INFER_CHUNK_ROWS if chunk_rows is None else chunk_rows
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        B, T = ids.shape
        Wx = self.params["Wx"]
        out = np.empty(B)
        for start in range(0, B, chunk_rows):
            ib = ids[start : start + chunk_rows]
            mb = mask[start : start + chunk_rows]
            t_eff = int(mb.sum(axis=1).max()) if len(mb) else 0
            Zx = Wx[ib[:, :t_eff]]
            out[start : start + chunk_rows] = \
                self._infer_from_projections(Zx, mb, norm_len=T)
        return np.maximum(np.expm1(out), 0.0)
