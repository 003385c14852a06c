"""Training losses: masked reconstruction MSE, symmetric InfoNCE over
matched audio/video batches, and label-smoothed cross-entropy.

Each function returns ``(loss, gradient...)`` so composite backward passes
can chain them without a tape.
"""

from __future__ import annotations

import numpy as np

from .blocks import softmax


def masked_mse(predictions: np.ndarray, targets: np.ndarray,
               decoder_ratio: float, n_tokens: int):
    """Per-element mean squared error over the decoder-targeted patches.

    The token normaliser is the printed (1 - decoder_ratio) * n_tokens count;
    the patch dimension divides as well so the value is a per-element mean.
    Returns (loss, d_predictions).
    """
    if predictions.shape != targets.shape:
        raise ValueError(
            f"prediction shape {predictions.shape} != target shape {targets.shape}")
    resid = predictions - targets
    denom = (1.0 - decoder_ratio) * n_tokens * targets.shape[1]
    loss = float(np.sum(resid * resid) / denom)
    return loss, (2.0 / denom) * resid


def _normalize_rows(x: np.ndarray):
    norm = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    norm = np.maximum(norm, 1e-12)
    return x / norm, norm


def info_nce(feat_a: np.ndarray, feat_v: np.ndarray, temperature: float):
    """Symmetric InfoNCE with matched indices as positives.

    Features are L2-normalised, the similarity matrix is divided by the
    temperature, and the loss averages the row-wise and column-wise
    cross-entropies. Returns (loss, d_feat_a, d_feat_v).
    """
    if feat_a.shape != feat_v.shape:
        raise ValueError("feature batches must have equal shapes")
    b = feat_a.shape[0]
    if b < 2:
        raise ValueError("InfoNCE needs a batch of at least 2")
    if temperature <= 0:
        raise ValueError("temperature must be positive")

    za, na = _normalize_rows(feat_a)
    zv, nv = _normalize_rows(feat_v)
    logits = za @ zv.T / temperature
    p_rows = softmax(logits, axis=1)
    p_cols = softmax(logits, axis=0)
    diag = np.arange(b)
    loss = -0.5 * (np.log(p_rows[diag, diag] + 0.0).mean()
                   + np.log(p_cols[diag, diag] + 0.0).mean())

    eye = np.eye(b, dtype=logits.dtype)
    d_logits = 0.5 * ((p_rows - eye) + (p_cols - eye)) / b
    d_za = d_logits @ zv / temperature
    d_zv = d_logits.T @ za / temperature
    # back through the row normalisation: df = (dz - z (z . dz)) / |f|
    d_a = (d_za - za * np.sum(za * d_za, axis=1, keepdims=True)) / na
    d_v = (d_zv - zv * np.sum(zv * d_zv, axis=1, keepdims=True)) / nv
    return float(loss), d_a, d_v


def cross_entropy_ls(logits: np.ndarray, labels: np.ndarray, smoothing: float = 0.0):
    """Label-smoothed cross-entropy averaged over the batch.

    Smoothing 0 recovers plain cross-entropy. Returns (loss, d_logits).
    """
    logits = np.atleast_2d(logits)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    b, k = logits.shape
    if labels.shape[0] != b:
        raise ValueError("one label per logit row required")
    if np.any(labels < 0) or np.any(labels >= k):
        raise ValueError(f"labels must lie in [0, {k}), got {labels}")

    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_z

    q = np.full((b, k), smoothing / k, dtype=logits.dtype)
    q[np.arange(b), labels] += 1.0 - smoothing
    loss = float(-(q * log_probs).sum() / b)
    d_logits = (np.exp(log_probs) - q) / b
    return loss, d_logits
