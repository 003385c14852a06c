"""Encoder masks (tube/random), decoder target masks (running-cell/random)
and assembly of the combined decoder token sequence.

Mask arrays are boolean over the row-major token order, True = masked.
Decoder targets are always a subset of the encoder-masked set, so the
reconstruction loss never touches a token the encoder saw. Counts are exact
(round half up), never probabilistic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass
class MaskPair:
    encoder_mask: np.ndarray     # bool [N], True = hidden from the encoder
    decoder_targets: np.ndarray  # bool [N], True = must be reconstructed

    def __post_init__(self):
        if self.encoder_mask.shape != self.decoder_targets.shape:
            raise ValueError("mask arrays must share a shape")
        if np.any(self.decoder_targets & ~self.encoder_mask):
            raise ValueError("decoder targets must lie inside the encoder mask")

    @property
    def n_tokens(self) -> int:
        return self.encoder_mask.size

    @property
    def visible_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.encoder_mask)

    @property
    def target_indices(self) -> np.ndarray:
        return np.flatnonzero(self.decoder_targets)


@dataclass
class CombinedSeq:
    """Visible latents followed by mask tokens at decoder-target positions,
    for S samples with equal visible and target counts."""

    tokens: np.ndarray          # [S, n_visible + n_targets, C]
    source_indices: np.ndarray  # [S, n_visible + n_targets] original token index per slot
    n_visible: int
    n_targets: int

    def __post_init__(self):
        ordered = np.sort(self.source_indices, axis=-1)
        if (ordered[..., 1:] == ordered[..., :-1]).any():
            raise ValueError("combined-sequence slots must map to unique tokens")


def tube_mask(grid_t: int, grid_h: int, grid_w: int, ratio: float,
              rng: np.random.Generator) -> np.ndarray:
    """One spatial mask replicated across every temporal slot."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"mask ratio must lie in (0, 1), got {ratio}")
    n_spatial = grid_h * grid_w
    n_masked = round_half_up(ratio * n_spatial)
    if n_masked >= n_spatial:
        raise ValueError(f"ratio {ratio} leaves zero visible spatial positions")
    spatial = np.zeros(n_spatial, dtype=bool)
    spatial[rng.choice(n_spatial, size=n_masked, replace=False)] = True
    return np.tile(spatial, grid_t)


def random_mask(n_tokens: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"mask ratio must lie in (0, 1), got {ratio}")
    n_masked = round_half_up(ratio * n_tokens)
    if n_masked >= n_tokens:
        raise ValueError(f"ratio {ratio} leaves zero visible tokens")
    mask = np.zeros(n_tokens, dtype=bool)
    mask[rng.choice(n_tokens, size=n_masked, replace=False)] = True
    return mask


def _cell_layout(grid_h: int, grid_w: int):
    """Group spatial positions into 2x2 cells (ragged at odd borders)."""
    cells = []
    for ch in range(0, grid_h, 2):
        for cw in range(0, grid_w, 2):
            members = [h * grid_w + w
                       for h in range(ch, min(ch + 2, grid_h))
                       for w in range(cw, min(cw + 2, grid_w))]
            cells.append(members)
    return cells


def running_cell_mask(grid_t: int, grid_h: int, grid_w: int,
                      encoder_mask: np.ndarray, decoder_ratio: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Decoder targets sweeping the spatial grid over time.

    Within each 2x2 cell a selection offset advances by one position per
    temporal slot, so the union of candidates over any full sweep covers the
    whole grid. Candidates are intersected with the encoder-masked set and
    the result is trimmed or randomly topped up from the remaining
    encoder-masked positions to hit the exact target count.
    """
    if not 0.0 < decoder_ratio < 1.0:
        raise ValueError(f"decoder ratio must lie in (0, 1), got {decoder_ratio}")
    n_tokens = grid_t * grid_h * grid_w
    if encoder_mask.size != n_tokens:
        raise ValueError("encoder mask size does not match the grid")

    cells = _cell_layout(grid_h, grid_w)
    phases = rng.integers(0, 4, size=len(cells))
    candidates = np.zeros(n_tokens, dtype=bool)
    for t in range(grid_t):
        base = t * grid_h * grid_w
        for cell, phase in zip(cells, phases):
            pick = cell[(int(phase) + t) % len(cell)]
            candidates[base + pick] = True

    return _fit_targets(candidates, encoder_mask, decoder_ratio, rng)


def random_decoder_targets(n_tokens: int, encoder_mask: np.ndarray,
                           decoder_ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Random decoder targets drawn directly from the encoder-masked set."""
    if not 0.0 < decoder_ratio < 1.0:
        raise ValueError(f"decoder ratio must lie in (0, 1), got {decoder_ratio}")
    empty = np.zeros(n_tokens, dtype=bool)
    return _fit_targets(empty, encoder_mask, decoder_ratio, rng)


def _fit_targets(candidates: np.ndarray, encoder_mask: np.ndarray,
                 decoder_ratio: float, rng: np.random.Generator) -> np.ndarray:
    n_tokens = encoder_mask.size
    wanted = round_half_up((1.0 - decoder_ratio) * n_tokens)
    wanted = max(wanted, 1)
    available = int(encoder_mask.sum())
    if wanted > available:
        warnings.warn(
            f"requested {wanted} decoder targets but only {available} "
            f"encoder-masked tokens exist; clamping", RuntimeWarning)
        wanted = available
    targets = candidates & encoder_mask
    have = int(targets.sum())
    if have > wanted:
        keep = rng.choice(np.flatnonzero(targets), size=wanted, replace=False)
        targets = np.zeros(n_tokens, dtype=bool)
        targets[keep] = True
    elif have < wanted:
        pool = np.flatnonzero(encoder_mask & ~targets)
        extra = rng.choice(pool, size=wanted - have, replace=False)
        targets = targets.copy()
        targets[extra] = True
    return targets


def assemble_combined(latents: np.ndarray, pairs: list[MaskPair],
                      mask_token: np.ndarray,
                      positions: np.ndarray) -> CombinedSeq:
    """Build the decoder input of S samples: visible latents [S, n_visible, C]
    then mask tokens at each sample's target positions.

    The pairs must agree in their visible and in their target counts.
    """
    visible = np.stack([pair.visible_indices for pair in pairs])
    targets = np.stack([pair.target_indices for pair in pairs])
    if latents.shape[:2] != visible.shape:
        raise ValueError(
            f"latents {latents.shape[:2]} do not match the visible count "
            f"{visible.shape[1]} of {len(pairs)} samples")
    filled = mask_token + positions[targets]
    tokens = np.concatenate([latents, filled], axis=1) if latents.size else filled
    source = np.concatenate([visible, targets], axis=1)
    return CombinedSeq(tokens, source, visible.shape[1], targets.shape[1])


# ---------------------------------------------------------------------------
# inspection helpers for the maskdump CLI
# ---------------------------------------------------------------------------


def mask_to_ascii(mask: np.ndarray, grid) -> str:
    """'#' for masked, '.' for visible; temporal slots become blocks."""
    if len(grid) == 2:
        planes = [mask.reshape(grid)]
        labels = [None]
    else:
        t = grid[0]
        planes = list(mask.reshape(grid))
        labels = [f"t={i}" for i in range(t)]
    lines = []
    for label, plane in zip(labels, planes):
        if label:
            lines.append(label)
        for row in plane:
            lines.append("".join("#" if m else "." for m in row))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def mask_to_pbm(mask: np.ndarray, grid) -> str:
    """Plain PBM (P1); 3D grids stack temporal slices vertically."""
    if len(grid) == 2:
        img = mask.reshape(grid)
    else:
        img = mask.reshape(grid[0] * grid[1], grid[2])
    lines = [f"P1", f"{img.shape[1]} {img.shape[0]}"]
    for row in img:
        lines.append(" ".join("1" if m else "0" for m in row))
    return "\n".join(lines) + "\n"
