"""Local-global interaction encoder.

Each layer runs four attention stages over region-partitioned tokens:

  I   per-region self-attention over [region token; local tokens]
  II  self-attention across the K region tokens
  III per-region cross-attention, locals reading the region tokens
  IV  per-region cross-attention, each region token reading its own locals

followed by a feed-forward network, shared between local and region tokens,
with pre-norm residuals throughout. Region tokens are learnable per region
index and evolve across the layer stack; the encoder emits every layer's
region-token snapshot, the final local tokens, and mean-pooled region
features at the hierarchical skip layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import (DEFAULT_DTYPE, Attention, Block, BlockList, FeedForward,
                     LayerNorm, Parameter, trunc_normal)
from .config import ModelConfig
from .embedding import TokenSeq


@dataclass
class RegionPartition:
    """Disjoint assignment of present tokens to spatial(-temporal) regions.

    ``members[i]``: region i's indices into the present-token array, ascending.
    ``groups``: one ``(size, ids [G], index [G, size])`` per distinct region
    size, ascending, with ``index[g] == members[ids[g]]``, so one fancy index
    gathers or scatters every region of that size.
    """

    members: list[np.ndarray]
    groups: list[tuple[int, np.ndarray, np.ndarray]]

    @property
    def n_regions(self) -> int:
        return len(self.members)

    def sizes(self) -> list[int]:
        return [m.size for m in self.members]


def partition(seq: TokenSeq, region_shape, visible_mask: np.ndarray | None = None) -> RegionPartition:
    """Assign tokens to the region containing their grid coordinate.

    Under masking only visible tokens are kept, so regions may be ragged or
    empty; member indices point into the visible-token array.
    """
    grid = seq.grid
    if len(region_shape) != len(grid):
        raise ValueError("region rank must match grid rank")
    region_grid = []
    for g, r in zip(grid, region_shape):
        if g % r != 0:
            raise ValueError(f"region shape {region_shape} does not tile grid {grid}")
        region_grid.append(g // r)

    coords = seq.coords
    if visible_mask is not None:
        coords = coords[~visible_mask]
    region_coord = coords // np.asarray(region_shape, dtype=np.int64)
    flat = np.ravel_multi_index(tuple(region_coord.T), region_grid)
    n_regions = math.prod(region_grid)
    # region i owns order[starts[i]:starts[i] + counts[i]], ascending
    order = np.argsort(flat, kind="stable").astype(np.int64)
    counts = np.bincount(flat, minlength=n_regions)
    starts = np.cumsum(counts) - counts
    members = [order[a:a + n] for a, n in zip(starts.tolist(), counts.tolist())]
    groups = [(n, np.flatnonzero(counts == n)) for n in sorted(set(counts.tolist()))]
    groups = [(n, ids, order[starts[ids, None] + np.arange(n)]) for n, ids in groups]
    return RegionPartition(members, groups)


def score_entries_stage12(part: RegionPartition) -> int:
    """Attention score-matrix entries spent by stages I and II of one layer."""
    return sum((m.size + 1) ** 2 for m in part.members) + part.n_regions ** 2


def _take(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``x[:, index]``, gathering tokens after the sample axis; ``take`` skips
    the general fancy-indexing path."""
    return x.take(index, axis=1)


def _scaled(scale: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """x times its per-sample stochastic-depth scale (None: no scaling)."""
    if scale is None:
        return x
    return scale.reshape((-1,) + (1,) * (x.ndim - 1)) * x


class LGILayer(Block):
    """One LGI layer over S samples that share one region partition.

    Local tokens are [S, N, C] and region tokens [S, K, C]. A region-size
    group's regions are gathered as [S, G, size(+1), C], one attention call
    per group for the whole batch.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 dtype=DEFAULT_DTYPE):
        super().__init__()
        self.dim = dim
        self.norm1 = LayerNorm(dim, dtype=dtype)
        self.attn_local = Attention(dim, heads, rng, dtype=dtype)
        self.norm2 = LayerNorm(dim, dtype=dtype)
        self.attn_region = Attention(dim, heads, rng, dtype=dtype)
        self.norm3_q = LayerNorm(dim, dtype=dtype)
        self.norm3_kv = LayerNorm(dim, dtype=dtype)
        self.cross_local = Attention(dim, heads, rng, dtype=dtype)
        self.norm4_q = LayerNorm(dim, dtype=dtype)
        self.norm4_kv = LayerNorm(dim, dtype=dtype)
        self.cross_region = Attention(dim, heads, rng, dtype=dtype)
        self.norm_ffn = LayerNorm(dim, dtype=dtype)
        self.ffn = FeedForward(dim, rng, dtype=dtype)

    # Stochastic depth: one decision per sample and residual branch (six per
    # layer), drawn from that sample's generator. A dropped branch is scaled
    # by 0, a kept one by 1 / (1 - rate); without generators or at rate 0
    # nothing is drawn and nothing scaled.
    @staticmethod
    def _branch_scales(rngs, rate: float, dtype):
        if rngs is None or rate <= 0.0:
            return [None] * 6
        draws = np.array([[rng.random() for _ in range(6)] for rng in rngs])
        scales = np.where(draws < rate, 0.0, 1.0 / (1.0 - rate)).astype(dtype)
        return list(scales.T)

    def forward(self, locals_: np.ndarray, s: np.ndarray, part: RegionPartition,
                rngs=None, drop_path: float = 0.0):
        """rngs: one generator per sample for stochastic depth, or None."""
        scales = self._branch_scales(rngs, drop_path, locals_.dtype)
        c1, c2, c3, c4, cfl, cfs = scales

        # stage I: aggregate local information into each region token
        locals1 = locals_.copy()
        s1 = np.empty_like(s)
        for size, ids, m in part.groups:
            # [S, G, size+1, C]: each region's token, then its locals
            x = np.concatenate([_take(s, ids)[:, :, None], _take(locals_, m)], axis=2)
            x = x + _scaled(c1, self.attn_local.forward(self.norm1.forward(x)))
            s1[:, ids] = x[:, :, 0]
            locals1[:, m] = x[:, :, 1:]

        # stage II: exchange information across region tokens
        s2 = s1 + _scaled(c2, self.attn_region.forward(self.norm2.forward(s1)))

        # stage III: locals read the globally-aware region tokens; empty
        # regions have no queries (and in stage IV no keys), so they skip
        locals2 = locals1.copy()
        q_all = self.norm3_q.forward(locals1)
        kv = self.norm3_kv.forward(s2)
        for size, ids, m in part.groups:
            if size == 0:
                continue
            out = self.cross_local.forward(_take(q_all, m), kv)  # kv shared by the G regions
            locals2[:, m] = _take(locals1, m) + _scaled(c3, out)

        # stage IV: region tokens read local tokens back
        s3 = s2.copy()
        q_all = self.norm4_q.forward(s2)
        kv_all = self.norm4_kv.forward(locals2)
        for size, ids, m in part.groups:
            if size == 0:
                continue
            out = self.cross_region.forward(_take(q_all, ids)[:, :, None], _take(kv_all, m))
            s3[:, ids] = _take(s2, ids) + _scaled(c4, out[:, :, 0])

        # shared feed-forward on locals, then on region tokens
        locals3 = locals2 + _scaled(cfl, self.ffn.forward(self.norm_ffn.forward(locals2)))
        s4 = s3 + _scaled(cfs, self.ffn.forward(self.norm_ffn.forward(s3)))

        self._save(part.groups, scales)
        return locals3, s4

    def backward(self, d_locals3: np.ndarray, d_s4: np.ndarray):
        groups, scales = self._load()
        c1, c2, c3, c4, cfl, cfs = scales

        d_h = self.ffn.backward(_scaled(cfs, d_s4))
        d_s3 = d_s4 + self.norm_ffn.backward(d_h)
        d_h = self.ffn.backward(_scaled(cfl, d_locals3))
        d_locals2 = d_locals3 + self.norm_ffn.backward(d_h)

        d_s2 = d_s3.copy()
        d_q_all = np.zeros_like(d_s3)
        d_kv_all = np.zeros_like(d_locals2)
        for size, ids, m in reversed(groups):
            if size == 0:
                continue
            d_q, d_kv = self.cross_region.backward(_scaled(c4, _take(d_s3, ids))[:, :, None])
            d_q_all[:, ids] += d_q[:, :, 0]
            d_kv_all[:, m] += d_kv
        d_locals2 = d_locals2 + self.norm4_kv.backward(d_kv_all)
        d_s2 = d_s2 + self.norm4_q.backward(d_q_all)

        d_locals1 = d_locals2.copy()
        d_q_all = np.zeros_like(d_locals2)
        d_kv_total = np.zeros_like(d_s2)
        for size, ids, m in reversed(groups):
            if size == 0:
                continue
            d_q, d_kv = self.cross_local.backward(_scaled(c3, _take(d_locals2, m)))
            d_q_all[:, m] += d_q
            d_kv_total += d_kv
        d_s2 = d_s2 + self.norm3_kv.backward(d_kv_total)
        d_locals1 = d_locals1 + self.norm3_q.backward(d_q_all)

        d_q, d_kv = self.attn_region.backward(_scaled(c2, d_s2))
        d_s1 = d_s2 + self.norm2.backward(d_q + d_kv)

        d_locals = np.zeros_like(d_locals1)
        d_s = np.zeros_like(d_s1)
        for size, ids, m in reversed(groups):
            d_x = np.concatenate([_take(d_s1, ids)[:, :, None], _take(d_locals1, m)], axis=2)
            d_q, d_kv = self.attn_local.backward(_scaled(c1, d_x))
            d_x = d_x + self.norm1.backward(d_q + d_kv)
            d_s[:, ids] = d_x[:, :, 0]
            d_locals[:, m] = d_x[:, :, 1:]
        return d_locals, d_s


class LGIEncoder(Block):
    """A stack of LGI layers plus the learnable region tokens."""

    def __init__(self, cfg: ModelConfig, n_regions: int, rng: np.random.Generator,
                 dtype=DEFAULT_DTYPE):
        super().__init__()
        self.cfg = cfg
        self.n_regions = n_regions
        self.region_tokens = Parameter(
            trunc_normal(rng, (n_regions, cfg.encoder_dim), dtype=dtype))
        self.layers = BlockList([
            LGILayer(cfg.encoder_dim, cfg.encoder_heads, rng, dtype=dtype)
            for _ in range(cfg.encoder_depth)
        ])

    def encode(self, tokens: np.ndarray, part: RegionPartition,
               rngs=None, drop_path: float = 0.0):
        """Encode the tokens [S, N, C] of S samples that share ``part``.

        Returns (snapshots, final_locals, skip_locals, pooled):
        snapshots: region tokens after every layer, [depth][S, K, C]
        skip_locals: local tokens after each skip layer, [S, N, C]
        pooled: mean over region tokens at each skip layer, [S, C]
        rngs: one generator per sample for stochastic depth, or None.
        """
        if part.n_regions != self.n_regions:
            raise ValueError(
                f"partition has {part.n_regions} regions, encoder expects {self.n_regions}")
        locals_ = tokens
        s = np.repeat(self.region_tokens.data[None], len(tokens), axis=0)
        snapshots = []
        skip_locals = {}
        pooled = {}
        for idx, layer in enumerate(self.layers):
            locals_, s = layer.forward(locals_, s, part, rngs=rngs, drop_path=drop_path)
            snapshots.append(s)
            if idx in self.cfg.skip_indices:
                skip_locals[idx] = locals_
                pooled[idx] = s.mean(axis=1)
        return snapshots, locals_, skip_locals, pooled

    def backward(self, d_locals: np.ndarray,
                 d_snapshots: list[np.ndarray] | None = None,
                 d_skip_locals: dict[int, np.ndarray] | None = None,
                 d_pooled: dict[int, np.ndarray] | None = None) -> np.ndarray:
        k = self.n_regions
        d_s = np.zeros((len(d_locals), k, d_locals.shape[-1]), dtype=d_locals.dtype)
        for idx in reversed(range(len(self.layers))):
            if d_snapshots is not None:
                d_s = d_s + d_snapshots[idx]
            if d_pooled is not None and idx in d_pooled:
                d_s = d_s + d_pooled[idx][:, None] / k
            if d_skip_locals is not None and idx in d_skip_locals:
                d_locals = d_locals + d_skip_locals[idx]
            d_locals, d_s = self.layers[idx].backward(d_locals, d_s)
        self._accumulate(self.region_tokens, d_s)
        return d_locals
