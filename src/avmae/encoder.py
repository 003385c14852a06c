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

from dataclasses import dataclass

import numpy as np

from .blocks import (DEFAULT_DTYPE, Attention, Block, BlockList, FeedForward,
                     LayerNorm, Parameter, trunc_normal)
from .config import ModelConfig
from .embedding import TokenSeq


@dataclass
class RegionPartition:
    """Disjoint assignment of present tokens to spatial(-temporal) regions."""

    members: list[np.ndarray]   # per region: indices into the present-token array
    region_shape: tuple[int, ...]
    grid: tuple[int, ...]

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
    flat = np.zeros(region_coord.shape[0], dtype=np.int64)
    for axis, rg in enumerate(region_grid):
        flat = flat * rg + region_coord[:, axis]
    n_regions = int(np.prod(region_grid))
    members = [np.flatnonzero(flat == i) for i in range(n_regions)]
    return RegionPartition(members, tuple(region_shape), grid)


def score_entries_stage12(part: RegionPartition) -> int:
    """Attention score-matrix entries spent by stages I and II of one layer."""
    return sum((m.size + 1) ** 2 for m in part.members) + part.n_regions ** 2


def _size_groups(members) -> list[tuple[int, list[int]]]:
    """Regions bucketed by member count so equal-size regions batch."""
    buckets: dict[int, list[int]] = {}
    for i, m in enumerate(members):
        buckets.setdefault(m.size, []).append(i)
    return sorted(buckets.items())


class LGILayer(Block):
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

    # Residual branches share one stochastic-depth decision per stage; the
    # branch is skipped outright when dropped so cache stacks stay balanced.
    @staticmethod
    def _keep(rng, rate: float):
        if rng is None or rate <= 0.0:
            return True, 1.0
        if rng.random() < rate:
            return False, 0.0
        return True, 1.0 / (1.0 - rate)

    def forward(self, locals_: np.ndarray, s: np.ndarray, part: RegionPartition,
                rng: np.random.Generator | None = None, drop_path: float = 0.0):
        keeps = [self._keep(rng, drop_path) for _ in range(6)]
        (k1, c1), (k2, c2), (k3, c3), (k4, c4), (kfl, cfl), (kfs, cfs) = keeps
        groups = _size_groups(part.members)
        members = part.members

        # stage I: aggregate local information into each region token
        locals1 = locals_.copy()
        s1 = np.empty_like(s)
        for size, idxs in groups:
            x = np.stack([np.concatenate([s[i:i + 1], locals_[members[i]]])
                          for i in idxs])             # [G, size+1, C]
            if k1:
                x = x + c1 * self.attn_local.forward(self.norm1.forward(x))
            for g, i in enumerate(idxs):
                s1[i] = x[g, 0]
                locals1[members[i]] = x[g, 1:]

        # stage II: exchange information across region tokens
        if k2:
            s2 = s1 + c2 * self.attn_region.forward(self.norm2.forward(s1))
        else:
            s2 = s1

        # stage III: locals read the globally-aware region tokens
        locals2 = locals1.copy()
        if k3:
            q_all = self.norm3_q.forward(locals1)
            kv = self.norm3_kv.forward(s2)
            for size, idxs in groups:
                if size == 0:
                    continue
                q = np.stack([q_all[members[i]] for i in idxs])
                out = self.cross_local.forward(q, kv)  # shared kv broadcast
                for g, i in enumerate(idxs):
                    locals2[members[i]] = locals1[members[i]] + c3 * out[g]

        # stage IV: region tokens read local tokens back
        s3 = s2.copy()
        if k4:
            q_all = self.norm4_q.forward(s2)
            kv_all = self.norm4_kv.forward(locals2)
            for size, idxs in groups:
                if size == 0:
                    continue
                q = q_all[idxs][:, None, :]        # [G, 1, C]
                kv = np.stack([kv_all[members[i]] for i in idxs])
                out = self.cross_region.forward(q, kv)
                s3[idxs] = s2[idxs] + c4 * out[:, 0, :]

        # shared feed-forward on locals, then on region tokens
        if kfl:
            locals3 = locals2 + cfl * self.ffn.forward(self.norm_ffn.forward(locals2))
        else:
            locals3 = locals2
        if kfs:
            s4 = s3 + cfs * self.ffn.forward(self.norm_ffn.forward(s3))
        else:
            s4 = s3

        self._save(part, groups, keeps)
        return locals3, s4

    def backward(self, d_locals3: np.ndarray, d_s4: np.ndarray):
        part, groups, keeps = self._load()
        (k1, c1), (k2, c2), (k3, c3), (k4, c4), (kfl, cfl), (kfs, cfs) = keeps
        members = part.members

        if kfs:
            d_h = self.ffn.backward(cfs * d_s4)
            d_s3 = d_s4 + self.norm_ffn.backward(d_h)
        else:
            d_s3 = d_s4
        if kfl:
            d_h = self.ffn.backward(cfl * d_locals3)
            d_locals2 = d_locals3 + self.norm_ffn.backward(d_h)
        else:
            d_locals2 = d_locals3

        d_s2 = d_s3.copy()
        if k4:
            d_q_all = np.zeros_like(d_s3)
            d_kv_all = np.zeros_like(d_locals2)
            for size, idxs in reversed(groups):
                if size == 0:
                    continue
                d_out = (c4 * d_s3[idxs])[:, None, :]
                d_q, d_kv = self.cross_region.backward(d_out)
                d_q_all[idxs] += d_q[:, 0, :]
                for g, i in enumerate(idxs):
                    d_kv_all[members[i]] += d_kv[g]
            d_locals2 = d_locals2 + self.norm4_kv.backward(d_kv_all)
            d_s2 = d_s2 + self.norm4_q.backward(d_q_all)

        d_locals1 = d_locals2.copy()
        if k3:
            d_q_all = np.zeros_like(d_locals2)
            d_kv_total = np.zeros_like(d_s2)
            for size, idxs in reversed(groups):
                if size == 0:
                    continue
                d_out = np.stack([c3 * d_locals2[members[i]] for i in idxs])
                d_q, d_kv = self.cross_local.backward(d_out)
                for g, i in enumerate(idxs):
                    d_q_all[members[i]] += d_q[g]
                d_kv_total += d_kv
            d_s2 = d_s2 + self.norm3_kv.backward(d_kv_total)
            d_locals1 = d_locals1 + self.norm3_q.backward(d_q_all)

        if k2:
            d_q, d_kv = self.attn_region.backward(c2 * d_s2)
            d_s1 = d_s2 + self.norm2.backward(d_q + d_kv)
        else:
            d_s1 = d_s2

        d_locals = np.zeros_like(d_locals1)
        d_s = np.zeros_like(d_s1)
        for size, idxs in reversed(groups):
            d_x = np.stack([np.concatenate([d_s1[i:i + 1], d_locals1[members[i]]])
                            for i in idxs])
            if k1:
                d_q, d_kv = self.attn_local.backward(c1 * d_x)
                d_x = d_x + self.norm1.backward(d_q + d_kv)
            for g, i in enumerate(idxs):
                d_s[i] = d_x[g, 0]
                d_locals[members[i]] = d_x[g, 1:]
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
               rng: np.random.Generator | None = None, drop_path: float = 0.0):
        """Returns (snapshots, final_locals, skip_locals, pooled).

        snapshots: region tokens after every layer, [depth][K, C]
        skip_locals: local tokens after each skip layer
        pooled: mean over region tokens at each skip layer (sample features)
        """
        if part.n_regions != self.n_regions:
            raise ValueError(
                f"partition has {part.n_regions} regions, encoder expects {self.n_regions}")
        locals_ = tokens
        s = self.region_tokens.data
        snapshots = []
        skip_locals = {}
        pooled = {}
        for idx, layer in enumerate(self.layers):
            locals_, s = layer.forward(locals_, s, part, rng=rng, drop_path=drop_path)
            snapshots.append(s)
            if idx in self.cfg.skip_indices:
                skip_locals[idx] = locals_
                pooled[idx] = s.mean(axis=0)
        self._save(part.n_regions,)
        return snapshots, locals_, skip_locals, pooled

    def backward(self, d_locals: np.ndarray,
                 d_snapshots: list[np.ndarray | None] | None = None,
                 d_skip_locals: dict[int, np.ndarray] | None = None,
                 d_pooled: dict[int, np.ndarray] | None = None) -> np.ndarray:
        (k,) = self._load()
        d_s = None
        d_locals = d_locals.copy()
        for idx in reversed(range(len(self.layers))):
            extra = None
            if d_snapshots is not None and d_snapshots[idx] is not None:
                extra = d_snapshots[idx].copy()
            if d_pooled is not None and idx in d_pooled:
                spread = np.tile(d_pooled[idx] / k, (k, 1))
                extra = spread if extra is None else extra + spread
            if d_s is None:
                d_s = extra if extra is not None else np.zeros(
                    (k, d_locals.shape[1]), dtype=d_locals.dtype)
            elif extra is not None:
                d_s = d_s + extra
            if d_skip_locals is not None and idx in d_skip_locals:
                d_locals = d_locals + d_skip_locals[idx]
            d_locals, d_s = self.layers[idx].backward(d_locals, d_s)
        self.region_tokens.grad += d_s
        return d_locals
