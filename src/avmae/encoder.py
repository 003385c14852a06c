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

from .blocks import Attention, Block, BlockList, FeedForward, LayerNorm, Parameter, trunc_normal
from .config import ModelConfig


@dataclass
class SizeGroup:
    """Every region of one size in a batch, as G slots per sample.

    ``ids`` [S, G] are rows of the region tokens flattened to [S*K, C] and
    ``index`` [S, G, size] rows of the local tokens flattened to [S*V, C];
    a sample's real regions come first, in ascending region order. A sample
    with fewer than G regions of this size fills the rest with padding
    slots (``pad`` [S, G] is True there, or None if there are none): they
    read row 0, their gradients are zero and nothing is written back from
    them.

    Write-once rule: over a layout's groups the real slots hold every token
    row and every region row once, and the groups of size > 0 every
    non-empty region row once, so no write through them meets another.
    """

    size: int
    ids: np.ndarray
    index: np.ndarray
    pad: np.ndarray | None


@dataclass
class RegionLayout:
    """The regions of S samples with V visible tokens each, bucketed by size
    across the batch: one ``SizeGroup`` per size any region has, ascending.

    ``counts`` [S, K]: tokens per region. ``order`` [S*V]: the flat token
    rows ``j*V + m``, by sample, then region, ascending within a region.
    """

    counts: np.ndarray
    order: np.ndarray
    groups: list[SizeGroup]

    @property
    def n_regions(self) -> int:
        return self.counts.shape[1]

    @property
    def members(self) -> list[np.ndarray]:
        """The batch as one partition of its S*V token rows into S*K
        regions: sample j's region i is ``members[j*K + i]``, as rows
        ``j*V + m`` of the flattened tokens."""
        return np.split(self.order, np.cumsum(self.counts.ravel())[:-1])


def partition(grid, region_shape, visible: np.ndarray) -> RegionLayout:
    """Assign the visible tokens of S samples to the region containing their
    grid coordinate.

    visible: [S, V] ascending indices into each sample's row-major token
    ``grid``. Under masking regions may be ragged or empty; the layout's
    rows index the visible tokens.
    """
    if len(region_shape) != len(grid):
        raise ValueError("region rank must match grid rank")
    if any(g % r for g, r in zip(grid, region_shape)):
        raise ValueError(f"region shape {region_shape} does not tile grid {grid}")
    region_grid = [g // r for g, r in zip(grid, region_shape)]
    k, n_samples = math.prod(region_grid), len(visible)
    coords = np.unravel_index(visible, grid)
    region = np.ravel_multi_index(tuple(c // r for c, r in zip(coords, region_shape)),
                                  region_grid)
    key = _flat(region, k).ravel()
    # region j*K + i owns order[starts[j*K + i]:][:counts[j*K + i]], ascending
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=n_samples * k)
    starts = np.cumsum(counts) - counts
    groups = []
    for size in np.unique(counts).tolist():
        # this size's regions as rows j*K + i; slot: a region's rank in its sample
        flat = np.flatnonzero(counts == size)
        sample = flat // k
        per_sample = np.bincount(sample, minlength=n_samples)
        width = int(per_sample.max())
        slot = np.arange(flat.size) - (np.cumsum(per_sample) - per_sample)[sample]
        ids = np.zeros((n_samples, width), dtype=np.int64)
        index = np.zeros((n_samples, width, size), dtype=np.int64)
        ids[sample, slot] = flat
        index[sample, slot] = order[starts[flat, None] + np.arange(size)]
        pad = None
        if per_sample.min() < width:
            pad = np.ones((n_samples, width), dtype=bool)
            pad[sample, slot] = False
        groups.append(SizeGroup(size, ids, index, pad))
    return RegionLayout(counts.reshape(n_samples, k), order, groups)


def score_entries_stage12(layout: RegionLayout) -> int:
    """Attention score-matrix entries spent by stages I and II of one layer."""
    return int(((layout.counts + 1) ** 2).sum()) + layout.counts.size * layout.n_regions


def _flat(index: np.ndarray, n: int) -> np.ndarray:
    """Per-sample indices [S, R] into n rows each, as the flat rows
    ``s*n + r`` of the S*n rows."""
    return index + n * np.arange(len(index))[:, None]


def take_sample_rows(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(x, index[:, :, None], axis=1)`` for x [S, M, C]
    and per-sample rows index [S, R], bit for bit."""
    return _rows(x, _flat(index, x.shape[1]))


def put_sample_rows(x: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``np.put_along_axis(x, index[:, :, None], values, axis=1)`` for a
    C-contiguous x [S, M, C], values [S, R, C] and per-sample rows index."""
    _put(x, _flat(index, x.shape[1]), values, None)


def _rows(x: np.ndarray, index: np.ndarray, pad: np.ndarray | None = None) -> np.ndarray:
    """Rows of x [S, M, C] at flat indices ``s*M + m``: index.shape + (C,),
    zero at the padding slots ``pad`` if given (for gradients). ``take``
    skips the general fancy-indexing path."""
    out = x.reshape(-1, x.shape[-1]).take(index, axis=0)
    if pad is not None:
        out[pad] = 0.0
    return out


def _put(x: np.ndarray, index: np.ndarray, values: np.ndarray,
         pad: np.ndarray | None) -> None:
    """Write values at x's flat rows ``index``, skipping padding; by the
    write-once rule (``SizeGroup``) no row is written twice. x is one of
    the layer's own C-contiguous buffers, so the reshape is a view of it."""
    flat = x.reshape(-1, x.shape[-1])
    if pad is not None:
        real = ~pad
        index, values = index[real], values[real]
    flat[index] = values


def _scaled(scale: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """x times its per-sample stochastic-depth scale (None: no scaling)."""
    if scale is None:
        return x
    return scale.reshape((-1,) + (1,) * (x.ndim - 1)) * x


def _residual(x: np.ndarray, branch: np.ndarray) -> np.ndarray:
    """x + branch, written into branch: a fresh array of x's shape."""
    return np.add(x, branch, out=branch)


class LGILayer(Block):
    """One LGI layer over S samples, each with its own regions.

    Local tokens are [S, N, C] and region tokens [S, K, C]. A region-size
    group's regions are gathered as [S, G, size(+1), C], one attention call
    per group for the whole batch. Padding slots are whole regions, so a
    real region's rows never mix with them; their gradients are zero, and
    a parameter gradient over a sample's G slots sums its real rows and
    then zeros, which adds exactly.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.norm1 = LayerNorm(dim)
        self.attn_local = Attention(dim, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.attn_region = Attention(dim, heads, rng)
        self.norm3_q = LayerNorm(dim)
        self.norm3_kv = LayerNorm(dim)
        self.cross_local = Attention(dim, heads, rng)
        self.norm4_q = LayerNorm(dim)
        self.norm4_kv = LayerNorm(dim)
        self.cross_region = Attention(dim, heads, rng)
        self.norm_ffn = LayerNorm(dim)
        self.ffn = FeedForward(dim, rng)

    # Stochastic depth: one decision per sample and residual branch (six per
    # layer), drawn from that sample's generator. A dropped branch is scaled
    # by 0, a kept one by 1 / (1 - rate); without generators or at rate 0
    # nothing is drawn and nothing scaled.
    @staticmethod
    def _branch_scales(rngs, rate: float, dtype):
        if rngs is None or rate <= 0.0:
            return [None] * 6
        draws = np.array([rng.random(6) for rng in rngs])
        scales = np.where(draws < rate, 0.0, 1.0 / (1.0 - rate)).astype(dtype)
        return list(scales.T)

    def forward(self, locals_: np.ndarray, s: np.ndarray, part: RegionLayout,
                rngs=None, drop_path: float = 0.0, local_ffn: bool = True):
        """part: the S samples' region layout.
        rngs: one generator per sample for stochastic depth, or None.
        local_ffn=False: the caller reads neither the output locals nor their
        gradient, so the feed-forward skips them and they return as None;
        the backward then takes a zero ``d_locals3`` as ``d_locals2``."""
        scales = self._branch_scales(rngs, drop_path, locals_.dtype)
        c1, c2, c3, c4, cfl, cfs = scales

        # stage I: aggregate local information into each region token. Every
        # visible token lies in one region and every region, empty ones too,
        # is in a group, so the puts write every row of locals1 and s1
        locals1 = np.empty_like(locals_, order="C")
        s1 = np.empty_like(s)
        for g in part.groups:
            # [S, G, size+1, C]: each region's token, then its locals
            x = np.concatenate([_rows(s, g.ids)[:, :, None], _rows(locals_, g.index)], axis=2)
            x = _residual(x, _scaled(c1, self.attn_local.forward(self.norm1.forward(x))))
            _put(s1, g.ids, x[:, :, 0], g.pad)
            _put(locals1, g.index, x[:, :, 1:], g.pad)

        # stage II: exchange information across region tokens
        s2 = _residual(s1, _scaled(c2, self.attn_region.forward(self.norm2.forward(s1))))

        # stage III: locals read the globally-aware region tokens; empty
        # regions have no queries (and in stage IV no keys), so they skip,
        # and the non-empty ones write every row of locals2
        locals2 = np.empty_like(locals1)
        q_all = self.norm3_q.forward(locals1)
        kv = self.norm3_kv.forward(s2)
        for g in part.groups:
            if g.size == 0:
                continue
            out = self.cross_local.forward(_rows(q_all, g.index), kv)  # kv shared by the G regions
            _put(locals2, g.index, _residual(_rows(locals1, g.index), _scaled(c3, out)), g.pad)

        # stage IV: region tokens read local tokens back
        s3 = s2.copy()
        q_all = self.norm4_q.forward(s2)
        kv_all = self.norm4_kv.forward(locals2)
        for g in part.groups:
            if g.size == 0:
                continue
            out = self.cross_region.forward(_rows(q_all, g.ids)[:, :, None],
                                            _rows(kv_all, g.index))
            _put(s3, g.ids, _rows(s2, g.ids) + _scaled(c4, out[:, :, 0]), g.pad)

        # shared feed-forward on locals, then on region tokens
        locals3 = None
        if local_ffn:
            locals3 = locals2 + _scaled(cfl, self.ffn.forward(self.norm_ffn.forward(locals2)))
        s4 = s3 + _scaled(cfs, self.ffn.forward(self.norm_ffn.forward(s3)))

        self._save(part.groups, scales, local_ffn)
        return locals3, s4

    def backward(self, d_locals3: np.ndarray, d_s4: np.ndarray):
        groups, scales, local_ffn = self._load()
        c1, c2, c3, c4, cfl, cfs = scales

        # every attention and feed-forward input is a LayerNorm's output,
        # rebuilt by that norm (``LayerNorm.output``) before its backward
        d_h = self.ffn.backward(_scaled(cfs, d_s4), self.norm_ffn.output())
        d_s3 = d_s4 + self.norm_ffn.backward(d_h)
        d_locals2 = d_locals3
        if local_ffn:
            d_h = self.ffn.backward(_scaled(cfl, d_locals3), self.norm_ffn.output())
            d_locals2 = d_locals3 + self.norm_ffn.backward(d_h)

        # the puts write each gradient row once, so the buffers start empty;
        # only stage IV's region rows start at zero: empty regions skip it
        d_q_all = np.zeros_like(d_s3)
        d_kv_all = np.empty_like(d_locals2)
        q_all, kv_all = self.norm4_q.output(), self.norm4_kv.output()
        for g in reversed(groups):
            if g.size == 0:
                continue
            d_q, d_kv = self.cross_region.backward(
                _scaled(c4, _rows(d_s3, g.ids, g.pad))[:, :, None],
                _rows(q_all, g.ids)[:, :, None], _rows(kv_all, g.index))
            _put(d_q_all, g.ids, d_q[:, :, 0], g.pad)
            _put(d_kv_all, g.index, d_kv, g.pad)
        del q_all, kv_all   # rebuilt whole-layer inputs: free before stage III
        d_locals2 = d_locals2 + self.norm4_kv.backward(d_kv_all)
        d_s2 = d_s3 + self.norm4_q.backward(d_q_all)

        d_q_all = np.empty_like(d_locals2)
        d_kv_total = 0.0  # the first group's += makes the array
        q_all, kv = self.norm3_q.output(), self.norm3_kv.output()
        for g in reversed(groups):
            if g.size == 0:
                continue
            d_q, d_kv = self.cross_local.backward(
                _scaled(c3, _rows(d_locals2, g.index, g.pad)), _rows(q_all, g.index), kv)
            _put(d_q_all, g.index, d_q, g.pad)
            d_kv_total += d_kv
        del q_all, kv
        d_s2 = d_s2 + self.norm3_kv.backward(d_kv_total)
        d_locals1 = d_locals2 + self.norm3_q.backward(d_q_all)

        d_q, d_kv = self.attn_region.backward(_scaled(c2, d_s2), self.norm2.output())
        d_s1 = d_s2 + self.norm2.backward(d_q + d_kv)

        d_locals = np.empty_like(d_locals1)
        d_s = np.empty_like(d_s1)
        for g in reversed(groups):
            d_x = np.concatenate([_rows(d_s1, g.ids, g.pad)[:, :, None],
                                  _rows(d_locals1, g.index, g.pad)], axis=2)
            d_q, d_kv = self.attn_local.backward(_scaled(c1, d_x), self.norm1.output())
            d_x = d_x + self.norm1.backward(d_q + d_kv)
            _put(d_s, g.ids, d_x[:, :, 0], g.pad)
            _put(d_locals, g.index, d_x[:, :, 1:], g.pad)
        return d_locals, d_s


class LGIEncoder(Block):
    """A stack of LGI layers plus the learnable region tokens."""

    def __init__(self, cfg: ModelConfig, n_regions: int, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.n_regions = n_regions
        self.region_tokens = Parameter(trunc_normal(rng, (n_regions, cfg.encoder_dim)))
        self.layers = BlockList([LGILayer(cfg.encoder_dim, cfg.encoder_heads, rng)
                                 for _ in range(cfg.encoder_depth)])

    def encode(self, tokens: np.ndarray, layout: RegionLayout,
               rngs=None, drop_path: float = 0.0, keep_locals: bool = True):
        """Encode the tokens [S, N, C] of S samples, laid out by ``layout``.

        Returns (snapshots, final_locals, skip_locals, pooled):
        snapshots: region tokens after every layer, [depth][S, K, C]
        skip_locals: local tokens after each skip layer, [S, N, C]
        pooled: mean over region tokens at each skip layer, [S, C]
        rngs: one generator per sample for stochastic depth, or None.
        keep_locals=False: the caller reads no local tokens after the last
        layer (final_locals, and skip_locals at the last layer, are None)
        and its backward passes a zero gradient for them; the last layer
        then skips its feed-forward on the locals. Snapshots and gradients
        are bitwise unchanged: the skipped gradients are exact zeros.
        """
        if (layout.counts.shape != (len(tokens), self.n_regions)
                or layout.order.size != len(tokens) * tokens.shape[1]):
            raise ValueError(f"layout {layout.counts.shape} over {layout.order.size} tokens "
                             f"does not fit {self.n_regions} regions of tokens {tokens.shape}")
        locals_ = tokens
        s = np.repeat(self.region_tokens.data[None], len(tokens), axis=0)
        snapshots = []
        skip_locals = {}
        pooled = {}
        last = len(self.layers) - 1
        for idx, layer in enumerate(self.layers):
            locals_, s = layer.forward(locals_, s, layout, rngs=rngs, drop_path=drop_path,
                                       local_ffn=keep_locals or idx < last)
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
        (g_tokens,) = self._grad_slots(len(d_s))
        g_tokens[...] = d_s
        self._fold_grads()
        return d_locals
