"""Runnable verification: gradient checks for every differentiable block
and loss, analytic parameter accounting, and the structural property suite
behind the ``verify`` command.

``GRAD_CHECKS`` and ``PROPERTY_CHECKS`` are the one definition of each check
and its bound: the CLI and the acceptance suite run their entries as they
stand. A ``GRAD_CHECKS`` row is data run by one harness, ``_block_check``
for a block or ``_loss_check`` for a loss: it declares its seed, its builder
and its input shapes, and where a signature needs it how forward and
backward are called. Only ``conv_bn_prelu`` keeps its own harness.

Models build in float32; both block harnesses double the block they build
(``Block.double``), so every gradient check runs in 64-bit mode, on weights
a float32 block could hold, and on one sample (a leading sample axis of
one). Checks containing the PReLU pick probe points away from its
corner or, for the deep composite, a slope of exactly one where the
activation is smooth while the slope gradient stays live.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .blocks import (DEFAULT_DTYPE, Attention, Block, ConvBNPReLU, FeedForward, LayerNorm,
                     Linear, Parameter, _column_sums)
from .config import (AUDIO_ENCODER_MASK_RATIO, DECODER_MASK_RATIO,
                     VIDEO_ENCODER_MASK_RATIO, PRESET_INPUTS, ModelConfig, audio_grid,
                     desk_train_config, preset, region_count, validate, video_grid)
from .encoder import LGIEncoder, LGILayer, partition, score_entries_stage12
from .finetune import FinetuneModel
from .gradcheck import GradCheckReport, grad_check
from .iavcl import IAVCLHead
from .losses import cross_entropy_ls, info_nce, masked_mse
from .masking import MaskPair, assemble_combined, running_cell_mask, tube_mask
from .pretrain import DecoderBlock, FusionBlock, PretrainModel, make_mask_pairs
from .training import (AdamW, SyntheticTask, lr_at, pretrain_step, run_pretrain,
                       sample_rng)

# ---------------------------------------------------------------------------
# gradient-check harnesses
# ---------------------------------------------------------------------------

_TINY = preset("Tiny")


def _by_name(inputs, grads) -> dict:
    """The gradients by input name, a surplus one by its position, for
    ``grad_check`` to match against the inputs."""
    return dict(zip([*inputs, *range(len(inputs), len(grads))], grads))


def _block_check(seed, build, shapes, forward=None, backward=None):
    """A ``GRAD_CHECKS`` function for a block. From one generator seeded
    ``seed`` it draws the block ``build(rng)``, which it doubles, a normal
    input per entry of ``shapes`` (name -> shape, or a function returning
    that mapping), and at the first forward a normal weight per output: the
    scalar sums each output times its weight. ``forward(block, *inputs)``
    and ``backward(block, inputs, *weights)``, one gradient per input, stand
    in for the block's own calls where its signature needs it; ``inputs``
    is the forward's, for a backward that takes them back."""
    forward = forward or (lambda block, *xs: block.forward(*xs))
    backward = backward or (lambda block, xs, *ws: block.backward(*ws))

    def check(tol, probes):
        rng = np.random.default_rng(seed)
        block = build(rng).double()
        inputs = {name: rng.normal(size=shape)
                  for name, shape in (shapes() if callable(shapes) else shapes).items()}
        weights = []

        def fwd(**xs):
            outs = forward(block, *xs.values())
            outs = outs if isinstance(outs, tuple) else (outs,)
            if not weights:
                weights.extend(rng.normal(size=out.shape) for out in outs)

            def back():
                grads = backward(block, tuple(xs.values()), *(w.copy() for w in weights))
                return _by_name(inputs, grads if isinstance(grads, tuple) else (grads,))
            return float(sum(np.sum(out * w) for out, w in zip(outs, weights))), back

        return grad_check(block, fwd, inputs, tol, max_probes=probes)
    return check


def _loss_check(seed, loss, shapes, constants=()):
    """A ``GRAD_CHECKS`` function for a loss: draws a normal input per entry
    of ``shapes``, then a normal constant per shape in ``constants``;
    ``loss(*inputs, *constants)`` returns the value and one gradient per
    input."""
    def check(tol, probes):
        rng = np.random.default_rng(seed)
        inputs = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        fixed = [rng.normal(size=shape) for shape in constants]

        def fwd(**xs):
            value, *grads = loss(*xs.values(), *fixed)
            return value, lambda: _by_name(inputs, grads)

        return grad_check(None, fwd, inputs, tol, max_probes=probes)
    return check


def _conv_harness(seed):
    rng = np.random.default_rng(seed)
    block = ConvBNPReLU(8, rng).double()
    # O(1) conv outputs keep the batch-norm curvature benign for probing
    block.conv.weight.data *= 25.0
    x = rng.normal(size=(6, 8))[None] * 2.0
    w = rng.normal(size=(6, 8))[None]
    return block, x, w


def _check_conv_bn_prelu(tol, probes):
    """Probes at the first seed whose pre-activations keep 0.05 away from
    the PReLU corner, so no finite difference straddles it."""
    def corner_free(seed):
        block, x, _ = _conv_harness(seed)
        block.forward(x, training=True)
        yhat = block._tape[-1][1]   # cache entry: (x, yhat, inv, training)
        return np.abs(yhat * block.bn_scale.data + block.bn_shift.data).min() > 0.05

    block, x, w = _conv_harness(next(filter(corner_free, range(64)), 0))

    def fwd(x):
        out = block.forward(x, training=True)
        return float(np.sum(out * w)), lambda: {"x": block.backward(w.copy())}

    return grad_check(block, fwd, {"x": x}, tol, eps=1e-5, max_probes=probes)


@lru_cache(maxsize=2)
def _tiny_video_partition(masked: bool):
    grid = video_grid(_TINY, PRESET_INPUTS["Tiny"][0])
    visible = np.arange(np.prod(grid))
    if masked:
        mask = tube_mask(*grid, VIDEO_ENCODER_MASK_RATIO, np.random.default_rng(11))
        visible = np.flatnonzero(~mask)
    return partition(grid, _TINY.video_region, visible[None])


def _lgi_inputs():
    part, dim = _tiny_video_partition(masked=True), _TINY.encoder_dim
    return {"locals_": (1, part.order.size, dim), "s": (1, part.n_regions, dim)}


def _smooth_iavcl(rng):
    head = IAVCLHead(_TINY, 3, rng)
    # probe at the smooth PReLU point; the slope gradient path stays active
    head.er.conv.prelu_slope.data[:] = 1.0
    return head


_SNAPS = (_TINY.encoder_depth, 1, 4, _TINY.encoder_dim)

# the linear, attention and feed-forward rows tape no inputs and hand them
# back to the backward, as the blocks that own them do
GRAD_CHECKS = {
    "linear": (_block_check(0, lambda rng: Linear(6, 4, rng), {"x": (1, 5, 6)},
                            backward=lambda lin, xs, w: lin.backward(w, *xs)), 1e-6, None),
    "layernorm": (_block_check(1, lambda rng: LayerNorm(8), {"x": (1, 5, 8)}), 1e-6, None),
    "mhsa": (_block_check(2, lambda rng: Attention(8, 2, rng), {"q": (1, 3, 8)},
                          backward=lambda att, xs, w: np.add(*att.backward(w, *xs))), 1e-6, None),
    "mhca": (_block_check(2, lambda rng: Attention(8, 2, rng),
                          {"q": (1, 3, 8), "kv": (1, 5, 8)},
                          backward=lambda att, xs, w: att.backward(w, *xs)), 1e-6, None),
    "ffn": (_block_check(3, lambda rng: FeedForward(8, rng), {"x": (1, 5, 8)},
                         backward=lambda ffn, xs, w: ffn.backward(w, *xs)), 1e-6, None),
    "conv_bn_prelu": (_check_conv_bn_prelu, 1e-6, None),
    "lgi_layer": (_block_check(
        4, lambda rng: LGILayer(_TINY.encoder_dim, _TINY.encoder_heads, rng),
        _lgi_inputs, forward=lambda layer, locals_, s: layer.forward(
            locals_, s, _tiny_video_partition(masked=True))), 1e-4, 48),
    "fusion_block": (_block_check(5, lambda rng: FusionBlock(16, 4, rng),
                                  {"v": (1, 6, 16), "a": (1, 3, 16)}), 1e-4, 48),
    "decoder_block": (_block_check(6, lambda rng: DecoderBlock(16, 2, rng),
                                   {"x": (1, 10, 16)}), 1e-4, 48),
    "iavcl": (_block_check(
        3, _smooth_iavcl, {"snaps_a": _SNAPS, "snaps_v": _SNAPS},
        forward=lambda head, a, v: head.forward(list(a), list(v), training=True),
        backward=lambda head, xs, w: tuple(map(np.stack, head.backward(w)))), 1e-4, 24),
    "masked_mse": (_loss_check(7, lambda preds, targets: masked_mse(preds, targets, 0.5, 12),
                               {"preds": (1, 6, 5)}, constants=[(1, 6, 5)]), 1e-6, None),
    "info_nce": (_loss_check(8, lambda fa, fv: info_nce(fa, fv, 0.07),
                             {"fa": (5, 6), "fv": (5, 6)}), 1e-6, None),
    "cross_entropy": (_loss_check(
        9, lambda logits: cross_entropy_ls(logits, np.array([0, 3, 2, 1]), 0.1),
        {"logits": (4, 5)}), 1e-6, None),
}


def run_grad_check(name: str, tolerance: float | None = None,
                   probes: int | None = None) -> GradCheckReport:
    if name not in GRAD_CHECKS:
        raise KeyError(f"unknown grad-check module {name!r}; "
                       f"choose from {sorted(GRAD_CHECKS)} or 'all'")
    fn, default_tol, default_probes = GRAD_CHECKS[name]
    tol = default_tol if tolerance is None else tolerance
    n_probes = default_probes if probes is None else probes
    return fn(tol, n_probes)


def run_all_grad_checks(probes: int | None = None):
    return [(name, run_grad_check(name, probes=probes)) for name in GRAD_CHECKS]


# ---------------------------------------------------------------------------
# analytic parameter accounting (mirrors the constructors exactly)
# ---------------------------------------------------------------------------


def _n_linear(i, o):
    return i * o + o


def _n_attention(d):
    return 4 * (d * d + d)


def _n_ffn(d):
    return _n_linear(d, 4 * d) + _n_linear(4 * d, d)


def _n_layernorm(d):
    return 2 * d


def _n_conv_bn_prelu(d):
    return _n_linear(d, d) + 3 * d


def _n_lgi_layer(d):
    return 4 * _n_attention(d) + 7 * _n_layernorm(d) + _n_ffn(d)


def _n_fusion_block(d):
    return 2 * _n_attention(d) + 6 * _n_layernorm(d) + 2 * _n_ffn(d)


def _n_decoder_block(d):
    return _n_attention(d) + 2 * _n_layernorm(d) + _n_ffn(d)


def param_counts(cfg: ModelConfig, video_shape, audio_shape,
                 num_outputs: int = 2) -> dict[str, int]:
    """Closed-form parameter counts per component (verified against the
    instantiated Tiny model in the test suite)."""
    d = cfg.encoder_dim
    dd = cfg.decoder_dim
    k_v = region_count(video_grid(cfg, video_shape), cfg.video_region)
    k_a = region_count(audio_grid(cfg, audio_shape), cfg.audio_region)
    tt, p, p2 = cfg.video_tubelet
    video_patch_dim = tt * p * p2 * 3
    pt, pf = cfg.audio_patch
    audio_patch_dim = pt * pf
    n_skip = len(cfg.skip_indices)

    counts = {}
    counts["video_embed"] = _n_linear(video_patch_dim, d)
    counts["audio_embed"] = _n_linear(audio_patch_dim, d)
    counts["video_encoder"] = k_v * d + cfg.encoder_depth * _n_lgi_layer(d)
    counts["audio_encoder"] = k_a * d + cfg.encoder_depth * _n_lgi_layer(d)
    counts["fusion"] = cfg.fusion_depth * _n_fusion_block(d)
    decoder_common = (_n_linear(d, dd) + n_skip * _n_linear(d, dd)
                      + cfg.decoder_depth * _n_decoder_block(dd)
                      + _n_layernorm(dd))
    counts["video_decoder"] = decoder_common + _n_linear(dd, video_patch_dim)
    counts["audio_decoder"] = decoder_common + _n_linear(dd, audio_patch_dim)
    counts["mask_tokens"] = 2 * d

    dense = 2 * _n_attention(d) + 3 * _n_layernorm(d) + 2 * _n_linear(2 * d, d)
    er = (_n_linear(2 * d, d) + _n_attention(d) + _n_conv_bn_prelu(d)
          + _n_layernorm(d))
    hafe = (2 * _n_attention(d) + 2 * _n_ffn(d) + _n_linear(d, d)
            + 5 * _n_layernorm(d))
    counts["iavcl"] = (2 * cfg.encoder_depth + cfg.num_dier_units * 2 * dense
                       + er + 2 * hafe + _n_linear(2 * d, num_outputs))

    counts["pretrain_total"] = sum(counts[key] for key in (
        "video_embed", "audio_embed", "video_encoder", "audio_encoder",
        "fusion", "video_decoder", "audio_decoder", "mask_tokens"))
    counts["finetune_total"] = sum(counts[key] for key in (
        "video_embed", "audio_embed", "video_encoder", "audio_encoder", "iavcl"))
    counts["combined_total"] = (counts["pretrain_total"] + counts["iavcl"])
    return counts


def _mask_pairs(name: str) -> tuple[MaskPair, MaskPair]:
    """One draw of the video and audio mask pairs of preset ``name``."""
    return make_mask_pairs(preset(name), *PRESET_INPUTS[name], np.random.default_rng(0))


def shape_trace(name: str) -> str:
    """Human-readable dimension trace and parameter accounting for a preset."""
    cfg = preset(name)
    video_shape, audio_shape = PRESET_INPUTS[name]
    vgrid = video_grid(cfg, video_shape)
    agrid = audio_grid(cfg, audio_shape)
    k_v = region_count(vgrid, cfg.video_region)
    k_a = region_count(agrid, cfg.audio_region)
    pair_v, pair_a = _mask_pairs(name)   # every draw has the same counts
    n_v, n_a = pair_v.n_tokens, pair_a.n_tokens
    vis_v, vis_a = pair_v.visible_indices.size, pair_a.visible_indices.size
    tgt_v, tgt_a = pair_v.target_indices.size, pair_a.target_indices.size
    counts = param_counts(cfg, video_shape, audio_shape)

    lines = [
        f"preset {name}",
        f"  encoder: dim {cfg.encoder_dim}, heads {cfg.encoder_heads}, "
        f"depth {cfg.encoder_depth}",
        f"  decoder: dim {cfg.decoder_dim}, heads {cfg.decoder_heads}, "
        f"depth {cfg.decoder_depth}",
        f"  fusion: heads {cfg.fusion_heads}, depth {cfg.fusion_depth}",
        f"  skip indices: {cfg.skip_indices}",
        f"  video: input {video_shape}, tubelet {cfg.video_tubelet}, "
        f"grid {vgrid}, tokens {n_v}",
        f"  audio: input {audio_shape}, patch {cfg.audio_patch}, "
        f"grid {agrid}, tokens {n_a}",
        f"  regions: video {k_v} x {cfg.video_region}, audio {k_a} x {cfg.audio_region}",
        f"  encoder-visible tokens: video {vis_v} "
        f"(mask {VIDEO_ENCODER_MASK_RATIO}, tube), audio {vis_a} "
        f"(mask {AUDIO_ENCODER_MASK_RATIO}, random)",
        f"  decoder targets: video {tgt_v}, audio {tgt_a} "
        f"(decoder mask {DECODER_MASK_RATIO})",
        f"  decoder sequence: video {vis_v + tgt_v} (vs {n_v} undual), "
        f"audio {vis_a + tgt_a} (vs {n_a})",
        "  parameters:",
    ]
    for key in ("video_embed", "audio_embed", "video_encoder", "audio_encoder",
                "fusion", "video_decoder", "audio_decoder", "mask_tokens", "iavcl"):
        lines.append(f"    {key:15s} {counts[key]:>12,}")
    lines.append(f"    {'pretrain total':15s} {counts['pretrain_total']:>12,}")
    lines.append(f"    {'finetune total':15s} {counts['finetune_total']:>12,}")
    lines.append(f"    {'combined total':15s} {counts['combined_total']:>12,}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


_CONFIG_TABLE = {
    # reference architecture rows: dims, heads, depths, skip indices
    "B": dict(encoder_dim=512, encoder_heads=8, encoder_depth=10,
              decoder_dim=384, decoder_heads=6, decoder_depth=4,
              fusion_heads=8, fusion_depth=2, skip_indices=[3, 6, 9]),
    "L": dict(encoder_dim=640, encoder_heads=10, encoder_depth=12,
              decoder_dim=512, decoder_heads=8, decoder_depth=4,
              fusion_heads=10, fusion_depth=2, skip_indices=[3, 7, 11]),
    "H": dict(encoder_dim=768, encoder_heads=12, encoder_depth=15,
              decoder_dim=640, decoder_heads=8, decoder_depth=4,
              fusion_heads=12, fusion_depth=2, skip_indices=[4, 9, 14]),
}

_REFERENCE_PARAM_TOTALS = {"B": 169e6, "L": 303e6, "H": 521e6}


def check_config_fidelity() -> tuple[bool, str]:
    """The B/L/H presets and their shape traces match the reference rows."""
    bad = []
    for name, row in _CONFIG_TABLE.items():
        cfg = preset(name)
        bad += [f"{name}.{field}" for field, expected in row.items()
                if getattr(cfg, field) != expected]
        if f"dim {row['encoder_dim']}" not in shape_trace(name):
            bad.append(f"{name}.shape_trace")
    return not bad, f"mismatches: {bad or 'none'}"


def check_preset_validation() -> tuple[bool, str]:
    for name, (vshape, ashape) in PRESET_INPUTS.items():
        errors = validate(preset(name), vshape, ashape)
        if errors:
            return False, f"{name}: {errors}"
    return True, "all presets validate"




def check_mask_arithmetic() -> tuple[bool, str]:
    pair_v, pair_a = _mask_pairs("B")
    vis_v = int((~pair_v.encoder_mask).sum())
    vis_a = int((~pair_a.encoder_mask).sum())
    tgt_v = int(pair_v.decoder_targets.sum())
    ok = (vis_v, pair_v.n_tokens, vis_a, pair_a.n_tokens, tgt_v) == (80, 800, 24, 128, 400)
    return ok, (f"visible video {vis_v}/{pair_v.n_tokens}, visible audio "
                f"{vis_a}/{pair_a.n_tokens}, video targets {tgt_v}")


def check_decoder_cost() -> tuple[bool, str]:
    pair_v, _ = _mask_pairs("B")  # decoder length: visible + target tokens
    dual = (pair_v.visible_indices.size + pair_v.target_indices.size) ** 2
    full = pair_v.n_tokens ** 2
    return dual <= 0.36 * full, f"{dual} <= 0.36 * {full}"


def check_dual_masking_speed() -> tuple[bool, str]:
    """Wall-clock smoke test: a pretrain step must be faster with dual
    masking than with the full-length decoder baseline (Tiny preset).

    Uses a larger clip geometry (512 video tokens) so the decoder-sequence
    difference dominates the per-step Python overhead, runs the two modes
    interleaved with alternating order, and compares the median of paired
    per-step differences to cancel clock drift. No fixed speedup ratio is
    asserted; the margin is hardware-dependent.
    """
    cfg = preset("Tiny")
    vshape, ashape = (16, 64, 64), (64, 32)
    task = SyntheticTask(n_classes=2, video_shape=vshape, audio_shape=ashape, seed=0)
    clips = [task.clip(i)[0] for i in range(2)]
    tcfg = desk_train_config("pretrain")
    models = {d: PretrainModel(cfg, vshape, ashape, rng=sample_rng(0))
              for d in (True, False)}
    opts = {d: AdamW(models[d]) for d in (True, False)}

    def timed(dual, rep):
        t0 = time.perf_counter()
        pretrain_step(models[dual], clips, [0, 1], rep, tcfg,
                      opts[dual], 1e-4, dual_masking=dual)
        return time.perf_counter() - t0

    diffs = []
    for rep in range(2 + 12):   # two warm-up pairs, then twelve timed
        order = (True, False) if rep % 2 == 0 else (False, True)
        sample = {}
        for dual in order:
            sample[dual] = timed(dual, rep)
        if rep >= 2:  # drop warmup pairs
            diffs.append(sample[False] - sample[True])
    median = float(np.median(diffs))
    ok = median > 0
    return ok, f"median paired saving {median * 1e3:.2f}ms over {len(diffs)} steps"


def check_attention_rows() -> tuple[bool, str]:
    """Rows of one sample of 1 to 9 keys (one reduce per row), and a batch
    of 16 samples of 17 keys (summed from the rows-innermost copy)."""
    rng = np.random.default_rng(1)
    for s, t, c, h in ((1, 1, 8, 2), (1, 5, 8, 4), (1, 9, 16, 2), (16, 17, 32, 4)):
        att = Attention(c, h, rng).double()
        att.forward(rng.normal(size=(s, t, c)) * 3)
        probs = att.last_probs()
        if not np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6):
            return False, f"shape ({s},{t},{c},{h})"
        att.clear_caches()
    return True, "rows sum to 1 within 1e-6"


def check_softmax_sums() -> tuple[bool, str]:
    """softmax sums many short rows from a rows-innermost copy by replaying
    numpy's pairwise order (``blocks._column_sums``); the pipeline digests
    hold only if that order is the running numpy's. Rows of 1 to 130 and
    200 keys, float32 and float64, values over eight decades with ±0 (rows
    0-1 all -0), and NaN and ±inf in rows 2-5: every sum has the bytes of
    ``np.add.reduce`` along the row, except that a NaN sum may be another
    NaN."""
    rng = np.random.default_rng(19)
    for dtype in (np.float32, np.float64):
        for keys in (*range(1, 131), 200):
            x = rng.normal(size=(24, keys)) * 10.0 ** rng.uniform(-4, 4, size=(24, keys))
            u = rng.random(x.shape)
            x[u < 0.1] = -0.0
            x[(u >= 0.1) & (u < 0.15)] = 0.0
            for lo, value in ((0.15, np.nan), (0.17, np.inf), (0.19, -np.inf)):
                x[2:6][(u[2:6] >= lo) & (u[2:6] < lo + 0.02)] = value
            x[:2] = -0.0
            x = x.astype(dtype)
            with np.errstate(invalid="ignore", over="ignore"):
                want = np.add.reduce(x, axis=-1)
                got = _column_sums(np.ascontiguousarray(x.T))
            nan = np.isnan(want)
            if not (np.array_equal(nan, np.isnan(got))
                    and want[~nan].tobytes() == got[~nan].tobytes()):
                return False, (f"numpy {np.__version__} sums rows of {keys} "
                               f"{np.dtype(dtype).name} in another order")
    return True, f"numpy {np.__version__} sums rows in the replayed pairwise order"


def check_mhca_degenerates() -> tuple[bool, str]:
    rng = np.random.default_rng(2)
    att = Attention(8, 2, rng).double()
    x = rng.normal(size=(4, 8))[None]
    self_out = att.forward(x)
    cross_out = att.forward(x, x.copy())
    att.clear_caches()
    ok = np.array_equal(self_out, cross_out)
    return ok, "bitwise identical" if ok else "differs"


def check_masking_properties() -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    # tube: temporal consistency and exact counts
    mask = tube_mask(8, 10, 10, 0.9, rng)
    planes = mask.reshape(8, 100)
    if not all(np.array_equal(planes[0], planes[t]) for t in range(8)):
        return False, "tube mask varies over time"
    if int((~mask).sum()) != 80:
        return False, "tube visible count wrong"
    # running cell: subset + exact count + sweep coverage
    targets = running_cell_mask(8, 10, 10, mask, 0.5, rng)
    if int(targets.sum()) != 400 or np.any(targets & ~mask):
        return False, "running-cell invariants"
    # candidate sweep covers every spatial position within any 4 slots
    all_masked = np.ones(4 * 4 * 4, dtype=bool)
    cover = running_cell_mask(4, 4, 4, all_masked, 0.75, np.random.default_rng(5))
    # with decoder ratio 0.75 only candidates survive; union over time axis
    got = cover.reshape(4, 16)
    if not np.all(got.any(axis=0)):
        return False, "sweep does not cover grid"
    # exact count identity for the combined sequence
    pair = MaskPair(mask, targets)
    latents = np.zeros((1, 80, 8))
    pe = np.zeros((800, 8))
    comb = assemble_combined(latents, [pair], np.zeros(8), pe)
    if comb.tokens.shape[1] != 480:
        return False, "combined length != 480"
    return True, "tube/running-cell/combined-length invariants hold"


def check_encoder_identity() -> tuple[bool, str]:
    """With zeroed residual-branch output projections the encoder is the
    identity on local tokens."""
    rng = np.random.default_rng(4)
    enc = LGIEncoder(_TINY, 4, rng).double()
    for layer in enc.layers:
        for att in (layer.attn_local, layer.attn_region, layer.cross_local,
                    layer.cross_region):
            att.w_o.data[...] = 0.0
            att.b_o.data[...] = 0.0
        layer.ffn.fc2.weight.data[...] = 0.0
        layer.ffn.fc2.bias.data[...] = 0.0
    part = _tiny_video_partition(masked=False)
    tokens = rng.normal(size=(64, _TINY.encoder_dim))[None]
    _, locals_, _, _ = enc.encode(tokens, part)
    enc.clear_caches()
    ok = np.allclose(locals_, tokens, atol=1e-12)
    return ok, "zeroed branches leave locals unchanged" if ok else "changed"


def check_complexity_bound() -> tuple[bool, str]:
    part = _tiny_video_partition(masked=False)
    n = part.order.size
    k = part.n_regions
    entries = score_entries_stage12(part)
    ok = k > 1 and entries <= (n + k) ** 2
    return ok, f"{entries} <= {(n + k) ** 2}"


def check_param_totals() -> tuple[bool, str]:
    """Combined totals within 15% of the reference parameter counts."""
    details = []
    ok = True
    for name, target in _REFERENCE_PARAM_TOTALS.items():
        total = param_counts(preset(name), *PRESET_INPUTS[name])["combined_total"]
        rel = total / target
        details.append(f"{name} {total / 1e6:.1f}M ({rel:.3f}x)")
        ok &= 0.85 <= rel <= 1.15
    return ok, "; ".join(details)


def check_checkpoint_roundtrip() -> tuple[bool, str]:
    """Save-load-save is bitwise stable and a foreign config is rejected."""
    cfg = preset("Tiny")
    vshape, ashape = PRESET_INPUTS["Tiny"]
    model = FinetuneModel(cfg, vshape, ashape, 2, rng=sample_rng(0))
    with tempfile.TemporaryDirectory() as tmp:
        path1 = Path(tmp) / "a.avck"
        path2 = Path(tmp) / "b.avck"
        ckpt.save(path1, model, cfg, "finetune")
        ckpt.load_into(model, path1, cfg)
        ckpt.save(path2, model, cfg, "finetune")
        ok = path1.read_bytes() == path2.read_bytes()
        detail = f"checkpoint round-trip bitwise: {ok}"
        if ok:
            try:
                ckpt.check_config(ckpt.load(path1)[0], preset("B"))
                ok = False
                detail += "; config mismatch not rejected"
            except ValueError:
                pass
    return ok, detail


def check_determinism() -> tuple[bool, str]:
    cfg = preset("Tiny")
    vshape, ashape = PRESET_INPUTS["Tiny"]
    task = SyntheticTask(n_classes=2, video_shape=vshape, audio_shape=ashape, seed=1)
    clips = [task.clip(i)[0] for i in range(4)]
    tcfg = desk_train_config("pretrain", seed=7)
    tcfg.batch = 4
    logs = []
    for _ in range(2):
        _, log = run_pretrain(cfg, tcfg, clips, vshape, ashape, steps=3)
        logs.append(log.lines())
    ok = logs[0] == logs[1]
    return ok, "identical seeds give identical loss logs" if ok else "logs differ"


def check_schedule_and_optimizer() -> tuple[bool, str]:
    peak = 1e-3 * 256 / 256
    w, total = 20, 220
    if lr_at(0, 1e-3, 256, w, total) != 0.0:
        return False, "warmup start not 0"
    if abs(lr_at(w, 1e-3, 256, w, total) - peak) > 1e-15:
        return False, "peak not hit at warmup end"
    mid = (w + total) // 2
    expect = (peak + 1e-6) / 2
    if abs(lr_at(mid, 1e-3, 256, w, total) - expect) > 1e-9:
        return False, "cosine midpoint wrong"
    # decoupled decay: zero grads shrink parameters multiplicatively
    holder = Block()
    holder.p = Parameter(np.ones(4, dtype=DEFAULT_DTYPE))
    AdamW(holder.double()).step(lr=0.1, weight_decay=0.5)
    if not np.allclose(holder.p.data, 1.0 - 0.1 * 0.5):
        return False, "decay not decoupled"
    return True, "warmup/cosine/decay semantics hold"


PROPERTY_CHECKS = {
    "config_table_fidelity": check_config_fidelity,
    "preset_validation": check_preset_validation,
    "mask_arithmetic": check_mask_arithmetic,
    "decoder_cost_ratio": check_decoder_cost,
    "softmax_rows": check_attention_rows,
    "softmax_sum_order": check_softmax_sums,
    "mhca_equals_mhsa": check_mhca_degenerates,
    "masking_properties": check_masking_properties,
    "encoder_residual_identity": check_encoder_identity,
    "stage12_cost_bound": check_complexity_bound,
    "param_totals": check_param_totals,
    "checkpoint_roundtrip": check_checkpoint_roundtrip,
    "schedule_optimizer": check_schedule_and_optimizer,
    "determinism": check_determinism,
    "dual_masking_speed": check_dual_masking_speed,
}


def property_suite(grad_probes: int | None = 16) -> list[CheckResult]:
    """Every ``PROPERTY_CHECKS`` entry, then every ``GRAD_CHECKS`` entry at its
    registry tolerance with ``grad_probes`` probes per tensor."""
    results = [CheckResult(name, *check()) for name, check in PROPERTY_CHECKS.items()]
    for name, report in run_all_grad_checks(probes=grad_probes):
        results.append(CheckResult(f"grad:{name}", report.passed,
                                   f"max rel err {report.worst:.2e} "
                                   f"(tol {report.tolerance:g})"))
    return results
