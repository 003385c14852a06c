"""Runnable verification: gradient-check harnesses for every differentiable
block, analytic parameter accounting, and the structural property suite
behind the ``verify`` command.

``GRAD_CHECKS`` and ``PROPERTY_CHECKS`` are the one definition of each check
and its bound: the CLI and the acceptance suite run their entries as they
stand.

All gradient checks run in 64-bit mode on one sample (a leading sample axis
of one). Harnesses containing the PReLU pick probe points away from its
corner or, for the deep composite, a slope of exactly one where the
activation is smooth while the slope gradient stays live.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .blocks import Attention, ConvBNPReLU, FeedForward, LayerNorm, Linear
from .config import (AUDIO_ENCODER_MASK_RATIO, DECODER_MASK_RATIO,
                     VIDEO_ENCODER_MASK_RATIO, PRESET_INPUTS, ModelConfig,
                     audio_grid, preset, region_count, validate, video_grid)
from .encoder import LGILayer, partition, score_entries_stage12
from .finetune import FinetuneModel
from .gradcheck import GradCheckReport, grad_check
from .iavcl import IAVCLHead
from .losses import cross_entropy_ls, info_nce, masked_mse
from .masking import (MaskPair, assemble_combined, running_cell_mask,
                      tube_mask)
from .pretrain import DecoderBlock, FusionBlock, PretrainModel, make_mask_pairs
from .training import AdamW, SyntheticTask, pretrain_step, sample_rng

# ---------------------------------------------------------------------------
# gradient-check harnesses
# ---------------------------------------------------------------------------


def _single_input_check(seed, build, x_shape, out_dim, tol, probes):
    """Harness for a block with one input; draws the block, then x, then w."""
    rng = np.random.default_rng(seed)
    block = build(rng)
    x = rng.normal(size=x_shape)[None]
    w = rng.normal(size=(x_shape[0], out_dim))[None]

    def fwd(x):
        out = block.forward(x)
        return float(np.sum(out * w)), lambda: {"x": block.backward(w.copy())}

    return grad_check(block, fwd, {"x": x}, tol, max_probes=probes)


def _check_linear(tol, probes):
    return _single_input_check(0, lambda rng: Linear(6, 4, rng, dtype=np.float64),
                               (5, 6), 4, tol, probes)


def _check_layernorm(tol, probes):
    return _single_input_check(1, lambda rng: LayerNorm(8, dtype=np.float64),
                               (5, 8), 8, tol, probes)


def _attention_harness(tol, probes, cross: bool):
    rng = np.random.default_rng(2)
    block = Attention(8, 2, rng, dtype=np.float64)
    q = rng.normal(size=(3, 8))[None]
    kv = rng.normal(size=(5, 8))[None] if cross else q
    w = rng.normal(size=(3, 8))[None]
    inputs = {"q": q, "kv": kv} if cross else {"q": q}

    def fwd(q, kv=None):
        out = block.forward(q, kv)

        def back():
            dq, dkv = block.backward(w.copy())
            return {"q": dq, "kv": dkv} if cross else {"q": dq + dkv}
        return float(np.sum(out * w)), back

    return grad_check(block, fwd, inputs, tol, max_probes=probes)


def _check_mhsa(tol, probes):
    return _attention_harness(tol, probes, cross=False)


def _check_mhca(tol, probes):
    return _attention_harness(tol, probes, cross=True)


def _check_ffn(tol, probes):
    return _single_input_check(3, lambda rng: FeedForward(8, rng, dtype=np.float64),
                               (5, 8), 8, tol, probes)


def _conv_harness(seed):
    rng = np.random.default_rng(seed)
    block = ConvBNPReLU(8, rng, dtype=np.float64)
    # O(1) conv outputs keep the batch-norm curvature benign for probing
    block.conv.weight.data *= 25.0
    x = rng.normal(size=(6, 8))[None] * 2.0
    w = rng.normal(size=(6, 8))[None]
    return block, x, w


def _check_conv_bn_prelu(tol, probes):
    """Probes at the first seed whose pre-activations keep 0.05 away from
    the PReLU corner, so no finite difference straddles it."""
    chosen = 0
    for seed in range(64):
        block, x, _ = _conv_harness(seed)
        block.forward(x, training=True)
        z = block._tape[-1][2]   # cache entry: (yhat, inv, z, neg, training)
        block.clear_caches()
        if np.abs(z).min() > 0.05:
            chosen = seed
            break
    block, x, w = _conv_harness(chosen)

    def fwd(x):
        out = block.forward(x, training=True)
        return float(np.sum(out * w)), lambda: {"x": block.backward(w.copy())}

    return grad_check(block, fwd, {"x": x}, tol, eps=1e-5, max_probes=probes)


def _tiny_video_partition(masked: bool):
    cfg = preset("Tiny")
    grid = video_grid(cfg, PRESET_INPUTS["Tiny"][0])
    visible = np.arange(np.prod(grid))
    if masked:
        mask = tube_mask(*grid, VIDEO_ENCODER_MASK_RATIO, np.random.default_rng(11))
        visible = np.flatnonzero(~mask)
    return cfg, partition(grid, cfg.video_region, visible[None])


def _check_lgi_layer(tol, probes):
    cfg, part = _tiny_video_partition(masked=True)
    rng = np.random.default_rng(4)
    block = LGILayer(cfg.encoder_dim, cfg.encoder_heads, rng, dtype=np.float64)
    n = part.order.size
    locals_ = rng.normal(size=(n, cfg.encoder_dim))[None]
    s = rng.normal(size=(part.n_regions, cfg.encoder_dim))[None]
    w_l = rng.normal(size=locals_.shape)
    w_s = rng.normal(size=s.shape)

    def fwd(locals_, s):
        out_l, out_s = block.forward(locals_, s, part)

        def back():
            dl, ds = block.backward(w_l.copy(), w_s.copy())
            return {"locals_": dl, "s": ds}
        return float(np.sum(out_l * w_l) + np.sum(out_s * w_s)), back

    return grad_check(block, fwd, {"locals_": locals_, "s": s}, tol,
                      max_probes=probes)


def _check_fusion_block(tol, probes):
    rng = np.random.default_rng(5)
    block = FusionBlock(16, 4, rng, dtype=np.float64)
    v = rng.normal(size=(6, 16))[None]
    a = rng.normal(size=(3, 16))[None]
    wv = rng.normal(size=v.shape)
    wa = rng.normal(size=a.shape)

    def fwd(v, a):
        ov, oa = block.forward(v, a)

        def back():
            dv, da = block.backward(wv.copy(), wa.copy())
            return {"v": dv, "a": da}
        return float(np.sum(ov * wv) + np.sum(oa * wa)), back

    return grad_check(block, fwd, {"v": v, "a": a}, tol, max_probes=probes)


def _check_decoder_block(tol, probes):
    return _single_input_check(6, lambda rng: DecoderBlock(16, 2, rng, dtype=np.float64),
                               (10, 16), 16, tol, probes)


def _check_iavcl(tol, probes):
    cfg = preset("Tiny")
    rng = np.random.default_rng(3)
    block = IAVCLHead(cfg, 3, rng, dtype=np.float64)
    # probe at the smooth PReLU point; the slope gradient path stays active
    block.er.conv.prelu_slope.data[:] = 1.0
    k = 4
    snaps_a = rng.normal(size=(cfg.encoder_depth, k, cfg.encoder_dim))[:, None]
    snaps_v = rng.normal(size=(cfg.encoder_depth, k, cfg.encoder_dim))[:, None]
    w = rng.normal(size=3)[None]

    def fwd(snaps_a, snaps_v):
        out = block.forward(list(snaps_a), list(snaps_v), training=True)

        def back():
            da, dv = block.backward(w.copy())
            return {"snaps_a": np.stack(da), "snaps_v": np.stack(dv)}
        return float(np.sum(out * w)), back

    return grad_check(block, fwd, {"snaps_a": snaps_a, "snaps_v": snaps_v},
                      tol, max_probes=probes)


def _check_masked_mse(tol, probes):
    rng = np.random.default_rng(7)
    preds = rng.normal(size=(6, 5))
    targets = rng.normal(size=(6, 5))

    def fwd(preds):
        loss, d_pred = masked_mse(preds, targets, 0.5, 12)
        return loss, lambda: {"preds": d_pred}

    return grad_check(None, fwd, {"preds": preds}, tol, max_probes=probes)


def _check_info_nce(tol, probes):
    rng = np.random.default_rng(8)
    fa = rng.normal(size=(5, 6))
    fv = rng.normal(size=(5, 6))

    def fwd(fa, fv):
        loss, da, dv = info_nce(fa, fv, 0.07)
        return loss, lambda: {"fa": da, "fv": dv}

    return grad_check(None, fwd, {"fa": fa, "fv": fv}, tol, max_probes=probes)


def _check_cross_entropy(tol, probes):
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(4, 5))
    labels = np.array([0, 3, 2, 1])

    def fwd(logits):
        loss, d = cross_entropy_ls(logits, labels, 0.1)
        return loss, lambda: {"logits": d}

    return grad_check(None, fwd, {"logits": logits}, tol, max_probes=probes)


GRAD_CHECKS = {
    "linear": (_check_linear, 1e-6, None),
    "layernorm": (_check_layernorm, 1e-6, None),
    "mhsa": (_check_mhsa, 1e-6, None),
    "mhca": (_check_mhca, 1e-6, None),
    "ffn": (_check_ffn, 1e-6, None),
    "conv_bn_prelu": (_check_conv_bn_prelu, 1e-6, None),
    "lgi_layer": (_check_lgi_layer, 1e-4, 48),
    "fusion_block": (_check_fusion_block, 1e-4, 48),
    "decoder_block": (_check_decoder_block, 1e-4, 48),
    "iavcl": (_check_iavcl, 1e-4, 24),
    "masked_mse": (_check_masked_mse, 1e-6, None),
    "info_nce": (_check_info_nce, 1e-6, None),
    "cross_entropy": (_check_cross_entropy, 1e-6, None),
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


def run_all_grad_checks(tolerance: float | None = None, probes: int | None = None):
    return [(name, run_grad_check(name, tolerance, probes)) for name in GRAD_CHECKS]


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


def shape_trace(name: str, num_outputs: int = 2) -> str:
    """Human-readable dimension trace and parameter accounting for a preset."""
    cfg = preset(name)
    video_shape, audio_shape = PRESET_INPUTS[name]
    vgrid = video_grid(cfg, video_shape)
    agrid = audio_grid(cfg, audio_shape)
    n_v = int(np.prod(vgrid))
    n_a = int(np.prod(agrid))
    k_v = region_count(vgrid, cfg.video_region)
    k_a = region_count(agrid, cfg.audio_region)
    from .masking import round_half_up
    masked_spatial = round_half_up(VIDEO_ENCODER_MASK_RATIO * vgrid[1] * vgrid[2])
    vis_v = n_v - masked_spatial * vgrid[0]
    vis_a = n_a - round_half_up(AUDIO_ENCODER_MASK_RATIO * n_a)
    tgt_v = round_half_up((1 - DECODER_MASK_RATIO) * n_v)
    tgt_a = round_half_up((1 - DECODER_MASK_RATIO) * n_a)
    counts = param_counts(cfg, video_shape, audio_shape, num_outputs)

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


def _b_mask_pairs():
    """The B-preset mask pair the mask-arithmetic and decoder-cost checks read."""
    return make_mask_pairs(preset("B"), *PRESET_INPUTS["B"], np.random.default_rng(0))


def check_mask_arithmetic() -> tuple[bool, str]:
    pair_v, pair_a = _b_mask_pairs()
    vis_v = int((~pair_v.encoder_mask).sum())
    vis_a = int((~pair_a.encoder_mask).sum())
    tgt_v = int(pair_v.decoder_targets.sum())
    ok = (vis_v, pair_v.n_tokens, vis_a, pair_a.n_tokens, tgt_v) == (80, 800, 24, 128, 400)
    return ok, (f"visible video {vis_v}/{pair_v.n_tokens}, visible audio "
                f"{vis_a}/{pair_a.n_tokens}, video targets {tgt_v}")


def check_decoder_cost() -> tuple[bool, str]:
    pair_v, _ = _b_mask_pairs()  # decoder length: visible + target tokens
    dual = (pair_v.visible_indices.size + pair_v.target_indices.size) ** 2
    full = pair_v.n_tokens ** 2
    return dual <= 0.36 * full, f"{dual} <= 0.36 * {full}"


def check_dual_masking_speed(pairs: int = 12) -> tuple[bool, str]:
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
    from .config import desk_train_config
    tcfg = desk_train_config("pretrain")
    models = {d: PretrainModel(cfg, vshape, ashape, rng=sample_rng(0))
              for d in (True, False)}
    opts = {d: AdamW(models[d].named_parameters()) for d in (True, False)}

    def timed(dual, rep):
        t0 = time.perf_counter()
        pretrain_step(models[dual], clips, [0, 1], rep, tcfg,
                      opts[dual], 1e-4, dual_masking=dual)
        return time.perf_counter() - t0

    diffs = []
    for rep in range(pairs + 2):
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
    rng = np.random.default_rng(1)
    for t, c, h in ((1, 8, 2), (5, 8, 4), (9, 16, 2)):
        att = Attention(c, h, rng, dtype=np.float64)
        att.forward(rng.normal(size=(t, c))[None] * 3)
        probs = att.last_probs()
        if not np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6):
            return False, f"shape ({t},{c},{h})"
        att.clear_caches()
    return True, "rows sum to 1 within 1e-6"


def check_mhca_degenerates() -> tuple[bool, str]:
    rng = np.random.default_rng(2)
    att = Attention(8, 2, rng, dtype=np.float64)
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
    pair = MaskPair(mask, targets, 0.9, 0.5)
    latents = np.zeros((1, 80, 8))
    pe = np.zeros((800, 8))
    comb = assemble_combined(latents, [pair], np.zeros(8), pe)
    if comb.tokens.shape[1] != 480:
        return False, "combined length != 480"
    return True, "tube/running-cell/combined-length invariants hold"


def check_encoder_identity() -> tuple[bool, str]:
    """With zeroed residual-branch output projections the encoder is the
    identity on local tokens."""
    cfg = preset("Tiny")
    rng = np.random.default_rng(4)
    from .encoder import LGIEncoder
    enc = LGIEncoder(cfg, 4, rng, dtype=np.float64)
    for layer in enc.layers:
        for att in (layer.attn_local, layer.attn_region, layer.cross_local,
                    layer.cross_region):
            att.w_o.data[...] = 0.0
            att.b_o.data[...] = 0.0
        layer.ffn.fc2.weight.data[...] = 0.0
        layer.ffn.fc2.bias.data[...] = 0.0
    _, part = _tiny_video_partition(masked=False)
    tokens = rng.normal(size=(64, cfg.encoder_dim))[None]
    _, locals_, _, _ = enc.encode(tokens, part)
    enc.clear_caches()
    ok = np.allclose(locals_, tokens, atol=1e-12)
    return ok, "zeroed branches leave locals unchanged" if ok else "changed"


def check_complexity_bound() -> tuple[bool, str]:
    _, part = _tiny_video_partition(masked=False)
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
    import tempfile
    from pathlib import Path
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
    from .config import desk_train_config
    from .training import run_pretrain
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
    from .training import lr_at
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
    from .blocks import Parameter
    p = Parameter(np.ones(4, dtype=np.float64))
    opt = AdamW([("p", p)])
    opt.step(lr=0.1, weight_decay=0.5)
    if not np.allclose(p.data, 1.0 - 0.1 * 0.5):
        return False, "decay not decoupled"
    return True, "warmup/cosine/decay semantics hold"


PROPERTY_CHECKS = {
    "config_table_fidelity": check_config_fidelity,
    "preset_validation": check_preset_validation,
    "mask_arithmetic": check_mask_arithmetic,
    "decoder_cost_ratio": check_decoder_cost,
    "softmax_rows": check_attention_rows,
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
