"""Pretraining-only components: cross-modal fusion encoder, modality
decoders with hierarchical skip connections, and the full dual-masked
reconstruction model.

The decoders consume the combined sequence of fused visible latents plus
positioned mask tokens; skip features from the configured encoder layers are
linearly projected and added at the visible slots only, before the first
decoder block. Predictions are emitted only at decoder-target positions.

The model runs a batch in one pass. Mask counts are exact, so every clip
of a batch has as many visible tokens and as many targets as the others:
embeddings, fusion, decoders and the contrastive features are uniform
[S, ...] arrays. Only region membership differs from clip to clip; the LGI
encoders bucket each clip's regions by size across the batch.
"""

from __future__ import annotations

import numpy as np

from .blocks import (Attention, Block, BlockList, FeedForward, LayerNorm, Linear,
                     Parameter, trunc_normal)
from .config import (AUDIO_ENCODER_MASK_RATIO, DECODER_MASK_RATIO,
                     VIDEO_ENCODER_MASK_RATIO, ModelConfig, audio_grid,
                     region_count, video_grid)
from .embedding import AudioEmbed, RawClip, VideoEmbed, normalize_targets
from .encoder import LGIEncoder, partition, put_sample_rows, take_sample_rows
from .masking import (CombinedSeq, MaskPair, assemble_combined, random_mask,
                      random_decoder_targets, running_cell_mask, tube_mask)


class FusionBlock(Block):
    """One bidirectional cross-attention block.

    Both streams read the partner's previous state, so the two updates
    commute within a block; each stream then runs its own feed-forward.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        super().__init__()
        self.norm_vq = LayerNorm(dim)
        self.norm_vkv = LayerNorm(dim)
        self.attn_v = Attention(dim, heads, rng)
        self.norm_aq = LayerNorm(dim)
        self.norm_akv = LayerNorm(dim)
        self.attn_a = Attention(dim, heads, rng)
        self.norm_vf = LayerNorm(dim)
        self.ffn_v = FeedForward(dim, rng)
        self.norm_af = LayerNorm(dim)
        self.ffn_a = FeedForward(dim, rng)

    def forward(self, v: np.ndarray, a: np.ndarray):
        v_mid = v + self.attn_v.forward(self.norm_vq.forward(v), self.norm_vkv.forward(a))
        a_mid = a + self.attn_a.forward(self.norm_aq.forward(a), self.norm_akv.forward(v))
        v_out = v_mid + self.ffn_v.forward(self.norm_vf.forward(v_mid))
        a_out = a_mid + self.ffn_a.forward(self.norm_af.forward(a_mid))
        return v_out, a_out

    def backward(self, d_v_out: np.ndarray, d_a_out: np.ndarray):
        d_a_mid = d_a_out + self.norm_af.backward(
            self.ffn_a.backward(d_a_out, self.norm_af.output()))
        d_v_mid = d_v_out + self.norm_vf.backward(
            self.ffn_v.backward(d_v_out, self.norm_vf.output()))
        d_qa, d_kv_v = self.attn_a.backward(d_a_mid, self.norm_aq.output(),
                                            self.norm_akv.output())
        d_qv, d_kv_a = self.attn_v.backward(d_v_mid, self.norm_vq.output(),
                                            self.norm_vkv.output())
        d_v = d_v_mid + self.norm_vq.backward(d_qv) + self.norm_akv.backward(d_kv_v)
        d_a = d_a_mid + self.norm_aq.backward(d_qa) + self.norm_vkv.backward(d_kv_a)
        return d_v, d_a


class FusionEncoder(Block):
    def __init__(self, dim: int, heads: int, depth: int, rng: np.random.Generator):
        super().__init__()
        self.blocks = BlockList([FusionBlock(dim, heads, rng) for _ in range(depth)])

    def forward(self, v: np.ndarray, a: np.ndarray):
        for block in self.blocks:
            v, a = block.forward(v, a)
        return v, a

    def backward(self, d_v: np.ndarray, d_a: np.ndarray):
        for block in reversed(list(self.blocks)):
            d_v, d_a = block.backward(d_v, d_a)
        return d_v, d_a


class DecoderBlock(Block):
    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        super().__init__()
        self.norm1 = LayerNorm(dim)
        self.attn = Attention(dim, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.ffn = FeedForward(dim, rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = x + self.attn.forward(self.norm1.forward(x))
        return x + self.ffn.forward(self.norm2.forward(x))

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        d_mid = d_out + self.norm2.backward(self.ffn.backward(d_out, self.norm2.output()))
        d_q, d_kv = self.attn.backward(d_mid, self.norm1.output())
        return d_mid + self.norm1.backward(d_q + d_kv)


class Decoder(Block):
    """Narrow transformer over the combined sequence with skip injection."""

    def __init__(self, cfg: ModelConfig, patch_dim: int, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.input_proj = Linear(cfg.encoder_dim, cfg.decoder_dim, rng)
        self.skip_projs = BlockList([Linear(cfg.encoder_dim, cfg.decoder_dim, rng)
                                     for _ in cfg.skip_indices])
        self.blocks = BlockList([DecoderBlock(cfg.decoder_dim, cfg.decoder_heads, rng)
                                 for _ in range(cfg.decoder_depth)])
        self.norm = LayerNorm(cfg.decoder_dim)
        self.head = Linear(cfg.decoder_dim, patch_dim, rng)

    def forward(self, combined: CombinedSeq, skip_locals: dict[int, np.ndarray]) -> np.ndarray:
        """Combined sequences [S, L, C]; skip features [S, n_visible, C]
        -> predictions [S, targets, patch]."""
        x = self.input_proj.forward(combined.tokens)
        n_vis = combined.n_visible
        for j, idx in enumerate(self.cfg.skip_indices):
            feats = skip_locals[idx]
            if feats.shape[1] != n_vis:
                raise ValueError(
                    f"skip features for layer {idx} have {feats.shape[1]} rows, "
                    f"expected {n_vis} visible tokens")
            if n_vis:
                add = self.skip_projs[j].forward(feats)
                x = np.concatenate([x[:, :n_vis] + add, x[:, n_vis:]], axis=1)
        for block in self.blocks:
            x = block.forward(x)
        x = self.norm.forward(x)
        preds = self.head.forward(x[:, n_vis:])
        skips = [skip_locals[idx] for idx in self.cfg.skip_indices]   # skip_projs' inputs
        self._save(n_vis, x.shape, combined.tokens, skips)
        return preds

    def backward(self, d_preds: np.ndarray):
        n_vis, x_shape, tokens, skips = self._load()
        d_x = np.zeros(x_shape, dtype=d_preds.dtype)
        d_x[:, n_vis:] = self.head.backward(d_preds, self.norm.output()[:, n_vis:])
        d_x = self.norm.backward(d_x)
        for block in reversed(list(self.blocks)):
            d_x = block.backward(d_x)
        d_skips = {}
        for j, idx in reversed(list(enumerate(self.cfg.skip_indices))):
            if n_vis:
                d_skips[idx] = self.skip_projs[j].backward(d_x[:, :n_vis], skips[j])
        d_tokens = self.input_proj.backward(d_x, tokens)
        return d_tokens, d_skips


def make_mask_pairs(cfg: ModelConfig, video_shape, audio_shape,
                    rng: np.random.Generator, dual_masking: bool = True):
    """Sample the per-clip encoder and decoder masks for both modalities.

    Without dual masking every encoder-masked token becomes a target
    (the full-length decoder baseline).
    """
    gt, gh, gw = video_grid(cfg, video_shape)
    enc_v = tube_mask(gt, gh, gw, VIDEO_ENCODER_MASK_RATIO, rng)
    n_a = int(np.prod(audio_grid(cfg, audio_shape)))
    enc_a = random_mask(n_a, AUDIO_ENCODER_MASK_RATIO, rng)
    if dual_masking:
        tgt_v = running_cell_mask(gt, gh, gw, enc_v, DECODER_MASK_RATIO, rng)
        tgt_a = random_decoder_targets(n_a, enc_a, DECODER_MASK_RATIO, rng)
    else:
        tgt_v = enc_v.copy()
        tgt_a = enc_a.copy()
    return MaskPair(enc_v, tgt_v), MaskPair(enc_a, tgt_a)


class PretrainModel(Block):
    """Embed -> dual mask -> LGI encode -> fuse -> decode, both modalities."""

    def __init__(self, cfg: ModelConfig, video_shape, audio_shape, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.video_shape = tuple(video_shape)
        self.audio_shape = tuple(audio_shape)
        self.video_embed = VideoEmbed(cfg, video_shape, rng)
        self.audio_embed = AudioEmbed(cfg, audio_shape, rng)
        k_v = region_count(self.video_embed.grid, cfg.video_region)
        k_a = region_count(self.audio_embed.grid, cfg.audio_region)
        self.video_encoder = LGIEncoder(cfg, k_v, rng)
        self.audio_encoder = LGIEncoder(cfg, k_a, rng)
        self.fusion = FusionEncoder(cfg.encoder_dim, cfg.fusion_heads, cfg.fusion_depth, rng)
        self.mask_token_v = Parameter(trunc_normal(rng, (cfg.encoder_dim,)))
        self.mask_token_a = Parameter(trunc_normal(rng, (cfg.encoder_dim,)))
        self.video_decoder = Decoder(cfg, self.video_embed.patch_dim, rng)
        self.audio_decoder = Decoder(cfg, self.audio_embed.patch_dim, rng)

    def forward_sample(self, clips: list[RawClip], pairs_v: list[MaskPair],
                       pairs_a: list[MaskPair]):
        """S clips, each with its own mask pairs, through the full
        reconstruction graph in one pass.

        Returns per modality the predictions and the reconstruction targets
        at the target positions, [S, targets, patch], and the pooled
        contrastive features per skip layer, [S, C]. The targets are the
        clips' patches at those positions, standardised per patch
        (``normalize_targets``) and cast to the predictions' dtype. Outputs
        and the gradients of ``backward_sample`` are bitwise those of the
        clips run one at a time, forward in order and backward in reverse.

        The batch is checked whole before any block runs: a mismatched clip
        shape, mask size or count is a ValueError that leaves no tape behind.
        The tape keeps the clips, not their patches, and ``backward_sample``
        makes the patches again: the clips and their arrays must stay
        unchanged until then.
        """
        patches = {}
        for modality, embed, pairs in (("video", self.video_embed, pairs_v),
                                       ("audio", self.audio_embed, pairs_a)):
            patches[modality] = embed.patches([getattr(clip, modality) for clip in clips])
            _check_pairs(modality, pairs, len(clips), int(np.prod(embed.grid)))
        out = {}
        for modality, embed, encoder, region, pairs in (
                ("video", self.video_embed, self.video_encoder, self.cfg.video_region, pairs_v),
                ("audio", self.audio_embed, self.audio_encoder, self.cfg.audio_region, pairs_a)):
            tokens = embed.forward(patches[modality])
            visible = np.stack([pair.visible_indices for pair in pairs])
            _, locals_, skip_locals, pooled = encoder.encode(
                take_sample_rows(tokens, visible),
                partition(embed.grid, region, visible))
            out[modality] = dict(visible=visible, locals=locals_,
                                 skip_locals=skip_locals, pooled=pooled)

        fused_v, fused_a = self.fusion.forward(out["video"]["locals"],
                                               out["audio"]["locals"])
        out["video"]["fused"] = fused_v
        out["audio"]["fused"] = fused_a

        result = {}
        for modality, embed, decoder, mask_token, pairs in (
                ("video", self.video_embed, self.video_decoder, self.mask_token_v, pairs_v),
                ("audio", self.audio_embed, self.audio_decoder, self.mask_token_a, pairs_a)):
            ctx = out[modality]
            combined = assemble_combined(ctx["fused"], pairs, mask_token.data, embed.codes)
            preds = decoder.forward(combined, ctx["skip_locals"])
            targets = normalize_targets(take_sample_rows(
                patches[modality], combined.source_indices[:, combined.n_visible:]))
            result[modality] = dict(
                predictions=preds,
                targets=targets.astype(preds.dtype),
                pooled=ctx["pooled"],
                n_tokens=pairs[0].n_tokens,
                combined_len=combined.tokens.shape[1],
            )
        # the clips, not their patches: the caller holds them already
        self._save(out["video"]["visible"], out["audio"]["visible"],
                   pairs_v[0].n_tokens, pairs_a[0].n_tokens, tuple(clips))
        return result

    def backward_sample(self, d_preds_v: np.ndarray, d_preds_a: np.ndarray,
                        d_pooled_v: dict[int, np.ndarray] | None,
                        d_pooled_a: dict[int, np.ndarray] | None):
        """Backward of the last ``forward_sample``: prediction gradients
        [S, targets, patch], pooled-feature gradients {skip layer: [S, C]}."""
        visible_v, visible_a, n_tokens_v, n_tokens_a, clips = self._load()
        d_fused = {}
        g_token_v, g_token_a = self._grad_slots(len(d_preds_v))
        for modality, decoder, g_token, d_preds, visible in (
                ("audio", self.audio_decoder, g_token_a, d_preds_a, visible_a),
                ("video", self.video_decoder, g_token_v, d_preds_v, visible_v)):
            d_tokens, d_skips = decoder.backward(d_preds)
            n_vis = visible.shape[1]
            np.add.reduce(d_tokens[:, n_vis:], axis=1, out=g_token)
            d_fused[modality] = (d_tokens[:, :n_vis], d_skips)
        self._fold_grads()

        d_locals_v, d_locals_a = self.fusion.backward(d_fused["video"][0],
                                                      d_fused["audio"][0])

        for modality, embed, encoder, d_locals, visible, n_tokens, d_pooled in (
                ("audio", self.audio_embed, self.audio_encoder, d_locals_a,
                 visible_a, n_tokens_a, d_pooled_a),
                ("video", self.video_embed, self.video_encoder, d_locals_v,
                 visible_v, n_tokens_v, d_pooled_v)):
            d_visible = encoder.backward(d_locals, None, d_fused[modality][1], d_pooled)
            full = np.zeros((len(d_visible), n_tokens, d_visible.shape[-1]),
                            dtype=d_visible.dtype)
            put_sample_rows(full, visible, d_visible)
            embed.backward(full, embed.patches([getattr(clip, modality) for clip in clips]))


def _check_pairs(modality: str, pairs: list[MaskPair], n_clips: int,
                 n_tokens: int) -> None:
    """One mask pair per clip, each over the grid's n_tokens, all with one
    visible count and one target count."""
    if len(pairs) != n_clips:
        raise ValueError(f"{len(pairs)} {modality} mask pairs for {n_clips} clips")
    if any(pair.n_tokens != n_tokens for pair in pairs):
        raise ValueError(f"{modality} mask size does not match token count")
    for what, counts in (
            ("visible", [pair.n_tokens - int(pair.encoder_mask.sum()) for pair in pairs]),
            ("target", [int(pair.decoder_targets.sum()) for pair in pairs])):
        other = [n for n in counts if n != counts[0]]
        if other:
            raise ValueError(f"{modality} mask pairs differ in {what} count: "
                             f"{counts[0]} and {other[0]}")
