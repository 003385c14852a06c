"""Pretraining-only components: cross-modal fusion encoder, modality
decoders with hierarchical skip connections, and the full dual-masked
reconstruction model.

The decoders consume the combined sequence of fused visible latents plus
positioned mask tokens; skip features from the configured encoder layers are
linearly projected and added at the visible slots only, before the first
decoder block. Predictions are emitted only at decoder-target positions.
"""

from __future__ import annotations

import numpy as np

from .blocks import (DEFAULT_DTYPE, Attention, Block, BlockList, FeedForward,
                     LayerNorm, Linear, Parameter, trunc_normal)
from .config import (AUDIO_ENCODER_MASK_RATIO, DECODER_MASK_RATIO,
                     VIDEO_ENCODER_MASK_RATIO, ModelConfig, audio_grid,
                     region_count, video_grid)
from .embedding import (AudioEmbed, RawClip, VideoEmbed, normalize_targets,
                        positional_encoding)
from .encoder import LGIEncoder, partition
from .masking import (CombinedSeq, MaskPair, assemble_combined, random_mask,
                      random_decoder_targets, running_cell_mask, tube_mask)


class FusionBlock(Block):
    """One bidirectional cross-attention block.

    Both streams read the partner's previous state, so the two updates
    commute within a block; each stream then runs its own feed-forward.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.norm_vq = LayerNorm(dim, dtype=dtype)
        self.norm_vkv = LayerNorm(dim, dtype=dtype)
        self.attn_v = Attention(dim, heads, rng, dtype=dtype)
        self.norm_aq = LayerNorm(dim, dtype=dtype)
        self.norm_akv = LayerNorm(dim, dtype=dtype)
        self.attn_a = Attention(dim, heads, rng, dtype=dtype)
        self.norm_vf = LayerNorm(dim, dtype=dtype)
        self.ffn_v = FeedForward(dim, rng, dtype=dtype)
        self.norm_af = LayerNorm(dim, dtype=dtype)
        self.ffn_a = FeedForward(dim, rng, dtype=dtype)

    def forward(self, v: np.ndarray, a: np.ndarray):
        v_mid = v + self.attn_v.forward(self.norm_vq.forward(v), self.norm_vkv.forward(a))
        a_mid = a + self.attn_a.forward(self.norm_aq.forward(a), self.norm_akv.forward(v))
        v_out = v_mid + self.ffn_v.forward(self.norm_vf.forward(v_mid))
        a_out = a_mid + self.ffn_a.forward(self.norm_af.forward(a_mid))
        return v_out, a_out

    def backward(self, d_v_out: np.ndarray, d_a_out: np.ndarray):
        d_a_mid = d_a_out + self.norm_af.backward(self.ffn_a.backward(d_a_out))
        d_v_mid = d_v_out + self.norm_vf.backward(self.ffn_v.backward(d_v_out))
        d_qa, d_kv_v = self.attn_a.backward(d_a_mid)
        d_qv, d_kv_a = self.attn_v.backward(d_v_mid)
        d_v = d_v_mid + self.norm_vq.backward(d_qv) + self.norm_akv.backward(d_kv_v)
        d_a = d_a_mid + self.norm_aq.backward(d_qa) + self.norm_vkv.backward(d_kv_a)
        return d_v, d_a


class FusionEncoder(Block):
    def __init__(self, dim: int, heads: int, depth: int, rng: np.random.Generator,
                 dtype=DEFAULT_DTYPE):
        super().__init__()
        self.blocks = BlockList([FusionBlock(dim, heads, rng, dtype=dtype)
                                 for _ in range(depth)])

    def forward(self, v: np.ndarray, a: np.ndarray):
        for block in self.blocks:
            v, a = block.forward(v, a)
        return v, a

    def backward(self, d_v: np.ndarray, d_a: np.ndarray):
        for block in reversed(list(self.blocks)):
            d_v, d_a = block.backward(d_v, d_a)
        return d_v, d_a


class DecoderBlock(Block):
    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.norm1 = LayerNorm(dim, dtype=dtype)
        self.attn = Attention(dim, heads, rng, dtype=dtype)
        self.norm2 = LayerNorm(dim, dtype=dtype)
        self.ffn = FeedForward(dim, rng, dtype=dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = x + self.attn.forward(self.norm1.forward(x))
        return x + self.ffn.forward(self.norm2.forward(x))

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        d_mid = d_out + self.norm2.backward(self.ffn.backward(d_out))
        d_q, d_kv = self.attn.backward(d_mid)
        return d_mid + self.norm1.backward(d_q + d_kv)


class Decoder(Block):
    """Narrow transformer over the combined sequence with skip injection."""

    def __init__(self, cfg: ModelConfig, patch_dim: int, rng: np.random.Generator,
                 dtype=DEFAULT_DTYPE):
        super().__init__()
        self.cfg = cfg
        self.input_proj = Linear(cfg.encoder_dim, cfg.decoder_dim, rng, dtype=dtype)
        self.skip_projs = BlockList([
            Linear(cfg.encoder_dim, cfg.decoder_dim, rng, dtype=dtype)
            for _ in cfg.skip_indices
        ])
        self.blocks = BlockList([
            DecoderBlock(cfg.decoder_dim, cfg.decoder_heads, rng, dtype=dtype)
            for _ in range(cfg.decoder_depth)
        ])
        self.norm = LayerNorm(cfg.decoder_dim, dtype=dtype)
        self.head = Linear(cfg.decoder_dim, patch_dim, rng, dtype=dtype)

    def forward(self, combined: CombinedSeq, skip_locals: dict[int, np.ndarray]) -> np.ndarray:
        x = self.input_proj.forward(combined.tokens)
        n_vis = combined.n_visible
        for j, idx in enumerate(self.cfg.skip_indices):
            feats = skip_locals[idx]
            if feats.shape[0] != n_vis:
                raise ValueError(
                    f"skip features for layer {idx} have {feats.shape[0]} rows, "
                    f"expected {n_vis} visible tokens")
            if n_vis:
                add = self.skip_projs[j].forward(feats)
                x = np.concatenate([x[:n_vis] + add, x[n_vis:]], axis=0)
        for block in self.blocks:
            x = block.forward(x)
        x = self.norm.forward(x)
        preds = self.head.forward(x[n_vis:])
        self._save(n_vis, x.shape)
        return preds

    def backward(self, d_preds: np.ndarray):
        n_vis, x_shape = self._load()
        d_x = np.zeros(x_shape, dtype=d_preds.dtype)
        d_x[n_vis:] = self.head.backward(d_preds)
        d_x = self.norm.backward(d_x)
        for block in reversed(list(self.blocks)):
            d_x = block.backward(d_x)
        d_skips = {}
        for j in reversed(range(len(self.cfg.skip_indices))):
            if n_vis:
                d_skips[self.cfg.skip_indices[j]] = self.skip_projs[j].backward(d_x[:n_vis])
        d_tokens = self.input_proj.backward(d_x)
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
    pair_v = MaskPair(enc_v, tgt_v, VIDEO_ENCODER_MASK_RATIO, DECODER_MASK_RATIO)
    pair_a = MaskPair(enc_a, tgt_a, AUDIO_ENCODER_MASK_RATIO, DECODER_MASK_RATIO)
    return pair_v, pair_a


class PretrainModel(Block):
    """Embed -> dual mask -> LGI encode -> fuse -> decode, both modalities."""

    def __init__(self, cfg: ModelConfig, video_shape, audio_shape,
                 rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.cfg = cfg
        self.video_shape = tuple(video_shape)
        self.audio_shape = tuple(audio_shape)
        self.dtype = dtype
        k_v = region_count(video_grid(cfg, video_shape), cfg.video_region)
        k_a = region_count(audio_grid(cfg, audio_shape), cfg.audio_region)
        self.video_embed = VideoEmbed(cfg, rng, dtype=dtype)
        self.audio_embed = AudioEmbed(cfg, rng, dtype=dtype)
        self.video_encoder = LGIEncoder(cfg, k_v, rng, dtype=dtype)
        self.audio_encoder = LGIEncoder(cfg, k_a, rng, dtype=dtype)
        self.fusion = FusionEncoder(cfg.encoder_dim, cfg.fusion_heads,
                                    cfg.fusion_depth, rng, dtype=dtype)
        self.mask_token_v = Parameter(trunc_normal(rng, (cfg.encoder_dim,), dtype=dtype))
        self.mask_token_a = Parameter(trunc_normal(rng, (cfg.encoder_dim,), dtype=dtype))
        self.video_decoder = Decoder(cfg, self.video_embed.patch_dim, rng, dtype=dtype)
        self.audio_decoder = Decoder(cfg, self.audio_embed.patch_dim, rng, dtype=dtype)

    def forward_sample(self, clip: RawClip, pair_v: MaskPair, pair_a: MaskPair,
                       rng: np.random.Generator | None = None, drop_path: float = 0.0):
        """One clip through the full reconstruction graph.

        Returns predictions, normalised targets at the target positions, and
        pooled contrastive features per skip layer for both modalities.
        """
        out = {}
        for modality, embed, encoder, region, pair, raw in (
                ("video", self.video_embed, self.video_encoder, self.cfg.video_region,
                 pair_v, clip.video),
                ("audio", self.audio_embed, self.audio_encoder, self.cfg.audio_region,
                 pair_a, clip.audio)):
            seq = embed.forward(raw)
            if pair.n_tokens != seq.tokens.shape[0]:
                raise ValueError(f"{modality} mask size does not match token count")
            part = partition(seq, region, visible_mask=pair.encoder_mask)
            visible = seq.tokens[pair.visible_indices]
            snaps, locals_, skip_locals, pooled = encoder.encode(
                visible, part, rng=rng, drop_path=drop_path)
            out[modality] = dict(seq=seq, pair=pair, part=part, locals=locals_,
                                 skip_locals=skip_locals, pooled=pooled)

        fused_v, fused_a = self.fusion.forward(out["video"]["locals"],
                                               out["audio"]["locals"])
        out["video"]["fused"] = fused_v
        out["audio"]["fused"] = fused_a

        result = {}
        for modality, decoder, mask_token in (
                ("video", self.video_decoder, self.mask_token_v),
                ("audio", self.audio_decoder, self.mask_token_a)):
            ctx = out[modality]
            pe = positional_encoding(ctx["seq"].coords, self.cfg.encoder_dim,
                                     self.dtype)
            combined = assemble_combined(ctx["fused"], ctx["pair"],
                                         mask_token.data, pe)
            preds = decoder.forward(combined, ctx["skip_locals"])
            targets = normalize_targets(clip, self.cfg, modality).astype(self.dtype)
            result[modality] = dict(
                predictions=preds,
                targets=targets[ctx["pair"].target_indices],
                pooled=ctx["pooled"],
                n_tokens=ctx["pair"].n_tokens,
                combined_len=combined.tokens.shape[0],
            )
        self._save(out["video"]["pair"], out["audio"]["pair"])
        return result

    def backward_sample(self, d_preds_v: np.ndarray, d_preds_a: np.ndarray,
                        d_pooled_v: dict[int, np.ndarray] | None,
                        d_pooled_a: dict[int, np.ndarray] | None):
        pair_v, pair_a = self._load()
        d_fused = {}
        for modality, decoder, mask_token, d_preds, pair in (
                ("audio", self.audio_decoder, self.mask_token_a, d_preds_a, pair_a),
                ("video", self.video_decoder, self.mask_token_v, d_preds_v, pair_v)):
            d_tokens, d_skips = decoder.backward(d_preds)
            n_vis = pair.visible_indices.size
            mask_token.grad += d_tokens[n_vis:].sum(axis=0)
            d_fused[modality] = (d_tokens[:n_vis], d_skips)

        d_locals_v, d_locals_a = self.fusion.backward(d_fused["video"][0],
                                                      d_fused["audio"][0])

        for modality, embed, encoder, d_locals, d_skips, pair, d_pooled in (
                ("audio", self.audio_embed, self.audio_encoder, d_locals_a,
                 d_fused["audio"][1], pair_a, d_pooled_a),
                ("video", self.video_embed, self.video_encoder, d_locals_v,
                 d_fused["video"][1], pair_v, d_pooled_v)):
            d_visible = encoder.backward(d_locals, None, d_skips, d_pooled)
            full = np.zeros((pair.n_tokens, d_visible.shape[1]), dtype=d_visible.dtype)
            full[pair.visible_indices] = d_visible
            embed.backward(full)
