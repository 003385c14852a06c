"""Supervised model: modality encoders feeding the IAV-CL head.

Pretraining-only components (fusion encoder, decoders, mask tokens) are
absent here; checkpoints transfer by parameter name because the shared
attributes match the pretraining model.
"""

from __future__ import annotations

import numpy as np

from .blocks import DEFAULT_DTYPE, Block
from .config import ModelConfig, audio_grid, region_count, video_grid
from .embedding import AudioEmbed, RawClip, VideoEmbed
from .encoder import LGIEncoder, partition
from .iavcl import IAVCLHead


class FinetuneModel(Block):
    def __init__(self, cfg: ModelConfig, video_shape, audio_shape,
                 num_outputs: int, rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.cfg = cfg
        self.video_shape = tuple(video_shape)
        self.audio_shape = tuple(audio_shape)
        k_v = region_count(video_grid(cfg, video_shape), cfg.video_region)
        k_a = region_count(audio_grid(cfg, audio_shape), cfg.audio_region)
        if k_v != k_a:
            raise ValueError(f"region counts differ (video {k_v}, audio {k_a})")
        self.video_embed = VideoEmbed(cfg, rng, dtype=dtype)
        self.audio_embed = AudioEmbed(cfg, rng, dtype=dtype)
        self.video_encoder = LGIEncoder(cfg, k_v, rng, dtype=dtype)
        self.audio_encoder = LGIEncoder(cfg, k_a, rng, dtype=dtype)
        self.iavcl = IAVCLHead(cfg, num_outputs, rng, dtype=dtype)

    def forward_sample(self, clip: RawClip, rng: np.random.Generator | None = None,
                       drop_path: float = 0.0, training: bool = True) -> np.ndarray:
        seq_v = self.video_embed.forward(clip.video)
        seq_a = self.audio_embed.forward(clip.audio)
        part_v = partition(seq_v, self.cfg.video_region)
        part_a = partition(seq_a, self.cfg.audio_region)
        snaps_v, locals_v, _, _ = self.video_encoder.encode(
            seq_v.tokens, part_v, rng=rng, drop_path=drop_path)
        snaps_a, locals_a, _, _ = self.audio_encoder.encode(
            seq_a.tokens, part_a, rng=rng, drop_path=drop_path)
        logits = self.iavcl.forward(snaps_a, snaps_v, training=training)
        self._save(locals_v.shape, locals_a.shape)
        return logits

    def backward_sample(self, d_logits: np.ndarray) -> None:
        locals_v_shape, locals_a_shape = self._load()
        d_snaps_a, d_snaps_v = self.iavcl.backward(d_logits)
        dtype = d_logits.dtype
        d_tokens_a = self.audio_encoder.backward(
            np.zeros(locals_a_shape, dtype=dtype), d_snapshots=d_snaps_a)
        self.audio_embed.backward(d_tokens_a)
        d_tokens_v = self.video_encoder.backward(
            np.zeros(locals_v_shape, dtype=dtype), d_snapshots=d_snaps_v)
        self.video_embed.backward(d_tokens_v)

    def predict(self, clip: RawClip) -> np.ndarray:
        """Inference forward: no stochastic depth, frozen statistics."""
        logits = self.forward_sample(clip, rng=None, drop_path=0.0, training=False)
        self.clear_caches()
        return logits
