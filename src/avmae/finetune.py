"""Supervised model: modality encoders feeding the IAV-CL head.

Pretraining-only components (fusion encoder, decoders, mask tokens) are
absent here; checkpoints transfer by parameter name because the shared
attributes match the pretraining model.
"""

from __future__ import annotations

import numpy as np

from .blocks import Block, no_tape
from .config import ModelConfig, region_count
from .embedding import AudioEmbed, RawClip, VideoEmbed
from .encoder import LGIEncoder, partition
from .iavcl import IAVCLHead


class FinetuneModel(Block):
    def __init__(self, cfg: ModelConfig, video_shape, audio_shape,
                 num_outputs: int, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.video_embed = VideoEmbed(cfg, video_shape, rng)
        self.audio_embed = AudioEmbed(cfg, audio_shape, rng)
        k_v = region_count(self.video_embed.grid, cfg.video_region)
        k_a = region_count(self.audio_embed.grid, cfg.audio_region)
        if k_v != k_a:
            raise ValueError(f"region counts differ (video {k_v}, audio {k_a})")
        # every clip has the embeddings' shapes, so one full-grid layout per
        # modality and batch size serves every call
        self._layouts = {}
        self.video_encoder = LGIEncoder(cfg, k_v, rng)
        self.audio_encoder = LGIEncoder(cfg, k_a, rng)
        self.iavcl = IAVCLHead(cfg, num_outputs, rng)

    def forward_sample(self, clips, rngs=None, drop_path: float = 0.0,
                       training: bool = True) -> np.ndarray:
        """A batch of clips through the embeddings, both encoders and the
        head in one pass; returns logits [S, outputs].

        rngs: one generator per clip for stochastic depth, or None. Logits
        and gradients are bitwise those of the clips run one at a time,
        forward in order and backward in reverse; batch-norm statistics are not.
        The head reads only region tokens, so the encoders skip the final
        local tokens (``keep_locals=False``). Both modalities' clip shapes are
        checked before any block runs. The tape keeps the clips, not their
        patches, and ``backward_sample`` makes the patches again: the clips
        and their arrays must stay unchanged until then.
        """
        patches_v = self.video_embed.patches([clip.video for clip in clips])
        patches_a = self.audio_embed.patches([clip.audio for clip in clips])
        layout_v, layout_a = self._layout(len(clips))
        tokens_v = self.video_embed.forward(patches_v)
        tokens_a = self.audio_embed.forward(patches_a)
        snaps_v, _, _, _ = self.video_encoder.encode(
            tokens_v, layout_v, rngs=rngs, drop_path=drop_path, keep_locals=False)
        snaps_a, _, _, _ = self.audio_encoder.encode(
            tokens_a, layout_a, rngs=rngs, drop_path=drop_path, keep_locals=False)
        logits = self.iavcl.forward(snaps_a, snaps_v, training=training)
        # the clips, not their patches: the caller holds them already
        self._save(tokens_v.shape, tokens_a.shape, tuple(clips))
        return logits

    def _layout(self, n: int):
        """The video and audio batch layouts for n clips, built on first use."""
        if n not in self._layouts:
            self._layouts[n] = tuple(
                partition(embed.grid, region, np.tile(np.arange(np.prod(embed.grid)), (n, 1)))
                for embed, region in ((self.video_embed, self.cfg.video_region),
                                      (self.audio_embed, self.cfg.audio_region)))
        return self._layouts[n]

    def backward_sample(self, d_logits: np.ndarray) -> None:
        """Backward of the last ``forward_sample``; d_logits is [S, outputs]."""
        locals_v_shape, locals_a_shape, clips = self._load()
        d_snaps_a, d_snaps_v = self.iavcl.backward(d_logits)
        d_tokens_a = self.audio_encoder.backward(
            np.zeros(locals_a_shape, d_logits.dtype), d_snapshots=d_snaps_a)
        self.audio_embed.backward(d_tokens_a,
                                  self.audio_embed.patches([clip.audio for clip in clips]))
        d_tokens_v = self.video_encoder.backward(
            np.zeros(locals_v_shape, d_logits.dtype), d_snapshots=d_snaps_v)
        self.video_embed.backward(d_tokens_v,
                                  self.video_embed.patches([clip.video for clip in clips]))

    def predict(self, clip: RawClip) -> np.ndarray:
        """Inference forward of one clip: no stochastic depth, frozen
        statistics, no tape (a pending training tape stays as it was)."""
        with no_tape():
            return self.forward_sample([clip], training=False)[0]
