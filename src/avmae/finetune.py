"""Supervised model: modality encoders feeding the IAV-CL head.

Pretraining-only components (fusion encoder, decoders, mask tokens) are
absent here; checkpoints transfer by parameter name because the shared
attributes match the pretraining model.
"""

from __future__ import annotations

import numpy as np

from .blocks import DEFAULT_DTYPE, Block, no_tape
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
        grid_v, grid_a = video_grid(cfg, video_shape), audio_grid(cfg, audio_shape)
        k_v = region_count(grid_v, cfg.video_region)
        k_a = region_count(grid_a, cfg.audio_region)
        if k_v != k_a:
            raise ValueError(f"region counts differ (video {k_v}, audio {k_a})")
        # every clip has the model's shapes, so one full-grid layout per
        # modality and batch size serves every call
        self._grids = ((grid_v, cfg.video_region), (grid_a, cfg.audio_region))
        self._layouts = {}
        self.video_embed = VideoEmbed(cfg, rng, dtype=dtype)
        self.audio_embed = AudioEmbed(cfg, rng, dtype=dtype)
        self.video_encoder = LGIEncoder(cfg, k_v, rng, dtype=dtype)
        self.audio_encoder = LGIEncoder(cfg, k_a, rng, dtype=dtype)
        self.iavcl = IAVCLHead(cfg, num_outputs, rng, dtype=dtype)

    def forward_sample(self, clips, rngs=None, drop_path: float = 0.0,
                       training: bool = True) -> np.ndarray:
        """A batch of clips through the embeddings, both encoders and the
        head in one pass; returns logits [S, outputs].

        rngs: one generator per clip for stochastic depth, or None. The
        logits, gradients and batch-norm statistics are bitwise those of the
        clips run one at a time, forward in order and backward in reverse.
        The head reads only region tokens, so the encoders skip the final
        local tokens (``keep_locals=False``).
        """
        for clip in clips:
            for modality, shape, want in (("video", clip.video.shape[:-1], self.video_shape),
                                          ("audio", clip.audio.shape, self.audio_shape)):
                if shape != want:
                    raise ValueError(f"{modality} clip shape {shape} differs from "
                                     f"the model's {want}")
        layout_v, layout_a = self._layout(len(clips))
        seq_v = self.video_embed.forward(np.stack([clip.video for clip in clips]))
        seq_a = self.audio_embed.forward(np.stack([clip.audio for clip in clips]))
        snaps_v, _, _, _ = self.video_encoder.encode(
            seq_v.tokens, layout_v, rngs=rngs, drop_path=drop_path, keep_locals=False)
        snaps_a, _, _, _ = self.audio_encoder.encode(
            seq_a.tokens, layout_a, rngs=rngs, drop_path=drop_path, keep_locals=False)
        logits = self.iavcl.forward(snaps_a, snaps_v, training=training)
        self._save(seq_v.tokens.shape, seq_a.tokens.shape)
        return logits

    def _layout(self, n: int):
        """The video and audio batch layouts for n clips, built on first use."""
        if n not in self._layouts:
            self._layouts[n] = tuple(
                partition(grid, region, np.tile(np.arange(np.prod(grid)), (n, 1)))
                for grid, region in self._grids)
        return self._layouts[n]

    def backward_sample(self, d_logits: np.ndarray) -> None:
        """Backward of the last ``forward_sample``; d_logits is [S, outputs]."""
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
        """Inference forward of one clip: no stochastic depth, frozen
        statistics, no tape (a pending training tape stays as it was)."""
        with no_tape():
            return self.forward_sample([clip], training=False)[0]
