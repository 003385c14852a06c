"""Clip tokenisation: cube/patch embeddings, positional codes, targets.

Video clips are [T, H, W, 3] arrays in [0, 1]; audio clips are [T_a, F]
log-mel style spectrograms. Token order is row-major over the token grid and
grid coordinates reconstruct the flattened index bijectively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import DEFAULT_DTYPE, Block, Linear
from .config import ModelConfig, audio_grid, video_grid

TARGET_EPS = 1e-6


@dataclass
class RawClip:
    video: np.ndarray  # [T, H, W, 3]
    audio: np.ndarray  # [T_a, F]

    def __post_init__(self):
        if self.video.ndim != 4 or self.video.shape[-1] != 3:
            raise ValueError(f"video must be [T, H, W, 3], got {self.video.shape}")
        if self.audio.ndim != 2:
            raise ValueError(f"audio must be [T_a, F], got {self.audio.shape}")
        if self.video.shape[0] % 2 != 0:
            raise ValueError("video frame count must be even")


@dataclass
class TokenSeq:
    tokens: np.ndarray        # [N, C]
    coords: np.ndarray        # [N, ndim] integer grid coordinates
    grid: tuple[int, ...]
    modality: str

    def __post_init__(self):
        n = int(np.prod(self.grid))
        if self.tokens.shape[0] != n or self.coords.shape[0] != n:
            raise ValueError("token count must equal the grid size")


def grid_coords(grid) -> np.ndarray:
    """Row-major integer coordinates for every grid cell."""
    return np.indices(grid).reshape(len(grid), -1).T.astype(np.int64)


def sincos_1d(positions: np.ndarray, dim: int, dtype=np.float64) -> np.ndarray:
    if dim % 2 != 0:
        raise ValueError("sinusoidal chunk dims must be even")
    pos = np.asarray(positions, dtype=np.float64)[:, None]
    freqs = np.exp(-np.log(10000.0) * np.arange(0, dim, 2) / dim)[None, :]
    out = np.empty((pos.shape[0], dim), dtype=dtype)
    out[:, 0::2] = np.sin(pos * freqs)
    out[:, 1::2] = np.cos(pos * freqs)
    return out


def positional_encoding(coords: np.ndarray, dim: int, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Fixed multi-axis sin-cos codes; a pure function of coords and dim."""
    ndim = coords.shape[1]
    base = (dim // ndim) & ~1
    chunks = [base] * (ndim - 1) + [dim - base * (ndim - 1)]
    parts = [sincos_1d(coords[:, axis], chunk)
             for axis, chunk in enumerate(chunks)]
    return np.concatenate(parts, axis=1).astype(dtype)


def video_patches(video: np.ndarray, tubelet) -> np.ndarray:
    """Flatten non-overlapping tubelets, row-major over (t, h, w)."""
    t, h, w, c = video.shape
    tt, p, p2 = tubelet
    if t % tt or h % p or w % p2:
        raise ValueError(f"video shape {video.shape} not divisible by tubelet {tubelet}")
    gt, gh, gw = t // tt, h // p, w // p2
    cube = video.reshape(gt, tt, gh, p, gw, p2, c)
    cube = cube.transpose(0, 2, 4, 1, 3, 5, 6)
    return np.ascontiguousarray(cube.reshape(gt * gh * gw, tt * p * p2 * c))


def audio_patches(audio: np.ndarray, patch) -> np.ndarray:
    ta, f = audio.shape
    pt, pf = patch
    if ta % pt or f % pf:
        raise ValueError(f"audio shape {audio.shape} not divisible by patch {patch}")
    gt, gf = ta // pt, f // pf
    tiles = audio.reshape(gt, pt, gf, pf).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(tiles.reshape(gt * gf, pt * pf))


class PatchEmbed(Block):
    """Learned linear map of flattened patches plus fixed positional codes.

    A subclass names its modality, the config field holding its patch size,
    the channels per grid cell, and its patchify and grid functions.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.cfg = cfg
        self.patch = getattr(cfg, self.patch_field)
        self.patch_dim = int(np.prod(self.patch)) * self.channels
        self.proj = Linear(self.patch_dim, cfg.encoder_dim, rng, dtype=dtype)
        self.dtype = dtype

    def forward(self, raw: np.ndarray) -> TokenSeq:
        grid = self.grid(self.cfg, raw.shape[:len(self.patch)])
        patches = self.patchify(raw, self.patch).astype(self.dtype)
        coords = grid_coords(grid)
        tokens = self.proj.forward(patches)
        tokens = tokens + positional_encoding(coords, self.cfg.encoder_dim, self.dtype)
        return TokenSeq(tokens, coords, grid, self.modality)

    def backward(self, d_tokens: np.ndarray) -> None:
        self.proj.backward(d_tokens)


class VideoEmbed(PatchEmbed):
    modality, patch_field, channels = "video", "video_tubelet", 3
    patchify = staticmethod(video_patches)
    grid = staticmethod(video_grid)


class AudioEmbed(PatchEmbed):
    modality, patch_field, channels = "audio", "audio_patch", 1
    patchify = staticmethod(audio_patches)
    grid = staticmethod(audio_grid)


def normalize_patches(patches: np.ndarray) -> np.ndarray:
    """Standardise each patch vector to zero mean, unit variance."""
    mean = patches.mean(axis=1, keepdims=True)
    var = patches.var(axis=1, keepdims=True)
    return (patches - mean) / np.sqrt(var + TARGET_EPS)


def normalize_targets(clip: RawClip, cfg: ModelConfig, modality: str) -> np.ndarray:
    """Per-tubelet standardised reconstruction targets."""
    if modality == "video":
        patches = video_patches(clip.video, cfg.video_tubelet).astype(np.float64)
    elif modality == "audio":
        patches = audio_patches(clip.audio, cfg.audio_patch).astype(np.float64)
    else:
        raise ValueError(f"unknown modality {modality!r}")
    return normalize_patches(patches)


# ---------------------------------------------------------------------------
# synthetic-clip container format: one ASCII header line, then raw
# little-endian float32 payloads (video first, audio second)
# ---------------------------------------------------------------------------

_CLIP_MAGIC = b"AVCLIP 1"


def write_clip(path, clip: RawClip) -> None:
    t, h, w, _ = clip.video.shape
    ta, f = clip.audio.shape
    header = f"AVCLIP 1 video {t} {h} {w} 3 audio {ta} {f} float32\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(clip.video, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(clip.audio, dtype="<f4").tobytes())


def read_clip(path) -> RawClip:
    with open(path, "rb") as fh:
        header = fh.readline().strip()
        parts = header.split(b" ")
        if parts[:2] != _CLIP_MAGIC.split(b" ") or len(parts) != 11:
            raise ValueError(f"{path}: not a clip file (header {header!r})")
        if parts[2] != b"video" or parts[7] != b"audio" or parts[10] != b"float32":
            raise ValueError(f"{path}: malformed clip header")
        t, h, w, c = (int(x) for x in parts[3:7])
        ta, f = int(parts[8]), int(parts[9])
        video_count = t * h * w * c
        audio_count = ta * f
        payload = fh.read()
    expected = 4 * (video_count + audio_count)
    if len(payload) != expected:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    video = np.frombuffer(payload, dtype="<f4", count=video_count).reshape(t, h, w, c)
    audio = np.frombuffer(payload, dtype="<f4", count=audio_count,
                          offset=4 * video_count).reshape(ta, f)
    return RawClip(video.copy(), audio.copy())
