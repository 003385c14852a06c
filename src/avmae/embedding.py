"""Clip tokenisation: cube/patch embeddings, positional codes, targets.

Video clips are [T, H, W, 3] arrays in [0, 1]; audio clips are [T_a, F]
log-mel style spectrograms. Token order is row-major over the token grid and
grid coordinates reconstruct the flattened index bijectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .atomic import write_atomic
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


def grid_coords(grid) -> np.ndarray:
    """Row-major integer coordinates for every grid cell."""
    return np.indices(grid).reshape(len(grid), -1).T.astype(np.int64)


def sincos_1d(positions: np.ndarray, dim: int) -> np.ndarray:
    if dim % 2 != 0:
        raise ValueError("sinusoidal chunk dims must be even")
    pos = np.asarray(positions, dtype=np.float64)[:, None]
    freqs = np.exp(-np.log(10000.0) * np.arange(0, dim, 2) / dim)[None, :]
    out = np.empty((pos.shape[0], dim))
    out[:, 0::2] = np.sin(pos * freqs)
    out[:, 1::2] = np.cos(pos * freqs)
    return out


def positional_encoding(coords: np.ndarray, dim: int) -> np.ndarray:
    """Fixed multi-axis sin-cos codes; a pure function of coords and dim."""
    ndim = coords.shape[1]
    base = (dim // ndim) & ~1
    chunks = [base] * (ndim - 1) + [dim - base * (ndim - 1)]
    parts = [sincos_1d(coords[:, axis], chunk)
             for axis, chunk in enumerate(chunks)]
    return np.concatenate(parts, axis=1).astype(DEFAULT_DTYPE)


@lru_cache(maxsize=16)
def grid_codes(grid: tuple[int, ...], dim: int):
    """The positional codes of a grid, made once and shared read-only."""
    codes = positional_encoding(grid_coords(grid), dim)
    codes.flags.writeable = False
    return codes


def video_patches(video: np.ndarray, tubelet) -> np.ndarray:
    """Flatten non-overlapping tubelets, row-major over (t, h, w).

    [..., T, H, W, 3] -> [..., tokens, patch]: leading axes carry through.
    """
    *lead, t, h, w, c = video.shape
    tt, p, p2 = tubelet
    if t % tt or h % p or w % p2:
        raise ValueError(f"video shape {video.shape} not divisible by tubelet {tubelet}")
    gt, gh, gw = t // tt, h // p, w // p2
    cube = video.reshape(*lead, gt, tt, gh, p, gw, p2, c)
    n = len(lead)
    cube = cube.transpose(*range(n), *(n + a for a in (0, 2, 4, 1, 3, 5, 6)))
    return np.ascontiguousarray(cube.reshape(*lead, gt * gh * gw, tt * p * p2 * c))


def audio_patches(audio: np.ndarray, patch) -> np.ndarray:
    """[..., T_a, F] -> [..., tokens, patch]: leading axes carry through."""
    *lead, ta, f = audio.shape
    pt, pf = patch
    if ta % pt or f % pf:
        raise ValueError(f"audio shape {audio.shape} not divisible by patch {patch}")
    gt, gf = ta // pt, f // pf
    n = len(lead)
    tiles = audio.reshape(*lead, gt, pt, gf, pf)
    tiles = tiles.transpose(*range(n), *(n + a for a in (0, 2, 1, 3)))
    return np.ascontiguousarray(tiles.reshape(*lead, gt * gf, pt * pf))


class PatchEmbed(Block):
    """Learned linear map of flattened patches plus fixed positional codes,
    for clips of one shape.

    A subclass names its modality, the config field holding its patch size,
    the channel axis of a clip array, and its patchify and grid functions.
    """

    def __init__(self, cfg: ModelConfig, clip_shape, rng: np.random.Generator):
        super().__init__()
        self.patch = getattr(cfg, self.patch_field)
        self.shape = tuple(clip_shape) + self.channels   # one clip's array
        self.grid = self.grid_of(cfg, clip_shape)
        self.codes = grid_codes(self.grid, cfg.encoder_dim)
        self.patch_dim = int(np.prod(self.patch + self.channels))
        self.proj = Linear(self.patch_dim, cfg.encoder_dim, rng)

    def patches(self, arrays) -> np.ndarray:
        """This modality's arrays of S clips -> patches [S, N, patch] in the
        clips' dtype; a clip of another shape is a ValueError naming both."""
        for raw in arrays:
            if raw.shape != self.shape:
                raise ValueError(f"{self.modality} clip shape {raw.shape} differs "
                                 f"from the model's {self.shape}")
        return self.patchify(np.stack(arrays), self.patch)

    def _proj_input(self, patches: np.ndarray) -> np.ndarray:
        return patches.astype(self.proj.weight.data.dtype, copy=False)

    def forward(self, patches: np.ndarray) -> np.ndarray:
        """patches [S, N, patch] -> tokens [S, N, C]. The tape keeps no
        patches: the backward takes them back from the caller, which holds
        the clips and re-patches them with ``patches``."""
        tokens = self.proj.forward(self._proj_input(patches), save_input=False)
        return tokens + self.codes

    def backward(self, d_tokens: np.ndarray, patches: np.ndarray) -> None:
        """patches: the forward's, handed back."""
        self.proj.backward(d_tokens, input_grad=False, x=self._proj_input(patches))


class VideoEmbed(PatchEmbed):
    modality, patch_field, channels = "video", "video_tubelet", (3,)
    patchify = staticmethod(video_patches)
    grid_of = staticmethod(video_grid)


class AudioEmbed(PatchEmbed):
    modality, patch_field, channels = "audio", "audio_patch", ()
    patchify = staticmethod(audio_patches)
    grid_of = staticmethod(audio_grid)


def normalize_targets(patches: np.ndarray) -> np.ndarray:
    """Reconstruction targets: each patch vector (the last axis), widened to
    float64 and standardised to zero mean, unit variance.

    The centred patches serve both the variance and the result; this is
    ``(p - p.mean(-1)) / np.sqrt(p.var(-1) + eps)``, bit for bit.
    """
    patches = patches.astype(np.float64, copy=False)
    n = patches.shape[-1]
    mean = np.add.reduce(patches, axis=-1, keepdims=True)
    mean /= n
    centred = patches - mean
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True)
    var /= n
    var += TARGET_EPS
    centred /= np.sqrt(var, out=var)
    return centred


# ---------------------------------------------------------------------------
# synthetic-clip container format: one ASCII header line, then raw
# little-endian float32 payloads (video first, audio second)
# ---------------------------------------------------------------------------

_CLIP_MAGIC = b"AVCLIP 1"
_CLIP_DIMS = {3: "video frames", 4: "video height", 5: "video width", 6: "video channels",
              8: "audio frames", 9: "audio bins"}   # header word index -> dimension


def write_clip(path, clip: RawClip) -> None:
    t, h, w, _ = clip.video.shape
    ta, f = clip.audio.shape
    header = f"AVCLIP 1 video {t} {h} {w} 3 audio {ta} {f} float32\n"
    write_atomic(path, (header.encode("ascii"),
                        np.ascontiguousarray(clip.video, dtype="<f4").tobytes(),
                        np.ascontiguousarray(clip.audio, dtype="<f4").tobytes()))


def read_clip(path) -> RawClip:
    with open(path, "rb") as fh:
        header = fh.readline().strip()
        parts = header.split(b" ")
        if parts[:2] != _CLIP_MAGIC.split(b" ") or len(parts) != 11:
            raise ValueError(f"{path}: not a clip file (header {header!r})")
        if parts[2] != b"video" or parts[7] != b"audio" or parts[10] != b"float32":
            raise ValueError(f"{path}: malformed clip header")
        for index, dim in _CLIP_DIMS.items():
            if not parts[index].isdigit() or int(parts[index]) < 1:
                raise ValueError(f"{path}: {dim} must be an integer >= 1, "
                                 f"got {parts[index].decode(errors='replace')!r}")
        t, h, w, c, ta, f = (int(parts[index]) for index in _CLIP_DIMS)
        video_count = t * h * w * c
        audio_count = ta * f
        payload = fh.read()
    expected = 4 * (video_count + audio_count)
    if len(payload) != expected:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    video = np.frombuffer(payload, dtype="<f4", count=video_count).reshape(t, h, w, c)
    audio = np.frombuffer(payload, dtype="<f4", count=audio_count,
                          offset=4 * video_count).reshape(ta, f)
    for name, values in (("video", video), ("audio", audio)):
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: {name} payload holds non-finite values")
    try:
        return RawClip(video.copy(), audio.copy())
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
