"""Model-scale presets, training hyperparameters, parsing and validation."""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Callable

STAGES = ("pretrain", "post_pretrain", "finetune")

# Encoder masking defaults (tube for video, random for audio) and the shared
# decoder masking ratio.
VIDEO_ENCODER_MASK_RATIO = 0.9
AUDIO_ENCODER_MASK_RATIO = 0.8125
DECODER_MASK_RATIO = 0.5


@dataclass(frozen=True)
class Domain:
    """The values a config field or a CLI flag may take."""

    fits: Callable[[object], bool]
    text: str  # completes "must be ...", e.g. "an integer >= 1"
    read: Callable[[str], object]  # a flag's text as a value, maybe outside

    def parse(self, text: str):
        """An argparse ``type=`` converter: the flag's text as a value in the
        domain, or an error that makes argparse exit 2 naming the flag."""
        try:
            if self.fits(value := self.read(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {self.text}, got {text}")


def number(kind: type, low, high=math.inf, *, open_low=False,
           closed_high=False) -> Domain:
    """An int (``kind=int``), or an int or float (``kind=float``), in the
    interval from ``low`` to ``high``, by default ``[low, high)``. A bool is
    neither kind, and NaN lies in no interval."""
    def fits(value) -> bool:
        return (type(value) in (int, kind)
                and (low < value if open_low else low <= value)
                and (value <= high if closed_high else value < high))
    real = "a finite number" if high == math.inf else "a number"
    bound = (f"{'>' if open_low else '>='} {low}" if high == math.inf else
             f"in {'(' if open_low else '['}{low}, {high}{']' if closed_high else ')'}")
    return Domain(fits, f"{'an integer' if kind is int else real} {bound}", kind)


def numbers(item: Domain, length: int | None = None) -> Domain:
    """A list (or tuple) of values in ``item``, of ``length`` when given; a
    flag writes one as comma-separated values."""
    def fits(value) -> bool:
        return (isinstance(value, (list, tuple)) and length in (None, len(value))
                and all(map(item.fits, value)))
    return Domain(fits, f"a list of {length or 'any number of'} values, each {item.text}",
                  lambda text: tuple(map(item.read, text.split(","))))


_COUNT, _INDEX, _FRACTION = number(int, 1), number(int, 0), number(float, 0, 1)
_TUPLE_FIELDS = ("video_region", "audio_region", "video_tubelet", "audio_patch")

# The domain of every ModelConfig and TrainConfig field but ``stage``, which
# is one of STAGES.
DOMAINS = {
    "encoder_dim": _COUNT, "encoder_heads": _COUNT, "encoder_depth": _COUNT,
    "decoder_dim": _COUNT, "decoder_heads": _COUNT, "decoder_depth": _INDEX,
    "fusion_heads": _COUNT, "fusion_depth": _INDEX,
    "skip_indices": numbers(_INDEX),
    "video_region": numbers(_COUNT, 3), "audio_region": numbers(_COUNT, 2),
    "video_tubelet": numbers(_COUNT, 3), "audio_patch": numbers(_COUNT, 2),
    "num_dier_units": _COUNT,
    "contrastive_temperature": number(float, 0, open_low=True),
    "contrastive_weight": number(float, 0),
    "base_lr": number(float, 0, open_low=True), "weight_decay": number(float, 0),
    "warmup_epochs": _INDEX, "epochs": _INDEX, "batch": _COUNT,
    "layer_decay": number(float, 0, 1, closed_high=True),
    "label_smoothing": _FRACTION, "drop_path": _FRACTION, "seed": _INDEX,
}


def _check_domains(cfg) -> None:
    for f in fields(cfg):
        domain = DOMAINS.get(f.name)
        if domain and not domain.fits(value := getattr(cfg, f.name)):
            raise ValueError(f"{f.name} must be {domain.text}, got {value!r}")


@dataclass
class ModelConfig:
    """Architectural hyperparameters for one model scale."""

    encoder_dim: int
    encoder_heads: int
    encoder_depth: int
    decoder_dim: int
    decoder_heads: int
    decoder_depth: int
    fusion_heads: int
    fusion_depth: int
    skip_indices: list[int]
    video_region: tuple[int, int, int]
    audio_region: tuple[int, int]
    video_tubelet: tuple[int, int, int]
    audio_patch: tuple[int, int]
    num_dier_units: int
    contrastive_temperature: float
    contrastive_weight: float

    def __post_init__(self):
        _check_domains(self)
        self.skip_indices = list(self.skip_indices)
        for name in _TUPLE_FIELDS:
            setattr(self, name, tuple(getattr(self, name)))

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in _TUPLE_FIELDS:
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, data: dict, base: "ModelConfig | None" = None) -> "ModelConfig":
        return _from_dict(cls, "model", data, base)


@dataclass
class TrainConfig:
    """One training stage's optimisation hyperparameters."""

    base_lr: float
    weight_decay: float
    warmup_epochs: int
    epochs: int
    batch: int
    layer_decay: float
    label_smoothing: float
    drop_path: float
    seed: int
    stage: str

    def __post_init__(self):
        _check_domains(self)
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {self.stage!r}")
        if self.stage == "pretrain" and (self.drop_path or self.label_smoothing):
            # the reconstruction objective has neither, so a value would be ignored
            raise ValueError("drop_path and label_smoothing must be 0 for the pretrain stage")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict, base: "TrainConfig | None" = None) -> "TrainConfig":
        return _from_dict(cls, "train", data, base)


def _from_dict(cls, section: str, data: dict, base):
    """Build ``cls`` from a config-file section, optionally over ``base``."""
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")
    if base is None:
        missing = names - set(data)
        if missing:
            raise ValueError(f"missing {section} config keys: {sorted(missing)}")
        merged = dict(data)
    else:
        merged = base.to_dict()
        merged.update(data)
    return cls(**merged)


_PRESETS = {
    "B": dict(encoder_dim=512, encoder_heads=8, encoder_depth=10,
              decoder_dim=384, decoder_heads=6, decoder_depth=4,
              fusion_heads=8, fusion_depth=2, skip_indices=[3, 6, 9],
              video_region=(2, 5, 10), audio_region=(4, 4),
              video_tubelet=(2, 16, 16), audio_patch=(16, 16),
              num_dier_units=2, contrastive_temperature=0.07,
              contrastive_weight=0.0025),
    "L": dict(encoder_dim=640, encoder_heads=10, encoder_depth=12,
              decoder_dim=512, decoder_heads=8, decoder_depth=4,
              fusion_heads=10, fusion_depth=2, skip_indices=[3, 7, 11],
              video_region=(2, 5, 10), audio_region=(4, 4),
              video_tubelet=(2, 16, 16), audio_patch=(16, 16),
              num_dier_units=2, contrastive_temperature=0.07,
              contrastive_weight=0.0025),
    "H": dict(encoder_dim=768, encoder_heads=12, encoder_depth=15,
              decoder_dim=640, decoder_heads=8, decoder_depth=4,
              fusion_heads=12, fusion_depth=2, skip_indices=[4, 9, 14],
              video_region=(2, 5, 10), audio_region=(4, 4),
              video_tubelet=(2, 16, 16), audio_patch=(16, 16),
              num_dier_units=2, contrastive_temperature=0.07,
              contrastive_weight=0.0025),
    # Desk-scale preset: geometry chosen so every divisibility constraint of
    # the 8x32x32 video / 32x16 audio inputs holds and both modalities tile
    # into the same region count (the fusion head concatenates region-wise).
    "Tiny": dict(encoder_dim=32, encoder_heads=4, encoder_depth=4,
                 decoder_dim=16, decoder_heads=2, decoder_depth=1,
                 fusion_heads=4, fusion_depth=1, skip_indices=[1, 3],
                 video_region=(2, 2, 4), audio_region=(2, 1),
                 video_tubelet=(2, 8, 8), audio_patch=(8, 8),
                 num_dier_units=2, contrastive_temperature=0.07,
                 contrastive_weight=0.0025),
}

# Default clip geometry per preset: (T, H, W) video and (T_a, F) audio.
PRESET_INPUTS = {
    "B": ((16, 160, 160), (256, 128)),
    "L": ((16, 160, 160), (256, 128)),
    "H": ((16, 160, 160), (256, 128)),
    "Tiny": ((8, 32, 32), (32, 16)),
}


def preset(name: str) -> ModelConfig:
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    return ModelConfig(**_PRESETS[name])


def preset_names():
    return tuple(_PRESETS)


def video_grid(cfg: ModelConfig, video_shape) -> tuple[int, int, int]:
    t, h, w = video_shape
    tt, th, tw = cfg.video_tubelet
    return (t // tt, h // th, w // tw)


def audio_grid(cfg: ModelConfig, audio_shape) -> tuple[int, int]:
    ta, f = audio_shape
    pt, pf = cfg.audio_patch
    return (ta // pt, f // pf)


def region_count(grid, region) -> int:
    k = 1
    for g, r in zip(grid, region):
        k *= g // r
    return k


def validate(cfg: ModelConfig, video_shape, audio_shape) -> list[str]:
    """Collect every constraint violation (empty list means valid)."""
    errors = []
    if cfg.encoder_dim % 2 != 0:
        # the last chunk of the sin-cos positional codes has the dim's parity
        errors.append(f"encoder_dim {cfg.encoder_dim} must be even")
    if cfg.encoder_dim % cfg.encoder_heads != 0:
        errors.append(f"encoder_dim {cfg.encoder_dim} not divisible by "
                      f"encoder_heads {cfg.encoder_heads}")
    if cfg.decoder_dim % cfg.decoder_heads != 0:
        errors.append(f"decoder_dim {cfg.decoder_dim} not divisible by "
                      f"decoder_heads {cfg.decoder_heads}")
    if cfg.encoder_dim % cfg.fusion_heads != 0:
        errors.append(f"encoder_dim {cfg.encoder_dim} not divisible by "
                      f"fusion_heads {cfg.fusion_heads}")
    if sorted(set(cfg.skip_indices)) != cfg.skip_indices:
        errors.append(f"skip_indices {cfg.skip_indices} not strictly increasing")
    if any(i < 0 or i >= cfg.encoder_depth for i in cfg.skip_indices):
        errors.append(f"skip_indices {cfg.skip_indices} outside encoder depth "
                      f"{cfg.encoder_depth}")

    t, h, w = video_shape
    tt, tp1, tp2 = cfg.video_tubelet
    if t % 2 != 0:
        errors.append(f"video frame count {t} must be even")
    for value, div, label in ((t, tt, "frames/tubelet_t"), (h, tp1, "height/patch"),
                              (w, tp2, "width/patch")):
        if value % div != 0:
            errors.append(f"video {label}: {value} not divisible by {div}")
    if not errors or all("video" not in e for e in errors):
        grid = video_grid(cfg, video_shape)
        for g, r, label in zip(grid, cfg.video_region, ("t", "h", "w")):
            if g % r != 0:
                errors.append(f"video grid {label}={g} not divisible by region {r}")

    ta, f = audio_shape
    pt, pf = cfg.audio_patch
    for value, div, label in ((ta, pt, "time/patch"), (f, pf, "freq/patch")):
        if value % div != 0:
            errors.append(f"audio {label}: {value} not divisible by {div}")
    if all("audio" not in e for e in errors):
        agrid = audio_grid(cfg, audio_shape)
        for g, r, label in zip(agrid, cfg.audio_region, ("t", "f")):
            if g % r != 0:
                errors.append(f"audio grid {label}={g} not divisible by region {r}")

    if not errors:
        kv = region_count(video_grid(cfg, video_shape), cfg.video_region)
        ka = region_count(audio_grid(cfg, audio_shape), cfg.audio_region)
        if kv != ka:
            errors.append(f"region counts differ: video {kv} vs audio {ka} "
                          "(fusion head requires equal counts)")
    return errors


def fullscale_train_config(stage: str, seed: int = 0) -> TrainConfig:
    """Full-scale optimisation settings for the three stages."""
    if stage == "pretrain":
        return TrainConfig(base_lr=1.5e-4, weight_decay=0.05, warmup_epochs=20,
                           epochs=200, batch=164, layer_decay=1.0,
                           label_smoothing=0.0, drop_path=0.0, seed=seed,
                           stage="pretrain")
    if stage == "post_pretrain":
        return TrainConfig(base_lr=1e-3, weight_decay=0.05, warmup_epochs=5,
                           epochs=100, batch=32, layer_decay=0.75,
                           label_smoothing=0.1, drop_path=0.15, seed=seed,
                           stage="post_pretrain")
    if stage == "finetune":
        return TrainConfig(base_lr=5e-4, weight_decay=0.05, warmup_epochs=5,
                           epochs=100, batch=32, layer_decay=0.75,
                           label_smoothing=0.1, drop_path=0.1, seed=seed,
                           stage="finetune")
    raise ValueError(f"unknown stage {stage!r}")


def desk_train_config(stage: str, seed: int = 0) -> TrainConfig:
    """Desk-scale budgets sized for the Tiny preset on synthetic data.

    Peak learning rate follows the linear scaling rule
    (base_lr * batch / 256), so the base rates here are large to compensate
    for small batches.
    """
    if stage == "pretrain":
        return TrainConfig(base_lr=0.2, weight_decay=0.05, warmup_epochs=20,
                           epochs=200, batch=8, layer_decay=1.0,
                           label_smoothing=0.0, drop_path=0.0, seed=seed,
                           stage="pretrain")
    if stage == "post_pretrain":
        return TrainConfig(base_lr=0.08, weight_decay=0.05, warmup_epochs=10,
                           epochs=150, batch=16, layer_decay=0.75,
                           label_smoothing=0.1, drop_path=0.15, seed=seed,
                           stage="post_pretrain")
    if stage == "finetune":
        return TrainConfig(base_lr=0.08, weight_decay=0.05, warmup_epochs=10,
                           epochs=300, batch=16, layer_decay=0.75,
                           label_smoothing=0.1, drop_path=0.1, seed=seed,
                           stage="finetune")
    raise ValueError(f"unknown stage {stage!r}")


def load_config_file(path) -> tuple[dict | None, dict | None]:
    """Read a JSON config file with optional "model" and "train" sections."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must contain a JSON object")
    unknown = set(raw) - {"model", "train"}
    if unknown:
        raise ValueError(f"unknown top-level config keys: {sorted(unknown)}")
    for section in ("model", "train"):
        if not isinstance(raw.get(section, {}), dict):
            raise ValueError(f"config section {section!r} must be a JSON object, "
                             f"got {type(raw[section]).__name__}")
    return raw.get("model"), raw.get("train")
