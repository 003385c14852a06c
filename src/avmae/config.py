"""Model-scale presets, training hyperparameters, parsing and validation."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

STAGES = ("pretrain", "post_pretrain", "finetune")

# Encoder masking defaults (tube for video, random for audio) and the shared
# decoder masking ratio.
VIDEO_ENCODER_MASK_RATIO = 0.9
AUDIO_ENCODER_MASK_RATIO = 0.8125
DECODER_MASK_RATIO = 0.5


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
        for name in ("encoder_dim", "decoder_dim", "encoder_heads", "decoder_heads",
                     "fusion_heads", "num_dier_units"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.contrastive_temperature < float("inf"):
            raise ValueError("contrastive_temperature must be positive and finite, "
                             f"got {self.contrastive_temperature}")
        if not 0.0 <= self.contrastive_weight < float("inf"):
            raise ValueError("contrastive_weight must be >= 0 and finite, "
                             f"got {self.contrastive_weight}")
        self.skip_indices = list(self.skip_indices)
        self.video_region = tuple(self.video_region)
        self.audio_region = tuple(self.audio_region)
        self.video_tubelet = tuple(self.video_tubelet)
        self.audio_patch = tuple(self.audio_patch)

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("video_region", "audio_region", "video_tubelet", "audio_patch"):
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
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {self.stage!r}")
        if not 0.0 <= self.layer_decay <= 1.0:
            raise ValueError("layer_decay must lie in [0, 1]")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must lie in [0, 1)")
        if not 0.0 <= self.drop_path < 1.0:
            raise ValueError(f"drop_path must lie in [0, 1), got {self.drop_path}")
        if not 0.0 < self.base_lr < float("inf"):
            raise ValueError(f"base_lr must be positive and finite, got {self.base_lr}")
        if not 0.0 <= self.weight_decay < float("inf"):
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.stage == "pretrain" and (self.drop_path or self.label_smoothing):
            # the reconstruction objective has neither, so a value would be ignored
            raise ValueError("drop_path and label_smoothing must be 0 for the pretrain stage")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        for name in ("epochs", "warmup_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict, base: "TrainConfig | None" = None) -> "TrainConfig":
        return _from_dict(cls, "train", data, base)


def _fits(annotation: str, value) -> bool:
    """Whether a config-file (JSON) value has the type a field is annotated with."""
    if annotation.startswith(("list", "tuple")):
        return (isinstance(value, list) and all(_fits("int", v) for v in value)
                and (annotation == "list[int]" or len(value) == annotation.count("int")))
    kinds = {"int": int, "float": (int, float), "str": str}[annotation]
    return isinstance(value, kinds) and not isinstance(value, bool)


def _from_dict(cls, section: str, data: dict, base):
    """Build ``cls`` from a config-file section, optionally over ``base``."""
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")
    for name, value in data.items():
        if not _fits(types[name], value):
            raise ValueError(f"{section}.{name} must be {types[name]}, "
                             f"got {json.dumps(value)}")
    if base is None:
        missing = set(types) - set(data)
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
    tt, tp, _ = cfg.video_tubelet
    return (t // tt, h // tp, w // tp)


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
