"""Optimisation and orchestration: decoupled-weight-decay Adam, cosine
schedule with warmup, layer-wise learning-rate decay, the three-stage
progressive training driver, and the deterministic synthetic data generator.

Per-sample RNG streams derive from (seed, step, sample index), so runs are
bitwise reproducible regardless of worker-thread count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .blocks import Block
from .config import DECODER_MASK_RATIO, ModelConfig, TrainConfig
from .embedding import RawClip, read_clip, write_clip
from .finetune import FinetuneModel
from .losses import cross_entropy_ls, info_nce, masked_mse
from .pretrain import PretrainModel, make_mask_pairs

LR_FLOOR = 1e-6


def worker_count() -> int:
    value = os.environ.get("AVMAE_THREADS", "")
    if value.strip():
        return max(1, int(value))
    return max(1, os.cpu_count() or 1)


def sample_rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


# ---------------------------------------------------------------------------
# optimiser
# ---------------------------------------------------------------------------


class AdamW:
    """Adaptive moments with decoupled weight decay.

    Decay multiplies parameters by (1 - lr * wd) independently of the
    gradient path; per-parameter learning-rate multipliers implement
    layer-wise decay.
    """

    def __init__(self, named_params, beta1: float = 0.9, beta2: float = 0.95,
                 eps: float = 1e-8, lr_scales: dict[str, float] | None = None):
        self.params = list(named_params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.lr_scales = lr_scales or {}
        self.t = 0
        self.m = {name: np.zeros_like(p.data, dtype=np.float64)
                  for name, p in self.params}
        self.v = {name: np.zeros_like(p.data, dtype=np.float64)
                  for name, p in self.params}

    def step(self, lr: float, weight_decay: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise FloatingPointError(f"non-finite gradient in parameter {name}")
            g = p.grad.astype(np.float64)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            eff_lr = lr * self.lr_scales.get(name, 1.0)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data *= 1.0 - eff_lr * weight_decay
            p.data -= (eff_lr * update).astype(p.data.dtype)


def lr_at(step: int, base_lr: float, batch: int, warmup_steps: int,
          total_steps: int, floor: float = LR_FLOOR) -> float:
    """Linear warmup to the scaled peak, then half-cosine to the floor."""
    peak = base_lr * batch / 256.0
    if step < 0:
        raise ValueError("step must be non-negative")
    if warmup_steps > 0 and step <= warmup_steps:
        return peak * step / warmup_steps
    if step >= total_steps:
        return floor
    span = max(total_steps - warmup_steps, 1)
    progress = (step - warmup_steps) / span
    return floor + (peak - floor) * 0.5 * (1.0 + math.cos(math.pi * progress))


def layer_decay_scales(model: Block, cfg: ModelConfig, decay: float) -> dict[str, float]:
    """Depth-indexed multipliers: embeddings deepest-discounted, head at 1.

    Embedding parameters (and the learnable region tokens they feed) sit at
    depth 0, encoder layer n at depth n + 1, and everything downstream
    (fusion, decoders, the correlation head) at depth D = encoder depth + 1.
    """
    depth_total = cfg.encoder_depth + 1
    scales = {}
    for name, _ in model.named_parameters():
        if name.startswith(("video_embed.", "audio_embed.")) or \
                name.endswith("region_tokens"):
            depth = 0
        elif ".layers." in name and name.startswith(("video_encoder.", "audio_encoder.")):
            layer_idx = int(name.split(".layers.")[1].split(".")[0])
            depth = layer_idx + 1
        else:
            depth = depth_total
        scales[name] = decay ** (depth_total - depth)
    return scales


def optimizer_for(model: Block, cfg: ModelConfig, tcfg: TrainConfig) -> AdamW:
    beta2 = 0.95 if tcfg.stage == "pretrain" else 0.999
    scales = None
    if tcfg.layer_decay < 1.0:
        scales = layer_decay_scales(model, cfg, tcfg.layer_decay)
    return AdamW(model.named_parameters(), beta1=0.9, beta2=beta2,
                 lr_scales=scales)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


@dataclass
class SyntheticTask:
    """Paired audio-visual patterns, one deterministic family per class.

    Each class couples a moving bright block with a spectrogram band ridge.
    Classes come in pairs that share trajectory, colour and frequency band
    and differ only in fill texture (solid vs hollow block, smooth vs
    striped ridge), so telling paired classes apart needs local structure
    rather than pooled energy statistics. The audio and video patterns are
    deterministically coupled per sample and classes remain linearly
    separable from raw pixels at zero noise.
    """

    n_classes: int
    video_shape: tuple[int, int, int] = (8, 32, 32)
    audio_shape: tuple[int, int] = (32, 16)
    noise: float = 0.0
    seed: int = 0

    def clip(self, index: int) -> tuple[RawClip, int]:
        label = index % self.n_classes
        rng = sample_rng(self.seed, index)
        t, h, w = self.video_shape
        ta, f = self.audio_shape
        group = label // 2           # shared trajectory / colour / band
        hollow = label % 2 == 1      # texture distinguishes within a pair
        n_groups = (self.n_classes + 1) // 2

        video = np.full((t, h, w, 3), 0.05, dtype=np.float32)
        block = max(4, h // 4)
        directions = [(2, 2), (2, -2), (-2, 2), (-2, -2), (0, 3), (3, 0), (0, -3), (-3, 0)]
        vy, vx = directions[group % len(directions)]
        color = np.array([0.9 if group % 3 == c else 0.55 for c in range(3)],
                         dtype=np.float32)
        cy = (h - block) // 2 + int(rng.integers(-2, 3))
        cx = (w - block) // 2 + int(rng.integers(-2, 3))
        for frame in range(t):
            y = (cy + vy * frame) % (h - block + 1)
            x = (cx + vx * frame) % (w - block + 1)
            video[frame, y:y + block, x:x + block, :] = color
            if hollow:
                pad = block // 4
                video[frame, y + pad:y + block - pad,
                      x + pad:x + block - pad, :] = 0.05

        audio = np.full((ta, f), -0.5, dtype=np.float32)
        center = int(round((group + 1) * f / (n_groups + 1)))
        center = min(max(center, 1), f - 2)
        width = max(1, f // 10)
        phase = 2.0 * math.pi * group / max(self.n_classes, 1) + float(rng.uniform(0, 0.5))
        ridge = 1.5 + 0.3 * np.sin(2.0 * math.pi * np.arange(ta) / 8.0 + phase)
        if hollow:
            stripes = np.where(np.arange(ta) // 2 % 2 == 0, 0.6, -0.6)
            ridge = ridge + stripes
        audio[:, center - width:center + width + 1] = ridge[:, None]

        if self.noise > 0:
            video = video + rng.normal(0.0, self.noise, video.shape).astype(np.float32)
            audio = audio + rng.normal(0.0, self.noise, audio.shape).astype(np.float32)
        video = np.clip(video, 0.0, 1.0)
        return RawClip(video.astype(np.float32), audio.astype(np.float32)), label


def gen_synthetic(task: SyntheticTask, n: int, out_dir=None):
    """Produce n clips (optionally written as clip files plus a manifest)."""
    indices = list(range(n))
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        made = list(pool.map(task.clip, indices))
    clips = [clip for clip, _ in made]
    labels = [label for _, label in made]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        records = []
        for i, clip in enumerate(clips):
            name = f"clip_{i:05d}.avclip"
            write_clip(out / name, clip)
            records.append({"index": i, "file": name, "label": labels[i]})
        with open(out / "manifest.jsonl", "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    return clips, labels


def load_dataset(data_dir):
    data_dir = Path(data_dir)
    manifest = data_dir / "manifest.jsonl"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.jsonl under {data_dir}")
    clips, labels = [], []
    with open(manifest, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            clips.append(read_clip(data_dir / rec["file"]))
            labels.append(int(rec["label"]))
    if not clips:
        raise ValueError(f"{manifest} lists no clips")
    return clips, labels


# ---------------------------------------------------------------------------
# metrics log
# ---------------------------------------------------------------------------

_METRIC_FIELDS = ("step", "stage", "loss", "mse_a", "mse_v", "nce", "lr", "acc")


def format_metric(record: dict) -> str:
    ordered = {key: record.get(key) for key in _METRIC_FIELDS}
    return json.dumps(ordered, separators=(",", ":"))


class MetricsLog:
    """Append-only line-delimited records with a stable field order."""

    def __init__(self, path=None):
        self.path = Path(path) if path else None
        self.records: list[dict] = []
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")

    def append(self, **record):
        self.records.append(record)
        if self.path:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(format_metric(record) + "\n")

    def lines(self) -> list[str]:
        return [format_metric(r) for r in self.records]


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def batch_indices(step: int, batch: int, n: int) -> list[int]:
    return [(step * batch + j) % n for j in range(batch)]


def pretrain_step(model: PretrainModel, clips, indices, step: int,
                  tcfg: TrainConfig, optimizer: AdamW, lr: float,
                  dual_masking: bool = True) -> dict:
    """One optimisation step of the reconstruction + contrast objective."""
    cfg = model.cfg
    results = []
    for j, clip_idx in enumerate(indices):
        rng = sample_rng(tcfg.seed, step, clip_idx)
        pair_v, pair_a = make_mask_pairs(cfg, model.video_shape, model.audio_shape,
                                         rng, dual_masking=dual_masking)
        results.append(model.forward_sample(clips[clip_idx], pair_v, pair_a))

    b = len(results)
    mse_terms = {"video": [], "audio": []}
    d_preds = {"video": [], "audio": []}
    for res in results:
        for modality in ("video", "audio"):
            r = res[modality]
            ratio = (DECODER_MASK_RATIO if dual_masking
                     else 1.0 - r["predictions"].shape[0] / r["n_tokens"])
            loss, d_pred = masked_mse(r["predictions"], r["targets"], ratio,
                                      r["n_tokens"])
            mse_terms[modality].append(loss)
            d_preds[modality].append(d_pred / b)
    mse_v = float(np.mean(mse_terms["video"]))
    mse_a = float(np.mean(mse_terms["audio"]))

    nce_total = 0.0
    d_pooled = [(None, None)] * b
    if b >= 2:
        d_pooled = [({}, {}) for _ in range(b)]
        for skip_idx in cfg.skip_indices:
            feats_a = np.stack([res["audio"]["pooled"][skip_idx] for res in results])
            feats_v = np.stack([res["video"]["pooled"][skip_idx] for res in results])
            nce, d_a, d_v = info_nce(feats_a.astype(np.float64),
                                     feats_v.astype(np.float64),
                                     cfg.contrastive_temperature)
            nce_total += nce
            lam = cfg.contrastive_weight
            for j in range(b):
                d_pooled[j][0][skip_idx] = (lam * d_a[j]).astype(d_preds["video"][j].dtype)
                d_pooled[j][1][skip_idx] = (lam * d_v[j]).astype(d_preds["video"][j].dtype)

    total = mse_a + mse_v + cfg.contrastive_weight * nce_total

    for j in reversed(range(b)):
        pooled_a, pooled_v = d_pooled[j]
        model.backward_sample(d_preds["video"][j], d_preds["audio"][j],
                              pooled_v, pooled_a)
    optimizer.step(lr, tcfg.weight_decay)
    model.zero_grad()
    return {"loss": total, "mse_a": mse_a, "mse_v": mse_v, "nce": nce_total}


def _run_loop(tcfg: TrainConfig, n: int, steps: int | None, log: MetricsLog | None,
              stage: str, step_fn) -> MetricsLog:
    """Schedule, batching and logging shared by the training loops.

    ``step_fn(step, indices, lr)`` runs one optimisation step and returns
    ``(record, stop)``: the fields to log and whether to end the run there.
    """
    log = log or MetricsLog()
    spe = max(1, math.ceil(n / tcfg.batch))
    total_steps = steps if steps is not None else tcfg.epochs * spe
    warmup_steps = tcfg.warmup_epochs * spe
    for step in range(1, total_steps + 1):
        lr = lr_at(step, tcfg.base_lr, tcfg.batch, warmup_steps, total_steps)
        idx = batch_indices(step - 1, min(tcfg.batch, n), n)
        record, stop = step_fn(step, idx, lr)
        log.append(step=step, stage=stage, lr=round(lr, 12), **record)
        if stop:
            break
    return log


def run_pretrain(cfg: ModelConfig, tcfg: TrainConfig, clips, video_shape,
                 audio_shape, steps: int | None = None,
                 log: MetricsLog | None = None) -> tuple[PretrainModel, MetricsLog]:
    model = PretrainModel(cfg, video_shape, audio_shape,
                          rng=sample_rng(tcfg.seed, 0xA11CE))
    optimizer = optimizer_for(model, cfg, tcfg)

    def step_fn(step, idx, lr):
        stats = pretrain_step(model, clips, idx, step, tcfg, optimizer, lr)
        return dict(loss=round(stats["loss"], 10), mse_a=round(stats["mse_a"], 10),
                    mse_v=round(stats["mse_v"], 10), nce=round(stats["nce"], 10),
                    acc=None), False

    return model, _run_loop(tcfg, len(clips), steps, log, "pretrain", step_fn)


def supervised_step(model: FinetuneModel, clips, labels, indices, step: int,
                    tcfg: TrainConfig, optimizer: AdamW, lr: float) -> dict:
    logits = []
    for clip_idx in indices:
        rng = sample_rng(tcfg.seed, step, clip_idx)
        logits.append(model.forward_sample(clips[clip_idx], rng=rng,
                                           drop_path=tcfg.drop_path, training=True))
    logits = np.stack(logits)
    batch_labels = np.asarray([labels[i] for i in indices])
    loss, d_logits = cross_entropy_ls(logits, batch_labels, tcfg.label_smoothing)
    for j in reversed(range(len(indices))):
        model.backward_sample(d_logits[j])
    optimizer.step(lr, tcfg.weight_decay)
    model.zero_grad()
    acc = float(np.mean(np.argmax(logits, axis=1) == batch_labels))
    return {"loss": loss, "acc": acc}


def train_accuracy(model: FinetuneModel, clips, labels) -> float:
    hits = 0
    for clip, label in zip(clips, labels):
        hits += int(np.argmax(model.predict(clip)) == label)
    return hits / len(clips)


def run_supervised(model: FinetuneModel, tcfg: TrainConfig, clips, labels,
                   steps: int | None = None, log: MetricsLog | None = None,
                   eval_every: int = 0, stop_at_accuracy: float | None = None):
    """Optimise the task loss; optionally stop once train accuracy is hit.

    Returns (log, steps_to_stop) where steps_to_stop is the first evaluated
    step whose full-train-set accuracy reached the threshold (None if never).
    """
    optimizer = optimizer_for(model, model.cfg, tcfg)
    reached = None

    def step_fn(step, idx, lr):
        nonlocal reached
        stats = supervised_step(model, clips, labels, idx, step, tcfg, optimizer, lr)
        acc = stats["acc"]
        if eval_every and step % eval_every == 0:
            acc = train_accuracy(model, clips, labels)
            if stop_at_accuracy is not None and acc >= stop_at_accuracy:
                reached = step
        return dict(loss=round(stats["loss"], 10), mse_a=None, mse_v=None,
                    nce=None, acc=round(acc, 6)), reached is not None

    log = _run_loop(tcfg, len(clips), steps, log, tcfg.stage, step_fn)
    return log, reached


def warm_start(model: FinetuneModel, tensors: dict, source_stage: str, seed: int) -> None:
    """Stage-transfer policy for the supervised stages.

    From a pretrain checkpoint only the embeddings and modality encoders
    carry over (fusion, decoders and mask tokens have no place here). From a
    supervised checkpoint the IAV-CL head carries over too, except its
    output layer, which is re-initialised for the new label set.
    """
    encoders = ("video_embed.", "audio_embed.", "video_encoder.", "audio_encoder.")
    if source_stage == "pretrain":
        ckpt.transfer(model, tensors, include_prefixes=encoders)
        return
    ckpt.transfer(model, tensors, include_prefixes=encoders + ("iavcl.",),
                  exclude_prefixes=("iavcl.head.",))
    model.iavcl.reinit_head(sample_rng(seed, 0x4EAD))


def run_stage(stage: str, cfg: ModelConfig, tcfg: TrainConfig, data,
              video_shape, audio_shape, out_dir, checkpoint_in=None,
              steps: int | None = None):
    """Drive one stage of the progressive pipeline and persist the result.

    data: list of RawClip for pretrain, (clips, labels) for the supervised
    stages. Later stages require a checkpoint, which ``warm_start`` loads.
    """
    if tcfg.stage != stage:
        raise ValueError(f"train config is for stage {tcfg.stage!r}, not {stage!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log = MetricsLog(out_dir / "metrics.jsonl")
    ckpt_path = out_dir / "checkpoint.avck"

    if stage == "pretrain":
        model, _ = run_pretrain(cfg, tcfg, data, video_shape, audio_shape,
                                steps=steps, log=log)
        ckpt.save(ckpt_path, model, cfg, stage)
        return ckpt_path, log

    if checkpoint_in is None:
        raise ValueError(f"stage {stage!r} requires an input checkpoint")
    clips, labels = data
    model = FinetuneModel(cfg, video_shape, audio_shape, int(max(labels)) + 1,
                          rng=sample_rng(tcfg.seed, 0xF1E7))
    manifest, entries = ckpt.load(checkpoint_in)
    ckpt.check_config(manifest, cfg)
    warm_start(model, entries, manifest.get("stage"), tcfg.seed)
    log, _ = run_supervised(model, tcfg, clips, labels, steps=steps, log=log)
    ckpt.save(ckpt_path, model, cfg, stage)
    return ckpt_path, log
