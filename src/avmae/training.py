"""Optimisation and orchestration: decoupled-weight-decay Adam, cosine
schedule with warmup, layer-wise learning-rate decay, the three-stage
progressive training driver, and the deterministic synthetic data generator.

Per-sample RNG streams derive from (seed, step, sample index), so runs are
bitwise reproducible.
"""

from __future__ import annotations

import ctypes
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .atomic import write_atomic
from .blocks import Block, no_tape
from .config import DECODER_MASK_RATIO, ModelConfig, TrainConfig
from .embedding import RawClip, read_clip, write_clip
from .finetune import FinetuneModel
from .losses import cross_entropy_ls, info_nce, masked_mse
from .pretrain import PretrainModel, make_mask_pairs

LR_FLOOR = 1e-6
ADAMW_BETA1 = 0.9
ADAMW_EPS = 1e-8
_ADAMW_CHUNK = 1 << 14  # elements per AdamW pass; sizes its scratch buffers
_EVAL_CHUNK = 16        # clips per forward in train_accuracy
# glibc mallopt parameters, and what a training loop sets them to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 1 << 30
_MMAP_THRESHOLD = 32 << 20


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

    A step updates the model's packed ``data`` and ``grad`` (``Block.pack``)
    in chunks through scratch buffers allocated here, so it allocates
    nothing. Consecutive parameters with one learning-rate scale form a run,
    updated with scalar factors; the arithmetic per element is that of an
    update of each parameter on its own. The moments ``m`` and ``v`` are
    float64: 24 bytes per float32 parameter with the packed arrays.
    """

    def __init__(self, model: Block, beta2: float = 0.95,
                 lr_scales: dict[str, float] | None = None):
        self.params = list(model.named_parameters())
        self.beta2 = beta2
        self.t = 0
        scales = lr_scales or {}
        unknown = sorted(set(scales) - {name for name, _ in self.params})
        if unknown:
            raise ValueError("lr_scales names no parameter: " + ", ".join(unknown))
        self.data, self.grad = model.pack()
        # runs: (start, stop, lr scale) of each maximal stretch of one scale
        self._runs = []
        stop = 0
        for name, p in self.params:
            start, stop = stop, stop + p.size
            scale = scales.get(name, 1.0)
            if self._runs and self._runs[-1][2] == scale:
                self._runs[-1][1] = stop
            else:
                self._runs.append([start, stop, scale])
        self.m = np.zeros(self.data.size, dtype=np.float64)
        self.v = np.zeros(self.data.size, dtype=np.float64)
        n = min(self.data.size, _ADAMW_CHUNK)
        self._wide = [np.empty(n, dtype=np.float64) for _ in range(3)]
        self._narrow = np.empty(n, dtype=self.data.dtype)
        self._finite = np.empty(n, dtype=bool)

    @staticmethod
    def _chunks(start: int, stop: int):
        for lo in range(start, stop, _ADAMW_CHUNK):
            hi = min(lo + _ADAMW_CHUNK, stop)
            yield slice(lo, hi), hi - lo

    def step(self, lr: float, weight_decay: float) -> None:
        for sl, n in self._chunks(0, self.grad.size):
            if not np.isfinite(self.grad[sl], out=self._finite[:n]).all():
                name = next(name for name, p in self.params if not np.isfinite(p.grad).all())
                raise FloatingPointError(f"non-finite gradient in parameter {name}")
        self.t += 1
        b1, b2 = ADAMW_BETA1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for start, stop, scale in self._runs:
            eff_lr = lr * scale
            # cast to the data dtype once, as a Python-float factor would be
            decay = self.data.dtype.type(1.0 - eff_lr * weight_decay)
            for sl, n in self._chunks(start, stop):
                g, tmp, update = (w[:n] for w in self._wide)
                narrow = self._narrow[:n]
                m, v = self.m[sl], self.v[sl]
                # one widening copy: float64 loops over it beat three
                # mixed-dtype multiplies that each cast the gradient
                np.copyto(g, self.grad[sl])
                m *= b1
                np.multiply(1.0 - b1, g, out=tmp)
                m += tmp
                v *= b2
                np.multiply(1.0 - b2, g, out=tmp)
                tmp *= g
                v += tmp
                # update = (m / bc1) / (sqrt(v / bc2) + eps)
                np.divide(v, bc2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += ADAMW_EPS
                np.divide(m, bc1, out=update)
                update /= tmp
                # data *= 1 - eff_lr * wd; data -= eff_lr * update
                data = self.data[sl]
                data *= decay
                update *= eff_lr
                np.copyto(narrow, update, casting="same_kind")
                data -= narrow


def lr_at(step: int, base_lr: float, batch: int, warmup_steps: int,
          total_steps: int) -> float:
    """Linear warmup to the scaled peak, then half-cosine to the floor."""
    peak = base_lr * batch / 256.0
    if step < 0:
        raise ValueError("step must be non-negative")
    if warmup_steps > 0 and step <= warmup_steps:
        return peak * step / warmup_steps
    if step >= total_steps:
        return LR_FLOOR
    span = max(total_steps - warmup_steps, 1)
    progress = (step - warmup_steps) / span
    return LR_FLOOR + (peak - LR_FLOOR) * 0.5 * (1.0 + math.cos(math.pi * progress))


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
    return AdamW(model, beta2=beta2, lr_scales=scales)


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
    made = [task.clip(i) for i in range(n)]
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
        write_atomic(out / "manifest.jsonl",
                     [(json.dumps(rec) + "\n").encode("utf-8") for rec in records])
    return clips, labels


def load_dataset(data_dir):
    data_dir = Path(data_dir)
    manifest = data_dir / "manifest.jsonl"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.jsonl under {data_dir}")
    clips, labels = [], []
    with open(manifest, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            where = f"{manifest} line {number}"
            name, label = _manifest_record(line, where)
            clip = read_clip(data_dir / name)
            if clips and _geometry(clip) != _geometry(clips[0]):
                raise ValueError(f"{where}: {data_dir / name} has {_geometry(clip)}, "
                                 f"unlike the first clip's {_geometry(clips[0])}")
            clips.append(clip)
            labels.append(label)
    if not clips:
        raise ValueError(f"{manifest} lists no clips")
    return clips, labels


def _geometry(clip: RawClip) -> str:
    return f"video {clip.video.shape} and audio {clip.audio.shape}"


def _manifest_record(line: str, where: str) -> tuple[str, int]:
    """The clip file name and label of one manifest line, which must be a
    JSON object with a string ``file`` and an integer ``label`` >= 0; a
    ValueError names ``where`` and the field otherwise."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not JSON ({exc})") from None
    if not isinstance(rec, dict):
        raise ValueError(f"{where}: not a JSON object")
    name, label = rec.get("file"), rec.get("label")
    if not isinstance(name, str):
        raise ValueError(f"{where}: field 'file' must be a string, got {name!r}")
    if type(label) is not int or label < 0:
        raise ValueError(f"{where}: field 'label' must be an integer >= 0, got {label!r}")
    return name, label


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
    """One optimisation step of the reconstruction + contrast objective.

    The batch runs through the model in one forward and one backward pass;
    each clip draws its masks from ``sample_rng(seed, step, clip index)``.
    """
    cfg = model.cfg
    pairs_v, pairs_a = zip(*(make_mask_pairs(cfg, model.video_shape, model.audio_shape,
                                             sample_rng(tcfg.seed, step, clip_idx),
                                             dual_masking=dual_masking)
                             for clip_idx in indices))
    res = model.forward_sample([clips[i] for i in indices], pairs_v, pairs_a)

    b = len(indices)
    mse = {}
    d_preds = {}
    for modality in ("video", "audio"):
        r = res[modality]
        ratio = (DECODER_MASK_RATIO if dual_masking
                 else 1.0 - r["predictions"].shape[1] / r["n_tokens"])
        mse[modality], d_preds[modality] = masked_mse(r["predictions"], r["targets"],
                                                      ratio, r["n_tokens"])

    nce_total = 0.0
    d_pooled = {"video": {}, "audio": {}}
    if b >= 2:
        dtype = d_preds["video"].dtype
        for skip_idx in cfg.skip_indices:
            nce, d_a, d_v = info_nce(res["audio"]["pooled"][skip_idx].astype(np.float64),
                                     res["video"]["pooled"][skip_idx].astype(np.float64),
                                     cfg.contrastive_temperature)
            nce_total += nce
            lam = cfg.contrastive_weight
            d_pooled["audio"][skip_idx] = (lam * d_a).astype(dtype)
            d_pooled["video"][skip_idx] = (lam * d_v).astype(dtype)

    total = mse["audio"] + mse["video"] + cfg.contrastive_weight * nce_total

    model.backward_sample(d_preds["video"], d_preds["audio"],
                          d_pooled["video"], d_pooled["audio"])
    optimizer.step(lr, tcfg.weight_decay)
    model.zero_grad()
    return {"loss": total, "mse_a": mse["audio"], "mse_v": mse["video"], "nce": nce_total}


def _keep_freed_memory() -> None:
    """Make glibc's allocator keep freed memory in the process.

    A step frees what the next step allocates again. By default glibc hands
    the freed top of its heap back to the system at the end of a backward,
    and serves large blocks from maps of their own, so the next step faults
    all those pages in again. A trim threshold of 1 GiB and a map threshold
    of 32 MiB keep them; the peak does not rise, since what is kept is
    reused. The map threshold is set too because setting either freezes
    glibc's adaptive one wherever the process's history left it. Where the
    C library has no ``mallopt`` (not glibc), nothing is set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def _run_loop(tcfg: TrainConfig, n: int, steps: int | None, log: MetricsLog | None,
              stage: str, step_fn) -> MetricsLog:
    """Schedule, batching and logging shared by the training loops.

    ``step_fn(step, indices, lr)`` runs one optimisation step and returns
    ``(record, stop)``: the fields to log and whether to end the run there.
    """
    _keep_freed_memory()
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
    rngs = [sample_rng(tcfg.seed, step, clip_idx) for clip_idx in indices]
    logits = model.forward_sample([clips[i] for i in indices], rngs=rngs,
                                  drop_path=tcfg.drop_path, training=True)
    batch_labels = np.asarray([labels[i] for i in indices])
    loss, d_logits = cross_entropy_ls(logits, batch_labels, tcfg.label_smoothing)
    model.backward_sample(d_logits)
    optimizer.step(lr, tcfg.weight_decay)
    model.zero_grad()
    acc = float(np.mean(np.argmax(logits, axis=1) == batch_labels))
    return {"loss": loss, "acc": acc}


def train_accuracy(model: FinetuneModel, clips, labels) -> float:
    """Eval-mode accuracy, in chunks; each clip's logits are its ``predict``'s."""
    hits = 0
    for start in range(0, len(clips), _EVAL_CHUNK):
        with no_tape():
            logits = model.forward_sample(clips[start:start + _EVAL_CHUNK], training=False)
        chunk_labels = np.asarray(labels[start:start + _EVAL_CHUNK])
        hits += int(np.sum(np.argmax(logits, axis=1) == chunk_labels))
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
    ``out_dir`` is made only once the checkpoint is read and warm-started
    from, so a bad checkpoint leaves nothing behind.
    """
    if tcfg.stage != stage:
        raise ValueError(f"train config is for stage {tcfg.stage!r}, not {stage!r}")
    if stage != "pretrain":
        if checkpoint_in is None:
            raise ValueError(f"stage {stage!r} requires an input checkpoint")
        clips, labels = data
        manifest, entries = ckpt.load(checkpoint_in)
        ckpt.check_config(manifest, cfg)
        model = FinetuneModel(cfg, video_shape, audio_shape, int(max(labels)) + 1,
                              rng=sample_rng(tcfg.seed, 0xF1E7))
        warm_start(model, entries, manifest.get("stage"), tcfg.seed)
        del manifest, entries   # the input checkpoint: not read past the warm start
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log = MetricsLog(out_dir / "metrics.jsonl")
    ckpt_path = out_dir / "checkpoint.avck"

    if stage == "pretrain":
        model, _ = run_pretrain(cfg, tcfg, data, video_shape, audio_shape,
                                steps=steps, log=log)
        ckpt.save(ckpt_path, model, cfg, stage)
        return ckpt_path, log

    log, _ = run_supervised(model, tcfg, clips, labels, steps=steps, log=log)
    ckpt.save(ckpt_path, model, cfg, stage)
    return ckpt_path, log
