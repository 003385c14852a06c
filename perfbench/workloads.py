"""The benchmark's four workloads, each a closed loop with one caller.

A workload sets up ``REPS`` times (data, construction, warm-up) so set-up
time is a median, then times ops for the run's seconds. The training
workloads run through the training loops ``run_pretrain`` and
``run_supervised``; their op boundaries are the loops' per-step log
records, so the step internals can change without touching this file.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
import traceback

import numpy as np

import avmae.losses as losses
import avmae.pretrain as pretrain
import avmae.training as training
from avmae.config import DECODER_MASK_RATIO, PRESET_INPUTS, desk_train_config, preset
from avmae.finetune import FinetuneModel
from avmae.training import MetricsLog, SyntheticTask, gen_synthetic, sample_rng
from speed import REF_UNIT_S, Probe

REPS = 3            # set-ups per run; setup_s is their median
WARMUP_STEPS = 2    # training steps that belong to set-up
N_CLASSES = 4
NOISE = 0.1
N_CLIPS = 32        # training corpus; 4 pretrain / 2 fine-tune steps per epoch
LOSS_WINDOW = 5     # loss_final is the median loss of the steps ending at the fixed step
PRETRAIN_LOSS_STEP = 30
FINETUNE_LOSS_STEP = 40
PREDICT_TRAIN_STEPS = 4
HELD_OUT = 8        # predict cycles over these clips; loss_final is their mean CE
SAMPLE_LOSS_OPS = 3
MIN_OPS = 3


class Stop(Exception):
    """Raised from a training loop's log to end the loop at a step boundary."""


def _clocks() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def _since(start: tuple[float, float]) -> tuple[float, float]:
    """Wall-clock and CPU seconds since ``start``, a ``_clocks()`` reading."""
    wall, cpu = _clocks()
    return wall - start[0], cpu - start[1]


class Session:
    """Clock for one run: set-up repetitions, then a closed loop of ops.

    With a tracer, timed ops alternate between traced (wrappers installed)
    and untraced, so both sets see the same drift in machine speed and the
    difference of their medians is the tracing overhead.

    Each set-up and op is timed twice: by the wall clock, and by the
    process's CPU time, which leaves out time the host did not run the
    process. After each one the speed probe runs, and the ``*_ref`` lists
    hold the CPU times scaled to the reference speed.
    """

    def __init__(self, seconds: float, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.probe = Probe()
        self._unit_s = 0.0
        self.probe_units: list[float] = []
        self.setup_times: list[float] = []
        self.setup_cpu: list[float] = []
        self.setup_ref: list[float] = []
        self.traced: list[float] = []
        self.untraced: list[float] = []
        self.untraced_cpu: list[float] = []
        self.untraced_ref: list[float] = []
        self.min_ops = MIN_OPS
        self.attempted = 0
        self.failed = 0
        self.began = False
        self._tracing = False
        self._setup_start = self._last = (0.0, 0.0)
        self._traced_objects = (None, None)

    def start_setup(self, rep: int):
        if self.tracer is not None:
            self.tracer.op = -1 - rep
        self._setup_start = _clocks()

    def ref(self, seconds: float) -> float:
        """Scale ``seconds`` of CPU time just measured to the reference speed.

        The probe runs now; the work's mean speed is taken as the mean of the
        probe's speeds just before and just after it.
        """
        after = self.probe.sample(seconds)
        self.probe_units.append(after)
        before = self._unit_s or after
        self._unit_s = after
        return seconds * REF_UNIT_S * (1.0 / before + 1.0 / after) / 2.0

    def end_setup(self):
        wall, cpu = _since(self._setup_start)
        self.setup_times.append(wall)
        self.setup_cpu.append(cpu)
        self.setup_ref.append(self.ref(cpu))

    def begin(self, model, optimizer=None):
        """End of the last set-up: start the timed loop."""
        self.end_setup()
        self.began = True
        if self.tracer is not None:
            self.tracer.uninstall()
            self._traced_objects = (model, optimizer)
            self._trace_next_op()
        self._last = _clocks()
        self._t0 = self._last[0]

    def _trace_next_op(self):
        self.tracer.install(*self._traced_objects)
        self.tracer.op = len(self.traced)
        self._tracing = True

    def tick(self) -> bool:
        """Close the op that just ended; return whether to run another."""
        wall, cpu = _since(self._last)
        self.attempted += 1
        if self._tracing:
            self.tracer.uninstall()
            self._tracing = False
            self.traced.append(wall)
            self.ref(cpu)   # the probe runs after every op; traced times stay raw
        else:
            self.untraced.append(wall)
            self.untraced_cpu.append(cpu)
            self.untraced_ref.append(self.ref(cpu))
        done = (time.perf_counter() - self._t0 >= self.seconds
                and len(self.traced) + len(self.untraced) >= self.min_ops
                and len(self.untraced) >= MIN_OPS
                and (self.tracer is None or len(self.traced) >= MIN_OPS))
        if not done and self.tracer is not None and self.untraced \
                and len(self.traced) < len(self.untraced):
            self._trace_next_op()
        self._last = _clocks()
        return not done

    def fail(self):
        traceback.print_exc()
        self.failed += 1
        self.attempted += 1


class StepLog(MetricsLog):
    """In-memory metrics log that reports each training step to a callback."""

    def __init__(self, on_step):
        super().__init__()
        self.on_step = on_step

    def append(self, **record):
        super().append(**record)
        self.on_step(record["step"])


class Result:
    def __init__(self, clips_per_op: int):
        self.clips_per_op = clips_per_op
        self.loss_final = math.nan
        self.losses: list[float] = []
        self.checks: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))


def _tiny_data(seed: int, n: int, start: int = 0):
    video_shape, audio_shape = PRESET_INPUTS["Tiny"]
    task = SyntheticTask(N_CLASSES, video_shape, audio_shape, NOISE, seed)
    if start == 0:
        return gen_synthetic(task, n)
    made = [task.clip(i) for i in range(start, start + n)]
    return [c for c, _ in made], [label for _, label in made]


def _train(session: Session, rep: int, run_loop, loss_step: int) -> list[float] | None:
    """Run one training loop; the last repetition continues into timed steps.

    Returns the logged losses of the last repetition.
    """
    final = rep == REPS - 1
    captured: dict = {}
    if session.tracer is not None and final:
        session.tracer.capture_optimizer(captured)

    def on_step(step):
        if step < WARMUP_STEPS:
            return
        if step == WARMUP_STEPS:
            if not final:
                session.end_setup()
                raise Stop
            session.begin(captured.get("model"), captured.get("optimizer"))
            return
        if not session.tick():
            raise Stop

    session.min_ops = max(MIN_OPS, loss_step - WARMUP_STEPS)
    log = StepLog(on_step)
    try:
        run_loop(log)
    except Stop:
        pass
    except Exception:
        if not session.began:
            raise
        session.fail()
    return [r["loss"] for r in log.records] if final else None


def _timed_loop(session: Session, op):
    """Call op(0), op(1), ... until the session ends; an exception is a failed op.

    As in the training loops, a failed op ends the run.
    """
    i = 0
    while True:
        try:
            op(i)
        except Exception:
            session.fail()
            return
        i += 1
        if not session.tick():
            return


def _training_result(losses_: list[float], clips_per_op: int, loss_step: int) -> Result:
    result = Result(clips_per_op)
    result.losses = losses_
    finite = all(math.isfinite(x) for x in losses_)
    result.check("losses_finite", finite, f"{len(losses_)} step losses")
    if len(losses_) >= loss_step:
        result.loss_final = statistics.median(losses_[loss_step - LOSS_WINDOW:loss_step])
    result.check("reached_loss_step", len(losses_) >= loss_step,
                 f"{len(losses_)} of {loss_step} steps")
    return result


def pretrain_tiny(seed: int, session: Session) -> Result:
    cfg = preset("Tiny")
    video_shape, audio_shape = PRESET_INPUTS["Tiny"]
    tcfg = desk_train_config("pretrain", seed=seed)
    for rep in range(REPS):
        session.start_setup(rep)
        clips, _ = _tiny_data(seed, N_CLIPS)
        losses_ = _train(session, rep, lambda log: training.run_pretrain(
            cfg, tcfg, clips, video_shape, audio_shape, log=log), PRETRAIN_LOSS_STEP)
    return _training_result(losses_, tcfg.batch, PRETRAIN_LOSS_STEP)


def finetune_tiny(seed: int, session: Session) -> Result:
    cfg = preset("Tiny")
    video_shape, audio_shape = PRESET_INPUTS["Tiny"]
    tcfg = desk_train_config("finetune", seed=seed)
    for rep in range(REPS):
        session.start_setup(rep)
        clips, labels = _tiny_data(seed, N_CLIPS)
        model = FinetuneModel(cfg, video_shape, audio_shape, N_CLASSES,
                              rng=sample_rng(seed, 0xF1E7))
        losses_ = _train(session, rep, lambda log: training.run_supervised(
            model, tcfg, clips, labels, log=log), FINETUNE_LOSS_STEP)
    return _training_result(losses_, tcfg.batch, FINETUNE_LOSS_STEP)


def predict_tiny(seed: int, session: Session) -> Result:
    cfg = preset("Tiny")
    video_shape, audio_shape = PRESET_INPUTS["Tiny"]
    tcfg = desk_train_config("finetune", seed=seed)
    for rep in range(REPS):
        session.start_setup(rep)
        clips, labels = _tiny_data(seed, N_CLIPS)
        held, held_labels = _tiny_data(seed, HELD_OUT, start=N_CLIPS)
        model = FinetuneModel(cfg, video_shape, audio_shape, N_CLASSES,
                              rng=sample_rng(seed, 0xF1E7))
        training.run_supervised(model, tcfg, clips, labels, steps=PREDICT_TRAIN_STEPS)
        first = model.predict(held[0])
        if rep < REPS - 1:
            session.end_setup()
            del model
            gc.collect()

    logits = []

    def op(i):
        out = model.predict(held[i % HELD_OUT])
        if i < HELD_OUT:
            logits.append(out)

    session.min_ops = max(MIN_OPS, HELD_OUT)
    session.begin(model)
    _timed_loop(session, op)

    result = Result(1)
    result.check("logits_finite", all(np.all(np.isfinite(x)) for x in logits),
                 f"{len(logits)} held-out predictions")
    again = [model.predict(held[0]), model.predict(held[0])]
    same = all(x.tobytes() == first.tobytes() for x in again + logits[:1])
    result.check("predict_deterministic", same, "repeated predict on one clip is bitwise equal")
    if len(logits) == HELD_OUT:
        result.loss_final, _ = losses.cross_entropy_ls(np.stack(logits), np.asarray(held_labels))
    return result


def sample_b(seed: int, session: Session) -> Result:
    cfg = preset("B")
    video_shape, audio_shape = PRESET_INPUTS["B"]
    task = SyntheticTask(N_CLASSES, video_shape, audio_shape, NOISE, seed)

    def op(model, clips, i):
        pair_v, pair_a = pretrain.make_mask_pairs(cfg, video_shape, audio_shape,
                                                  sample_rng(seed, i, 0))
        res = model.forward_sample(clips[i % len(clips)], pair_v, pair_a)
        total, grads = 0.0, {}
        for modality in ("video", "audio"):
            r = res[modality]
            loss, grads[modality] = losses.masked_mse(
                r["predictions"], r["targets"], DECODER_MASK_RATIO, r["n_tokens"])
            total += loss
        model.backward_sample(grads["video"], grads["audio"], None, None)
        return total

    model = None
    for rep in range(REPS):
        model = None    # release the previous repetition's 1.7 GB first
        gc.collect()
        session.start_setup(rep)
        clips = [task.clip(i)[0] for i in range(2)]
        model = pretrain.PretrainModel(cfg, video_shape, audio_shape,
                                       rng=sample_rng(seed, 0xA11CE))
        op(model, clips, 0)
        if rep < REPS - 1:
            session.end_setup()

    op_losses = []
    session.min_ops = SAMPLE_LOSS_OPS
    session.begin(model)
    _timed_loop(session, lambda i: op_losses.append(op(model, clips, i + 1)))

    result = Result(1)
    result.losses = op_losses
    result.check("losses_finite", all(math.isfinite(x) for x in op_losses),
                 f"{len(op_losses)} sample losses")
    if len(op_losses) >= SAMPLE_LOSS_OPS:
        result.loss_final = statistics.fmean(op_losses[:SAMPLE_LOSS_OPS])
    return result


WORKLOADS = {
    "pretrain_tiny": pretrain_tiny,
    "finetune_tiny": finetune_tiny,
    "predict_tiny": predict_tiny,
    "sample_b": sample_b,
}
