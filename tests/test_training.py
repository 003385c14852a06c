"""Optimiser, schedule, layer decay, synthetic data, stage driver."""

import ctypes
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from avmae import checkpoint as ckpt
from avmae import training
from avmae.blocks import Block, FeedForward, Parameter
from avmae.config import desk_train_config, preset
from avmae.finetune import FinetuneModel
from avmae.training import (AdamW, MetricsLog, SyntheticTask, batch_indices,
                            gen_synthetic, layer_decay_scales, load_dataset,
                            lr_at, run_pretrain, run_stage, run_supervised,
                            sample_rng)

from oracles import OracleAdamW
from registry_runs import property_result


def tiny_finetune_model():
    return FinetuneModel(preset("Tiny"), (8, 32, 32), (32, 16), 4, rng=sample_rng(0))


def holding(*named):
    """A block that holds the named parameters, in order."""
    block = Block()
    for name, p in named:
        setattr(block, name, p)
    return block


class TestAdamW:
    def test_zero_grads_no_decay_leaves_params(self):
        p = Parameter(np.full(4, 2.0))
        opt = AdamW(holding(("p", p)))
        opt.step(lr=0.1, weight_decay=0.0)
        assert np.allclose(p.data, 2.0)

    def test_decoupled_decay_is_multiplicative(self):
        p = Parameter(np.full(4, 2.0))
        opt = AdamW(holding(("p", p)))
        opt.step(lr=0.1, weight_decay=0.5)
        assert np.allclose(p.data, 2.0 * (1 - 0.1 * 0.5))

    def test_quadratic_bowl_converges(self):
        """f(w) = ||w||^2 / 2, gradient w: well under 1e-3 by 2000 steps."""
        rng = np.random.default_rng(0)
        p = Parameter(rng.normal(size=8))
        opt = AdamW(holding(("p", p)))
        for _ in range(2000):
            p.grad[...] = p.data
            opt.step(lr=1e-2, weight_decay=0.0)
        assert np.linalg.norm(p.data) < 1e-3

    def test_nonfinite_gradient_aborts_with_name(self):
        p = Parameter(np.ones(3))
        opt = AdamW(holding(("encoder.w", p)))
        p.grad[1] = np.nan
        with pytest.raises(FloatingPointError, match="encoder.w"):
            opt.step(lr=1e-3, weight_decay=0.0)

    def test_nonfinite_gradient_updates_nothing(self):
        first, second = Parameter(np.ones(3)), Parameter(np.ones(2))
        opt = AdamW(holding(("first", first), ("second", second)))
        first.grad[...] = 0.5
        second.grad[1] = np.nan
        with pytest.raises(FloatingPointError, match="second"):
            opt.step(lr=1e-3, weight_decay=0.1)
        assert np.array_equal(first.data, np.ones(3))
        assert opt.t == 0
        assert not opt.m.any() and not opt.v.any()

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ValueError, match="one dtype"):
            AdamW(holding(("a", Parameter(np.ones(2, dtype=np.float32))),
                          ("b", Parameter(np.ones(2, dtype=np.float64)))))

    def test_packing_keeps_values_and_makes_views(self):
        model = tiny_finetune_model()
        rng = np.random.default_rng(0)
        for _, p in model.named_parameters():
            p.grad[...] = rng.normal(size=p.shape)
        before = [(name, p.data.copy(), p.grad.copy()) for name, p in model.named_parameters()]
        opt = AdamW(model)
        after = dict(model.named_parameters())
        for name, data, grad in before:
            p = after[name]
            assert p.data.tobytes() == data.tobytes() and p.data.shape == data.shape
            assert p.grad.tobytes() == grad.tobytes() and p.grad.shape == grad.shape
            assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad, opt.grad)

    def test_zero_grad_zeroes_every_grad_view(self):
        """The block tree's zero_grad is one fill of the packed grad array."""
        model = tiny_finetune_model()
        opt = AdamW(model)
        opt.grad[...] = 1.0
        model.zero_grad()
        assert not opt.grad.any()
        assert all(not p.grad.any() for _, p in model.named_parameters())

    def test_steps_the_models_own_arrays(self):
        """AdamW borrows ``model.pack()``'s arrays; a second AdamW over the
        same model shares them."""
        model = tiny_finetune_model()
        opt = AdamW(model)
        data, grad = model.pack()
        assert opt.data is data and opt.grad is grad
        assert model.pack() == (data, grad)
        other = AdamW(model)
        assert other.data is data and other.grad is grad
        before = data.copy()
        grad[...] = 1.0
        other.step(lr=0.1, weight_decay=0.0)
        assert (data < before).all()

    def test_packing_a_child_of_a_packed_model_rejected(self):
        model = tiny_finetune_model()
        model.pack()
        with pytest.raises(ValueError, match="parameter .+ is already packed"):
            model.video_embed.pack()
        with pytest.raises(ValueError, match="already packed"):
            AdamW(model.iavcl)

    @staticmethod
    def assert_matches_oracle(model, ref, lr_scales, beta2):
        """Five weight-decayed steps over ``model`` equal the per-parameter
        loop over ``ref``, a copy of it: parameters and moments, bitwise."""
        opt = AdamW(model, beta2=beta2, lr_scales=lr_scales)
        oracle = OracleAdamW(ref.named_parameters(), beta2=beta2, lr_scales=lr_scales)
        rng = np.random.default_rng(3)
        for step in range(1, 6):
            for (_, p), (_, q) in zip(model.named_parameters(), ref.named_parameters()):
                p.grad[...] = q.grad[...] = rng.normal(0.0, 0.1 * step, p.shape)
            lr = 0.01 / step
            opt.step(lr, 0.05)
            oracle.step(lr, 0.05)
        start = 0
        for (name, p), (_, q) in zip(model.named_parameters(), ref.named_parameters()):
            assert p.data.tobytes() == q.data.tobytes(), name
            stop = start + p.size
            assert opt.m[start:stop].tobytes() == oracle.m[name].ravel().tobytes(), name
            assert opt.v[start:stop].tobytes() == oracle.v[name].ravel().tobytes(), name
            start = stop

    def test_matches_per_parameter_oracle_bitwise(self):
        """Five layer-decayed, weight-decayed steps equal the per-parameter loop."""
        model, ref = tiny_finetune_model(), tiny_finetune_model()
        self.assert_matches_oracle(model, ref, layer_decay_scales(model, preset("Tiny"), 0.75),
                                   beta2=0.999)

    def test_matches_per_parameter_oracle_bitwise_in_small_chunks(self, monkeypatch):
        """Chunks of 7 elements: chunks end inside learning-rate runs and
        runs end inside what would otherwise be one chunk."""
        monkeypatch.setattr(training, "_ADAMW_CHUNK", 7)
        model, ref = tiny_finetune_model(), tiny_finetune_model()
        self.assert_matches_oracle(model, ref, layer_decay_scales(model, preset("Tiny"), 0.75),
                                   beta2=0.999)

    def test_float64_parameters_match_oracle_bitwise(self):
        """float64 parameters: the decay factor is applied unnarrowed."""
        model, ref = (FeedForward(8, np.random.default_rng(4)).double()
                      for _ in range(2))
        names = [name for name, _ in model.named_parameters()]
        scales = {name: 0.5 ** (i // 2) for i, name in enumerate(names)}
        self.assert_matches_oracle(model, ref, scales, beta2=0.95)

    def test_unknown_lr_scale_names_rejected(self):
        p = Parameter(np.ones(3))
        with pytest.raises(ValueError, match="encoder.wieght, head.b"):
            AdamW(holding(("encoder.weight", p)),
                  lr_scales={"encoder.weight": 0.5, "head.b": 1.0, "encoder.wieght": 0.5})
        assert p.grad.base is None   # nothing was packed

    def test_state_is_24_bytes_per_float32_parameter(self):
        """data and grad in float32, m and v in float64, and no other array
        of arena length: no per-element learning rate."""
        model = tiny_finetune_model()
        opt = AdamW(model, lr_scales=layer_decay_scales(model, preset("Tiny"), 0.75))
        total = sum(p.size for _, p in model.named_parameters())
        assert total > training._ADAMW_CHUNK
        arrays = {}
        for attr, value in vars(opt).items():
            items = value if isinstance(value, (list, tuple)) else [value]
            for i, item in enumerate(items):
                if isinstance(item, np.ndarray) and item.size >= total:
                    arrays[attr if item is value else f"{attr}[{i}]"] = item
        assert sorted(arrays) == ["data", "grad", "m", "v"]
        assert sum(a.nbytes for a in arrays.values()) == 24 * total

    def test_partition_order_invariance(self):
        """Parameter update depends only on each parameter's own state."""
        rng = np.random.default_rng(1)
        data = rng.normal(size=(2, 4))
        grads = rng.normal(size=(2, 4))
        p1 = [Parameter(data[i].copy()) for i in range(2)]
        p2 = [Parameter(data[i].copy()) for i in range(2)]
        o1 = AdamW(holding(("a", p1[0]), ("b", p1[1])))
        o2 = AdamW(holding(("b", p2[1]), ("a", p2[0])))
        for i in range(2):
            p1[i].grad[...] = grads[i]
            p2[i].grad[...] = grads[i]
        o1.step(1e-3, 0.01)
        o2.step(1e-3, 0.01)
        assert np.array_equal(p1[0].data, p2[0].data)
        assert np.array_equal(p1[1].data, p2[1].data)


class TestSchedule:
    def test_warmup_boundary_values(self):
        assert lr_at(0, 1e-3, 256, 20, 220) == 0.0
        assert abs(lr_at(20, 1e-3, 256, 20, 220) - 1e-3) < 1e-15

    def test_peak_scaling_rule(self):
        assert abs(lr_at(10, 1.5e-4, 128, 10, 100) - 1.5e-4 * 0.5) < 1e-12

    def test_cosine_midpoint(self):
        peak = 1e-3
        mid = (20 + 220) // 2
        value = lr_at(mid, 1e-3, 256, 20, 220)
        assert abs(value - (peak + 1e-6) / 2) < 1e-9

    def test_continuous_at_junction(self):
        before = lr_at(19, 1e-3, 256, 20, 200)
        at = lr_at(20, 1e-3, 256, 20, 200)
        after = lr_at(21, 1e-3, 256, 20, 200)
        assert before < at
        assert abs(after - at) < at * 0.01

    def test_floor_after_total(self):
        assert lr_at(500, 1e-3, 256, 20, 200) == 1e-6


class TestLayerDecay:
    def test_unit_decay_gives_unit_scales(self):
        cfg = preset("Tiny")
        model = FinetuneModel(cfg, (8, 32, 32), (32, 16), 2, rng=sample_rng(0))
        scales = layer_decay_scales(model, cfg, 1.0)
        assert all(v == 1.0 for v in scales.values())

    def test_tiny_embedding_scale(self):
        """Four encoder layers: embeddings sit at decay^(depth+1) = 0.75^5."""
        cfg = preset("Tiny")
        model = FinetuneModel(cfg, (8, 32, 32), (32, 16), 2, rng=sample_rng(0))
        scales = layer_decay_scales(model, cfg, 0.75)
        assert abs(scales["video_embed.proj.weight"] - 0.75 ** 5) < 1e-12
        assert abs(scales["video_encoder.region_tokens"] - 0.75 ** 5) < 1e-12
        assert scales["iavcl.head.weight"] == 1.0

    def test_monotone_in_depth(self):
        cfg = preset("Tiny")
        model = FinetuneModel(cfg, (8, 32, 32), (32, 16), 2, rng=sample_rng(0))
        scales = layer_decay_scales(model, cfg, 0.75)
        per_layer = [scales[f"video_encoder.layers.{i}.ffn.fc1.weight"]
                     for i in range(4)]
        assert per_layer == sorted(per_layer)
        assert per_layer[-1] < 1.0


class TestSyntheticData:
    def test_determinism_bytes(self, tmp_path):
        task = SyntheticTask(n_classes=2, noise=0.0, seed=5)
        gen_synthetic(task, 4, out_dir=tmp_path / "a")
        gen_synthetic(task, 4, out_dir=tmp_path / "b")
        for i in range(4):
            fa = (tmp_path / "a" / f"clip_{i:05d}.avclip").read_bytes()
            fb = (tmp_path / "b" / f"clip_{i:05d}.avclip").read_bytes()
            assert fa == fb

    def test_class_energy_separation(self):
        """Mean video energy differs across classes by construction (the
        hollow fill lights fewer pixels)."""
        task = SyntheticTask(n_classes=2, noise=0.0, seed=6)
        clips, labels = gen_synthetic(task, 16)
        means = {}
        for clip, label in zip(clips, labels):
            means.setdefault(label, []).append(float(clip.video.mean()))
        assert abs(np.mean(means[0]) - np.mean(means[1])) > 1e-3

    def test_paired_classes_share_band(self):
        """Within a pair the audio band is shared; across groups it moves."""
        task = SyntheticTask(n_classes=4, noise=0.0, seed=6)
        clips, labels = gen_synthetic(task, 8)
        profile = {l: clips[i].audio.mean(axis=0) for i, l in enumerate(labels)}
        same_pair = np.abs(profile[0] - profile[1])
        across = np.abs(profile[0] - profile[2])
        assert np.argmax(profile[0]) == np.argmax(profile[1])
        assert np.max(across) > np.max(same_pair)

    def test_linear_probe_on_raw_data(self):
        """Closed-form least squares separates zero-noise classes."""
        task = SyntheticTask(n_classes=2, noise=0.0, seed=7)
        clips, labels = gen_synthetic(task, 32)
        x = np.stack([np.concatenate([c.video.ravel(), c.audio.ravel()])
                      for c in clips]).astype(np.float64)
        x = np.concatenate([x, np.ones((32, 1))], axis=1)
        y = 2.0 * np.asarray(labels) - 1.0
        w, *_ = np.linalg.lstsq(x, y, rcond=None)
        acc = float(np.mean(np.sign(x @ w) == y))
        assert acc >= 0.99

    def test_manifest_roundtrip(self, tmp_path):
        task = SyntheticTask(n_classes=3, noise=0.1, seed=8)
        gen_synthetic(task, 6, out_dir=tmp_path)
        clips, labels = load_dataset(tmp_path)
        assert len(clips) == 6
        assert labels == [0, 1, 2, 0, 1, 2]

    def test_labels_balanced_deterministic(self):
        task = SyntheticTask(n_classes=2, seed=9)
        _, labels = gen_synthetic(task, 8)
        assert labels == [0, 1] * 4


class TestMetricsLog:
    def test_stable_field_order(self, tmp_path):
        log = MetricsLog(tmp_path / "m.jsonl")
        log.append(step=1, stage="pretrain", loss=1.0, mse_a=0.4, mse_v=0.6,
                   nce=2.0, lr=1e-4, acc=None)
        line = (tmp_path / "m.jsonl").read_text().strip()
        assert line.startswith('{"step":1,"stage":"pretrain","loss":1.0')
        parsed = json.loads(line)
        assert list(parsed) == ["step", "stage", "loss", "mse_a", "mse_v",
                                "nce", "lr", "acc"]

    def test_append_only(self, tmp_path):
        log = MetricsLog(tmp_path / "m.jsonl")
        log.append(step=1, stage="finetune", loss=0.5, acc=0.5)
        log.append(step=2, stage="finetune", loss=0.4, acc=0.6)
        lines = (tmp_path / "m.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2


class TestBatching:
    def test_cyclic_deterministic(self):
        assert batch_indices(0, 4, 10) == [0, 1, 2, 3]
        assert batch_indices(2, 4, 10) == [8, 9, 0, 1]


class TestRunStage:
    def tiny_data(self, n=4, classes=2, noise=0.0, seed=3):
        task = SyntheticTask(n_classes=classes, noise=noise, seed=seed)
        return gen_synthetic(task, n)

    def test_finetune_without_checkpoint_rejected(self, tmp_path):
        clips, labels = self.tiny_data()
        tcfg = desk_train_config("finetune")
        with pytest.raises(ValueError, match="checkpoint"):
            run_stage("finetune", preset("Tiny"), tcfg, (clips, labels),
                      (8, 32, 32), (32, 16), tmp_path)

    def test_stage_mismatch_rejected(self, tmp_path):
        clips, _ = self.tiny_data()
        tcfg = desk_train_config("pretrain")
        with pytest.raises(ValueError, match="stage"):
            run_stage("finetune", preset("Tiny"), tcfg, (clips, []),
                      (8, 32, 32), (32, 16), tmp_path)

    def test_input_checkpoint_released_before_training(self, tmp_path, monkeypatch):
        """Nothing that ``checkpoint.load`` allocated is still held when the
        supervised run starts: the warm start has copied what it needs."""
        cfg = preset("Tiny")
        clips, labels = self.tiny_data(n=4)
        tc_pre = desk_train_config("pretrain", seed=0)
        tc_pre.batch = 4
        pre_path, _ = run_stage("pretrain", cfg, tc_pre, clips, (8, 32, 32), (32, 16),
                                tmp_path / "pre", steps=1)
        held = []

        def measured_run(*args, **kwargs):
            loaded = tracemalloc.Filter(True, ckpt.__file__, all_frames=True)
            snapshot = tracemalloc.take_snapshot().filter_traces([loaded])
            held.append(sum(stat.size for stat in snapshot.statistics("filename")))
            return MetricsLog(), None

        monkeypatch.setattr(training, "run_supervised", measured_run)
        tracemalloc.start(16)
        try:
            run_stage("post_pretrain", cfg, desk_train_config("post_pretrain", seed=0),
                      (clips, labels), (8, 32, 32), (32, 16), tmp_path / "post",
                      checkpoint_in=pre_path, steps=1)
        finally:
            tracemalloc.stop()
        # what stays counted is small objects kept on the interpreter's free lists
        assert held[0] < 0.1 * pre_path.stat().st_size

    def test_pipeline_runs_and_checkpoint_immutable(self, tmp_path):
        """Three stages chain end to end; inputs are never mutated."""
        cfg = preset("Tiny")
        clips, labels = self.tiny_data(n=4, classes=2)
        tc_pre = desk_train_config("pretrain", seed=0)
        tc_pre.batch = 4
        pre_path, pre_log = run_stage("pretrain", cfg, tc_pre, clips,
                                      (8, 32, 32), (32, 16),
                                      tmp_path / "pre", steps=3)
        assert pre_path.exists()
        assert len(pre_log.records) == 3
        before = pre_path.read_bytes()

        tc_post = desk_train_config("post_pretrain", seed=0)
        tc_post.batch = 4
        post_path, post_log = run_stage("post_pretrain", cfg, tc_post,
                                        (clips, labels), (8, 32, 32), (32, 16),
                                        tmp_path / "post",
                                        checkpoint_in=pre_path, steps=2)
        assert pre_path.read_bytes() == before  # input untouched
        assert post_path.exists()

        tc_ft = desk_train_config("finetune", seed=0)
        tc_ft.batch = 4
        ft_path, ft_log = run_stage("finetune", cfg, tc_ft, (clips, labels),
                                    (8, 32, 32), (32, 16), tmp_path / "ft",
                                    checkpoint_in=post_path, steps=2)
        assert ft_path.exists()
        assert len(ft_log.records) == 2
        assert (tmp_path / "ft" / "metrics.jsonl").exists()

    def test_same_seed_bitwise_identical_logs(self):
        passed, detail = property_result("determinism")
        assert passed, detail

    def test_seed_changes_log(self):
        cfg = preset("Tiny")
        clips, _ = self.tiny_data(n=4)
        a = desk_train_config("pretrain", seed=1)
        b = desk_train_config("pretrain", seed=2)
        a.batch = b.batch = 4
        _, la = run_pretrain(cfg, a, clips, (8, 32, 32), (32, 16), steps=2)
        _, lb = run_pretrain(cfg, b, clips, (8, 32, 32), (32, 16), steps=2)
        assert la.lines() != lb.lines()

    def test_training_loops_zero_through_the_model(self, monkeypatch):
        """Two-step pretrain and fine-tune runs zero the gradients with the
        model's own ``zero_grad``, once per step, and log the same lines."""
        cfg = preset("Tiny")
        clips, labels = self.tiny_data(n=4)
        tc_pre, tc_ft = desk_train_config("pretrain"), desk_train_config("finetune")
        tc_pre.batch = tc_ft.batch = 4

        def runs():
            _, pre = run_pretrain(cfg, tc_pre, clips, (8, 32, 32), (32, 16), steps=2)
            ft, _ = run_supervised(tiny_finetune_model(), tc_ft, clips, labels, steps=2)
            return pre.lines(), ft.lines()

        want = runs()
        zeroed = []
        real = Block.zero_grad

        def counted(self):
            zeroed.append(type(self).__name__)
            real(self)

        monkeypatch.setattr(Block, "zero_grad", counted)
        assert runs() == want
        assert zeroed == ["PretrainModel"] * 2 + ["FinetuneModel"] * 2


# Runs in a fresh process, so the allocator starts with no history: a seed-0
# Tiny corpus of 32 clips, batch 16, eight fine-tune steps through
# ``run_supervised``; prints the process's minor page faults at each logged
# step as a JSON list.
_FAULT_SCRIPT = """
import json, resource
from avmae.config import PRESET_INPUTS, desk_train_config, preset
from avmae.finetune import FinetuneModel
from avmae.training import MetricsLog, SyntheticTask, gen_synthetic, run_supervised, sample_rng

class FaultLog(MetricsLog):
    def __init__(self):
        super().__init__()
        self.faults = []

    def append(self, **record):
        self.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        super().append(**record)

video_shape, audio_shape = PRESET_INPUTS["Tiny"]
clips, labels = gen_synthetic(SyntheticTask(4, video_shape, audio_shape, seed=0), 32)
model = FinetuneModel(preset("Tiny"), video_shape, audio_shape, 4, rng=sample_rng(0, 0xF1E7))
tcfg = desk_train_config("finetune", seed=0)
tcfg.batch = 16
log = FaultLog()
run_supervised(model, tcfg, clips, labels, steps=8, log=log)
print(json.dumps(log.faults))
"""


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="the C library has no mallopt")
def test_steady_state_steps_do_not_page_fault():
    """Steps 5-8 of a fine-tune each take fewer than 50 minor page faults:
    the memory a step frees stays in the process for the next one."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout.splitlines()[-1])
    per_step = np.diff(faults)   # per_step[k - 2] is step k's count
    assert len(faults) == 8
    assert all(per_step[k - 2] < 50 for k in range(5, 9)), per_step.tolist()
