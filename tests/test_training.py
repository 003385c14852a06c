"""Optimiser, schedule, layer decay, synthetic data, stage driver."""

import json

import numpy as np
import pytest

from avmae.blocks import Parameter
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


class TestAdamW:
    def test_zero_grads_no_decay_leaves_params(self):
        p = Parameter(np.full(4, 2.0))
        opt = AdamW([("p", p)])
        opt.step(lr=0.1, weight_decay=0.0)
        assert np.allclose(p.data, 2.0)

    def test_decoupled_decay_is_multiplicative(self):
        p = Parameter(np.full(4, 2.0))
        opt = AdamW([("p", p)])
        opt.step(lr=0.1, weight_decay=0.5)
        assert np.allclose(p.data, 2.0 * (1 - 0.1 * 0.5))

    def test_quadratic_bowl_converges(self):
        """f(w) = ||w||^2 / 2, gradient w: well under 1e-3 by 2000 steps."""
        rng = np.random.default_rng(0)
        p = Parameter(rng.normal(size=8))
        opt = AdamW([("p", p)])
        for _ in range(2000):
            p.grad[...] = p.data
            opt.step(lr=1e-2, weight_decay=0.0)
        assert np.linalg.norm(p.data) < 1e-3

    def test_nonfinite_gradient_aborts_with_name(self):
        p = Parameter(np.ones(3))
        opt = AdamW([("encoder.w", p)])
        p.grad[1] = np.nan
        with pytest.raises(FloatingPointError, match="encoder.w"):
            opt.step(lr=1e-3, weight_decay=0.0)

    def test_nonfinite_gradient_updates_nothing(self):
        first, second = Parameter(np.ones(3)), Parameter(np.ones(2))
        opt = AdamW([("first", first), ("second", second)])
        first.grad[...] = 0.5
        second.grad[1] = np.nan
        with pytest.raises(FloatingPointError, match="second"):
            opt.step(lr=1e-3, weight_decay=0.1)
        assert np.array_equal(first.data, np.ones(3))
        assert opt.t == 0
        assert not opt.m.any() and not opt.v.any()

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ValueError, match="one dtype"):
            AdamW([("a", Parameter(np.ones(2, dtype=np.float32))),
                   ("b", Parameter(np.ones(2, dtype=np.float64)))])

    def test_packing_keeps_values_and_makes_views(self):
        model = tiny_finetune_model()
        rng = np.random.default_rng(0)
        for p in model.parameters():
            p.grad[...] = rng.normal(size=p.shape)
        before = [(name, p.data.copy(), p.grad.copy()) for name, p in model.named_parameters()]
        opt = AdamW(model.named_parameters())
        after = dict(model.named_parameters())
        for name, data, grad in before:
            p = after[name]
            assert p.data.tobytes() == data.tobytes() and p.data.shape == data.shape
            assert p.grad.tobytes() == grad.tobytes() and p.grad.shape == grad.shape
            assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad, opt.grad)

    def test_zero_grad_zeroes_every_grad_view(self):
        model = tiny_finetune_model()
        opt = AdamW(model.named_parameters())
        opt.grad[...] = 1.0
        model.zero_grad()
        assert not opt.grad.any()
        assert all(not p.grad.any() for p in model.parameters())

    def test_second_optimizer_over_packed_parameters_rejected(self):
        first, second = Parameter(np.ones(3)), Parameter(np.ones(2))
        opt = AdamW([("first", first)])
        with pytest.raises(ValueError, match="first"):
            AdamW([("second", second), ("first", first)])
        # nothing was repacked: the first optimizer still moves the parameter
        assert np.shares_memory(first.data, opt.data)
        assert not np.shares_memory(second.grad, opt.grad) and second.grad.base is None
        first.grad[...] = 1.0
        opt.step(lr=0.1, weight_decay=0.0)
        assert (first.data < 1.0).all()

    def test_matches_per_parameter_oracle_bitwise(self):
        """Five layer-decayed, weight-decayed steps equal the per-parameter loop."""
        cfg = preset("Tiny")
        model, ref = tiny_finetune_model(), tiny_finetune_model()
        opt = AdamW(model.named_parameters(), beta2=0.999,
                    lr_scales=layer_decay_scales(model, cfg, 0.75))
        oracle = OracleAdamW(ref.named_parameters(), beta2=0.999,
                             lr_scales=layer_decay_scales(ref, cfg, 0.75))
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

    def test_partition_order_invariance(self):
        """Parameter update depends only on each parameter's own state."""
        rng = np.random.default_rng(1)
        data = rng.normal(size=(2, 4))
        grads = rng.normal(size=(2, 4))
        p1 = [Parameter(data[i].copy()) for i in range(2)]
        p2 = [Parameter(data[i].copy()) for i in range(2)]
        o1 = AdamW([("a", p1[0]), ("b", p1[1])])
        o2 = AdamW([("b", p2[1]), ("a", p2[0])])
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

