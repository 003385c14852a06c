"""Acceptance suite: every criterion printed as one pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. The training-based criteria use the desk-scale Tiny recipes.
"""

import math
import time

import numpy as np
import pytest

from avmae import checkpoint as ckpt
from avmae.config import PRESET_INPUTS, desk_train_config, preset
from avmae.finetune import FinetuneModel
from avmae.iavcl import DiERUnit, HAFELayer
from avmae.losses import info_nce
from avmae.pretrain import (FusionBlock, PretrainModel, make_mask_pairs)
from avmae.training import (SyntheticTask, run_pretrain, run_supervised,
                            sample_rng, train_accuracy, warm_start)
from avmae.verify import (check_checkpoint_roundtrip, check_config_fidelity,
                          check_decoder_cost, check_dual_masking_speed,
                          check_mask_arithmetic, check_param_totals,
                          param_counts, run_all_grad_checks)

from oracles import (oracle_dense_interaction, oracle_fusion_block,
                     oracle_hafe, oracle_lgi_layer)

TINY_V, TINY_A = PRESET_INPUTS["Tiny"]


def report(name: str, passed: bool, detail: str):
    print(f"{name} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{name}: {detail}"


class TestA1MaskArithmetic:
    def test_a1(self):
        result = check_mask_arithmetic()
        report("A1 mask arithmetic", result.passed, result.detail)


class TestA2DecoderCost:
    def test_a2_arithmetic(self):
        result = check_decoder_cost()
        report("A2 decoder score entries", result.passed, result.detail)

    def test_a2_wall_clock(self):
        result = check_dual_masking_speed()
        report("A2 dual-masking step time", result.passed, result.detail)


class TestA3GradientVerification:
    def test_a3(self):
        start = time.monotonic()
        results = run_all_grad_checks(tolerance=1e-4, probes=24)
        elapsed = time.monotonic() - start
        failures = [(n, r.worst) for n, r in results if not r.passed]
        worst = max(r.worst for _, r in results)
        ok = not failures and elapsed <= 300.0
        report("A3 gradient verification", ok,
               f"{len(results)} blocks, worst rel err {worst:.2e}, "
               f"{elapsed:.0f}s (failures: {failures or 'none'})")


class TestA4PretrainingSanity:
    def test_a4(self):
        cfg = preset("Tiny")
        task = SyntheticTask(n_classes=2, video_shape=TINY_V, audio_shape=TINY_A,
                             noise=0.0, seed=3)
        clips = [task.clip(i)[0] for i in range(8)]
        tcfg = desk_train_config("pretrain", seed=0)
        model, log = run_pretrain(cfg, tcfg, clips, TINY_V, TINY_A, steps=200)
        losses = [r["loss"] for r in log.records]
        drop_ok = losses[199] <= 0.5 * losses[9]

        # InfoNCE at initialisation on a batch of 16
        fresh = PretrainModel(cfg, TINY_V, TINY_A, rng=sample_rng(7, 0xA11CE))
        batch_task = SyntheticTask(n_classes=2, video_shape=TINY_V,
                                   audio_shape=TINY_A, seed=5)
        feats_a = {k: [] for k in cfg.skip_indices}
        feats_v = {k: [] for k in cfg.skip_indices}
        for i in range(16):
            pair_v, pair_a = make_mask_pairs(cfg, TINY_V, TINY_A, sample_rng(9, i))
            res = fresh.forward_sample(batch_task.clip(i)[0], pair_v, pair_a)
            fresh.clear_caches()
            for k in cfg.skip_indices:
                feats_a[k].append(res["audio"]["pooled"][k])
                feats_v[k].append(res["video"]["pooled"][k])
        nce_vals = []
        for k in cfg.skip_indices:
            nce, _, _ = info_nce(np.stack(feats_a[k]).astype(np.float64),
                                 np.stack(feats_v[k]).astype(np.float64),
                                 cfg.contrastive_temperature)
            nce_vals.append(nce)
        ln_b = math.log(16)
        nce_ok = all(abs(v - ln_b) / ln_b <= 0.15 for v in nce_vals)
        report("A4 pretraining sanity", drop_ok and nce_ok,
               f"loss step10 {losses[9]:.4f} -> step200 {losses[199]:.4f} "
               f"({losses[199] / losses[9]:.2f}x); init InfoNCE "
               f"{[round(v, 3) for v in nce_vals]} vs ln16 {ln_b:.3f}")


class TestA5FinetuneSanity:
    def test_a5(self):
        cfg = preset("Tiny")
        task = SyntheticTask(n_classes=2, video_shape=TINY_V, audio_shape=TINY_A,
                             noise=0.0, seed=11)
        pairs = [task.clip(i) for i in range(256)]
        clips = [c for c, _ in pairs]
        labels = [l for _, l in pairs]
        tcfg = desk_train_config("finetune", seed=1)

        model = FinetuneModel(cfg, TINY_V, TINY_A, 2, rng=sample_rng(1, 0xF1E7))
        _, reached = run_supervised(model, tcfg, clips, labels, steps=300,
                                    eval_every=10, stop_at_accuracy=0.95)
        real_ok = reached is not None

        shuffled = list(np.random.default_rng(123).permutation(labels))
        guard = FinetuneModel(cfg, TINY_V, TINY_A, 2, rng=sample_rng(1, 0xF1E7))
        run_supervised(guard, tcfg, clips, shuffled, steps=300)
        acc_shuffled = train_accuracy(guard, clips, shuffled)
        guard_ok = acc_shuffled <= 0.55
        report("A5 fine-tune sanity", real_ok and guard_ok,
               f">=95% at step {reached}; shuffled-label accuracy "
               f"{acc_shuffled:.3f} <= 0.55")


class TestA6ProgressiveTraining:
    def test_a6(self):
        cfg = preset("Tiny")
        chain = build_psi_chain(cfg)
        tgt_task = SyntheticTask(n_classes=2, video_shape=TINY_V,
                                 audio_shape=TINY_A, noise=0.5, seed=23)
        pairs = [tgt_task.clip(i) for i in range(48)]
        clips = [c for c, _ in pairs]
        labels = [l for _, l in pairs]
        cap = 200
        ratios = []
        outcomes = []
        for seed in range(5):
            tcfg = desk_train_config("finetune", seed=seed)
            scratch = FinetuneModel(cfg, TINY_V, TINY_A, 2,
                                    rng=sample_rng(seed, 0xF1E7))
            _, s_scratch = run_supervised(scratch, tcfg, clips, labels,
                                          steps=cap, eval_every=2,
                                          stop_at_accuracy=0.9)
            warm = FinetuneModel(cfg, TINY_V, TINY_A, 2,
                                 rng=sample_rng(seed, 0xF1E7))
            warm_start(warm, chain, "post_pretrain", seed)
            _, s_psi = run_supervised(warm, tcfg, clips, labels, steps=cap,
                                      eval_every=2, stop_at_accuracy=0.9)
            s_scratch = s_scratch or cap
            s_psi = s_psi or cap
            outcomes.append((s_scratch, s_psi))
            ratios.append(s_psi / s_scratch)
        median_scratch = float(np.median([o[0] for o in outcomes]))
        median_psi = float(np.median([o[1] for o in outcomes]))
        ok = median_psi <= 0.5 * median_scratch
        report("A6 progressive-training benefit", ok,
               f"steps to 90%: scratch median {median_scratch}, "
               f"PSI median {median_psi}, pairs {outcomes}")


class TestA7ParameterCounts:
    def test_a7(self):
        result = check_param_totals()
        report("A7 parameter totals", result.passed, result.detail)

    def test_analytic_counts_match_instantiation(self):
        """The closed-form accounting agrees exactly with built models."""
        cfg = preset("Tiny")
        counts = param_counts(cfg, TINY_V, TINY_A, num_outputs=2)
        pm = PretrainModel(cfg, TINY_V, TINY_A, rng=sample_rng(0))
        fm = FinetuneModel(cfg, TINY_V, TINY_A, 2, rng=sample_rng(0))
        assert counts["pretrain_total"] == pm.num_parameters()
        assert counts["finetune_total"] == fm.num_parameters()


class TestA8ArchitectureTable:
    def test_a8(self):
        result = check_config_fidelity()
        report("A8 architecture table", result.passed, result.detail)


class TestA9Determinism:
    def test_a9(self, tmp_path, monkeypatch):
        """Thread-count invariance here; persistence via the verify check."""
        cfg = preset("Tiny")
        task = SyntheticTask(n_classes=2, video_shape=TINY_V, audio_shape=TINY_A,
                             noise=0.1, seed=2)
        tcfg = desk_train_config("pretrain", seed=5)
        tcfg.batch = 4

        logs = []
        for threads in ("1", "4", "1"):
            monkeypatch.setenv("AVMAE_THREADS", threads)
            from avmae.training import gen_synthetic
            clips, _ = gen_synthetic(task, 4)
            _, log = run_pretrain(cfg, tcfg, clips, TINY_V, TINY_A, steps=3)
            logs.append(log.lines())
        logs_ok = logs[0] == logs[1] == logs[2]

        roundtrip = check_checkpoint_roundtrip(tmp_path)
        report("A9 determinism and persistence", logs_ok and roundtrip.passed,
               f"identical logs across seeds/threads: {logs_ok}; {roundtrip.detail}")


class TestA10OracleEquivalence:
    def test_a10(self):
        cfg = preset("Tiny")
        dim, heads = cfg.encoder_dim, cfg.encoder_heads
        worst = {"lgi": 0.0, "fusion": 0.0, "dier": 0.0, "hafe": 0.0}
        from avmae.embedding import TokenSeq, grid_coords
        from avmae.encoder import LGILayer, partition
        coords = grid_coords((4, 4, 4))
        seq = TokenSeq(np.zeros((64, dim)), coords, (4, 4, 4), "video")
        part = partition(seq, cfg.video_region)
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            layer = LGILayer(dim, heads, rng, dtype=np.float64)
            locals_ = rng.normal(size=(64, dim))
            s = rng.normal(size=(4, dim))
            out_l, out_s = layer.forward(locals_, s, part)
            layer.clear_caches()
            ref_l, ref_s = oracle_lgi_layer(locals_, s, part.members, layer)
            worst["lgi"] = max(worst["lgi"],
                               float(np.max(np.abs(out_l - ref_l))),
                               float(np.max(np.abs(out_s - ref_s))))

            block = FusionBlock(dim, heads, rng, dtype=np.float64)
            v = rng.normal(size=(8, dim))
            a = rng.normal(size=(4, dim))
            ov, oa = block.forward(v, a)
            block.clear_caches()
            rv, ra = oracle_fusion_block(v, a, block)
            worst["fusion"] = max(worst["fusion"],
                                  float(np.max(np.abs(ov - rv))),
                                  float(np.max(np.abs(oa - ra))))

            unit = DiERUnit(dim, heads, rng, dtype=np.float64)
            f1a = rng.normal(size=(4, dim))
            f1v = rng.normal(size=(4, dim))
            f2a, f2v = unit.forward(f1a, f1v)
            unit.clear_caches()
            ra_ = oracle_dense_interaction(f1a, f1v, unit.dense_a)
            rv_ = oracle_dense_interaction(f1v, f1a, unit.dense_v)
            worst["dier"] = max(worst["dier"],
                                float(np.max(np.abs(f2a - ra_))),
                                float(np.max(np.abs(f2v - rv_))))

            hafe = HAFELayer(dim, heads, rng, dtype=np.float64)
            stack = rng.normal(size=(2, 4, dim))
            fav = rng.normal(size=(4, dim))
            out = hafe.forward(stack, fav)
            hafe.clear_caches()
            worst["hafe"] = max(worst["hafe"],
                                float(np.max(np.abs(out - oracle_hafe(stack, fav, hafe)))))
        ok = all(v <= 1e-5 for v in worst.values())
        report("A10 oracle equivalence", ok,
               "max abs err over 20 trials: "
               + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def build_psi_chain(cfg):
    """Pretrain then post-pretrain once; returns the checkpoint tensors."""
    import tempfile
    from pathlib import Path

    pre_task = SyntheticTask(n_classes=4, video_shape=TINY_V, audio_shape=TINY_A,
                             noise=0.3, seed=21)
    pre_clips = [pre_task.clip(i)[0] for i in range(16)]
    tc_pre = desk_train_config("pretrain", seed=0)
    tc_pre.batch = 8
    model_pre, _ = run_pretrain(cfg, tc_pre, pre_clips, TINY_V, TINY_A, steps=200)

    with tempfile.TemporaryDirectory() as tmp:
        pre_path = Path(tmp) / "pre.avck"
        ckpt.save(pre_path, model_pre, cfg, "pretrain")
        _, tensors = ckpt.load(pre_path)

        post_task = SyntheticTask(n_classes=3, video_shape=TINY_V,
                                  audio_shape=TINY_A, noise=0.4, seed=22)
        post_pairs = [post_task.clip(i) for i in range(48)]
        pclips = [c for c, _ in post_pairs]
        plabels = [l for _, l in post_pairs]
        tc_post = desk_train_config("post_pretrain", seed=0)
        mpost = FinetuneModel(cfg, TINY_V, TINY_A, 3, rng=sample_rng(0, 0xF1E7))
        warm_start(mpost, tensors, "pretrain", 0)
        run_supervised(mpost, tc_post, pclips, plabels, steps=150)
        post_path = Path(tmp) / "post.avck"
        ckpt.save(post_path, mpost, cfg, "post_pretrain")
        _, post_tensors = ckpt.load(post_path)
    return post_tensors
