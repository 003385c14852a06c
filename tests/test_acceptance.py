"""Acceptance suite: every criterion printed as one pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. The training-based criteria use the desk-scale Tiny recipes.

The two registries in ``avmae.verify`` are the one home for every check and
its bound: ``TestPropertyChecks`` reports every ``PROPERTY_CHECKS`` entry and
A3 every ``GRAD_CHECKS`` entry, at the registry's tolerance and probe count.
Each entry runs once per test process (``registry_runs`` caches it), so the
tests elsewhere that report the same entry share that run. These entries
carry the criteria that need no training run of their own:

- A1 mask arithmetic: ``mask_arithmetic``
- A2 decoder cost: ``decoder_cost_ratio`` (arithmetic) and
  ``dual_masking_speed`` (wall clock)
- A7 parameter totals: ``param_totals``
- A8 architecture table: ``config_table_fidelity``
- A9 persistence: ``checkpoint_roundtrip`` (A9 adds three repeated runs on
  regenerated data; ``determinism`` repeats a run on fixed data)
"""

import functools
import math

import numpy as np
import pytest

from avmae import checkpoint as ckpt
from avmae import verify
from avmae.config import PRESET_INPUTS, desk_train_config, preset
from avmae.finetune import FinetuneModel
from avmae.iavcl import DiERUnit, HAFELayer
from avmae.losses import info_nce
from avmae.pretrain import (FusionBlock, PretrainModel, make_mask_pairs)
from avmae.training import (SyntheticTask, gen_synthetic, run_pretrain,
                            run_supervised, sample_rng, train_accuracy,
                            warm_start)
from avmae.verify import check_decoder_cost, param_counts

from oracles import (oracle_dense_interaction, oracle_fusion_block,
                     oracle_hafe, oracle_lgi_layer)
from registry_runs import grad_check, property_result

TINY_V, TINY_A = PRESET_INPUTS["Tiny"]


def report(name: str, passed: bool, detail: str):
    print(f"{name} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{name}: {detail}"


class TestPropertyChecks:
    @pytest.mark.parametrize("name", list(verify.PROPERTY_CHECKS))
    def test_check(self, name):
        report(name, *property_result(name))


class TestA2DecoderCost:
    def test_a2_arithmetic_fails_for_full_length_targets(self, monkeypatch):
        """Without dual masking every masked token is a decoder target, so
        the decoder runs at full length and the cost bound must fail."""
        monkeypatch.setattr(verify, "make_mask_pairs",
                            functools.partial(make_mask_pairs, dual_masking=False))
        assert check_decoder_cost() == (False, "640000 <= 0.36 * 640000")


class TestA3GradientVerification:
    def test_a3(self):
        runs = [(name, *grad_check(name)) for name in verify.GRAD_CHECKS]
        results = [(name, r) for name, r, _ in runs]
        elapsed = sum(seconds for _, _, seconds in runs)
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
        pairs = [make_mask_pairs(cfg, TINY_V, TINY_A, sample_rng(9, i)) for i in range(16)]
        res = fresh.forward_sample([batch_task.clip(i)[0] for i in range(16)],
                                   [p[0] for p in pairs], [p[1] for p in pairs])
        fresh.clear_caches()
        nce_vals = []
        for k in cfg.skip_indices:
            nce, _, _ = info_nce(res["audio"]["pooled"][k].astype(np.float64),
                                 res["video"]["pooled"][k].astype(np.float64),
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
    def test_analytic_counts_match_instantiation(self):
        """The closed-form accounting agrees exactly with built models."""
        cfg = preset("Tiny")
        counts = param_counts(cfg, TINY_V, TINY_A, num_outputs=2)
        pm = PretrainModel(cfg, TINY_V, TINY_A, rng=sample_rng(0))
        fm = FinetuneModel(cfg, TINY_V, TINY_A, 2, rng=sample_rng(0))
        assert counts["pretrain_total"] == sum(p.size for p in pm.parameters())
        assert counts["finetune_total"] == sum(p.size for p in fm.parameters())


class TestA8ArchitectureTable:
    def test_a8(self):
        report("A8 architecture table", *property_result("config_table_fidelity"))


class TestA9Determinism:
    def test_a9(self):
        """Repeated runs on regenerated data give identical logs; persistence
        via the verify check."""
        cfg = preset("Tiny")
        task = SyntheticTask(n_classes=2, video_shape=TINY_V, audio_shape=TINY_A,
                             noise=0.1, seed=2)
        tcfg = desk_train_config("pretrain", seed=5)
        tcfg.batch = 4

        logs = []
        for _ in range(3):
            clips, _ = gen_synthetic(task, 4)
            _, log = run_pretrain(cfg, tcfg, clips, TINY_V, TINY_A, steps=3)
            logs.append(log.lines())
        logs_ok = logs[0] == logs[1] == logs[2]

        roundtrip_ok, roundtrip_detail = property_result("checkpoint_roundtrip")
        report("A9 determinism and persistence", logs_ok and roundtrip_ok,
               f"identical logs across repeated runs: {logs_ok}; {roundtrip_detail}")


class TestA10OracleEquivalence:
    def test_a10(self):
        cfg = preset("Tiny")
        dim, heads = cfg.encoder_dim, cfg.encoder_heads
        worst = {"lgi": 0.0, "fusion": 0.0, "dier": 0.0, "hafe": 0.0}
        from avmae.encoder import LGILayer, partition
        part = partition((4, 4, 4), cfg.video_region, np.arange(64)[None])
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            layer = LGILayer(dim, heads, rng, dtype=np.float64)
            locals_ = rng.normal(size=(64, dim))
            s = rng.normal(size=(4, dim))
            out_l, out_s = layer.forward(locals_[None], s[None], part)
            layer.clear_caches()
            ref_l, ref_s = oracle_lgi_layer(locals_, s, part.members, layer)
            worst["lgi"] = max(worst["lgi"],
                               float(np.max(np.abs(out_l[0] - ref_l))),
                               float(np.max(np.abs(out_s[0] - ref_s))))

            block = FusionBlock(dim, heads, rng, dtype=np.float64)
            v = rng.normal(size=(8, dim))
            a = rng.normal(size=(4, dim))
            ov, oa = block.forward(v[None], a[None])
            block.clear_caches()
            rv, ra = oracle_fusion_block(v, a, block)
            worst["fusion"] = max(worst["fusion"],
                                  float(np.max(np.abs(ov[0] - rv))),
                                  float(np.max(np.abs(oa[0] - ra))))

            unit = DiERUnit(dim, heads, rng, dtype=np.float64)
            f1a = rng.normal(size=(4, dim))
            f1v = rng.normal(size=(4, dim))
            f2a, f2v = unit.forward(f1a[None], f1v[None])
            unit.clear_caches()
            ra_ = oracle_dense_interaction(f1a, f1v, unit.dense_a)
            rv_ = oracle_dense_interaction(f1v, f1a, unit.dense_v)
            worst["dier"] = max(worst["dier"],
                                float(np.max(np.abs(f2a[0] - ra_))),
                                float(np.max(np.abs(f2v[0] - rv_))))

            hafe = HAFELayer(dim, heads, rng, dtype=np.float64)
            stack = rng.normal(size=(2, 4, dim))
            fav = rng.normal(size=(4, dim))
            out = hafe.forward(stack[None], fav[None])[0]
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
