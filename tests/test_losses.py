"""Reconstruction MSE, symmetric InfoNCE, smoothed cross-entropy."""

import dataclasses
import math

import numpy as np
import pytest

from avmae.config import PRESET_INPUTS, desk_train_config, preset
from avmae.losses import cross_entropy_ls, info_nce, masked_mse
from avmae.pretrain import PretrainModel
from avmae.training import AdamW, SyntheticTask, pretrain_step, sample_rng


class TestMaskedMSE:
    def test_perfect_prediction_is_zero(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(1, 6, 8))
        loss, grad = masked_mse(t.copy(), t, 0.5, 12)
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    def test_zero_prediction_on_standardized_targets_near_one(self):
        """Unit-variance targets against zero predictions: per-element mean
        of squared standardised values is about one."""
        rng = np.random.default_rng(1)
        raw = rng.random((32, 48))
        targets = (raw - raw.mean(axis=1, keepdims=True))
        targets /= np.sqrt(raw.var(axis=1, keepdims=True) + 1e-6)
        loss, _ = masked_mse(np.zeros_like(targets)[None], targets[None], 0.5, 64)
        assert abs(loss - 1.0) < 0.05

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=(1, 5, 7))
        p = rng.normal(size=(1, 5, 7))
        base, _ = masked_mse(p, t, 0.5, 10)
        doubled, _ = masked_mse(t + 2 * (p - t), t, 0.5, 10)
        assert abs(doubled - 4 * base) < 1e-9

    def test_printed_normalizer(self):
        """The denominator is (1 - rho_d) * N tokens times the patch dim."""
        preds = np.ones((1, 4, 3))
        targets = np.zeros((1, 4, 3))
        loss, _ = masked_mse(preds, targets, 0.5, 8)
        assert abs(loss - 12 / (0.5 * 8 * 3)) < 1e-12

    def test_batch_is_the_mean_of_its_clips(self):
        """[S, targets, patch]: the mean over clips of each clip's loss, each
        normalised by the patch dim (the last axis), and the gradient of
        that mean."""
        rng = np.random.default_rng(3)
        preds = rng.normal(size=(3, 4, 5))
        targets = rng.normal(size=(3, 4, 5))
        loss, grad = masked_mse(preds, targets, 0.25, 6)
        denom = 0.75 * 6 * 5
        per_clip = [np.sum((p - t) ** 2) / denom for p, t in zip(preds, targets)]
        assert abs(loss - np.mean(per_clip)) < 1e-12
        assert np.allclose(grad, 2.0 * (preds - targets) / denom / 3, rtol=1e-12, atol=0.0)

    def test_clip_without_sample_axis_rejected(self):
        with pytest.raises(ValueError, match="clips, targets, patch"):
            masked_mse(np.zeros((4, 3)), np.zeros((4, 3)), 0.5, 8)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            masked_mse(np.zeros((1, 3, 4)), np.zeros((1, 4, 4)), 0.5, 8)


class TestInfoNCE:
    def test_identical_orthogonal_features_closed_form(self):
        """e_a == e_v with orthonormal rows: loss is the closed form
        log(1 + (B-1) exp(-1/tau)), tiny at tau = 0.07."""
        feats = np.eye(4)
        loss, _, _ = info_nce(feats, feats.copy(), 0.07)
        expected = math.log(1.0 + 3.0 * math.exp(-1.0 / 0.07))
        assert abs(loss - expected) < 1e-12
        assert loss < 1e-5

    def test_chance_level_for_independent_features(self):
        """Random independent features score near ln(B); feature width is
        the base encoder dim so similarity noise stays small."""
        rng = np.random.default_rng(3)
        b = 64
        vals = []
        for _ in range(100):
            fa = rng.normal(size=(b, 512))
            fv = rng.normal(size=(b, 512))
            loss, _, _ = info_nce(fa, fv, 0.07)
            vals.append(loss)
        mean = float(np.mean(vals))
        assert abs(mean - math.log(b)) / math.log(b) < 0.10

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(4)
        fa = rng.normal(size=(6, 8))
        fv = rng.normal(size=(6, 8))
        base, _, _ = info_nce(fa, fv, 0.07)
        perm = rng.permutation(6)
        permuted, _, _ = info_nce(fa[perm], fv[perm], 0.07)
        assert abs(base - permuted) < 1e-12

    def test_scale_invariance_of_features(self):
        """Row-wise positive rescaling is absorbed by the normalisation."""
        rng = np.random.default_rng(5)
        fa = rng.normal(size=(5, 8))
        fv = rng.normal(size=(5, 8))
        scales = rng.uniform(0.1, 10.0, size=(5, 1))
        a, _, _ = info_nce(fa, fv, 0.07)
        b, _, _ = info_nce(fa * scales, fv, 0.07)
        assert abs(a - b) < 1e-10

    def test_small_batch_rejected(self):
        with pytest.raises(ValueError):
            info_nce(np.ones((1, 4)), np.ones((1, 4)), 0.07)


class TestCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        for k in (2, 5, 10):
            loss, _ = cross_entropy_ls(np.zeros((1, k)), np.array([0]), 0.0)
            assert abs(loss - math.log(k)) < 1e-12

    def test_confident_correct_logits_approach_zero(self):
        logits = np.zeros((1, 4))
        logits[0, 1] = 50.0
        loss, _ = cross_entropy_ls(logits, np.array([1]), 0.0)
        assert loss < 1e-12

    def test_hand_computed_smoothed_value(self):
        """smoothing 0.1, 4 classes, logits [2,0,0,0], label 0."""
        logits = np.array([[2.0, 0.0, 0.0, 0.0]])
        # soft target: 0.925 on the true class, 0.025 elsewhere
        z = math.log(math.exp(2.0) + 3.0)
        expected = -(0.925 * (2.0 - z) + 3 * 0.025 * (0.0 - z))
        loss, _ = cross_entropy_ls(logits, np.array([0]), 0.1)
        assert abs(loss - expected) < 1e-12

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_ls(np.zeros((1, 3)), np.array([3]), 0.0)

    def test_gradient_sums_to_zero_per_row(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(4, 5))
        _, grad = cross_entropy_ls(logits, np.array([0, 1, 2, 3]), 0.1)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)


class TestCombination:
    """pretrain_step's total is mse_a + mse_v + contrastive_weight * nce."""

    @staticmethod
    def step_stats(weight):
        cfg = dataclasses.replace(preset("Tiny"), contrastive_weight=weight)
        vshape, ashape = PRESET_INPUTS["Tiny"]
        task = SyntheticTask(n_classes=2, video_shape=vshape, audio_shape=ashape, seed=4)
        clips = [task.clip(i)[0] for i in range(2)]
        model = PretrainModel(cfg, vshape, ashape, rng=sample_rng(0))
        return pretrain_step(model, clips, [0, 1], 1, desk_train_config("pretrain"),
                             AdamW(model), 1e-4)

    def test_total_recomposition(self):
        stats = self.step_stats(0.0025)
        assert stats["nce"] > 0
        assert stats["loss"] == stats["mse_a"] + stats["mse_v"] + 0.0025 * stats["nce"]

    def test_zero_weight_degenerates(self):
        stats = self.step_stats(0.0)
        assert stats["nce"] > 0
        assert stats["loss"] == stats["mse_a"] + stats["mse_v"]
