"""The iterative correlation head: aggregation, units, refinement, HAFE."""

import dataclasses

import numpy as np
import pytest

from avmae.blocks import softmax
from avmae.config import preset
from avmae.iavcl import DiERUnit, HAFELayer, IAVCLHead, RefinementLayer

from oracles import oracle_dier_chain, oracle_hafe
from registry_runs import assert_grad_check


def tiny_head(seed=0, num_outputs=3, num_units=2, dtype=np.float64):
    rng = np.random.default_rng(seed)
    cfg = dataclasses.replace(preset("Tiny"), num_dier_units=num_units)
    return IAVCLHead(cfg, num_outputs, rng, dtype=dtype)


def tiny_snaps(seed, k=4, dim=32, layers=4):
    rng = np.random.default_rng(seed)
    return ([rng.normal(size=(k, dim)) for _ in range(layers)],
            [rng.normal(size=(k, dim)) for _ in range(layers)])


def one_sample(snaps):
    """Per-layer snapshots [K, C] as a batch of one sample, [1, K, C]."""
    return [s[None] for s in snaps]


class TestLayerAggregation:
    def test_weights_normalised(self):
        head = tiny_head()
        alpha_a, alpha_v = head.layer_weights()
        assert abs(alpha_a.sum() - 1.0) < 1e-12
        assert np.all(alpha_a >= 0)
        assert abs(alpha_v.sum() - 1.0) < 1e-12

    def test_one_hot_weights_select_single_layer(self):
        head = tiny_head(1)
        head.layer_logits_a.data[...] = [-1e9, -1e9, 1e9, -1e9]
        alpha_a, _ = head.layer_weights()
        assert np.allclose(alpha_a, [0, 0, 1, 0])
        snaps_a, snaps_v = tiny_snaps(2)
        stack = np.stack(snaps_a)
        agg = np.tensordot(alpha_a, stack, axes=(0, 0))
        assert np.allclose(agg, snaps_a[2])

    def test_uniform_weights_average_layers(self):
        head = tiny_head(3)
        alpha_a, _ = head.layer_weights()   # zero logits: uniform
        snaps_a, _ = tiny_snaps(4)
        agg = np.tensordot(alpha_a, np.stack(snaps_a), axes=(0, 0))
        assert np.allclose(agg, np.mean(snaps_a, axis=0), atol=1e-12)

    def test_normalisation_survives_any_logit_values(self):
        """The constraint is structural: weights renormalise every read."""
        head = tiny_head(5)
        head.layer_logits_v.data[...] = [37.0, -12.0, 4.4, 0.1]
        _, alpha_v = head.layer_weights()
        assert abs(alpha_v.sum() - 1.0) < 1e-12


class TestDiERUnit:
    def test_gate_saturation_zeroes_output(self):
        """Strongly negative gate biases close both channels."""
        rng = np.random.default_rng(0)
        unit = DiERUnit(32, 4, rng, dtype=np.float64)
        for dense in (unit.dense_a, unit.dense_v):
            dense.gate_self.bias.data[...] = -50.0
            dense.gate_cross.bias.data[...] = -50.0
        f1 = rng.normal(size=(4, 32))[None]
        f2_a, f2_v = unit.forward(f1, f1.copy())
        unit.clear_caches()
        assert np.max(np.abs(f2_a)) < 1e-12
        assert np.max(np.abs(f2_v)) < 1e-12

    def test_identical_modalities_shared_params_symmetric(self):
        """With video parameters copied into audio and identical inputs the
        shared refinement residuals agree bitwise."""
        rng = np.random.default_rng(1)
        unit = DiERUnit(32, 4, rng, dtype=np.float64)
        er = RefinementLayer(32, rng, dtype=np.float64)
        # copy video-side dense parameters onto the audio side
        video_params = dict(unit.dense_v.named_parameters())
        for name, p in unit.dense_a.named_parameters():
            p.data[...] = video_params[name].data
        f1 = rng.normal(size=(4, 32))[None]
        f2_a, f2_v = unit.forward(f1.copy(), f1.copy())
        unit.clear_caches()
        assert np.array_equal(f2_a, f2_v)
        f_av = rng.normal(size=(4, 32))[None]
        r_a = er.conv.forward(er.shca.forward(f_av, f2_a), training=True)
        er.clear_caches()
        er.conv.num_batches = 0
        r_v = er.conv.forward(er.shca.forward(f_av, f2_v), training=True)
        er.clear_caches()
        assert np.array_equal(r_a, r_v)

    def test_er_parameters_shared_across_units(self):
        """The parameter store holds exactly one refinement block no matter
        how many units are stacked."""
        for n_units in (1, 2, 4):
            head = tiny_head(2, num_units=n_units)
            er_params = [n for n, _ in head.named_parameters()
                         if n.startswith("er.")]
            assert len(er_params) == len(list(head.er.named_parameters()))
            assert len(head.units) == n_units

    def test_chain_matches_loop_oracle(self):
        """Two-unit chain against the straight-line reference (seeded)."""
        head = tiny_head(13)
        snaps_a, snaps_v = tiny_snaps(13)
        out = head.forward(one_sample(snaps_a), one_sample(snaps_v), training=True)[0]
        head.clear_caches()
        preserved, f_av = oracle_dier_chain(snaps_a, snaps_v, head)
        # reproduce the full head output path from the oracle chain
        f4_a = oracle_hafe(np.stack([p[0] for p in preserved]), f_av, head.hafe_a)
        f4_v = oracle_hafe(np.stack([p[1] for p in preserved]), f_av, head.hafe_v)
        pooled = np.concatenate([f4_a.mean(axis=0), f4_v.mean(axis=0)])
        ref = head.head.weight.data.T @ pooled + head.head.bias.data
        assert np.max(np.abs(out - ref)) < 1e-5


class TestHAFE:
    def test_single_unit_degenerates(self):
        """N_c = 1: the unit-axis attention sees one element and the sum has
        a single sigmoid-gated granularity."""
        rng = np.random.default_rng(17)
        hafe = HAFELayer(32, 4, rng, dtype=np.float64)
        stack = rng.normal(size=(1, 4, 32))
        f_av = rng.normal(size=(4, 32))
        out = hafe.forward(stack[None], f_av[None])[0]
        hafe.clear_caches()
        ref = oracle_hafe(stack, f_av, hafe)
        assert np.max(np.abs(out - ref)) < 1e-8

    def test_gates_forced_open_sum_granularities(self):
        rng = np.random.default_rng(3)
        hafe = HAFELayer(32, 4, rng, dtype=np.float64)
        hafe.gate.bias.data[...] = 60.0
        hafe.gate.weight.data[...] = 0.0
        stack = rng.normal(size=(3, 4, 32))
        f_av = rng.normal(size=(4, 32))
        out = hafe.forward(stack[None], f_av[None])[0]
        hafe.clear_caches()
        # with unit gates, f3 is the plain sum over granularity levels
        ref = oracle_hafe(stack, f_av, hafe)
        assert np.allclose(out, ref, atol=1e-8)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        hafe = HAFELayer(32, 4, rng, dtype=np.float64)
        stack = rng.normal(size=(2, 4, 32))
        f_av = rng.normal(size=(4, 32))
        out = hafe.forward(stack[None], f_av[None])[0]
        hafe.clear_caches()
        ref = oracle_hafe(stack, f_av, hafe)
        assert np.max(np.abs(out - ref)) < 1e-5


class TestHead:
    def test_zero_head_gives_uniform_softmax(self):
        head = tiny_head(4)
        head.head.weight.data[...] = 0.0
        head.head.bias.data[...] = 0.0
        snaps_a, snaps_v = tiny_snaps(5)
        out = head.forward(one_sample(snaps_a), one_sample(snaps_v), training=True)
        head.clear_caches()
        assert np.allclose(out, 0.0)
        assert np.allclose(softmax(out), 1.0 / 3.0)

    def test_token_permutation_invariance(self):
        """Mean pooling over the token axis: permuting region order in every
        snapshot leaves the output unchanged."""
        head = tiny_head(6)
        snaps_a, snaps_v = tiny_snaps(7)
        out = head.forward(one_sample(snaps_a), one_sample(snaps_v), training=True)
        head.clear_caches()
        head.er.conv.num_batches = 0
        perm = np.random.default_rng(8).permutation(4)
        out_p = head.forward(one_sample([s[perm] for s in snaps_a]),
                             one_sample([s[perm] for s in snaps_v]), training=True)
        head.clear_caches()
        assert np.allclose(out, out_p, atol=1e-9)

    def test_unit_count_ablation_scaffold(self):
        """The head runs with one, two or four stacked units and shape
        invariants hold throughout."""
        for n_units in (1, 2, 4):
            head = tiny_head(11, num_units=n_units)
            snaps_a, snaps_v = tiny_snaps(12)
            out = head.forward(one_sample(snaps_a), one_sample(snaps_v), training=True)
            head.clear_caches()
            assert out.shape == (1, 3)

    def test_snapshot_count_mismatch_rejected(self):
        head = tiny_head(13)
        snaps_a, snaps_v = tiny_snaps(14)
        with pytest.raises(ValueError, match="snapshots"):
            head.forward(snaps_a[:-1], snaps_v, training=True)

    def test_full_grad_check(self):
        assert_grad_check("iavcl", 1e-4)
