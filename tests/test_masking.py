"""Dual-mask generation: exact counts, containment, sweeps, assembly."""

import numpy as np
import pytest

from avmae.masking import (MaskPair, assemble_combined,
                           random_decoder_targets, random_mask, round_half_up,
                           running_cell_mask, tube_mask, mask_to_ascii,
                           mask_to_pbm)


class TestTubeMask:
    def test_b_geometry_counts(self):
        """Grid 8x10x10 at ratio 0.9: 90 masked spatial, 80 visible tokens."""
        mask = tube_mask(8, 10, 10, 0.9, np.random.default_rng(0))
        assert mask.size == 800
        assert int(mask.sum()) == 720
        assert int((~mask).sum()) == 80

    def test_temporal_consistency(self):
        for seed in range(10):
            mask = tube_mask(4, 6, 6, 0.5, np.random.default_rng(seed))
            planes = mask.reshape(4, 36)
            assert all(np.array_equal(planes[0], p) for p in planes)

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError, match="zero visible"):
            tube_mask(2, 2, 2, 0.95, np.random.default_rng(0))

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            tube_mask(2, 4, 4, 1.0, np.random.default_rng(0))

    def test_same_seed_same_mask(self):
        a = tube_mask(4, 8, 8, 0.75, np.random.default_rng(42))
        b = tube_mask(4, 8, 8, 0.75, np.random.default_rng(42))
        c = tube_mask(4, 8, 8, 0.75, np.random.default_rng(43))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestRandomMask:
    def test_audio_count(self):
        """128 tokens at 0.8125: 104 masked, 24 visible."""
        mask = random_mask(128, 0.8125, np.random.default_rng(0))
        assert int(mask.sum()) == 104
        assert int((~mask).sum()) == 24

    def test_round_half_up(self):
        # 0.8 * 128 = 102.4 rounds to 102 masked, not the 0.2N figure
        mask = random_mask(128, 0.8, np.random.default_rng(0))
        assert int(mask.sum()) == 102
        assert round_half_up(102.5) == 103
        assert round_half_up(102.4) == 102

    def test_marginals_uniform_chi_square(self):
        """Positional mask frequencies over 10k draws pass chi-square at
        p > 0.001 (Wilson-Hilferty critical value)."""
        n, draws = 32, 10000
        counts = np.zeros(n)
        rng = np.random.default_rng(7)
        for _ in range(draws):
            counts += random_mask(n, 0.5, rng)
        expected = draws * 16 / 32
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        df = n - 1
        z = 3.0902  # upper 0.001 quantile of the standard normal
        crit = df * (1 - 2 / (9 * df) + z * np.sqrt(2 / (9 * df))) ** 3
        assert chi2 < crit


class TestRunningCellMask:
    def test_b_geometry_counts_and_containment(self):
        rng = np.random.default_rng(0)
        enc = tube_mask(8, 10, 10, 0.9, rng)
        targets = running_cell_mask(8, 10, 10, enc, 0.5, rng)
        assert int(targets.sum()) == 400
        assert not np.any(targets & ~enc)

    def test_tiny_count(self):
        rng = np.random.default_rng(1)
        enc = tube_mask(4, 4, 4, 0.9, rng)
        targets = running_cell_mask(4, 4, 4, enc, 0.5, rng)
        assert int(targets.sum()) == 32
        assert not np.any(targets & ~enc)

    def test_sweep_covers_grid_over_four_slots(self):
        """With everything maskable and only candidates kept, any four
        consecutive temporal slots cover every spatial cell position."""
        enc = np.ones(8 * 4 * 4, dtype=bool)
        targets = running_cell_mask(8, 4, 4, enc, 0.75, np.random.default_rng(3))
        planes = targets.reshape(8, 16)
        for start in range(5):
            assert np.all(planes[start:start + 4].any(axis=0))

    def test_clamps_with_warning_when_targets_exceed_masked(self):
        rng = np.random.default_rng(4)
        enc = tube_mask(4, 4, 4, 0.55, rng)   # few masked tokens
        with pytest.warns(RuntimeWarning, match="clamping"):
            targets = running_cell_mask(4, 4, 4, enc, 0.05, rng)
        assert int(targets.sum()) == int(enc.sum())

    def test_random_decoder_targets(self):
        rng = np.random.default_rng(5)
        enc = random_mask(128, 0.8125, rng)
        targets = random_decoder_targets(128, enc, 0.5, rng)
        assert int(targets.sum()) == 64
        assert not np.any(targets & ~enc)


class TestMaskPair:
    def test_subset_enforced(self):
        enc = np.array([True, False, True, False])
        bad = np.array([True, True, False, False])
        with pytest.raises(ValueError, match="inside the encoder mask"):
            MaskPair(enc, bad)

    def test_decoder_length_identity(self):
        """Sequence length over N equals (1 - rho_e) + (1 - rho_d) exactly."""
        cases = [(8, 10, 10, 0.9, 0.5), (4, 4, 4, 0.9, 0.5), (2, 6, 6, 0.75, 0.5)]
        for gt, gh, gw, re_, rd in cases:
            rng = np.random.default_rng(gt)
            enc = tube_mask(gt, gh, gw, re_, rng)
            tgt = running_cell_mask(gt, gh, gw, enc, rd, rng)
            n = gt * gh * gw
            n_spatial = gh * gw
            vis = n - round_half_up(re_ * n_spatial) * gt
            want = vis + round_half_up((1 - rd) * n)
            assert int((~enc).sum() + tgt.sum()) == want


class TestAssembleCombined:
    def test_lengths_and_positions(self):
        rng = np.random.default_rng(0)
        enc = tube_mask(8, 10, 10, 0.9, rng)
        tgt = running_cell_mask(8, 10, 10, enc, 0.5, rng)
        pair = MaskPair(enc, tgt)
        latents = rng.normal(size=(80, 16)).astype(np.float32)
        pe = rng.normal(size=(800, 16)).astype(np.float32)
        token = rng.normal(size=16).astype(np.float32)
        comb = assemble_combined(latents[None], [pair], token, pe)
        assert comb.tokens.shape == (1, 480, 16)
        assert comb.n_visible == 80 and comb.n_targets == 400
        # mask slots carry the learned token plus their own position code
        first_target = pair.target_indices[0]
        assert np.allclose(comb.tokens[0, 80], token + pe[first_target])

    def test_bijection(self):
        rng = np.random.default_rng(1)
        enc = tube_mask(4, 4, 4, 0.9, rng)
        tgt = running_cell_mask(4, 4, 4, enc, 0.5, rng)
        pair = MaskPair(enc, tgt)
        comb = assemble_combined(np.zeros((1, 8, 4), dtype=np.float32), [pair],
                                 np.zeros(4, dtype=np.float32),
                                 np.zeros((64, 4), dtype=np.float32))
        assert len(set(comb.source_indices[0].tolist())) == comb.tokens.shape[1]

    def test_count_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        enc = tube_mask(4, 4, 4, 0.9, rng)
        tgt = running_cell_mask(4, 4, 4, enc, 0.5, rng)
        pair = MaskPair(enc, tgt)
        with pytest.raises(ValueError, match="visible count"):
            assemble_combined(np.zeros((1, 5, 4), dtype=np.float32), [pair],
                              np.zeros(4, dtype=np.float32),
                              np.zeros((64, 4), dtype=np.float32))

    def test_pure_mask_token_sequence(self):
        """Degenerate but legal: no visible latents at all."""
        enc = np.ones(8, dtype=bool)
        tgt = np.zeros(8, dtype=bool)
        tgt[[0, 3, 5, 7]] = True
        pair = MaskPair(enc, tgt)
        comb = assemble_combined(np.zeros((1, 0, 4), dtype=np.float32), [pair],
                                 np.ones(4, dtype=np.float32),
                                 np.zeros((8, 4), dtype=np.float32))
        assert comb.tokens.shape == (1, 4, 4)
        assert comb.n_visible == 0


class TestDumps:
    def test_ascii_and_pbm(self):
        mask = np.array([True, False, False, True])
        ascii_art = mask_to_ascii(mask, (2, 2))
        assert ascii_art == "#.\n.#\n"
        pbm = mask_to_pbm(mask, (2, 2))
        assert pbm.startswith("P1\n2 2\n")
        assert "1 0" in pbm and "0 1" in pbm
