"""Region partition and the local-global interaction layers."""

import numpy as np
import pytest

from avmae.config import preset
from avmae.embedding import TokenSeq, grid_coords
from avmae.encoder import (LGIEncoder, LGILayer, partition,
                           score_entries_stage12)
from avmae.masking import tube_mask
from avmae.verify import run_grad_check

from oracles import oracle_attention, oracle_layernorm, oracle_lgi_layer


def tiny_seq(grid=(4, 4, 4), dim=32):
    coords = grid_coords(grid)
    return TokenSeq(np.zeros((coords.shape[0], dim), dtype=np.float32),
                    coords, grid, "video")


class TestPartition:
    def test_b_video_partition(self):
        seq = tiny_seq(grid=(8, 10, 10), dim=512)
        part = partition(seq, (2, 5, 10))
        assert part.n_regions == 8
        assert part.sizes() == [100] * 8

    def test_masked_partition_sums_to_visible(self):
        seq = tiny_seq(grid=(8, 10, 10), dim=512)
        mask = tube_mask(8, 10, 10, 0.9, np.random.default_rng(0))
        part = partition(seq, (2, 5, 10), visible_mask=mask)
        assert part.n_regions == 8
        assert sum(part.sizes()) == 80

    def test_full_grid_single_region(self):
        seq = tiny_seq()
        part = partition(seq, (4, 4, 4))
        assert part.n_regions == 1
        assert part.sizes() == [64]

    def test_non_tiling_region_rejected(self):
        with pytest.raises(ValueError, match="tile"):
            partition(tiny_seq(), (3, 4, 4))

    def test_members_disjoint_and_complete(self):
        seq = tiny_seq()
        part = partition(seq, (2, 2, 4))
        joined = np.concatenate(part.members)
        assert len(joined) == 64
        assert len(np.unique(joined)) == 64

    def test_members_follow_grid_coordinates(self):
        seq = tiny_seq(grid=(2, 4, 4), dim=8)
        part = partition(seq, (2, 2, 2))
        # token (0, 0, 0) and (1, 1, 1) share region 0
        assert 0 in part.members[0]
        flat_111 = 1 * 16 + 1 * 4 + 1
        assert flat_111 in part.members[0]


class TestLGILayer:
    def build(self, seed=11, masked=False, dtype=np.float64):
        cfg = preset("Tiny")
        rng = np.random.default_rng(seed)
        layer = LGILayer(cfg.encoder_dim, cfg.encoder_heads, rng, dtype=dtype)
        seq = tiny_seq(dim=cfg.encoder_dim)
        mask = (tube_mask(4, 4, 4, 0.9, np.random.default_rng(0))
                if masked else None)
        part = partition(seq, cfg.video_region, visible_mask=mask)
        n = sum(part.sizes())
        locals_ = rng.normal(size=(n, cfg.encoder_dim))
        s = rng.normal(size=(part.n_regions, cfg.encoder_dim))
        return layer, locals_, s, part

    def test_matches_loop_oracle(self):
        layer, locals_, s, part = self.build(seed=11)
        out_l, out_s = layer.forward(locals_, s, part)
        layer.clear_caches()
        ref_l, ref_s = oracle_lgi_layer(locals_, s, part.members, layer)
        assert np.max(np.abs(out_l - ref_l)) < 1e-5
        assert np.max(np.abs(out_s - ref_s)) < 1e-5

    def test_matches_oracle_under_masking(self):
        layer, locals_, s, part = self.build(seed=12, masked=True)
        out_l, out_s = layer.forward(locals_, s, part)
        layer.clear_caches()
        ref_l, ref_s = oracle_lgi_layer(locals_, s, part.members, layer)
        assert np.max(np.abs(out_l - ref_l)) < 1e-5
        assert np.max(np.abs(out_s - ref_s)) < 1e-5

    def test_zeroed_projections_leave_locals_untouched(self):
        """Residual identity: zero output projections reduce the layer to
        FFN-only updates; zero the FFN too and nothing changes."""
        layer, locals_, s, part = self.build(seed=13)
        for att in (layer.attn_local, layer.attn_region, layer.cross_local,
                    layer.cross_region):
            att.w_o.data[...] = 0.0
            att.b_o.data[...] = 0.0
        layer.ffn.fc2.weight.data[...] = 0.0
        layer.ffn.fc2.bias.data[...] = 0.0
        out_l, out_s = layer.forward(locals_, s, part)
        layer.clear_caches()
        assert np.allclose(out_l, locals_, atol=1e-12)
        assert np.allclose(out_s, s, atol=1e-12)

    def test_single_region_stage2_value_path(self):
        """K=1: stage II attention over one token reduces to the value
        path with a residual."""
        cfg = preset("Tiny")
        rng = np.random.default_rng(14)
        layer = LGILayer(cfg.encoder_dim, cfg.encoder_heads, rng, dtype=np.float64)
        seq = tiny_seq(dim=cfg.encoder_dim)
        part = partition(seq, (4, 4, 4))
        assert part.n_regions == 1
        locals_ = rng.normal(size=(64, cfg.encoder_dim))
        s = rng.normal(size=(1, cfg.encoder_dim))
        out_l, out_s = layer.forward(locals_, s, part)
        layer.clear_caches()
        ref_l, ref_s = oracle_lgi_layer(locals_, s, part.members, layer)
        assert np.max(np.abs(out_s - ref_s)) < 1e-8
        # explicit value-path form of stage II on the post-stage-I token
        x = np.concatenate([s, locals_], axis=0)
        y = x + oracle_attention(oracle_layernorm(x, layer.norm1),
                                 oracle_layernorm(x, layer.norm1),
                                 layer.attn_local)
        s1 = y[:1]
        att = layer.attn_region
        n2 = oracle_layernorm(s1, layer.norm2)
        value_path = (n2 @ att.w_v.data + att.b_v.data) @ att.w_o.data + att.b_o.data
        # compare against the oracle's stage-II output
        ref_n2 = s1 + value_path
        probs_out = s1 + oracle_attention(n2, n2, att)
        assert np.allclose(ref_n2, probs_out, atol=1e-10)

    def test_grad_check(self):
        report = run_grad_check("lgi_layer", tolerance=1e-4)
        assert report.passed, "\n".join(report.lines())

    def test_drop_path_disabled_when_rng_none(self):
        layer, locals_, s, part = self.build(seed=16)
        a = layer.forward(locals_, s, part, rng=None, drop_path=0.5)
        layer.clear_caches()
        b = layer.forward(locals_, s, part, rng=None, drop_path=0.5)
        layer.clear_caches()
        assert np.array_equal(a[0], b[0])

    def test_drop_path_skips_branches(self):
        layer, locals_, s, part = self.build(seed=17)
        rng = np.random.default_rng(0)
        out_l, out_s = layer.forward(locals_, s, part, rng=rng, drop_path=0.999)
        layer.clear_caches()
        assert np.allclose(out_l, locals_)
        assert np.allclose(out_s, s)


class TestLGIEncoder:
    def test_tiny_snapshot_shapes(self):
        cfg = preset("Tiny")
        rng = np.random.default_rng(0)
        enc = LGIEncoder(cfg, 4, rng)
        seq = tiny_seq(dim=cfg.encoder_dim)
        mask = tube_mask(4, 4, 4, 0.9, np.random.default_rng(1))
        part = partition(seq, cfg.video_region, visible_mask=mask)
        tokens = rng.normal(size=(8, cfg.encoder_dim)).astype(np.float32)
        snaps, locals_, skip_locals, pooled = enc.encode(tokens, part)
        enc.clear_caches()
        assert len(snaps) == 4
        assert all(s.shape == (4, 32) for s in snaps)
        assert locals_.shape == (8, 32)
        assert sorted(skip_locals) == cfg.skip_indices
        assert all(p.shape == (32,) for p in pooled.values())

    def test_token_counts_layer_invariant(self):
        cfg = preset("Tiny")
        rng = np.random.default_rng(2)
        enc = LGIEncoder(cfg, 4, rng)
        seq = tiny_seq(dim=cfg.encoder_dim)
        part = partition(seq, cfg.video_region)
        tokens = rng.normal(size=(64, cfg.encoder_dim)).astype(np.float32)
        snaps, locals_, _, _ = enc.encode(tokens, part)
        enc.clear_caches()
        assert locals_.shape[0] == 64
        assert all(s.shape[0] == 4 for s in snaps)

    def test_modality_agnostic_given_same_geometry(self):
        """Identical inputs and parameters give identical snapshots."""
        cfg = preset("Tiny")
        rng = np.random.default_rng(3)
        enc = LGIEncoder(cfg, 4, rng)
        seq = tiny_seq(dim=cfg.encoder_dim)
        part = partition(seq, cfg.video_region)
        tokens = rng.normal(size=(64, cfg.encoder_dim)).astype(np.float32)
        a, _, _, _ = enc.encode(tokens, part)
        enc.clear_caches()
        b, _, _, _ = enc.encode(tokens.copy(), part)
        enc.clear_caches()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_complexity_bound(self):
        """Stage I+II score entries never exceed the dense budget."""
        seq = tiny_seq()
        part = partition(seq, (2, 2, 4))
        n, k = 64, part.n_regions
        assert k > 1
        assert score_entries_stage12(part) <= (n + k) ** 2

    def test_pooled_features_are_region_token_means(self):
        cfg = preset("Tiny")
        rng = np.random.default_rng(4)
        enc = LGIEncoder(cfg, 4, rng)
        seq = tiny_seq(dim=cfg.encoder_dim)
        part = partition(seq, cfg.video_region)
        tokens = rng.normal(size=(64, cfg.encoder_dim)).astype(np.float32)
        snaps, _, _, pooled = enc.encode(tokens, part)
        enc.clear_caches()
        for idx in cfg.skip_indices:
            assert np.allclose(pooled[idx], snaps[idx].mean(axis=0), atol=1e-7)
