"""Region partition and the local-global interaction layers."""

import math

import numpy as np
import pytest

from avmae.config import (AUDIO_ENCODER_MASK_RATIO, PRESET_INPUTS,
                          VIDEO_ENCODER_MASK_RATIO, audio_grid, preset,
                          video_grid)
from avmae.embedding import grid_coords
from avmae.encoder import LGIEncoder, LGILayer, partition
from avmae.masking import random_mask, tube_mask
from avmae.pretrain import make_mask_pairs

from oracles import (grid_partition, oracle_attention, oracle_layernorm,
                     oracle_lgi_layer, stack_partitions, staged_branch_scales)
from registry_runs import assert_grad_check


def tiny_part(region, mask=None, grid=(4, 4, 4)):
    """The layout of one clip on ``grid``: the tokens ``mask`` does not
    hide (every token if None)."""
    visible = np.arange(math.prod(grid)) if mask is None else np.flatnonzero(~mask)
    return partition(grid, region, visible[None])


class TestPartition:
    def test_b_video_partition(self):
        part = tiny_part((2, 5, 10), grid=(8, 10, 10))
        assert part.n_regions == 8
        assert part.counts[0].tolist() == [100] * 8

    def test_masked_partition_sums_to_visible(self):
        mask = tube_mask(8, 10, 10, 0.9, np.random.default_rng(0))
        part = tiny_part((2, 5, 10), mask, grid=(8, 10, 10))
        assert part.n_regions == 8
        assert part.counts.sum() == 80

    def test_full_grid_single_region(self):
        part = tiny_part((4, 4, 4))
        assert part.n_regions == 1
        assert part.counts[0].tolist() == [64]

    def test_non_tiling_region_rejected(self):
        with pytest.raises(ValueError, match="tile"):
            tiny_part((3, 4, 4))

    def test_members_disjoint_and_complete(self):
        part = tiny_part((2, 2, 4))
        joined = np.concatenate(part.members)
        assert len(joined) == 64
        assert len(np.unique(joined)) == 64

    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "full"])
    @pytest.mark.parametrize("n_samples", [1, 3, 8])
    @pytest.mark.parametrize("name", ["Tiny", "B"])
    def test_groups_list_each_region_once_by_size(self, name, n_samples, masked):
        """The write-once rule the LGI layer's puts rely on: over all size
        groups the real slots hold every token row once and every region row
        once, and the groups of size > 0 every non-empty region row once."""
        cfg = preset(name)
        video_shape, audio_shape = PRESET_INPUTS[name]
        rng = np.random.default_rng(n_samples)
        pairs = [make_mask_pairs(cfg, video_shape, audio_shape, rng) for _ in range(n_samples)]
        for modality, (grid, region) in enumerate([
                (video_grid(cfg, video_shape), cfg.video_region),
                (audio_grid(cfg, audio_shape), cfg.audio_region)]):
            visible = np.stack([pair[modality].visible_indices if masked
                                else np.arange(math.prod(grid)) for pair in pairs])
            part = partition(grid, region, visible)
            sizes = [g.size for g in part.groups]
            assert sizes == sorted(set(part.counts.ravel().tolist()))
            real = [np.ones(g.ids.shape, dtype=bool) if g.pad is None else ~g.pad
                    for g in part.groups]
            tokens = np.concatenate([g.index[r].ravel() for g, r in zip(part.groups, real)])
            regions = np.concatenate([g.ids[r] for g, r in zip(part.groups, real)])
            non_empty = np.concatenate([g.ids[r] for g, r in zip(part.groups, real) if g.size])
            assert np.array_equal(np.sort(tokens), np.arange(visible.size))
            assert np.array_equal(np.sort(regions), np.arange(part.counts.size))
            assert np.array_equal(np.sort(non_empty), np.flatnonzero(part.counts.ravel()))
            for g, r in zip(part.groups, real):
                assert g.index.shape == g.ids.shape + (g.size,)
                for flat, row in zip(g.ids[r], g.index[r]):
                    assert np.array_equal(row, part.members[flat])

    def test_stacked_groups_pad_samples_with_fewer_regions(self):
        """Sizes [0, 4, 0, 4] and [2, 2, 2, 2]: each size group holds every
        sample's regions of that size, in region order, at flat rows, with
        padding where a sample has fewer."""
        masks = [ragged_mask(sizes) for sizes in ([0, 4, 0, 4], [2, 2, 2, 2])]
        parts = [tiny_part((2, 2, 4), mask) for mask in masks]
        layout = partition((4, 4, 4), (2, 2, 4),
                           np.stack([np.flatnonzero(~mask) for mask in masks]))
        assert len(layout.members) == 8
        assert [g.size for g in layout.groups] == [0, 2, 4]
        by_size = {g.size: g for g in layout.groups}
        assert by_size[0].ids.tolist() == [[0, 2], [0, 0]]
        assert by_size[2].ids.tolist() == [[0, 0, 0, 0], [4, 5, 6, 7]]
        assert by_size[4].ids.tolist() == [[1, 3], [0, 0]]
        assert by_size[0].pad.tolist() == [[False, False], [True, True]]
        assert by_size[2].pad.tolist() == [[True] * 4, [False] * 4]
        for g in layout.groups:
            for j, region in zip(*np.nonzero(~g.pad)):
                flat = g.ids[j, region]
                assert flat // 4 == j
                assert np.array_equal(g.index[j, region], layout.members[flat])
                assert np.array_equal(layout.members[flat],
                                      parts[j].members[flat % 4] + 8 * j)

    def test_members_follow_grid_coordinates(self):
        part = tiny_part((2, 2, 2), grid=(2, 4, 4))
        # token (0, 0, 0) and (1, 1, 1) share region 0
        assert 0 in part.members[0]
        flat_111 = 1 * 16 + 1 * 4 + 1
        assert flat_111 in part.members[0]


class TestPartitionMatchesStackedOracle:
    """``partition`` builds, array for array and dtype for dtype, the layout
    that stacking one ``grid_partition`` per sample builds."""

    @staticmethod
    def assert_same_bytes(got, want, what):
        assert got.dtype == want.dtype and got.shape == want.shape, what
        assert got.tobytes() == want.tobytes(), what

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["video_tube", "video_random", "audio_random",
                                      "video_full", "audio_full", "b_video_tube"])
    def test_arrays_match(self, kind, seed):
        cfg = preset("Tiny")
        if kind.startswith("video"):
            grid, region = video_grid(cfg, PRESET_INPUTS["Tiny"][0]), cfg.video_region
        elif kind.startswith("audio"):
            grid, region = audio_grid(cfg, PRESET_INPUTS["Tiny"][1]), cfg.audio_region
        else:
            grid, region = (8, 10, 10), preset("B").video_region
        n_tokens = math.prod(grid)
        coords = grid_coords(grid)
        rng = np.random.default_rng(seed)
        for n_samples in range(1, 10):
            ratio = rng.uniform(0.1, 0.9)
            if kind.endswith("tube"):
                masks = [tube_mask(*grid, VIDEO_ENCODER_MASK_RATIO, rng)
                         for _ in range(n_samples)]
            elif kind == "audio_random":
                masks = [random_mask(n_tokens, AUDIO_ENCODER_MASK_RATIO, rng)
                         for _ in range(n_samples)]
            elif kind == "video_random":
                masks = [random_mask(n_tokens, ratio, rng) for _ in range(n_samples)]
            else:
                masks = [np.zeros(n_tokens, dtype=bool)] * n_samples
            visible = np.stack([np.flatnonzero(~mask) for mask in masks])
            layout = partition(grid, region, visible)
            want = stack_partitions([grid_partition(grid, coords[v], region)
                                     for v in visible])
            what = f"{kind} S={n_samples}"
            assert [g.size for g in layout.groups] == [g.size for g in want.groups], what
            for got_g, want_g in zip(layout.groups, want.groups):
                self.assert_same_bytes(got_g.ids, want_g.ids, f"{what} ids")
                self.assert_same_bytes(got_g.index, want_g.index, f"{what} index")
                assert (got_g.pad is None) == (want_g.pad is None), f"{what} pad"
                if want_g.pad is not None:
                    self.assert_same_bytes(got_g.pad, want_g.pad, f"{what} pad")
            assert len(layout.members) == len(want.members), what
            for got_m, want_m in zip(layout.members, want.members):
                self.assert_same_bytes(got_m, want_m, f"{what} members")

    def test_encoder_rejects_a_layout_for_other_tokens(self):
        cfg = preset("Tiny")
        enc = LGIEncoder(cfg, 4, np.random.default_rng(0))
        layout = partition((4, 4, 4), cfg.video_region,
                           np.broadcast_to(np.arange(64), (2, 64)))
        tokens = np.zeros((3, 64, cfg.encoder_dim), dtype=np.float32)
        with pytest.raises(ValueError, match="does not fit"):
            enc.encode(tokens, layout)


def ragged_mask(sizes, seed=0):
    """A visible mask on the 4x4x4 grid keeping ``sizes[r]`` random tokens
    of each Tiny video region r."""
    full = tiny_part(preset("Tiny").video_region)
    rng = np.random.default_rng(seed)
    keep = np.concatenate([rng.choice(m, n, replace=False)
                           for m, n in zip(full.members, sizes)])
    mask = np.ones(64, dtype=bool)
    mask[keep] = False
    return mask


class TestLGILayer:
    def build(self, seed=11, mask=None):
        cfg = preset("Tiny")
        rng = np.random.default_rng(seed)
        layer = LGILayer(cfg.encoder_dim, cfg.encoder_heads, rng).double()
        part = tiny_part(cfg.video_region, mask)
        n = part.order.size
        locals_ = rng.normal(size=(n, cfg.encoder_dim))
        s = rng.normal(size=(part.n_regions, cfg.encoder_dim))
        return layer, locals_, s, part

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_branch_scales_match_scalar_draws(self, seed, rate, dtype):
        """One six-draw call per sample gives the scales, and leaves each
        generator where six scalar draws per sample leave it."""
        streams = [[np.random.default_rng([seed, j]) for j in range(5)] for _ in range(2)]
        got = LGILayer._branch_scales(streams[0], rate, dtype)
        want = staged_branch_scales(streams[1], rate, dtype)
        for g, w in zip(got, want):
            assert (g is None and w is None) or (g.dtype == w.dtype
                                                 and g.tobytes() == w.tobytes())
        for a, b in zip(*streams):
            assert a.random() == b.random()
        assert LGILayer._branch_scales(None, rate, dtype) == [None] * 6

    def test_matches_loop_oracle(self):
        layer, locals_, s, part = self.build(seed=11)
        out_l, out_s = layer.forward(locals_[None], s[None], part)
        layer.clear_caches()
        ref_l, ref_s = oracle_lgi_layer(locals_, s, part.members, layer)
        assert np.max(np.abs(out_l[0] - ref_l)) < 1e-5
        assert np.max(np.abs(out_s[0] - ref_s)) < 1e-5

    @pytest.mark.parametrize("mask, sizes", [
        (tube_mask(4, 4, 4, 0.9, np.random.default_rng(0)), [2, 2, 2, 2]),
        (tube_mask(4, 4, 4, 0.9, np.random.default_rng(11)), [0, 4, 0, 4]),
        (ragged_mask([3, 1, 5, 1]), [3, 1, 5, 1]),
    ], ids=["equal", "empty", "ragged"])
    def test_matches_oracle_under_masking(self, mask, sizes):
        layer, locals_, s, part = self.build(seed=12, mask=mask)
        assert part.counts[0].tolist() == sizes
        out_l, out_s = layer.forward(locals_[None], s[None], part)
        layer.clear_caches()
        ref_l, ref_s = oracle_lgi_layer(locals_, s, part.members, layer)
        assert np.max(np.abs(out_l[0] - ref_l)) < 1e-5
        assert np.max(np.abs(out_s[0] - ref_s)) < 1e-5

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
        out_l, out_s = layer.forward(locals_[None], s[None], part)
        layer.clear_caches()
        assert np.allclose(out_l[0], locals_, atol=1e-12)
        assert np.allclose(out_s[0], s, atol=1e-12)

    def test_single_region_stage2_value_path(self):
        """K=1: stage II attention over one token reduces to the value
        path with a residual."""
        cfg = preset("Tiny")
        rng = np.random.default_rng(14)
        layer = LGILayer(cfg.encoder_dim, cfg.encoder_heads, rng).double()
        part = tiny_part((4, 4, 4))
        assert part.n_regions == 1
        locals_ = rng.normal(size=(64, cfg.encoder_dim))
        s = rng.normal(size=(1, cfg.encoder_dim))
        out_l, out_s = layer.forward(locals_[None], s[None], part)
        layer.clear_caches()
        ref_l, ref_s = oracle_lgi_layer(locals_, s, part.members, layer)
        assert np.max(np.abs(out_s[0] - ref_s)) < 1e-8
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
        assert_grad_check("lgi_layer", 1e-4)

    def test_drop_path_disabled_when_rng_none(self):
        layer, locals_, s, part = self.build(seed=16)
        a = layer.forward(locals_[None], s[None], part, rngs=None, drop_path=0.5)
        layer.clear_caches()
        b = layer.forward(locals_[None], s[None], part, rngs=None, drop_path=0.5)
        layer.clear_caches()
        assert np.array_equal(a[0], b[0])

    def test_drop_path_skips_branches(self):
        layer, locals_, s, part = self.build(seed=17)
        rng = np.random.default_rng(0)
        out_l, out_s = layer.forward(locals_[None], s[None], part, rngs=[rng], drop_path=0.999)
        layer.clear_caches()
        assert np.allclose(out_l[0], locals_)
        assert np.allclose(out_s[0], s)


class TestLGIEncoder:
    def test_tiny_snapshot_shapes(self):
        cfg = preset("Tiny")
        rng = np.random.default_rng(0)
        enc = LGIEncoder(cfg, 4, rng)
        mask = tube_mask(4, 4, 4, 0.9, np.random.default_rng(1))
        part = tiny_part(cfg.video_region, mask)
        tokens = rng.normal(size=(8, cfg.encoder_dim)).astype(np.float32)[None]
        snaps, locals_, skip_locals, pooled = enc.encode(tokens, part)
        enc.clear_caches()
        assert len(snaps) == 4
        assert all(s.shape == (1, 4, 32) for s in snaps)
        assert locals_.shape == (1, 8, 32)
        assert sorted(skip_locals) == cfg.skip_indices
        assert all(p.shape == (1, 32) for p in pooled.values())

    def test_token_counts_layer_invariant(self):
        cfg = preset("Tiny")
        rng = np.random.default_rng(2)
        enc = LGIEncoder(cfg, 4, rng)
        part = tiny_part(cfg.video_region)
        tokens = rng.normal(size=(64, cfg.encoder_dim)).astype(np.float32)[None]
        snaps, locals_, _, _ = enc.encode(tokens, part)
        enc.clear_caches()
        assert locals_.shape[1] == 64
        assert all(s.shape[1] == 4 for s in snaps)

    def test_modality_agnostic_given_same_geometry(self):
        """Identical inputs and parameters give identical snapshots."""
        cfg = preset("Tiny")
        rng = np.random.default_rng(3)
        enc = LGIEncoder(cfg, 4, rng)
        part = tiny_part(cfg.video_region)
        tokens = rng.normal(size=(64, cfg.encoder_dim)).astype(np.float32)[None]
        a, _, _, _ = enc.encode(tokens, part)
        enc.clear_caches()
        b, _, _, _ = enc.encode(tokens.copy(), part)
        enc.clear_caches()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_pooled_features_are_region_token_means(self):
        cfg = preset("Tiny")
        rng = np.random.default_rng(4)
        enc = LGIEncoder(cfg, 4, rng)
        part = tiny_part(cfg.video_region)
        tokens = rng.normal(size=(64, cfg.encoder_dim)).astype(np.float32)[None]
        snaps, _, _, pooled = enc.encode(tokens, part)
        enc.clear_caches()
        for idx in cfg.skip_indices:
            assert np.allclose(pooled[idx], snaps[idx].mean(axis=1), atol=1e-7)


class TestFinalLocalsSkip:
    """``encode(keep_locals=False)`` against ``keep_locals=True``: the last
    layer's local feed-forward only feeds tokens nobody reads, so skipping it
    must change no bit of the snapshots or of any gradient."""

    @pytest.mark.parametrize("masked", [False, True], ids=["shared", "ragged"])
    def test_snapshots_and_gradients_bytes(self, masked):
        cfg = preset("Tiny")
        n_samples, rate = 3, 0.1
        if masked:
            visible = np.stack([np.flatnonzero(~tube_mask(
                4, 4, 4, 0.75, np.random.default_rng(20 + j))) for j in range(n_samples)])
        else:
            visible = np.broadcast_to(np.arange(64), (n_samples, 64))
        part = partition((4, 4, 4), cfg.video_region, visible)
        n_tokens = visible.shape[1]
        rng = np.random.default_rng(9)
        tokens = rng.normal(size=(n_samples, n_tokens, cfg.encoder_dim)).astype(np.float32)
        d_snaps = [rng.normal(size=(n_samples, 4, cfg.encoder_dim)).astype(np.float32)
                   for _ in range(cfg.encoder_depth)]
        results = []
        for keep in (True, False):
            enc = LGIEncoder(cfg, 4, np.random.default_rng(5))
            rngs = [np.random.default_rng(100 + j) for j in range(n_samples)]
            snaps, locals_, skip_locals, _ = enc.encode(tokens, part, rngs=rngs,
                                                        drop_path=rate, keep_locals=keep)
            d_tokens = enc.backward(np.zeros_like(tokens), d_snapshots=d_snaps)
            assert not any(layer._tape for layer in enc.layers)
            results.append((snaps, locals_, d_tokens, dict(enc.named_parameters()),
                            [r.random() for r in rngs]))
        (snaps, locals_, d_tokens, params, after), (s_snaps, s_locals, s_d_tokens,
                                                    s_params, s_after) = results
        assert locals_.shape == tokens.shape and s_locals is None
        assert after == s_after   # the same drop-path draws were made
        for j, (a, b) in enumerate(zip(snaps, s_snaps)):
            assert a.tobytes() == b.tobytes(), f"snapshot {j}"
        assert d_tokens.tobytes() == s_d_tokens.tobytes()
        for name, p in params.items():
            assert p.grad.tobytes() == s_params[name].grad.tobytes(), name
        last_ffn = f"layers.{cfg.encoder_depth - 1}.ffn.fc1.weight"
        assert np.any(params[last_ffn].grad != 0)   # the region branch still trains it
