"""The batch-first pretrain step against the per-sample path, byte for byte."""

import numpy as np
import pytest

from avmae import training
from avmae.config import PRESET_INPUTS, desk_train_config, preset
from avmae.embedding import RawClip, normalize_targets
from avmae.encoder import partition
from avmae.masking import MaskPair
from avmae.pretrain import PretrainModel, make_mask_pairs
from avmae.training import AdamW, SyntheticTask, gen_synthetic, sample_rng

from oracles import (oracle_put_rows, oracle_take_rows, per_clip_targets,
                     per_sample_pretrain_step)

TINY_V, TINY_A = PRESET_INPUTS["Tiny"]


def tiny_model(seed=0):
    return PretrainModel(preset("Tiny"), TINY_V, TINY_A, rng=sample_rng(seed, 0xA11CE))


def tiny_clips(n, seed=0):
    return gen_synthetic(SyntheticTask(4, TINY_V, TINY_A, noise=0.1, seed=seed), n)[0]


def assert_same_bytes(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


class RecordingAdamW(AdamW):
    """AdamW that keeps a copy of every parameter gradient it steps with."""

    def step(self, lr, weight_decay):
        self.seen = {name: p.grad.copy() for name, p in self.params}
        super().step(lr, weight_decay)


def video_size_sets(step, indices):
    cfg = preset("Tiny")
    sets = []
    for i in indices:
        pair_v, _ = make_mask_pairs(cfg, TINY_V, TINY_A, sample_rng(0, step, i))
        part = partition((4, 4, 4), cfg.video_region, pair_v.visible_indices[None])
        sets.append(set(part.counts[0].tolist()))
    return sets


class TestBatchMatchesPerSample:
    @pytest.mark.parametrize("indices, dual_masking", [
        (list(range(8)), True),
        (list(range(8)), False),
        ([5], True),
    ], ids=["ragged", "no-dual-masking", "one-clip"])
    def test_step_bytes(self, indices, dual_masking):
        """Losses, every parameter gradient and the AdamW state after one
        step equal the per-sample loop's."""
        step = 1
        if len(indices) > 1:   # region sizes {2} and {0, 4} in one batch
            sets = video_size_sets(step, indices)
            assert {2} in sets and {0, 4} in sets
        clips = tiny_clips(8)
        tcfg = desk_train_config("pretrain", seed=0)
        runs = []
        for step_fn in (training.pretrain_step, per_sample_pretrain_step):
            model = tiny_model()
            optimizer = RecordingAdamW(model, beta2=0.95)
            stats = step_fn(model, clips, indices, step, tcfg, optimizer, 0.01,
                            dual_masking=dual_masking)
            runs.append((stats, optimizer))
        (got, opt), (want, ref) = runs
        assert got.keys() == want.keys()
        for key in want:
            assert_same_bytes(np.float64(got[key]), np.float64(want[key]), key)
        for name, grad in ref.seen.items():
            assert_same_bytes(opt.seen[name], grad, name)
        for field in ("data", "m", "v"):
            assert_same_bytes(getattr(opt, field), getattr(ref, field), field)

    def test_adamw_arena_after_three_steps(self, monkeypatch):
        clips = tiny_clips(16)
        tcfg = desk_train_config("pretrain", seed=0)
        optimizers = []
        built = training.optimizer_for
        monkeypatch.setattr(training, "optimizer_for",
                            lambda *a: optimizers.append(built(*a)) or optimizers[-1])
        cfg = preset("Tiny")
        _, log = training.run_pretrain(cfg, tcfg, clips, TINY_V, TINY_A, steps=3)
        monkeypatch.setattr(training, "pretrain_step", per_sample_pretrain_step)
        _, ref_log = training.run_pretrain(cfg, tcfg, clips, TINY_V, TINY_A, steps=3)
        assert log.lines() == ref_log.lines()
        got, want = optimizers
        assert got.t == want.t == 3
        for field in ("data", "grad", "m", "v"):
            assert_same_bytes(getattr(got, field), getattr(want, field), field)


class TestTargets:
    @pytest.mark.parametrize("dual_masking", [True, False],
                             ids=["ragged", "no-dual-masking"])
    def test_targets_match_per_clip_normalisation(self, dual_masking):
        """Gathering the batch's target rows and then normalising gives the
        bytes of normalising each whole clip and then gathering."""
        cfg = preset("Tiny")
        clips = tiny_clips(8)
        pairs = [make_mask_pairs(cfg, TINY_V, TINY_A, sample_rng(0, 1, i),
                                 dual_masking=dual_masking) for i in range(8)]
        pairs_v, pairs_a = [p[0] for p in pairs], [p[1] for p in pairs]
        model = tiny_model()
        res = model.forward_sample(clips, pairs_v, pairs_a)
        model.clear_caches()
        want = per_clip_targets(model, clips, pairs_v, pairs_a)
        for modality in ("video", "audio"):
            assert_same_bytes(res[modality]["targets"], want[modality], modality)


class TestRowGathers:
    def test_match_take_and_put_along_axis(self, monkeypatch):
        """The visible tokens each encoder reads, the target rows and the
        gradient scattered back to each embedding are the bytes of
        ``np.take_along_axis`` and ``np.put_along_axis``."""
        cfg = preset("Tiny")
        clips = tiny_clips(8)
        pairs = [make_mask_pairs(cfg, TINY_V, TINY_A, sample_rng(0, 1, i)) for i in range(8)]
        pairs_m = {"video": [p[0] for p in pairs], "audio": [p[1] for p in pairs]}
        model = tiny_model()
        seen = {}

        def record(block, method, key, arg=None):
            inner = getattr(block, method)

            def wrapper(*args, **kwargs):
                result = inner(*args, **kwargs)
                seen[key] = result if arg is None else args[arg]
                return result
            monkeypatch.setattr(block, method, wrapper)

        for modality in ("video", "audio"):
            embed = getattr(model, f"{modality}_embed")
            encoder = getattr(model, f"{modality}_encoder")
            record(embed, "forward", (modality, "tokens"))
            record(embed, "backward", (modality, "d_tokens"), arg=0)
            record(encoder, "encode", (modality, "visible_tokens"), arg=0)
            record(encoder, "backward", (modality, "d_visible"))
        res = model.forward_sample(clips, pairs_m["video"], pairs_m["audio"])
        model.backward_sample(*(np.ones_like(res[m]["predictions"]) for m in ("video", "audio")),
                              None, None)
        for modality, pairs_ in pairs_m.items():
            embed = getattr(model, f"{modality}_embed")
            visible = np.stack([pair.visible_indices for pair in pairs_])
            targets = np.stack([pair.target_indices for pair in pairs_])
            assert_same_bytes(seen[modality, "visible_tokens"],
                              oracle_take_rows(seen[modality, "tokens"], visible), modality)
            patches = embed.patches([getattr(clip, modality) for clip in clips])
            want = normalize_targets(oracle_take_rows(patches, targets)).astype(
                res[modality]["predictions"].dtype)
            assert_same_bytes(res[modality]["targets"], want, modality)
            d_visible = seen[modality, "d_visible"]
            assert_same_bytes(seen[modality, "d_tokens"],
                              oracle_put_rows(pairs_[0].n_tokens, visible, d_visible), modality)


def all_blocks(block):
    yield block
    for child in block._children.values():
        yield from all_blocks(child)


class TestRejectedBatch:
    @pytest.mark.parametrize("fault", [
        "video-tokens", "audio-tokens", "video-shape", "audio-shape",
        "pair-count", "visible-count"])
    def test_leaves_no_tape_and_next_step_matches_fresh_model(self, fault):
        """Every batch check runs before any block: a rejected batch leaves
        every tape and pending gradient empty, so the next step's gradients
        are a fresh model's."""
        cfg = preset("Tiny")
        clips = tiny_clips(2)
        pairs = [make_mask_pairs(cfg, TINY_V, TINY_A, sample_rng(0, 1, i)) for i in range(2)]
        pairs_v, pairs_a = [p[0] for p in pairs], [p[1] for p in pairs]
        bad_clips = clips
        if fault.endswith("-tokens"):   # one pair of 65 (video) or 9 (audio) tokens
            bad = pairs_v if fault == "video-tokens" else pairs_a
            bad[1] = MaskPair(np.append(bad[1].encoder_mask, True),
                              np.append(bad[1].decoder_targets, False))
        elif fault == "video-shape":
            bad_clips = [RawClip(np.zeros((4,) + TINY_V[1:] + (3,), dtype=np.float32),
                                 clip.audio) for clip in clips]
        elif fault == "audio-shape":
            bad_clips = [RawClip(clip.video, np.zeros((16, TINY_A[1]), dtype=np.float32))
                         for clip in clips]
        elif fault == "pair-count":
            pairs_a = pairs_a[:1]
        else:   # one masked, untargeted audio token becomes visible
            enc, tgt = pairs_a[1].encoder_mask.copy(), pairs_a[1].decoder_targets
            enc[np.flatnonzero(enc & ~tgt)[0]] = False
            pairs_a[1] = MaskPair(enc, tgt)
        model = tiny_model()
        with pytest.raises(ValueError):
            model.forward_sample(bad_clips, pairs_v, pairs_a)
        for block in all_blocks(model):
            assert not block._tape and block._slab is None, type(block).__name__

        tcfg = desk_train_config("pretrain", seed=0)
        seen = []
        for m in (model, tiny_model()):
            optimizer = RecordingAdamW(m, beta2=0.95)
            training.pretrain_step(m, clips, [0, 1], 1, tcfg, optimizer, 0.01)
            seen.append(optimizer.seen)
        got, want = seen
        for name, grad in want.items():
            assert_same_bytes(got[name], grad, name)


class TestBatchBoundary:
    @pytest.mark.parametrize("modality, field", [
        ("video", "visible"), ("video", "target"), ("audio", "visible")])
    def test_mask_pairs_with_different_counts_rejected(self, modality, field):
        cfg = preset("Tiny")
        pairs = [make_mask_pairs(cfg, TINY_V, TINY_A, sample_rng(0, 1, i)) for i in range(2)]
        slot = 0 if modality == "video" else 1
        pair = pairs[1][slot]
        enc, tgt = pair.encoder_mask.copy(), pair.decoder_targets.copy()
        if field == "visible":   # one masked, untargeted token becomes visible
            enc[np.flatnonzero(enc & ~tgt)[0]] = False
        else:                    # one more target inside the encoder mask
            tgt[np.flatnonzero(enc & ~tgt)[0]] = True
        odd = list(pairs[1])
        odd[slot] = MaskPair(enc, tgt)
        pairs[1] = tuple(odd)
        n = (pairs[0][slot].n_tokens - int(pairs[0][slot].encoder_mask.sum())
             if field == "visible" else int(pairs[0][slot].decoder_targets.sum()))
        with pytest.raises(ValueError, match=f"{modality} mask pairs differ in "
                                             f"{field} count: {n} and {n + 1}"):
            tiny_model().forward_sample(tiny_clips(2), [p[0] for p in pairs],
                                        [p[1] for p in pairs])
