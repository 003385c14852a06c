"""Tokenisation, positional codes, target normalisation, clip files."""

import re

import numpy as np
import pytest

from avmae.config import preset
from avmae.embedding import (TARGET_EPS, AudioEmbed, RawClip, VideoEmbed,
                             audio_patches, grid_codes, grid_coords,
                             normalize_targets, positional_encoding, read_clip,
                             video_patches, write_clip)


def embed_clips(embed, arrays):
    """Tokens [S, N, C] of one modality's clip arrays; drops the tape."""
    tokens = embed.forward(embed.patches(arrays))
    embed.clear_caches()
    return tokens


class TestTokenCounts:
    def test_b_video_token_count(self):
        """16x160x160 with (2,16,16) tubelets: 8*10*10 = 800 tokens."""
        rng = np.random.default_rng(0)
        embed = VideoEmbed(preset("B"), (16, 160, 160), rng)
        video = rng.random((16, 160, 160, 3)).astype(np.float32)
        assert embed_clips(embed, [video]).shape == (1, 800, 512)
        assert embed.grid == (8, 10, 10)

    def test_b_audio_token_count(self):
        rng = np.random.default_rng(1)
        embed = AudioEmbed(preset("B"), (256, 128), rng)
        tokens = embed_clips(embed, [rng.random((256, 128)).astype(np.float32)])
        assert tokens.shape == (1, 128, 512)
        assert embed.grid == (16, 8)

    def test_tiny_counts(self):
        cfg = preset("Tiny")
        rng = np.random.default_rng(2)
        video = embed_clips(VideoEmbed(cfg, (8, 32, 32), rng),
                            [rng.random((8, 32, 32, 3)).astype(np.float32)])
        audio = embed_clips(AudioEmbed(cfg, (32, 16), rng),
                            [rng.random((32, 16)).astype(np.float32)])
        assert video.shape[1] == 64
        assert audio.shape[1] == 8

    def test_tiny_video_count_by_enumeration(self):
        """Count tubelets directly instead of using the formula."""
        t, h, w = 8, 32, 32
        tt, p, _ = preset("Tiny").video_tubelet
        count = sum(1 for _ in range(0, t, tt) for _ in range(0, h, p)
                    for _ in range(0, w, p))
        assert count == 64

    def test_divisibility_violation_raises(self):
        rng = np.random.default_rng(3)
        embed = VideoEmbed(preset("B"), (16, 150, 150), rng)
        with pytest.raises(ValueError, match="not divisible"):
            embed.patches([np.zeros((16, 150, 150, 3), dtype=np.float32)])


class TestPositionalEncoding:
    def test_zero_clip_with_zero_bias_gives_pure_positions(self):
        cfg = preset("Tiny")
        rng = np.random.default_rng(4)
        embed = VideoEmbed(cfg, (8, 32, 32), rng)
        embed.proj.bias.data[...] = 0.0
        tokens = embed_clips(embed, [np.zeros((8, 32, 32, 3), dtype=np.float32)])
        expected = positional_encoding(grid_coords(embed.grid), cfg.encoder_dim)
        assert np.allclose(tokens, expected, atol=1e-7)

    def test_single_patch_gets_origin_encoding(self):
        cfg = preset("Tiny")
        rng = np.random.default_rng(5)
        embed = AudioEmbed(cfg, (8, 8), rng)
        embed.proj.bias.data[...] = 0.0
        tokens = embed_clips(embed, [np.zeros((8, 8), dtype=np.float32)])
        assert tokens.shape[1] == 1
        origin = positional_encoding(np.array([[0, 0]]), cfg.encoder_dim)
        assert np.allclose(tokens, origin, atol=1e-7)

    def test_deterministic_function_of_coords(self):
        coords = grid_coords((3, 4))
        a = positional_encoding(coords, 16)
        b = positional_encoding(coords.copy(), 16)
        assert np.array_equal(a, b)

    def test_grid_codes_made_once_and_read_only(self):
        codes = grid_codes((2, 3, 4), 16)
        want = positional_encoding(grid_coords((2, 3, 4)), 16)
        assert codes.tobytes() == want.tobytes()
        assert not codes.flags.writeable
        assert grid_codes((2, 3, 4), 16) is codes

    def test_coordinates_bijective_row_major(self):
        grid = (4, 4, 4)
        coords = grid_coords(grid)
        flat = coords[:, 0] * 16 + coords[:, 1] * 4 + coords[:, 2]
        assert np.array_equal(flat, np.arange(64))


class TestPatchExtraction:
    def test_patch_content_matches_slices(self):
        rng = np.random.default_rng(6)
        video = rng.random((4, 8, 8, 3)).astype(np.float32)
        patches = video_patches(video, (2, 4, 4))
        # token order row-major over (t, h, w): second token is (t=0,h=0,w=1)
        manual = video[0:2, 0:4, 4:8, :].reshape(-1)
        assert np.allclose(patches[1], manual)

    def test_audio_patches(self):
        rng = np.random.default_rng(7)
        audio = rng.random((8, 8)).astype(np.float32)
        patches = audio_patches(audio, (4, 4))
        assert patches.shape == (4, 16)
        assert np.allclose(patches[3], audio[4:8, 4:8].reshape(-1))


class TestTargets:
    def clip(self, seed=8):
        rng = np.random.default_rng(seed)
        return RawClip(rng.random((8, 32, 32, 3)).astype(np.float32),
                       rng.random((32, 16)).astype(np.float32))

    def test_constant_patch_maps_to_zero(self):
        clip = RawClip(np.full((8, 32, 32, 3), 0.5, dtype=np.float32),
                       np.zeros((32, 16), dtype=np.float32))
        targets = normalize_targets(video_patches(clip.video, preset("Tiny").video_tubelet))
        assert np.allclose(targets, 0.0)

    def test_mean_zero_std_one(self):
        targets = normalize_targets(video_patches(self.clip().video,
                                                  preset("Tiny").video_tubelet))
        assert targets.dtype == np.float64
        assert np.max(np.abs(targets.mean(axis=1))) < 1e-5
        assert np.max(np.abs(targets.std(axis=1) - 1.0)) < 1e-5

    @pytest.mark.parametrize("shape", [(64, 384), (8, 64), (5, 7), (1, 1), (3, 40, 96)])
    def test_matches_mean_var_formulation_bitwise(self, shape):
        rng = np.random.default_rng(sum(shape))
        patches = rng.normal(2.0, 3.0, size=shape)
        want = ((patches - patches.mean(axis=-1, keepdims=True))
                / np.sqrt(patches.var(axis=-1, keepdims=True) + TARGET_EPS))
        assert normalize_targets(patches).tobytes() == want.tobytes()


class TestClipFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        clip = RawClip(rng.random((8, 32, 32, 3)).astype(np.float32),
                       rng.random((32, 16)).astype(np.float32))
        path = tmp_path / "c.avclip"
        write_clip(path, clip)
        back = read_clip(path)
        assert np.array_equal(clip.video, back.video)
        assert np.array_equal(clip.audio, back.audio)

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(11)
        clip = RawClip(rng.random((8, 32, 32, 3)).astype(np.float32),
                       rng.random((32, 16)).astype(np.float32))
        path = tmp_path / "c.avclip"
        write_clip(path, clip)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="payload"):
            read_clip(path)

    @pytest.mark.parametrize("modality", ["video", "audio"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, modality, value):
        rng = np.random.default_rng(12)
        clip = RawClip(rng.random((8, 32, 32, 3)).astype(np.float32),
                       rng.random((32, 16)).astype(np.float32))
        getattr(clip, modality).flat[5] = value
        path = tmp_path / "c.avclip"
        write_clip(path, clip)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {modality} payload holds non-finite")):
            read_clip(path)

    def test_odd_frame_count_rejected(self):
        with pytest.raises(ValueError):
            RawClip(np.zeros((7, 8, 8, 3), dtype=np.float32),
                    np.zeros((8, 8), dtype=np.float32))
