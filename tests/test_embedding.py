"""Tokenisation, positional codes, target normalisation, clip files."""

import numpy as np
import pytest

from avmae.config import preset
from avmae.embedding import (AudioEmbed, RawClip, VideoEmbed, audio_patches,
                             grid_coords, normalize_targets,
                             positional_encoding, read_clip, video_patches,
                             write_clip)


def b_like_video_cfg():
    return preset("B")


class TestTokenCounts:
    def test_b_video_token_count(self):
        """16x160x160 with (2,16,16) tubelets: 8*10*10 = 800 tokens."""
        rng = np.random.default_rng(0)
        embed = VideoEmbed(preset("B"), rng)
        video = rng.random((16, 160, 160, 3)).astype(np.float32)
        seq = embed.forward(video)
        embed.clear_caches()
        assert seq.tokens.shape == (800, 512)
        assert seq.grid == (8, 10, 10)

    def test_b_audio_token_count(self):
        rng = np.random.default_rng(1)
        embed = AudioEmbed(preset("B"), rng)
        seq = embed.forward(rng.random((256, 128)).astype(np.float32))
        embed.clear_caches()
        assert seq.tokens.shape == (128, 512)
        assert seq.grid == (16, 8)

    def test_tiny_counts(self):
        cfg = preset("Tiny")
        rng = np.random.default_rng(2)
        vseq = VideoEmbed(cfg, rng).forward(rng.random((8, 32, 32, 3)).astype(np.float32))
        aseq = AudioEmbed(cfg, rng).forward(rng.random((32, 16)).astype(np.float32))
        assert vseq.tokens.shape[0] == 64
        assert aseq.tokens.shape[0] == 8

    def test_tiny_video_count_by_enumeration(self):
        """Count tubelets directly instead of using the formula."""
        t, h, w = 8, 32, 32
        tt, p, _ = preset("Tiny").video_tubelet
        count = sum(1 for _ in range(0, t, tt) for _ in range(0, h, p)
                    for _ in range(0, w, p))
        assert count == 64

    def test_divisibility_violation_raises(self):
        rng = np.random.default_rng(3)
        embed = VideoEmbed(preset("B"), rng)
        with pytest.raises(ValueError):
            embed.forward(np.zeros((16, 150, 150, 3), dtype=np.float32))


class TestPositionalEncoding:
    def test_zero_clip_with_zero_bias_gives_pure_positions(self):
        cfg = preset("Tiny")
        rng = np.random.default_rng(4)
        embed = VideoEmbed(cfg, rng)
        embed.proj.bias.data[...] = 0.0
        seq = embed.forward(np.zeros((8, 32, 32, 3), dtype=np.float32))
        embed.clear_caches()
        expected = positional_encoding(seq.coords, cfg.encoder_dim)
        assert np.allclose(seq.tokens, expected, atol=1e-7)

    def test_single_patch_gets_origin_encoding(self):
        cfg = preset("Tiny")
        rng = np.random.default_rng(5)
        embed = AudioEmbed(cfg, rng)
        embed.proj.bias.data[...] = 0.0
        seq = embed.forward(np.zeros((8, 8), dtype=np.float32))
        embed.clear_caches()
        assert seq.tokens.shape[0] == 1
        origin = positional_encoding(np.array([[0, 0]]), cfg.encoder_dim)
        assert np.allclose(seq.tokens, origin, atol=1e-7)

    def test_deterministic_function_of_coords(self):
        coords = grid_coords((3, 4))
        a = positional_encoding(coords, 16)
        b = positional_encoding(coords.copy(), 16)
        assert np.array_equal(a, b)

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
        targets = normalize_targets(clip, preset("Tiny"), "video")
        assert np.allclose(targets, 0.0)

    def test_mean_zero_std_one(self):
        targets = normalize_targets(self.clip(), preset("Tiny"), "video")
        assert np.max(np.abs(targets.mean(axis=1))) < 1e-5
        assert np.max(np.abs(targets.std(axis=1) - 1.0)) < 1e-5


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

    def test_odd_frame_count_rejected(self):
        with pytest.raises(ValueError):
            RawClip(np.zeros((7, 8, 8, 3), dtype=np.float32),
                    np.zeros((8, 8), dtype=np.float32))
