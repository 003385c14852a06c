"""Preset tables, geometry validation, config-file parsing."""

import json
from dataclasses import fields

import pytest

from avmae.config import (DOMAINS, ModelConfig, TrainConfig, PRESET_INPUTS,
                          desk_train_config, load_config_file,
                          fullscale_train_config, preset, validate)

from registry_runs import property_result


class TestPresets:
    def test_b_skip_indices(self):
        assert preset("B").skip_indices == [3, 6, 9]

    def test_h_encoder_dim(self):
        assert preset("H").encoder_dim == 768

    def test_architecture_rows(self):
        passed, detail = property_result("config_table_fidelity")
        assert passed, detail

    def test_shared_settings(self):
        for name in ("B", "L", "H"):
            cfg = preset(name)
            assert cfg.video_region == (2, 5, 10)
            assert cfg.audio_region == (4, 4)
            assert cfg.num_dier_units == 2
            assert cfg.contrastive_temperature == 0.07
            assert cfg.contrastive_weight == 0.0025

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("XL")

    def test_tiny_validates_against_tiny_geometry(self):
        assert validate(preset("Tiny"), (8, 32, 32), (32, 16)) == []

    def test_equal_region_counts_for_all_presets(self):
        from avmae.config import audio_grid, region_count, video_grid
        for name, (vshape, ashape) in PRESET_INPUTS.items():
            cfg = preset(name)
            kv = region_count(video_grid(cfg, vshape), cfg.video_region)
            ka = region_count(audio_grid(cfg, ashape), cfg.audio_region)
            assert kv == ka
            if name != "Tiny":
                assert kv == 8


class TestValidate:
    def test_b_video_geometry_ok(self):
        errors = validate(preset("B"), (16, 160, 160), (256, 128))
        assert errors == []

    def test_non_integral_grid_rejected(self):
        errors = validate(preset("B"), (16, 150, 150), (256, 128))
        assert any("not divisible" in e for e in errors)

    def test_collects_every_violation(self):
        cfg = preset("B")
        bad = ModelConfig.from_dict(
            {"encoder_heads": 7, "skip_indices": [3, 2]}, base=cfg)
        errors = validate(bad, (16, 150, 150), (255, 128))
        assert len(errors) >= 3

    def test_region_count_mismatch_reported(self):
        cfg = ModelConfig.from_dict({"audio_region": [16, 8]}, base=preset("B"))
        errors = validate(cfg, (16, 160, 160), (256, 128))
        assert any("region counts differ" in e for e in errors)


# field: (a value just outside its domain, a value on its edge inside it)
_EDGES = {
    "encoder_dim": (0, 1), "encoder_heads": (0, 1), "encoder_depth": (0, 1),
    "decoder_dim": (0, 1), "decoder_heads": (0, 1), "decoder_depth": (-1, 0),
    "fusion_heads": (0, 1), "fusion_depth": (-1, 0),
    "skip_indices": ([0, -1], []),
    "video_region": ([1, 0, 1], [1, 1, 1]), "audio_region": ([1, 1, 1], [1, 1]),
    "video_tubelet": ([1, 1], [1, 1, 1]), "audio_patch": ([0, 1], [1, 1]),
    "num_dier_units": (0, 1),
    "contrastive_temperature": (0.0, 5e-324), "contrastive_weight": (-5e-324, 0),
    "base_lr": (0, 5e-324), "weight_decay": (float("inf"), 1.7976931348623157e308),
    "warmup_epochs": (-1, 0), "epochs": (-1, 0), "batch": (0, 1),
    "layer_decay": (1.0000000000000002, 1.0), "label_smoothing": (1.0, 0.9999999999999999),
    "drop_path": (-5e-324, 0), "seed": (-1, 0),
}


class TestDomains:
    def test_every_field_but_stage_has_one_domain(self):
        names = [f.name for cls in (ModelConfig, TrainConfig) for f in fields(cls)]
        assert sorted([*DOMAINS, "stage"]) == sorted(names)

    @pytest.mark.parametrize("field", sorted(DOMAINS))
    def test_edges(self, field):
        """A value just outside a field's domain is rejected naming the
        field; a value on the edge inside it builds."""
        if field in {f.name for f in fields(ModelConfig)}:
            cls, base = ModelConfig, preset("Tiny")
        else:
            cls, base = TrainConfig, desk_train_config("finetune")
        outside, inside = _EDGES[field]
        with pytest.raises(ValueError, match=f"^{field} must be "):
            cls.from_dict({field: outside}, base=base)
        assert cls.from_dict({field: inside}, base=base).to_dict()[field] == inside

    @pytest.mark.parametrize("value", [True, "1", 1.0, None, [1]])
    def test_integer_fields_take_only_ints(self, value):
        with pytest.raises(ValueError, match="^batch must be an integer >= 1, got "):
            TrainConfig.from_dict({"batch": value}, base=desk_train_config("finetune"))


class TestTrainConfig:
    def test_stage_values(self):
        with pytest.raises(ValueError):
            TrainConfig(base_lr=1e-3, weight_decay=0.0, warmup_epochs=0,
                        epochs=1, batch=1, layer_decay=0.5, label_smoothing=0.0,
                        drop_path=0.0, seed=0, stage="deploy")

    def test_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(base_lr=1e-3, weight_decay=0.0, warmup_epochs=0,
                        epochs=1, batch=1, layer_decay=1.5, label_smoothing=0.0,
                        drop_path=0.0, seed=0, stage="pretrain")
        with pytest.raises(ValueError):
            TrainConfig(base_lr=1e-3, weight_decay=0.0, warmup_epochs=0,
                        epochs=1, batch=1, layer_decay=0.5, label_smoothing=1.0,
                        drop_path=0.0, seed=0, stage="pretrain")

    def test_paper_values(self):
        pre = fullscale_train_config("pretrain")
        assert pre.base_lr == 1.5e-4 and pre.warmup_epochs == 20 and pre.epochs == 200
        ft = fullscale_train_config("finetune")
        assert ft.layer_decay == 0.75 and ft.label_smoothing == 0.1
        assert ft.drop_path == 0.1
        post = fullscale_train_config("post_pretrain")
        assert post.base_lr == 1e-3
        assert post.drop_path > ft.drop_path  # raised for post-pretraining

    def test_desk_configs_parse(self):
        for stage in ("pretrain", "post_pretrain", "finetune"):
            assert desk_train_config(stage).stage == stage


class TestConfigFiles:
    def test_roundtrip(self, tmp_path):
        cfg = preset("Tiny")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": cfg.to_dict()}))
        model_raw, train_raw = load_config_file(path)
        assert ModelConfig.from_dict(model_raw) == cfg
        assert train_raw is None

    def test_unknown_model_key_rejected(self):
        with pytest.raises(ValueError, match="unknown model config keys"):
            ModelConfig.from_dict({"encoder_dmi": 64}, base=preset("Tiny"))

    def test_missing_keys_without_base_rejected(self):
        with pytest.raises(ValueError, match="missing model config keys"):
            ModelConfig.from_dict({"encoder_dim": 64})

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {}, "trian": {}}))
        with pytest.raises(ValueError, match="unknown top-level"):
            load_config_file(path)

    def test_unknown_train_key_rejected(self):
        with pytest.raises(ValueError, match="unknown train config keys"):
            TrainConfig.from_dict({"lr": 1.0}, base=desk_train_config("pretrain"))
