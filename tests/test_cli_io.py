"""Checkpoint format and the command-line surface."""

import json

import numpy as np
import pytest

from avmae import checkpoint as ckpt
from avmae import verify as verifymod
from avmae.cli import main
from avmae.config import preset
from avmae.finetune import FinetuneModel
from avmae.training import sample_rng


def tiny_model(seed=0, outputs=2):
    return FinetuneModel(preset("Tiny"), (8, 32, 32), (32, 16), outputs,
                         rng=sample_rng(seed))


class TestCheckpoint:
    def test_save_load_save_bitwise(self, tmp_path):
        cfg = preset("Tiny")
        model = tiny_model()
        p1 = tmp_path / "a.avck"
        p2 = tmp_path / "b.avck"
        ckpt.save(p1, model, cfg, "finetune")
        ckpt.load_into(model, p1, cfg)
        ckpt.save(p2, model, cfg, "finetune")
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_roundtrip_exactly(self, tmp_path):
        cfg = preset("Tiny")
        model = tiny_model(1)
        path = tmp_path / "c.avck"
        ckpt.save(path, model, cfg, "finetune")
        fresh = tiny_model(2)
        ckpt.load_into(fresh, path, cfg)
        for (na, pa), (nb, pb) in zip(model.named_parameters(),
                                      fresh.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_truncated_payload_names_first_bad_entry(self, tmp_path):
        cfg = preset("Tiny")
        model = tiny_model()
        path = tmp_path / "d.avck"
        ckpt.save(path, model, cfg, "finetune")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match="truncated at entry"):
            ckpt.load(path)

    def test_config_mismatch_lists_fields(self, tmp_path):
        cfg = preset("Tiny")
        model = tiny_model()
        path = tmp_path / "e.avck"
        ckpt.save(path, model, cfg, "finetune")
        with pytest.raises(ValueError) as err:
            ckpt.load_into(model, path, preset("B"))
        msg = str(err.value)
        assert "encoder_dim" in msg and "skip_indices" in msg

    def test_entry_mismatch_rejected(self, tmp_path):
        cfg = preset("Tiny")
        model = tiny_model(outputs=2)
        path = tmp_path / "f.avck"
        ckpt.save(path, model, cfg, "finetune")
        other = tiny_model(outputs=5)
        with pytest.raises(ValueError, match="shape mismatch"):
            ckpt.load_into(other, path, cfg)

    def test_transfer_requires_all_included_names(self, tmp_path):
        cfg = preset("Tiny")
        model = tiny_model()
        path = tmp_path / "g.avck"
        ckpt.save(path, model, cfg, "finetune")
        _, tensors = ckpt.load(path)
        del tensors["video_encoder.region_tokens"]
        fresh = tiny_model(3)
        with pytest.raises(ValueError, match="lacks parameter"):
            ckpt.transfer(fresh, tensors, include_prefixes=("video_encoder.",))

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.avck"
        path.write_bytes(b"hello world")
        with pytest.raises(ValueError, match="sentinel"):
            ckpt.load(path)


class TestCLI:
    def test_shapes_reports_token_trace(self, capsys):
        assert main(["shapes", "--preset", "B"]) == 0
        out = capsys.readouterr().out
        assert "tokens 800" in out
        assert "tokens 128" in out
        assert "video 480" in out          # decoder sequence
        assert "combined total" in out

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["shapes", "--presett", "B"])
        assert exc.value.code == 2

    def test_check_grads_single_module(self, capsys):
        assert main(["check-grads", "--module", "linear"]) == 0
        assert "PASS linear" in capsys.readouterr().out

    def test_maskdump_ascii_and_pbm(self, tmp_path, capsys):
        out = tmp_path / "mask.pbm"
        code = main(["maskdump", "--type", "tube", "--grid", "4,4,4",
                     "--ratio", "0.5", "--seed", "3", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "t=0" in text and "#" in text
        pbm = out.read_text()
        assert pbm.startswith("P1\n")

    def test_maskdump_cell(self, capsys):
        assert main(["maskdump", "--type", "cell", "--grid", "4,4,4",
                     "--ratio", "0.5"]) == 0

    def test_gen_data_and_pipeline(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--task", "2,0.1", "--n", "4", "--seed", "5",
                     "--out", str(data)]) == 0
        assert (data / "manifest.jsonl").exists()
        assert len(list(data.glob("*.avclip"))) == 4

        pre = tmp_path / "pre"
        code = main(["pretrain", "--data", str(data), "--out", str(pre),
                     "--seed", "0", "--steps", "2"])
        assert code == 0
        assert (pre / "checkpoint.avck").exists()
        assert (pre / "metrics.jsonl").exists()

        post = tmp_path / "post"
        code = main(["posttrain", "--data", str(data), "--out", str(post),
                     "--init", str(pre / "checkpoint.avck"), "--steps", "2"])
        assert code == 0

        ft = tmp_path / "ft"
        code = main(["finetune", "--data", str(data), "--out", str(ft),
                     "--init", str(post / "checkpoint.avck"), "--steps", "2"])
        assert code == 0
        lines = (ft / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["stage"] == "finetune"

    def test_finetune_without_init_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen-data", "--task", "2", "--n", "2", "--out", str(data)])
        code = main(["finetune", "--data", str(data),
                     "--out", str(tmp_path / "x"), "--steps", "1"])
        assert code == 2

    def test_bad_task_spec_exits_2(self, tmp_path):
        code = main(["gen-data", "--task", "two", "--n", "2",
                     "--out", str(tmp_path / "d")])
        assert code == 2

    def test_config_file_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"train": {"base_lr": 0.05, "batch": 2}}))
        data = tmp_path / "data"
        main(["gen-data", "--task", "2", "--n", "2", "--out", str(data)])
        out = tmp_path / "run"
        code = main(["pretrain", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(out), "--steps", "1"])
        assert code == 0

    def test_config_stage_mismatch_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"train": {"stage": "finetune"}}))
        data = tmp_path / "data"
        main(["gen-data", "--task", "2", "--n", "2", "--out", str(data)])
        code = main(["pretrain", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(tmp_path / "y"), "--steps", "1"])
        assert code == 2

    @pytest.mark.parametrize("config, field", [
        ({"model": 5}, "model"),
        ({"train": [2]}, "train"),
        ({"train": {"batch": 0}}, "batch"),
        ({"train": {"batch": -2}}, "batch"),
        ({"train": {"epochs": -1}}, "epochs"),
        ({"train": {"warmup_epochs": -1}}, "warmup_epochs"),
        ({"model": {"encoder_heads": 0}}, "encoder_heads"),
        ({"model": {"decoder_heads": 0}}, "decoder_heads"),
        ({"model": {"fusion_heads": 0}}, "fusion_heads"),
    ])
    def test_bad_config_value_exits_2_naming_field(self, tmp_path, capsys,
                                                    config, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        data = tmp_path / "data"
        main(["gen-data", "--task", "2", "--n", "2", "--out", str(data)])
        out = tmp_path / "run"
        code = main(["pretrain", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(out), "--steps", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    def test_zero_classes_exits_2(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = main(["gen-data", "--task", "0", "--n", "2", "--out", str(out)])
        assert code == 2
        assert "at least one class" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_manifest_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.jsonl").write_text("")
        code = main(["pretrain", "--data", str(data),
                     "--out", str(tmp_path / "run"), "--steps", "1"])
        assert code == 2
        assert "lists no clips" in capsys.readouterr().err

    def test_non_finite_gradient_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"train": {"base_lr": 1e300}}))
        data = tmp_path / "data"
        main(["gen-data", "--task", "2", "--n", "2", "--out", str(data)])
        with np.errstate(all="ignore"):
            code = main(["pretrain", "--config", str(cfg_path), "--data", str(data),
                         "--out", str(tmp_path / "run"), "--steps", "3"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite gradient" in err


class TestVerifyCommand:
    def run_with(self, monkeypatch, capsys, results):
        monkeypatch.setattr(verifymod, "property_suite", lambda grad_probes: results)
        code = main(["verify"])
        return code, capsys.readouterr().out

    def test_failing_check_exits_1(self, monkeypatch, capsys):
        code, out = self.run_with(monkeypatch, capsys, [
            verifymod.CheckResult("fine", True, "ok"),
            verifymod.CheckResult("broken", False, "went wrong")])
        assert code == 1
        assert "FAIL broken: went wrong" in out
        assert "1/2 checks passed" in out

    def test_all_passing_exits_0(self, monkeypatch, capsys):
        code, out = self.run_with(monkeypatch, capsys, [
            verifymod.CheckResult("fine", True, "ok")])
        assert code == 0
        assert "PASS fine: ok" in out

    def test_check_names_unique(self):
        names = [r.name for r in verifymod.property_suite(grad_probes=1)]
        assert len(names) == len(set(names))
