"""Checkpoint format and the command-line surface."""

import builtins
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from avmae import checkpoint as ckpt
from avmae import verify as verifymod
from avmae.cli import main
from avmae.config import desk_train_config, preset
from avmae.embedding import read_clip, write_clip
from avmae.finetune import FinetuneModel
from avmae.gradcheck import GradCheckReport
from avmae.training import SyntheticTask, gen_synthetic, run_supervised, sample_rng


def tiny_model(seed=0, outputs=2):
    return FinetuneModel(preset("Tiny"), (8, 32, 32), (32, 16), outputs,
                         rng=sample_rng(seed))


def fake_grad_check(error, probes_seen):
    """A ``GRAD_CHECKS`` function whose report holds one ``error``; it
    records the probe count it is called with."""
    def check(tolerance, probes):
        probes_seen.append(probes)
        return GradCheckReport(tolerance, {"weight": error})
    return check


class TestCheckpoint:
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

    def test_restored_model_predicts_bitwise(self, tmp_path):
        """Batch-norm running statistics travel with the checkpoint: a fresh
        model restored from it predicts exactly what the trained one does."""
        cfg = preset("Tiny")
        model = tiny_model(outputs=3)
        task = SyntheticTask(3, (8, 32, 32), (32, 16), noise=0.1, seed=4)
        clips, labels = gen_synthetic(task, 8)
        run_supervised(model, desk_train_config("finetune", seed=4), clips, labels,
                       steps=2)
        path = tmp_path / "trained.avck"
        ckpt.save(path, model, cfg, "finetune")
        fresh = tiny_model(seed=5, outputs=3)
        ckpt.load_into(fresh, path, cfg)
        for clip in clips[:3]:
            assert fresh.predict(clip).tobytes() == model.predict(clip).tobytes()
        assert int(fresh.iavcl.er.conv.num_batches) == int(model.iavcl.er.conv.num_batches) > 0

    def test_old_format_version_exits_2_naming_it(self, tmp_path, capsys):
        cfg = preset("Tiny")
        path = tmp_path / "v1.avck"
        ckpt.save(path, tiny_model(), cfg, "post_pretrain")
        raw = path.read_bytes()
        head, payload = raw.split(b"\n--payload--\n", 1)
        manifest = json.loads(head)
        manifest["format_version"] = 1
        path.write_bytes(json.dumps(manifest).encode() + b"\n--payload--\n" + payload)
        data = tmp_path / "data"
        main(["gen-data", "--task", "2", "--n", "2", "--out", str(data)])
        code = main(["finetune", "--data", str(data), "--out", str(tmp_path / "run"),
                     "--init", str(path), "--steps", "1"])
        assert code == 2
        assert "format version 1" in capsys.readouterr().err

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.avck"
        path.write_bytes(b"hello world")
        with pytest.raises(ValueError, match="sentinel"):
            ckpt.load(path)


class _DiskFull:
    """A binary file that takes ``limit`` bytes, then fails like a full disk."""

    def __init__(self, fh, limit):
        self._fh, self._left = fh, limit

    def write(self, data):
        if len(data) > self._left:
            self._fh.write(bytes(data[:self._left]))
            self._left = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self._left -= len(data)
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestAtomicWrites:
    """A write that fails partway leaves the old file whole and no
    temporary file behind."""

    @staticmethod
    def fill_disk_after(monkeypatch, directory, limit):
        real_open = builtins.open

        def limited_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "b" in mode and ("w" in mode or "x" in mode) \
                    and Path(file).parent == directory:
                return _DiskFull(fh, limit)
            return fh

        monkeypatch.setattr(builtins, "open", limited_open)

    def test_failed_checkpoint_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.avck"
        ckpt.save(path, tiny_model(seed=0), preset("Tiny"), "finetune")
        old = path.read_bytes()
        self.fill_disk_after(monkeypatch, tmp_path, len(old) // 2)
        with pytest.raises(OSError, match="No space left"):
            ckpt.save(path, tiny_model(seed=1), preset("Tiny"), "finetune")
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.avck"]

    def test_failed_clip_write_keeps_old_file(self, tmp_path, monkeypatch):
        task = SyntheticTask(2, (8, 32, 32), (32, 16), seed=0)
        path = tmp_path / "clip.avclip"
        write_clip(path, task.clip(0)[0])
        old = path.read_bytes()
        self.fill_disk_after(monkeypatch, tmp_path, len(old) // 2)
        with pytest.raises(OSError, match="No space left"):
            write_clip(path, task.clip(1)[0])
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert np.array_equal(read_clip(path).video, task.clip(0)[0].video)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clip.avclip"]

    def test_failed_manifest_write_keeps_old_file(self, tmp_path, monkeypatch):
        task = SyntheticTask(2, (8, 32, 32), (32, 16), seed=0)
        gen_synthetic(task, 2, out_dir=tmp_path)
        manifest = tmp_path / "manifest.jsonl"
        old = manifest.read_bytes()
        real_replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == "manifest.jsonl":
                raise OSError(errno.EIO, "Input/output error")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="Input/output"):
            gen_synthetic(task, 3, out_dir=tmp_path)
        monkeypatch.undo()
        assert manifest.read_bytes() == old
        assert [json.loads(line)["file"] for line in old.decode().splitlines()] == \
            ["clip_00000.avclip", "clip_00001.avclip"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clip_00000.avclip", "clip_00001.avclip", "clip_00002.avclip",
            "manifest.jsonl"]


class TestCLI:
    def test_shapes_reports_token_trace(self, capsys):
        assert main(["shapes", "--preset", "B"]) == 0
        out = capsys.readouterr().out
        assert "tokens 800" in out
        assert "tokens 128" in out
        assert "video 480" in out          # decoder sequence
        assert "combined total" in out

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "avmae", "shapes", "--preset", "Tiny"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "tokens" in proc.stdout

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["shapes", "--presett", "B"])
        assert exc.value.code == 2

    def test_check_grads_single_module(self, monkeypatch, capsys):
        probes = []
        monkeypatch.setattr(verifymod, "GRAD_CHECKS", {
            "first": (fake_grad_check(0.5, probes), 1e-6, None),
            "second": (fake_grad_check(0.0, probes), 1e-6, 48)})
        assert main(["check-grads", "--module", "second"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS second: max rel err 0.000e+00 (tolerance 1e-06)"]
        assert probes == [48]

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

    def test_non_square_tubelet_fails_validation(self, tmp_path, capsys):
        """The grid's width comes from the tubelet's third size, so the
        region mismatch is reported before any model is built."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"video_tubelet": [2, 8, 4]}}))
        data = tmp_path / "data"
        main(["gen-data", "--task", "2", "--n", "2", "--out", str(data)])
        out = tmp_path / "run"
        code = main(["pretrain", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(out), "--steps", "1"])
        assert code == 2
        assert "region counts differ: video 8 vs audio 4" in capsys.readouterr().err
        assert not out.exists()

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
        ({"train": {"batch": "x"}}, "batch"),
        ({"train": {"batch": 1.5}}, "batch"),
        ({"train": {"batch": True}}, "batch"),
        ({"train": {"seed": 1.5}}, "seed"),
        ({"train": {"stage": 1}}, "stage"),
        ({"train": {"base_lr": True}}, "base_lr"),
        ({"model": {"encoder_heads": "4"}}, "encoder_heads"),
        ({"model": {"skip_indices": 3}}, "skip_indices"),
        ({"model": {"skip_indices": [1.0, 3]}}, "skip_indices"),
        ({"model": {"video_region": [2, 2]}}, "video_region"),
        ({"model": {"contrastive_temperature": "0.07"}}, "contrastive_temperature"),
        ({"train": {"drop_path": 1.5}}, "drop_path"),
        ({"train": {"drop_path": -1}}, "drop_path"),
        ({"train": {"base_lr": -1}}, "base_lr"),
        ({"train": {"base_lr": 0}}, "base_lr"),
        ({"train": {"base_lr": float("inf")}}, "base_lr"),
        ({"train": {"drop_path": 0.1}}, "drop_path"),
        ({"train": {"label_smoothing": 0.1}}, "label_smoothing"),
        ({"train": {"weight_decay": -1}}, "weight_decay"),
        ({"train": {"weight_decay": float("nan")}}, "weight_decay"),
        ({"train": {"weight_decay": float("inf")}}, "weight_decay"),
        ({"model": {"encoder_dim": 0}}, "encoder_dim"),
        ({"model": {"decoder_dim": 0}}, "decoder_dim"),
        ({"model": {"contrastive_temperature": -1}}, "contrastive_temperature"),
        ({"model": {"contrastive_temperature": 0}}, "contrastive_temperature"),
        ({"model": {"contrastive_temperature": float("nan")}}, "contrastive_temperature"),
        ({"model": {"contrastive_weight": -1}}, "contrastive_weight"),
        ({"model": {"contrastive_weight": float("inf")}}, "contrastive_weight"),
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

    @pytest.mark.parametrize("record, field", [
        ([1, 2], "not a JSON object"),
        ({"file": "clip_00001.avclip", "label": 1.7}, "label"),
        ({"file": "clip_00001.avclip"}, "label"),
        ({"file": "clip_00001.avclip", "label": True}, "label"),
        ({"file": "clip_00001.avclip", "label": -1}, "label"),
        ({"file": 1, "label": 1}, "file"),
    ], ids=["not-object", "float-label", "missing-label", "bool-label",
            "negative-label", "non-string-file"])
    def test_malformed_manifest_line_exits_2_naming_it(self, tmp_path, capsys,
                                                        record, field):
        data = tmp_path / "data"
        main(["gen-data", "--task", "2", "--n", "2", "--out", str(data)])
        manifest = data / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        lines[1] = json.dumps(record)
        manifest.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        code = main(["pretrain", "--data", str(data), "--out", str(out), "--steps", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest} line 2: ") and field in err
        assert not out.exists()

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

    def test_runs_both_registries_in_order(self, monkeypatch, capsys):
        probes = []
        monkeypatch.setattr(verifymod, "PROPERTY_CHECKS", {
            "prop_ok": lambda: (True, "holds"),
            "prop_bad": lambda: (False, "broke")})
        monkeypatch.setattr(verifymod, "GRAD_CHECKS", {
            "grad_ok": (fake_grad_check(0.0, probes), 1e-6, None),
            "grad_bad": (fake_grad_check(0.5, probes), 1e-4, 8)})
        assert main(["verify", "--grad-probes", "3"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS prop_ok: holds",
            "FAIL prop_bad: broke",
            "PASS grad:grad_ok: max rel err 0.00e+00 (tol 1e-06)",
            "FAIL grad:grad_bad: max rel err 5.00e-01 (tol 0.0001)",
            "2/4 checks passed"]
        assert probes == [3, 3]
