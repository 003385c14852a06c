"""Checkpoint format and the command-line surface."""

import argparse
import builtins
import errno
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from avmae import checkpoint as ckpt
from avmae import verify as verifymod
from avmae.cli import build_parser, main
from avmae.config import desk_train_config, preset
from avmae.embedding import RawClip, read_clip, write_clip
from avmae.finetune import FinetuneModel
from avmae.gradcheck import GradCheckReport
from avmae.training import SyntheticTask, gen_synthetic, run_supervised, sample_rng


def tiny_model(seed=0, outputs=2):
    return FinetuneModel(preset("Tiny"), (8, 32, 32), (32, 16), outputs,
                         rng=sample_rng(seed))


def run_avmae(*argv):
    """Run ``python -m avmae`` with ``argv`` in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "avmae", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def assert_flag_rejected(capsys, argv, message):
    """argparse exits 2 on ``argv`` with ``message`` on stderr and nothing
    on stdout, before any command runs."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert message in captured.err and not captured.out, captured.err


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


def _entry(i, **fields):
    return lambda header: header["entries"][i].update(fields)


# (id, header mutation, the field the error must name); every row loads or
# fails unnamed without the header check
_HEADER_FAULTS = [
    ("not-json", b"{not json", "not JSON"),
    ("list", [], "not a JSON object"),
    ("no-version", lambda header: header.pop("format_version"), "'format_version'"),
    ("no-entries", lambda header: header.pop("entries"), "'entries'"),
    ("no-buffers", lambda header: header.pop("buffers"), "'buffers'"),
    ("stage-not-string", lambda header: header.update(stage=3), "'stage'"),
    ("config-not-object", lambda header: header.update(model_config=[]), "'model_config'"),
    ("entries-not-list", lambda header: header.update(entries={}), "'entries'"),
    ("entry-not-object", lambda header: header.update(entries=["weight"]), "entries[0] is not"),
    ("name-not-string", _entry(0, name=5), "'name'"),
    ("name-repeated", lambda header: header["entries"][1].update(
        name=header["entries"][0]["name"]), "'name' repeats"),
    ("shape-negative", _entry(0, shape=[-1, 4]), "'shape'"),
    ("shape-float", _entry(0, shape=[2.0]), "'shape'"),
    ("buffer-dtype", lambda header: header["buffers"][0].update(dtype="<f8"), "'dtype'"),
    ("offset-negative", _entry(1, offset=-4), "'offset'"),
    ("offset-overlaps", _entry(1, offset=0), "'offset'"),
    ("offset-string", _entry(0, offset="0"), "'offset'"),
]


class TestCheckpointHeader:
    """A malformed header exits 2 naming the file and the field, before any
    tensor is read."""

    @pytest.fixture(scope="class")
    def source(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("header")
        ckpt.save(root / "good.avck", tiny_model(), preset("Tiny"), "post_pretrain")
        assert main(["gen-data", "--task", "2", "--n", "2", "--out", str(root / "data")]) == 0
        return root

    @pytest.mark.parametrize("mutation, field", [row[1:] for row in _HEADER_FAULTS],
                             ids=[row[0] for row in _HEADER_FAULTS])
    def test_fault_exits_2_naming_file_and_field(self, source, tmp_path, capsys,
                                                  mutation, field):
        head, payload = (source / "good.avck").read_bytes().split(b"\n--payload--\n", 1)
        if isinstance(mutation, bytes):
            head = mutation
        elif callable(mutation):
            header = json.loads(head)
            mutation(header)
            head = json.dumps(header).encode()
        else:
            head = json.dumps(mutation).encode()
        path = tmp_path / "bad.avck"
        path.write_bytes(head + b"\n--payload--\n" + payload)
        capsys.readouterr()
        code = main(["finetune", "--data", str(source / "data"), "--out", str(tmp_path / "run"),
                     "--init", str(path), "--steps", "1"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"error: {path}: " in err and field in err, err

    def test_load_into_allocates_little_beyond_the_file(self, tmp_path):
        """At its peak ``load_into`` holds the file's bytes and little else:
        tensors are views of them, copied once, into the model."""
        cfg = preset("Tiny")
        path = tmp_path / "c.avck"
        ckpt.save(path, tiny_model(1), cfg, "finetune")
        model = tiny_model(2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ckpt.load_into(model, path, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 1.6 * path.stat().st_size


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


    def test_failed_pbm_write_keeps_old_file(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "mask.pbm"
        argv = ["maskdump", "--type", "tube", "--grid", "4,4,4", "--ratio", "0.5",
                "--out", str(path)]
        assert main(argv + ["--seed", "1"]) == 0
        old = path.read_bytes()
        self.fill_disk_after(monkeypatch, tmp_path, len(old) // 2)
        capsys.readouterr()
        assert main(argv + ["--seed", "2"]) == 2
        monkeypatch.undo()
        assert capsys.readouterr().err.startswith("error: [Errno 28] No space left")
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mask.pbm"]


class TestCLI:
    def test_shapes_reports_token_trace(self, capsys):
        assert main(["shapes", "--preset", "B"]) == 0
        out = capsys.readouterr().out
        assert "tokens 800" in out
        assert "tokens 128" in out
        assert "video 480" in out          # decoder sequence
        assert "combined total" in out

    def test_python_dash_m_runs_the_cli(self):
        proc = run_avmae("shapes", "--preset", "Tiny")
        assert proc.returncode == 0, proc.stderr
        assert "tokens" in proc.stdout

    def test_bad_flag_exits_2_from_a_real_process(self, tmp_path):
        """argparse's SystemExit(2) is the process's exit code."""
        out = tmp_path / "D"
        proc = run_avmae("gen-data", "--task", "2", "--n", "0", "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "argument --n: must be an integer >= 1, got 0" in proc.stderr
        assert not proc.stdout and not out.exists()

    def test_every_typed_flag_has_a_domain(self):
        """No flag converts with bare ``int`` or ``float``, which would take
        any value and leave its check to the command."""
        commands = next(action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction)).choices
        typed = {(name, action.dest): action.type for name, sub in commands.items()
                 for action in sub._actions if action.type is not None}
        assert len(typed) == 15, sorted(typed)
        assert [key for key, convert in typed.items() if convert in (int, float)] == []

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
        assert_flag_rejected(capsys, ["finetune", "--data", str(data),
                                      "--out", str(tmp_path / "x"), "--steps", "1"],
                             "the following arguments are required: --init")

    @pytest.mark.parametrize("command", ["posttrain", "finetune"])
    def test_missing_or_absent_init_leaves_no_output(self, command, tmp_path, capsys):
        """No ``--init``, or one naming no file, exits 2 before ``--out`` is
        made: no empty ``metrics.jsonl`` is left behind."""
        data, out = tmp_path / "data", tmp_path / "run"
        assert main(["gen-data", "--task", "2", "--n", "4", "--out", str(data)]) == 0
        argv = [command, "--data", str(data), "--out", str(out), "--steps", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not out.exists()
        capsys.readouterr()
        assert main(argv + ["--init", str(tmp_path / "nonexistent.avck")]) == 2
        assert "nonexistent.avck" in capsys.readouterr().err
        assert not out.exists()

    def test_pretrain_init_exits_2_naming_flag(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--task", "2", "--n", "2", "--out", str(data)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["pretrain", "--data", str(data), "--out", str(tmp_path / "x"),
                  "--init", str(tmp_path / "missing.avck"), "--steps", "1"])
        assert exc.value.code == 2
        assert "--init" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bad_task_spec_exits_2(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert_flag_rejected(capsys, ["gen-data", "--task", "two", "--n", "2", "--out", str(out)],
                             "argument --task: must be an integer >= 1, got two")
        assert not out.exists()

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
        ({"model": {"video_region": [0, 2, 4]}}, "video_region"),
        ({"model": {"audio_region": [0, 1]}}, "audio_region"),
        ({"model": {"video_tubelet": [0, 8, 8]}}, "video_tubelet"),
        ({"model": {"audio_patch": [8, 0]}}, "audio_patch"),
        ({"model": {"encoder_depth": 0}}, "encoder_depth"),
        ({"model": {"decoder_depth": -1}}, "decoder_depth"),
        ({"model": {"fusion_depth": -1}}, "fusion_depth"),
        ({"train": {"seed": -4}}, "seed"),
        ({"model": {"encoder_dim": 33, "encoder_heads": 3, "fusion_heads": 3}},
         "encoder_dim 33 must be even"),
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
        assert_flag_rejected(capsys, ["gen-data", "--task", "0", "--n", "2", "--out", str(out)],
                             "argument --task: must be an integer >= 1, got 0")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["gen-data", "--task", "2", "--n", "-3"], "--n: must be an integer >= 1, got -3"),
        (["gen-data", "--task", "2", "--n", "0"], "--n: must be an integer >= 1, got 0"),
        (["pretrain", "--steps", "-2"], "--steps: must be an integer >= 0, got -2"),
        (["maskdump", "--type", "tube", "--grid", "0,4,4", "--ratio", "0.5"],
         "--grid: must be a list of any number of values, each an integer >= 1, got 0,4,4"),
        (["maskdump", "--type", "random", "--grid", "4,-1", "--ratio", "0.5"],
         "--grid: must be a list of any number of values, each an integer >= 1, got 4,-1"),
        (["verify", "--grad-probes", "0"], "--grad-probes: must be an integer >= 1, got 0"),
        (["verify", "--grad-probes", "-2"], "--grad-probes: must be an integer >= 1, got -2"),
        (["check-grads", "--tolerance", "-1"], "--tolerance: must be a finite number > 0, got -1"),
        (["check-grads", "--tolerance", "0"], "--tolerance: must be a finite number > 0, got 0"),
        (["check-grads", "--tolerance", "nan"], "--tolerance: must be a finite number > 0, got nan"),
        (["check-grads", "--tolerance", "inf"], "--tolerance: must be a finite number > 0, got inf"),
        (["pretrain", "--seed", "-1"], "--seed: must be an integer >= 0, got -1"),
        (["gen-data", "--task", "2", "--n", "2", "--seed", "-1"],
         "--seed: must be an integer >= 0, got -1"),
        (["maskdump", "--type", "tube", "--grid", "4,4,4", "--ratio", "0.5", "--seed", "-1"],
         "--seed: must be an integer >= 0, got -1"),
        (["maskdump", "--type", "tube", "--grid", "4,4,4", "--ratio", "1"],
         "--ratio: must be a number in (0, 1), got 1"),
        (["maskdump", "--type", "cell", "--grid", "4,4,4", "--ratio", "0.5",
          "--encoder-ratio", "0"], "--encoder-ratio: must be a number in (0, 1), got 0"),
    ], ids=["gen-data-negative", "gen-data-zero", "pretrain-negative-steps",
            "maskdump-tube-zero", "maskdump-random-negative", "verify-zero-probes",
            "verify-negative-probes", "check-grads-negative-tolerance",
            "check-grads-zero-tolerance", "check-grads-nan-tolerance",
            "check-grads-inf-tolerance", "pretrain-negative-seed", "gen-data-negative-seed",
            "maskdump-negative-seed", "maskdump-ratio-one", "maskdump-encoder-ratio-zero"])
    def test_flag_outside_domain_exits_2_naming_flag(self, tmp_path, capsys, argv, message):
        data, out = tmp_path / "data", tmp_path / "out"
        if argv[0] == "pretrain":
            assert main(["gen-data", "--task", "2", "--n", "2", "--out", str(data)]) == 0
            argv = argv + ["--data", str(data)]
        if argv[0] in ("gen-data", "pretrain", "maskdump"):
            argv = argv + ["--out", str(out)]
        assert_flag_rejected(capsys, argv, f"error: argument {message}")
        assert not out.exists()

    @pytest.mark.parametrize("task, message", [
        ("3,-0.1", "must be a finite number >= 0, got -0.1"),
        ("3,nan", "must be a finite number >= 0, got nan"),
        ("3,inf", "must be a finite number >= 0, got inf"),
        ("3,0.1,9", "must be a finite number >= 0, got 0.1,9"),
        ("3,", "must be a finite number >= 0, got "),
    ], ids=["negative-noise", "nan-noise", "inf-noise", "third-field", "empty-noise"])
    def test_unusable_task_exits_2_naming_flag(self, tmp_path, capsys, task, message):
        out = tmp_path / "d"
        assert_flag_rejected(capsys, ["gen-data", "--task", task, "--n", "2", "--out", str(out)],
                             f"argument --task: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("kind, grid", [
        ("random", "16"), ("random", "4,4,4,4"), ("tube", "4,4"), ("cell", "4,4,4,4"),
    ])
    def test_maskdump_grid_rank_exits_2_naming_flag(self, tmp_path, capsys, kind, grid):
        out = tmp_path / "mask.pbm"
        assert main(["maskdump", "--type", kind, "--grid", grid, "--ratio", "0.5",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"error: --grid for a {kind} mask takes" in captured.err and not captured.out
        assert not out.exists()

    @pytest.mark.parametrize("grid, rows", [("4,6", 4), ("2,4,6", 8)])
    def test_maskdump_random_takes_two_or_three_sizes(self, tmp_path, capsys, grid, rows):
        out = tmp_path / "mask.pbm"
        assert main(["maskdump", "--type", "random", "--grid", grid, "--ratio", "0.5",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == f"6 {rows}"

    def test_non_finite_clip_exits_2_naming_file(self, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "run"
        assert main(["gen-data", "--task", "2", "--n", "2", "--out", str(data)]) == 0
        path = data / json.loads((data / "manifest.jsonl").read_text().splitlines()[1])["file"]
        clip = read_clip(path)
        clip.audio[3, 2] = np.nan
        write_clip(path, clip)
        capsys.readouterr()
        code = main(["pretrain", "--data", str(data), "--out", str(out), "--steps", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("word, value, message", [
        (3, "8x", "video frames must be an integer >= 1, got '8x'"),
        (3, "-8", "video frames must be an integer >= 1, got '-8'"),
        (4, "0", "video height must be an integer >= 1, got '0'"),
        (5, "+32", "video width must be an integer >= 1, got '+32'"),
        (6, "3.0", "video channels must be an integer >= 1, got '3.0'"),
        (8, "", "audio frames must be an integer >= 1, got ''"),
        (9, "1_6", "audio bins must be an integer >= 1, got '1_6'"),
    ], ids=["trailing-text", "negative", "zero", "signed", "float", "empty", "underscore"])
    def test_bad_clip_dimension_exits_2_naming_file_and_dimension(
            self, tmp_path, capsys, word, value, message):
        data, out = tmp_path / "data", tmp_path / "run"
        assert main(["gen-data", "--task", "2", "--n", "2", "--out", str(data)]) == 0
        path = data / "clip_00001.avclip"
        header, payload = path.read_bytes().split(b"\n", 1)
        words = header.split(b" ")
        words[word] = value.encode()
        path.write_bytes(b" ".join(words) + b"\n" + payload)
        capsys.readouterr()
        code = main(["pretrain", "--data", str(data), "--out", str(out), "--steps", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("video, message", [
        ((8, 32, 32, 1), "video must be [T, H, W, 3], got (8, 32, 32, 1)"),
        ((7, 32, 32, 3), "video frame count must be even"),
    ], ids=["one-channel", "odd-frames"])
    def test_misshapen_clip_exits_2_naming_file(self, tmp_path, capsys, video, message):
        """A header whose payload matches it, but whose video is no clip:
        the shape fault names the file."""
        data, out = tmp_path / "data", tmp_path / "run"
        assert main(["gen-data", "--task", "2", "--n", "2", "--out", str(data)]) == 0
        path = data / "clip_00001.avclip"
        header = "AVCLIP 1 video {} {} {} {} audio 32 16 float32\n".format(*video)
        payload = np.zeros(int(np.prod(video)) + 32 * 16, dtype="<f4").tobytes()
        path.write_bytes(header.encode() + payload)
        capsys.readouterr()
        code = main(["pretrain", "--data", str(data), "--out", str(out), "--steps", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, bad_kind", [
        (["pretrain", "--data", "{data}", "--out", "{out}", "--steps", "1"], "clip"),
        (["finetune", "--data", "{data}", "--out", "{out}", "--init", "{bad}",
          "--steps", "1"], "directory"),
        (["pretrain", "--config", "{bad}", "--data", "{data}", "--out", "{out}",
          "--steps", "1"], "directory"),
        (["pretrain", "--data", "{data}", "--out", "{bad}", "--steps", "1"], "file"),
        (["gen-data", "--task", "2", "--n", "2", "--out", "{bad}"], "file"),
    ], ids=["manifest-entry-dir", "init-dir", "config-dir", "out-file", "gen-data-out-file"])
    def test_os_error_exits_2_naming_path(self, tmp_path, capsys, argv, bad_kind):
        """A path of the wrong kind, a directory where a file is read or an
        existing file where ``--out`` is made, exits 2 naming it; a read
        fault leaves no ``--out`` and an existing file is left as it was."""
        data, out, bad = tmp_path / "data", tmp_path / "run", tmp_path / "bad"
        assert main(["gen-data", "--task", "2", "--n", "2", "--out", str(data)]) == 0
        if bad_kind == "clip":
            bad = data / "clip_00001.avclip"
            bad.unlink()
        if bad_kind == "file":
            bad.write_text("kept\n")
        else:
            bad.mkdir()
        capsys.readouterr()
        code = main([arg.format(data=data, out=out, bad=bad) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and str(bad) in err, err
        if bad_kind == "file":
            assert bad.read_text() == "kept\n"
        else:
            assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_mixed_clip_shapes_exit_2_naming_file(self, command, tmp_path, capsys):
        """A clip shaped unlike the first is refused at load time, naming its
        manifest line, its file and both shapes, before ``--out`` is made."""
        data, out, init = tmp_path / "data", tmp_path / "run", tmp_path / "init.avck"
        assert main(["gen-data", "--task", "2", "--n", "4", "--out", str(data)]) == 0
        manifest = data / "manifest.jsonl"
        path = data / json.loads(manifest.read_text().splitlines()[2])["file"]
        clip = read_clip(path)
        write_clip(path, RawClip(clip.video[:4], clip.audio))
        ckpt.save(init, tiny_model(), preset("Tiny"), "finetune")
        capsys.readouterr()
        argv = [command, "--data", str(data), "--out", str(out), "--steps", "1"]
        code = main(argv + (["--init", str(init)] if command == "finetune" else []))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest} line 3: {path} has video (4, 32, 32, 3) "
                              "and audio (32, 16), unlike the first clip's video "
                              "(8, 32, 32, 3) and audio (32, 16)"), err
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
