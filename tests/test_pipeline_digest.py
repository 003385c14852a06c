"""Tier A of the numerics contract: the seed-0 pipeline, byte for byte.

``gen-data --task 3,0.1 --n 32``, then ``pretrain --steps 6``, ``posttrain
--steps 4`` and ``finetune --steps 4``, all at seed 0 through ``cli.main``.
The digests are SHA-256 of each stage's ``metrics.jsonl`` and of its
checkpoint's parameter tensors, in name order, as little-endian float32
bytes. ``FILE_DIGESTS`` are SHA-256 of each whole checkpoint file: header,
parameter payload and buffers. A change that keeps every output
byte-identical keeps them; a change that moves rounding must update them
and state the measured deviation.

Recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas build,
Haswell kernels, DYNAMIC_ARCH). Another numpy or BLAS build may round
differently and fail this test without any change to the code.
"""

import hashlib

import numpy as np
import pytest

from avmae import checkpoint as ckpt
from avmae.cli import main

DIGESTS = {
    "pretrain": (
        "c766c5ac2e0fd4ca15cbdb30578511ef9d2545271e1cacef583030a35ccc546f",
        "a43c348e65c5116f74ec8f700741d558cfdda15a7a1a6579f2c2a0053306973c"),
    "posttrain": (
        "3657efd5f5aefa6cd54f5087b08d2c82cde51a35d897e52cb5851667c98f9395",
        "c2b13d15968497c2952c6b7a9eaf9f9347c0beea3e9efbb70d26526b6eb45bab"),
    "finetune": (
        "0252cfcf31e1f8ea80fa94c3ed0ebd593327b57da381b4d34ba5dc9ff14d10b3",
        "c77bbbacd858215f417edf12319f961aae90d44ff7216116425821e0c9eafac5"),
}
FILE_DIGESTS = {
    "pretrain": "73a2ab48c1e44b6ec21ebbf4f006dc042dbcfd5440292982f902278a77574051",
    "posttrain": "04873508a04a06227ce5e1de9646baf4ff63722a0a10357ba3b06525eb46bd9f",
    "finetune": "0a6205ab805eab1506e531d4deeacba47b96437a00a0d82c2740e2acf09b3fc3",
}
STEPS = {"pretrain": 6, "posttrain": 4, "finetune": 4}


def parameter_digest(path) -> str:
    manifest, tensors = ckpt.load(path)
    h = hashlib.sha256()
    for name in sorted(entry["name"] for entry in manifest["entries"]):
        h.update(np.ascontiguousarray(tensors[name], dtype="<f4").tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert main(["gen-data", "--task", "3,0.1", "--n", "32", "--out", str(data)]) == 0
    init = []
    for stage, steps in STEPS.items():
        out = root / stage
        assert main([stage, "--data", str(data), "--out", str(out),
                     "--steps", str(steps), *init]) == 0
        init = ["--init", str(out / "checkpoint.avck")]
    return root


@pytest.mark.parametrize("stage", list(STEPS))
def test_seed0_pipeline_digests(pipeline, stage):
    metrics, params = DIGESTS[stage]
    out = pipeline / stage
    assert hashlib.sha256((out / "metrics.jsonl").read_bytes()).hexdigest() == metrics
    assert parameter_digest(out / "checkpoint.avck") == params


@pytest.mark.parametrize("stage", list(STEPS))
def test_seed0_checkpoint_file_digests(pipeline, stage):
    raw = (pipeline / stage / "checkpoint.avck").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == FILE_DIGESTS[stage]
