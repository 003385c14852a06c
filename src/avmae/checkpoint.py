"""Named-tensor checkpoints: a JSON manifest, a fixed sentinel, then the
concatenated little-endian payload: the parameters as float32, then the
buffers (batch-norm statistics) as float32 or int64. Round trips are
bit-exact and loading validates the stored model config field by field.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .blocks import Block
from .config import ModelConfig

FORMAT_VERSION = 2
_SENTINEL = b"\n--payload--\n"


def _buffer_dtype(arr: np.ndarray) -> str:
    return "<i8" if arr.dtype.kind in "iu" else "<f4"


def save(path, model: Block, cfg: ModelConfig, stage: str) -> None:
    chunks = []
    offset = 0

    def add(arr, dtype):
        nonlocal offset
        raw = np.ascontiguousarray(arr, dtype=dtype).tobytes()
        chunks.append(raw)
        offset += len(raw)
        return offset - len(raw)

    entries = [{"name": name, "shape": list(p.data.shape), "offset": add(p.data, "<f4")}
               for name, p in model.named_parameters()]
    buffers = [{"name": name, "shape": list(b.shape), "dtype": _buffer_dtype(b),
                "offset": add(b, _buffer_dtype(b))}
               for name, b in model.named_buffers()]
    manifest = {
        "format_version": FORMAT_VERSION,
        "stage": stage,
        "model_config": cfg.to_dict(),
        "entries": entries,
        "buffers": buffers,
    }
    blob = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    write_atomic(path, [blob, _SENTINEL, *chunks])


def load(path):
    """Returns (manifest, dict of name -> array) over parameters and buffers.

    ``manifest["entries"]`` lists the parameters, ``manifest["buffers"]`` the
    buffers.
    """
    raw = Path(path).read_bytes()
    split = raw.find(_SENTINEL)
    if split < 0:
        raise ValueError(f"{path}: missing payload sentinel; not a checkpoint")
    manifest = json.loads(raw[:split].decode("utf-8"))
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint format version {version} "
                         f"(this build reads version {FORMAT_VERSION})")
    payload = raw[split + len(_SENTINEL):]
    tensors = {}
    expected_end = 0
    for entry in manifest["entries"] + manifest["buffers"]:
        shape = tuple(entry["shape"])
        dtype = np.dtype(entry.get("dtype", "<f4"))
        start = entry["offset"]
        end = start + dtype.itemsize * int(np.prod(shape))
        if end > len(payload):
            raise ValueError(
                f"{path}: payload truncated at entry {entry['name']!r} "
                f"(needs bytes up to {end}, payload has {len(payload)})")
        tensors[entry["name"]] = np.frombuffer(
            payload[start:end], dtype=dtype).reshape(shape).copy()
        expected_end = end
    if len(payload) != expected_end:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, manifest "
                         f"describes {expected_end}")
    return manifest, tensors


def check_config(manifest: dict, cfg: ModelConfig) -> None:
    stored = manifest.get("model_config", {})
    current = cfg.to_dict()
    diffs = []
    for key in sorted(set(stored) | set(current)):
        if stored.get(key) != current.get(key):
            diffs.append(f"{key}: checkpoint={stored.get(key)!r} "
                         f"model={current.get(key)!r}")
    if diffs:
        raise ValueError("checkpoint config mismatch:\n  " + "\n  ".join(diffs))


def load_into(model: Block, path, cfg: ModelConfig) -> dict:
    """Strict restore of parameters and buffers: configs must match and name
    sets must be identical."""
    manifest, tensors = load(path)
    check_config(manifest, cfg)
    buffers = dict(model.named_buffers())
    model_names = [name for name, _ in model.named_parameters()] + list(buffers)
    missing = sorted(set(model_names) - set(tensors))
    extra = sorted(set(tensors) - set(model_names))
    if missing or extra:
        raise ValueError(f"checkpoint entries do not match the model "
                         f"(missing {missing[:5]}, extra {extra[:5]})")
    transfer(model, tensors, include_prefixes=("",))
    for name, b in buffers.items():
        if tensors[name].shape != b.shape:
            raise ValueError(f"shape mismatch for buffer {name}: checkpoint "
                             f"{tensors[name].shape} vs model {b.shape}")
        b[...] = tensors[name]
    return manifest


def transfer(model: Block, tensors: dict, include_prefixes,
             exclude_prefixes=()) -> list[str]:
    """Copy the named subset of parameters into the model; every included
    parameter the model owns must exist in the checkpoint. Buffers are not
    copied. Returns the copied names."""
    copied = []
    for name, p in model.named_parameters():
        if not name.startswith(tuple(include_prefixes)):
            continue
        if exclude_prefixes and name.startswith(tuple(exclude_prefixes)):
            continue
        if name not in tensors:
            raise ValueError(f"checkpoint lacks parameter {name!r} required "
                             "for stage transfer")
        arr = tensors[name]
        if arr.shape != p.data.shape:
            raise ValueError(f"shape mismatch for {name}: checkpoint "
                             f"{arr.shape} vs model {p.data.shape}")
        p.data[...] = arr.astype(p.data.dtype)
        copied.append(name)
    return copied
