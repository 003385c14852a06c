"""Named-tensor checkpoints: a JSON manifest, a fixed sentinel, then the
concatenated little-endian float32 payload. Round trips are bit-exact and
loading validates the stored model config field by field.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .blocks import Block
from .config import ModelConfig

FORMAT_VERSION = 1
_SENTINEL = b"\n--payload--\n"


def save(path, model: Block, cfg: ModelConfig, stage: str) -> None:
    entries = []
    chunks = []
    offset = 0
    for name, p in model.named_parameters():
        raw = np.ascontiguousarray(p.data, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(p.data.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    manifest = {
        "format_version": FORMAT_VERSION,
        "stage": stage,
        "model_config": cfg.to_dict(),
        "entries": entries,
    }
    blob = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(_SENTINEL)
        for chunk in chunks:
            fh.write(chunk)


def load(path):
    """Returns (manifest, dict of name -> float32 array)."""
    raw = Path(path).read_bytes()
    split = raw.find(_SENTINEL)
    if split < 0:
        raise ValueError(f"{path}: missing payload sentinel; not a checkpoint")
    manifest = json.loads(raw[:split].decode("utf-8"))
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version "
                         f"{manifest.get('format_version')}")
    payload = raw[split + len(_SENTINEL):]
    tensors = {}
    for entry in manifest["entries"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        end = start + 4 * count
        if end > len(payload):
            raise ValueError(
                f"{path}: payload truncated at entry {entry['name']!r} "
                f"(needs bytes up to {end}, payload has {len(payload)})")
        tensors[entry["name"]] = np.frombuffer(
            payload[start:end], dtype="<f4").reshape(shape).copy()
    expected_end = (manifest["entries"][-1]["offset"]
                    + 4 * int(np.prod(manifest["entries"][-1]["shape"]))
                    if manifest["entries"] else 0)
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
    """Strict restore: configs must match and name sets must be identical."""
    manifest, tensors = load(path)
    check_config(manifest, cfg)
    model_names = [name for name, _ in model.named_parameters()]
    missing = sorted(set(model_names) - set(tensors))
    extra = sorted(set(tensors) - set(model_names))
    if missing or extra:
        raise ValueError(f"checkpoint entries do not match the model "
                         f"(missing {missing[:5]}, extra {extra[:5]})")
    transfer(model, tensors, include_prefixes=("",))
    return manifest


def transfer(model: Block, tensors: dict, include_prefixes,
             exclude_prefixes=()) -> list[str]:
    """Copy the named subset into the model; every included parameter the
    model owns must exist in the checkpoint. Returns the copied names."""
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
