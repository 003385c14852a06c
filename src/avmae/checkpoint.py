"""Named-tensor checkpoints: a JSON manifest, a fixed sentinel, then the
concatenated little-endian payload: the parameters as float32, then the
buffers (batch-norm statistics) as float32 or int64. Round trips are
bit-exact and loading validates the stored model config field by field.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .blocks import Block
from .config import ModelConfig

FORMAT_VERSION = 2
_SENTINEL = b"\n--payload--\n"
_HEADER_FIELDS = {"format_version": int, "stage": str, "model_config": dict,
                  "entries": list, "buffers": list}
_RECORD_DTYPES = {"entries": ("<f4",), "buffers": ("<f4", "<i8")}


def _buffer_dtype(arr: np.ndarray) -> str:
    return "<i8" if arr.dtype.kind in "iu" else "<f4"


def save(path, model: Block, cfg: ModelConfig, stage: str) -> None:
    """Write the model's packed parameters as one chunk, then its buffers."""
    params = np.ascontiguousarray(model.pack()[0], dtype="<f4")
    chunks = [memoryview(params).cast("B")]
    offset = 0
    entries = []
    for name, p in model.named_parameters():
        entries.append({"name": name, "shape": list(p.shape), "offset": offset})
        offset += params.itemsize * p.size
    buffers = []
    for name, b in model.named_buffers():
        dtype = _buffer_dtype(b)
        buffers.append({"name": name, "shape": list(b.shape), "dtype": dtype,
                        "offset": offset})
        chunks.append(np.ascontiguousarray(b, dtype).tobytes())
        offset += len(chunks[-1])
    manifest = {
        "format_version": FORMAT_VERSION,
        "stage": stage,
        "model_config": cfg.to_dict(),
        "entries": entries,
        "buffers": buffers,
    }
    blob = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    write_atomic(path, [blob, _SENTINEL, *chunks])


def _records(path, manifest, payload_size: int) -> list[tuple[str, str, list, int]]:
    """(name, dtype, shape, offset) of each parameter, then each buffer.

    The header must be what ``save`` writes: an object with every field,
    records with a string name, a list of integer dimensions >= 0 and a
    known dtype, at offsets that run back to back from 0 to the end of the
    payload. A ValueError names the path and the field otherwise.
    """
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    for key, kind in _HEADER_FIELDS.items():
        if key not in manifest:
            raise ValueError(f"{path}: header lacks field {key!r}")
        value = manifest[key]
        if key == "format_version" and value != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint format version {value} "
                             f"(this build reads version {FORMAT_VERSION})")
        if not isinstance(value, kind):
            raise ValueError(f"{path}: header field {key!r} must be of type "
                             f"{kind.__name__}, got {type(value).__name__}")
    records, names, end = [], set(), 0
    for key, dtypes in _RECORD_DTYPES.items():
        for i, rec in enumerate(manifest[key]):
            where = f"{path}: {key}[{i}]"
            if not isinstance(rec, dict):
                raise ValueError(f"{where} is not a JSON object")
            name, shape, offset = rec.get("name"), rec.get("shape"), rec.get("offset")
            dtype = rec.get("dtype", "<f4")
            if not isinstance(name, str):
                raise ValueError(f"{where}: field 'name' must be a string, got {name!r}")
            if name in names:
                raise ValueError(f"{where}: field 'name' repeats {name!r}")
            if not isinstance(shape, list) or \
                    not all(type(d) is int and d >= 0 for d in shape):
                raise ValueError(f"{where}: field 'shape' must be a list of integers "
                                 f">= 0, got {shape!r}")
            if dtype not in dtypes:
                raise ValueError(f"{where}: field 'dtype' must be one of {dtypes}, "
                                 f"got {dtype!r}")
            if type(offset) is not int or offset != end:
                raise ValueError(f"{where}: field 'offset' must be {end}, where the "
                                 f"record before ends, got {offset!r}")
            end = offset + np.dtype(dtype).itemsize * math.prod(shape)
            if end > payload_size:
                raise ValueError(f"{path}: payload truncated at entry {name!r} "
                                 f"(needs bytes up to {end}, payload has {payload_size})")
            names.add(name)
            records.append((name, dtype, shape, offset))
    if payload_size != end:
        raise ValueError(f"{path}: payload has {payload_size} bytes, manifest "
                         f"describes {end}")
    return records


def load(path):
    """Returns (manifest, dict of name -> array) over parameters and buffers.

    ``manifest["entries"]`` lists the parameters, ``manifest["buffers"]`` the
    buffers. The arrays are read-only views into the file's bytes, which
    stay allocated while any of them is referenced.
    """
    raw = Path(path).read_bytes()
    split = raw.find(_SENTINEL)
    if split < 0:
        raise ValueError(f"{path}: missing payload sentinel; not a checkpoint")
    try:
        manifest = json.loads(raw[:split].decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: header is not JSON ({exc})") from None
    payload = memoryview(raw)[split + len(_SENTINEL):]
    tensors = {name: np.frombuffer(payload, dtype, math.prod(shape), offset).reshape(shape)
               for name, dtype, shape, offset in _records(path, manifest, len(payload))}
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
        p.data[...] = arr
        copied.append(name)
    return copied
