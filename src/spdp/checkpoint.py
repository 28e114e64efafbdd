"""Binary checkpoint container for named float64 tensors.

A file is ``magic b"SPDP" | u32 version 3 | u64 head_len | head | payload``,
integers little-endian. The head is the UTF-8 JSON list ``[[name, [extent,
...]], ...]`` in save order. The payload holds each tensor's float64 values,
row-major, in head order, and the file ends where the payload ends.
Round-trips are bit-exact. There is no checksum, so a damaged payload byte
still loads. Versions 1 and 2 (one self-framed record per tensor) are refused.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"SPDP"
VERSION = 3
FIXED = struct.Struct("<4sIQ")      # magic, version, head_len


def save_checkpoint(path: str | Path, tensors: dict[str, Tensor]) -> None:
    """Write beside ``path`` and rename into place, so a save that fails
    partway leaves any previous file at ``path`` untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        arrays = [np.ascontiguousarray(t.data, dtype="<f8") for t in tensors.values()]
        head = json.dumps([[name, list(arr.shape)] for name, arr in zip(tensors, arrays)],
                          separators=(",", ":")).encode("utf-8")
        with open(tmp, "wb") as fh:
            fh.write(FIXED.pack(MAGIC, VERSION, len(head)))
            fh.write(head)
            for arr in arrays:
                fh.write(arr)       # the array's own buffer, not a copy
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> dict[str, Tensor]:
    """Read a whole checkpoint; its tensors view one array of the file's bytes.
    A file that is not exactly one checkpoint is a ValueError naming the file."""
    blob = np.fromfile(path, dtype=np.uint8)
    fixed = blob[:FIXED.size].tobytes()
    if fixed[:4] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file: bad magic")
    if len(fixed) >= 8 and (version := int.from_bytes(fixed[4:8], "little")) != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if len(fixed) < FIXED.size or (end := FIXED.size + FIXED.unpack(fixed)[2]) > blob.size:
        raise ValueError(f"{path}: checkpoint is cut short in its head")
    try:
        head = json.loads(blob[FIXED.size:end].tobytes().decode("utf-8"))
    except (ValueError, RecursionError):    # not UTF-8, not JSON, or nested too deep
        head = None
    if not isinstance(head, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
            and isinstance(pair[1], list) and all(type(n) is int and n >= 0 for n in pair[1])
            for pair in head):
        raise ValueError(f"{path}: checkpoint head is not a JSON list of "
                         "[name, [extent, ...]] pairs")
    counts = [math.prod(shape) for _, shape in head]
    have, want = blob.size - end, 8 * sum(counts)
    if have < want:
        raise ValueError(f"{path}: checkpoint is cut short in its payload "
                         f"({have} of {want} bytes)")
    if have > want:
        raise ValueError(f"{path}: checkpoint has {have - want} bytes after its payload")
    payload = blob[end:].view("<f8")
    out: dict[str, Tensor] = {}
    for (name, shape), start, count in zip(head, itertools.accumulate(counts, initial=0), counts):
        if name in out:
            raise ValueError(f"{path}: checkpoint names tensor {name!r} twice")
        try:            # an empty payload may still come with extents NumPy cannot hold
            out[name] = Tensor(payload[start:start + count].reshape(shape))
        except ValueError as err:
            raise ValueError(f"{path}: tensor {name!r} has shape {tuple(shape)}: {err}") from None
    return out


def require_tensor(blobs: dict[str, Tensor], name: str) -> np.ndarray:
    """The payload of ``name``; a checkpoint without it is a ValueError."""
    if name not in blobs:
        raise ValueError(f"checkpoint missing tensor {name!r}")
    return blobs[name].data


def require_count(blobs: dict[str, Tensor], name: str) -> int:
    """The counter stored under ``name``: one whole number of 0 or more."""
    value = require_tensor(blobs, name).reshape(-1)
    if value.size != 1 or not (np.isfinite(value[0]) and value[0] >= 0
                               and value[0] == np.floor(value[0])):
        raise ValueError(f"checkpoint tensor {name!r} must hold one whole number "
                         f">= 0, got {value.tolist()}")
    return int(value[0])


def restore_params(params: dict[str, Tensor], blobs: dict[str, Tensor]) -> None:
    """Copy checkpoint payloads into the live tensors' arrays, in place and shape-checked.

    A missing or wrong-shaped tensor is a ValueError naming the tensor; the
    caller, which knows the file, puts its path in front."""
    for name, p in params.items():
        src = require_tensor(blobs, name)
        if src.shape != p.data.shape:
            raise ValueError(f"shape mismatch for {name!r}: the checkpoint has {src.shape}, "
                             f"the model {p.data.shape}")
        p.data[...] = src
