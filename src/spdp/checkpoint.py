"""Binary checkpoint container for named float64 tensors.

Layout (all integers little-endian):

    magic   4 bytes  b"SPDP"
    version u32
    record* until EOF, each:
        name_len u32, name (UTF-8), rank u32, extents (rank x u64),
        payload (prod(extents) x f64, row-major)

Round-trips are bit-exact: the payload is the raw IEEE-754 buffer. Version
2 names each subspace stack once (``parallel.sub_a.w``), where version 1
held one ``parallel.sub_a.<n>.w`` per subspace.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"SPDP"
VERSION = 2


def save_checkpoint(path: str | Path, tensors: dict[str, Tensor]) -> None:
    """Write beside ``path`` and rename into place, so a save that fails
    partway leaves any previous file at ``path`` untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            for name, t in tensors.items():
                raw = name.encode("utf-8")
                arr = np.ascontiguousarray(t.data, dtype="<f8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<I", arr.ndim))
                for extent in arr.shape:
                    fh.write(struct.pack("<Q", extent))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> dict[str, Tensor]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError("not a checkpoint file: bad magic")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    out: dict[str, Tensor] = {}
    off = 8
    total = len(blob)
    while off < total:
        (name_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        name = blob[off:off + name_len].decode("utf-8")
        off += name_len
        (rank,) = struct.unpack_from("<I", blob, off)
        off += 4
        shape = struct.unpack_from(f"<{rank}Q", blob, off) if rank else ()
        off += 8 * rank
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape)
        off += 8 * count
        out[name] = Tensor(arr.astype(np.float64))
    return out


def restore_params(params: dict[str, Tensor], blobs: dict[str, Tensor]) -> None:
    """Copy checkpoint payloads into live parameter tensors, shape-checked."""
    for name, p in params.items():
        if name not in blobs:
            raise ValueError(f"checkpoint missing tensor {name!r}")
        src = blobs[name].data
        if src.shape != p.data.shape:
            raise ValueError(f"shape mismatch for {name!r}: {src.shape} vs {p.data.shape}")
        p.data = np.array(src)
