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
    """Read every record; a file that is not a whole checkpoint is a ValueError
    naming the file and, where known, the tensor."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file: bad magic")
    out: dict[str, Tensor] = {}
    off, total = 8, len(blob)
    name = None
    try:
        (version,) = struct.unpack_from("<I", blob, 4)
        if version != VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        while off < total:
            name = None
            (name_len,) = struct.unpack_from("<I", blob, off)
            off += 4
            if off + name_len > total:
                raise struct.error("name runs past the end")
            name = blob[off:off + name_len].decode("utf-8")
            off += name_len
            (rank,) = struct.unpack_from("<I", blob, off)
            off += 4
            shape = struct.unpack_from(f"<{rank}Q", blob, off) if rank else ()
            off += 8 * rank
            count = int(np.prod(shape, dtype=np.int64)) if rank else 1
            if off + 8 * count > total:
                raise ValueError(f"{path}: checkpoint is cut short in the payload of "
                                 f"tensor {name!r} ({total - off} of {8 * count} bytes)")
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape)
            off += 8 * count
            out[name] = Tensor(arr.astype(np.float64))
    except struct.error as err:
        where = f"tensor {name!r}" if name is not None else f"record {len(out) + 1}"
        raise ValueError(f"{path}: checkpoint is cut short in the header of {where}") from err
    return out


def require_tensor(blobs: dict[str, Tensor], name: str) -> np.ndarray:
    """The payload of ``name``; a checkpoint without it is a ValueError."""
    if name not in blobs:
        raise ValueError(f"checkpoint missing tensor {name!r}")
    return blobs[name].data


def restore_params(params: dict[str, Tensor], blobs: dict[str, Tensor]) -> None:
    """Copy checkpoint payloads into live parameter tensors, shape-checked."""
    for name, p in params.items():
        src = require_tensor(blobs, name)
        if src.shape != p.data.shape:
            raise ValueError(f"shape mismatch for {name!r}: {src.shape} vs {p.data.shape}")
        p.data = np.array(src)
