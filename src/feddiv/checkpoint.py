"""Flat key -> array checkpoint container: JSON with base64 float64 blocks.

Round trips are bit-exact; a sha256 checksum over every key, shape and
data block catches corruption instead of silently loading garbage.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import hashlib
import json
import math
import os

import numpy as np

from .errors import CheckpointError

# 2: the checksum covers each array's shape as well as its key and data.
CHECKPOINT_VERSION = 2


def _encode(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode(key: str, entry: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(entry["data"], validate=True)
    except (binascii.Error, ValueError) as e:
        raise CheckpointError(f"array {key!r}: bad base64 data: {e}") from e
    shape = entry["shape"]
    if len(raw) != 8 * math.prod(shape):
        raise CheckpointError(f"array {key!r}: shape {shape} needs {8 * math.prod(shape)} "
                              f"bytes, data holds {len(raw)}")
    return np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()


def _is_entry(entry) -> bool:
    """An ``{"shape": [n, ...], "data": "<ASCII>"}`` object, n >= 0 ints."""
    return (isinstance(entry, dict) and isinstance(entry.get("data"), str)
            and entry["data"].isascii()
            and isinstance(entry.get("shape"), list)
            and all(type(d) is int and d >= 0 for d in entry["shape"]))


def _payload_digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(arrays):
        # each header is a self-delimiting JSON list and base64 never holds
        # "[", so two different payloads never hash the same byte stream
        h.update(json.dumps([key, arrays[key]["shape"]]).encode())
        h.update(arrays[key]["data"].encode("ascii"))
    return h.hexdigest()


@contextlib.contextmanager
def atomic_write(path: str, newline: str | None = None):
    """Open a text file for writing that replaces ``path`` only as a whole.

    The block writes to a temporary file in the same directory, which is
    moved over ``path`` with ``os.replace`` once the block finishes. If the
    block raises, the temporary file is removed and any earlier ``path``
    stays as it was, so readers never see a partly written artifact.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def save_checkpoint(bundle: dict, path: str, extra: dict | None = None):
    """Write every named array plus optional JSON-serializable metadata."""
    arrays = {k: _encode(v) for k, v in bundle.items()}
    doc = {
        "version": CHECKPOINT_VERSION,
        "checksum": _payload_digest(arrays),
        "arrays": arrays,
        "extra": extra or {},
    }
    with atomic_write(path) as f:
        json.dump(doc, f)


def load_checkpoint(path: str) -> tuple[dict, dict]:
    """Read a checkpoint; returns (bundle, extra metadata).

    Raises ``CheckpointError`` for anything but an intact checkpoint of
    this version.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointError(f"unreadable checkpoint {path}: {e}") from e
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path} is not a checkpoint: a JSON {type(doc).__name__}, "
                              f"not an object")
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} unsupported (expected {CHECKPOINT_VERSION})"
        )
    missing = [k for k in ("checksum", "arrays", "extra") if k not in doc]
    if missing:
        raise CheckpointError(f"checkpoint {path} lacks {', '.join(missing)}")
    arrays = doc["arrays"]
    if not isinstance(arrays, dict) or not all(map(_is_entry, arrays.values())):
        raise CheckpointError(f"checkpoint {path}: arrays must map keys to "
                              f"{{shape, data}} objects")
    if _payload_digest(arrays) != doc["checksum"]:
        raise CheckpointError(f"checksum mismatch in {path}: file is corrupt")
    return {k: _decode(k, v) for k, v in arrays.items()}, doc["extra"]
