"""Flat key -> array checkpoint container: JSON with base64 float64 blocks.

Round trips are bit-exact; a sha256 checksum over the payload catches
corruption instead of silently loading garbage.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import os

import numpy as np

from .errors import CheckpointError

CHECKPOINT_VERSION = 1


def _encode(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode(entry: dict) -> np.ndarray:
    raw = base64.b64decode(entry["data"])
    return np.frombuffer(raw, dtype=np.float64).reshape(entry["shape"]).copy()


def _payload_digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(arrays):
        h.update(key.encode())
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
    """Read a checkpoint; returns (bundle, extra metadata)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointError(f"unreadable checkpoint {path}: {e}") from e
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} unsupported (expected {CHECKPOINT_VERSION})"
        )
    arrays = doc.get("arrays", {})
    if _payload_digest(arrays) != doc.get("checksum"):
        raise CheckpointError(f"checksum mismatch in {path}: file is corrupt")
    return {k: _decode(v) for k, v in arrays.items()}, doc.get("extra", {})
