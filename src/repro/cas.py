"""Content-addressed storage primitives.

Dependency-free helpers shared by every on-disk cache in the repo (the
design-space exploration cache and the sweep result cache): stable
content hashing for keys and atomic file writes so a crashed process
never leaves a torn entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable


def stable_hash(payload: Any, length: int = 32) -> str:
    """Hex digest of a JSON-serializable payload, stable across runs."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:length]


def source_digest(root: Path, names: Iterable[str] = ("",)) -> str:
    """Hex digest (16 characters) of source code under ``root``.

    Each name is a file or a directory below ``root`` (``""`` is ``root``
    itself); every ``*.py`` file they hold is hashed with its path
    relative to ``root``, in sorted order per name.
    """
    digest = hashlib.sha256()
    for name in names:
        path = root / name
        sources = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for source in sources:
            digest.update(str(source.relative_to(root)).encode())
            digest.update(source.read_bytes())
    return digest.hexdigest()[:16]


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory tmp file + rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
