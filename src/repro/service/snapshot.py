"""Versioned session snapshots: wire encoding and pluggable stores.

The distributed-state layer of the serving tier rests on two small pieces:

- :func:`encode_snapshot` / :func:`decode_snapshot` — a self-describing
  container for the state dict
  :meth:`~repro.core.streaming.StreamingEnsembleDetector.snapshot` returns:
  a zip archive holding ``manifest.json`` (every JSON scalar) plus one
  ``.npy`` entry per numpy array, referenced from the manifest by path.
  Floats ride in the arrays' native binary representation, so a decoded
  snapshot restores **bitwise identical** detector state — the property the
  crash-recovery contract ("resume elsewhere with identical detections")
  reduces to. The container itself is versioned independently of the state
  structure; either version mismatching raises a clear
  :class:`~repro.core.streaming.SnapshotVersionError` instead of garbage.

- :class:`SnapshotStore` — where encoded snapshots live.
  :class:`LocalSnapshotStore` keeps them under a directory (one
  subdirectory per session, monotonically numbered, pruned to the newest
  few); serve nodes sharing one such directory (or any future object-store
  implementation of the same five methods) give the router a recovery
  substrate: any surviving node can restore any session's latest snapshot.
"""

from __future__ import annotations

import io
import json
import os
import re
import zipfile
import zlib
from abc import ABC, abstractmethod
from pathlib import Path

import numpy as np

from repro.core.streaming import SnapshotVersionError

__all__ = [
    "CONTAINER_VERSION",
    "LocalSnapshotStore",
    "SnapshotStore",
    "decode_snapshot",
    "encode_snapshot",
]

#: Version of the zip container layout (independent of the detector-state
#: structure version stamped inside the state dict itself).
CONTAINER_VERSION = 1

_MANIFEST_NAME = "manifest.json"
_ARRAY_KEY = "__ndarray__"
_NONE_KEY = "__none__"

#: Store-level session-name guard: path-safe and never a traversal token.
_STORE_NAME = re.compile(r"^(?!\.\.?$)[A-Za-z0-9._-]{1,64}$")


def _strip(value, arrays: list[np.ndarray]):
    """Replace numpy arrays in a JSON-ish tree by manifest references."""
    if isinstance(value, np.ndarray):
        arrays.append(value)
        return {_ARRAY_KEY: len(arrays) - 1}
    if isinstance(value, dict):
        return {key: _strip(item, arrays) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strip(item, arrays) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _restore(value, arrays: dict[int, np.ndarray]):
    """Inverse of :func:`_strip`: swap references back for their arrays."""
    if isinstance(value, dict):
        if set(value) == {_ARRAY_KEY}:
            reference = value[_ARRAY_KEY]
            if type(reference) is not int or reference not in arrays:
                raise SnapshotVersionError(
                    f"snapshot manifest references a missing array {reference!r}"
                )
            return arrays[reference]
        return {key: _restore(item, arrays) for key, item in value.items()}
    if isinstance(value, list):
        return [_restore(item, arrays) for item in value]
    return value


def encode_snapshot(state: dict) -> bytes:
    """Serialize a snapshot state dict into the versioned zip container."""
    arrays: list[np.ndarray] = []
    manifest = {"container_version": CONTAINER_VERSION, "state": _strip(state, arrays)}
    buffer = io.BytesIO()
    # Deflate trades a little CPU for much smaller stored/transferred
    # snapshots (token-id and offset arrays compress well).
    with zipfile.ZipFile(buffer, "w", compression=zipfile.ZIP_DEFLATED) as archive:
        archive.writestr(_MANIFEST_NAME, json.dumps(manifest))
        for index, array in enumerate(arrays):
            payload = io.BytesIO()
            np.save(payload, np.ascontiguousarray(array), allow_pickle=False)
            archive.writestr(f"arrays/{index}.npy", payload.getvalue())
    return buffer.getvalue()


def decode_snapshot(data: bytes) -> dict:
    """Parse a container produced by :func:`encode_snapshot`.

    Raises :class:`~repro.core.streaming.SnapshotVersionError`, and only
    that, on a malformed or version-skewed container — corrupt or future
    snapshots are rejected loudly, never partially restored.
    """
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            manifest = json.loads(archive.read(_MANIFEST_NAME))
            if not isinstance(manifest, dict):
                raise SnapshotVersionError("snapshot manifest is not an object")
            version = manifest.get("container_version")
            if version != CONTAINER_VERSION:
                raise SnapshotVersionError(
                    f"snapshot container version {version!r} is not supported "
                    f"by this build (supports {CONTAINER_VERSION})"
                )
            if not isinstance(manifest.get("state"), dict):
                raise SnapshotVersionError("snapshot manifest holds no 'state' object")
            arrays = {
                int(name[len("arrays/") : -len(".npy")]): np.load(
                    io.BytesIO(archive.read(name)), allow_pickle=False
                )
                for name in archive.namelist()
                if name.startswith("arrays/") and name.endswith(".npy")
            }
            return _restore(manifest["state"], arrays)
    except SnapshotVersionError:
        raise
    except (
        zipfile.BadZipFile,
        zlib.error,
        EOFError,
        KeyError,
        ValueError,
        OSError,
        NotImplementedError,
        RuntimeError,
    ) as error:
        # Truncation and bit flips surface from zipfile, zlib and np.load
        # as any of these: an encrypted-flag flip is a RuntimeError, a
        # compression-method flip NotImplementedError, deep nesting a
        # RecursionError (also a RuntimeError).
        raise SnapshotVersionError(f"not a readable snapshot container: {error}") from error


class SnapshotStore(ABC):
    """Durable home of encoded session snapshots.

    The interface is deliberately tiny — save/latest/list/delete keyed by
    ``(session, seq)`` — so an object-store implementation (S3-style
    put/get/list/delete) slots in without touching the serving layer.
    ``seq`` is a per-session monotone checkpoint number; ``latest`` returns
    the highest one.
    """

    @abstractmethod
    def save(self, session: str, seq: int, data: bytes) -> None:
        """Durably store snapshot ``seq`` of ``session``."""

    @abstractmethod
    def latest(self, session: str) -> tuple[int, bytes] | None:
        """Newest stored ``(seq, data)`` of ``session``, or ``None``."""

    @abstractmethod
    def seqs(self, session: str) -> list[int]:
        """Stored checkpoint numbers of ``session``, ascending."""

    @abstractmethod
    def delete(self, session: str) -> int:
        """Drop every snapshot of ``session``; returns how many existed."""


def _check_store_name(session: str) -> str:
    if not isinstance(session, str) or not _STORE_NAME.match(session):
        raise ValueError(f"invalid snapshot session name {session!r}")
    return session


class LocalSnapshotStore(SnapshotStore):
    """Filesystem store: ``root/<session>/<seq>.snap``, atomic, pruned.

    Writes go through a temp file + ``os.replace`` so a crash mid-write can
    never leave a truncated snapshot where ``latest`` would find it, and
    only the newest ``keep`` checkpoints per session are retained. Several
    serve nodes may point at one shared directory (network filesystem) —
    that shared root is what lets a router restore a dead node's sessions
    on the survivors.
    """

    def __init__(self, root: str | os.PathLike, *, keep: int = 2) -> None:
        keep = int(keep)
        if keep < 1:
            raise ValueError(f"keep must be a positive integer, got {keep}")
        self.root = Path(root)
        self.keep = keep
        self.root.mkdir(parents=True, exist_ok=True)

    def _session_dir(self, session: str) -> Path:
        return self.root / _check_store_name(session)

    def _paths(self, session: str) -> list[tuple[int, Path]]:
        directory = self._session_dir(session)
        if not directory.is_dir():
            return []
        found = []
        for path in directory.glob("*.snap"):
            try:
                found.append((int(path.stem), path))
            except ValueError:  # pragma: no cover — foreign file in the dir
                continue
        return sorted(found)

    def save(self, session: str, seq: int, data: bytes) -> None:
        seq = int(seq)
        if seq < 0:
            raise ValueError(f"seq must be non-negative, got {seq}")
        directory = self._session_dir(session)
        directory.mkdir(parents=True, exist_ok=True)
        final = directory / f"{seq:012d}.snap"
        temporary = directory / f".{seq:012d}.{os.getpid()}.tmp"
        temporary.write_bytes(data)
        os.replace(temporary, final)
        for old_seq, path in self._paths(session)[: -self.keep]:
            if old_seq != seq:
                path.unlink(missing_ok=True)

    def latest(self, session: str) -> tuple[int, bytes] | None:
        for seq, path in reversed(self._paths(session)):
            try:
                return seq, path.read_bytes()
            except OSError:  # pragma: no cover — pruned concurrently
                continue
        return None

    def seqs(self, session: str) -> list[int]:
        return [seq for seq, _path in self._paths(session)]

    def delete(self, session: str) -> int:
        paths = self._paths(session)
        for _seq, path in paths:
            path.unlink(missing_ok=True)
        directory = self._session_dir(session)
        if directory.is_dir():
            try:
                directory.rmdir()
            except OSError:  # pragma: no cover — new snapshot raced in
                pass
        return len(paths)
