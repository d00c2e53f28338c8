"""The ``compiled`` grammar kernel: ``_sequitur.c`` built with the system ``cc``.

``_sequitur.c`` is :class:`~repro.grammar._kernel.FastSequitur` transliterated
into C — the same arena, the same packed digram keys, the same order of
digram-table updates — so it produces the identical grammar and spans. It
needs no package: the first :func:`library` call (reached from
:func:`~repro.grammar._kernel.make_builder` or
:func:`~repro.grammar._kernel.current_kernel`, never at import) compiles it
with ``cc -O2 -shared -fPIC`` and loads it with :mod:`ctypes`.

Build cache: the library lives in the per-user cache directory
(``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``) under a name carrying a
hash of the C source, so an edited source rebuilds and an unchanged one is
compiled once per machine. The compiler writes a temporary file that is
``os.replace``-d into place: processes building at once (pool workers
starting together) each load a complete library, and one file remains.

Fallback: without a compiler, or when the build or the load fails,
:func:`library` returns ``None``; the seam then serves the ``fast`` kernel
and reports ``fast`` as the current kernel. The fallback logs one WARNING
on the ``repro.grammar`` logger, with the tail of the compiler's stderr,
and increments ``repro_kernel_fallback_total`` on the process metrics
registry (``/v1/metrics``).
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import operator
import os
import shutil
import subprocess
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.grammar.rules import Grammar, GrammarRule

#: The C source the library is built from.
SOURCE = Path(__file__).with_name("_sequitur.c")

#: Token ids must lie in ``[0, MAX_TOKEN_ID)``: ``id << 1`` is packed into 32 bits.
MAX_TOKEN_ID = 1 << 30

#: Compiler flags; the library exports plain C functions only.
CFLAGS = ("-O2", "-shared", "-fPIC")

_LOG = logging.getLogger("repro.grammar")

#: Sentinel: the build/load has not been attempted in this process yet.
_UNRESOLVED = object()
#: The loaded library, ``None`` after a fallback, or ``_UNRESOLVED``.
_library = _UNRESOLVED
_lock = threading.Lock()


class BuildError(RuntimeError):
    """The kernel library could not be compiled."""


def cache_dir() -> Path:
    """The per-user directory holding built kernel libraries."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def library_path() -> Path:
    """Where the library built from the current C source is cached."""
    digest = hashlib.sha256(SOURCE.read_bytes()).hexdigest()[:16]
    return cache_dir() / f"_sequitur-{digest}.so"


def find_compiler() -> str | None:
    """The system C compiler (``cc`` on ``PATH``), or ``None``."""
    return shutil.which("cc")


def _tail(text: str, lines: int = 8) -> str:
    return "\n".join(text.strip().splitlines()[-lines:])


def build(target: Path) -> None:
    """Compile :data:`SOURCE` to ``target`` via a temporary file and ``os.replace``."""
    compiler = find_compiler()
    if compiler is None:
        raise BuildError("no C compiler: `cc` is not on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temporary = tempfile.mkstemp(prefix=f"{target.stem}.", suffix=".tmp", dir=target.parent)
    os.close(handle)
    try:
        completed = subprocess.run(
            [compiler, *CFLAGS, "-o", temporary, str(SOURCE)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if completed.returncode != 0:
            raise BuildError(
                f"{compiler} exited with status {completed.returncode}:\n"
                f"{_tail(completed.stderr)}"
            )
        os.replace(temporary, target)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    handle = ctypes.c_void_p
    for name, restype, argtypes in (
        ("seq_new", handle, []),
        ("seq_free", None, [handle]),
        ("seq_feed", ctypes.c_int, [handle, ctypes.c_void_p, ctypes.c_int64]),
        ("seq_feed_one", ctypes.c_int, [handle, ctypes.c_int64]),
        ("seq_memory_bytes", ctypes.c_int64, [handle]),
        ("seq_spans", ctypes.c_int64, [handle]),
        ("seq_freeze", ctypes.c_int64, [handle]),
        ("seq_take", None, [handle, ctypes.c_void_p]),
    ):
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes
    return lib


def _load() -> ctypes.CDLL:
    target = library_path()
    if not target.exists():
        build(target)
    return _declare(ctypes.CDLL(str(target)))


def _fallback_counter():
    from repro.obs.metrics import REGISTRY

    return REGISTRY.counter(
        "repro_kernel_fallback_total",
        "Times the compiled grammar kernel was unavailable and fast ran instead.",
    )


def library() -> ctypes.CDLL | None:
    """The loaded kernel library, built on first use; ``None`` when unavailable."""
    global _library
    if _library is _UNRESOLVED:
        with _lock:
            if _library is _UNRESOLVED:
                counter = _fallback_counter()
                try:
                    _library = _load()
                except (BuildError, OSError, subprocess.SubprocessError) as error:
                    _LOG.warning(
                        "compiled grammar kernel unavailable, using the fast kernel: %s", error
                    )
                    counter.inc()
                    _library = None
    return _library


class CompiledSequitur:
    """The C Sequitur builder behind the id-builder interface.

    Same interface and output as :class:`~repro.grammar._kernel.FastSequitur`
    (``feed``, ``feed_many``, ``n_tokens``, ``occurrence_spans``,
    ``freeze(words)``, ``memory_bytes``). The arena lives in C memory, freed
    when the builder is collected. Token ids outside ``[0, 2**30)`` raise
    :class:`ValueError` before reaching C; an allocation failure raises
    :class:`MemoryError` and leaves the builder unusable.
    """

    __slots__ = ("_lib", "_handle", "_fed", "_release", "__weakref__")

    def __init__(self, lib: ctypes.CDLL) -> None:
        handle = lib.seq_new()
        if not handle:
            raise MemoryError("cannot allocate a compiled Sequitur builder")
        self._lib = lib
        self._handle = handle
        self._fed = 0
        self._release = weakref.finalize(self, lib.seq_free, handle)
        # The process's exit reclaims the arena; skip the call at shutdown.
        self._release.atexit = False

    def __reduce__(self):
        raise TypeError("a compiled Sequitur builder holds C memory and cannot be pickled")

    @property
    def n_tokens(self) -> int:
        """Number of tokens fed so far."""
        return self._fed

    def feed(self, token_id: int) -> None:
        """Append one interned token id."""
        token_id = operator.index(token_id)
        if not 0 <= token_id < MAX_TOKEN_ID:
            raise ValueError(f"token id {token_id} outside [0, {MAX_TOKEN_ID})")
        if self._lib.seq_feed_one(self._handle, token_id):
            raise MemoryError("compiled Sequitur builder ran out of memory")
        self._fed += 1

    def feed_many(self, token_ids: Sequence[int]) -> None:
        """Append a batch of interned token ids in one call into C."""
        ids = np.ascontiguousarray(token_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"token ids must be one-dimensional, got shape {ids.shape}")
        count = len(ids)
        if not count:
            return
        if ids.min() < 0 or ids.max() >= MAX_TOKEN_ID:
            raise ValueError(f"token ids must lie in [0, {MAX_TOKEN_ID})")
        if self._lib.seq_feed(self._handle, ids.ctypes.data, count):
            raise MemoryError("compiled Sequitur builder ran out of memory")
        self._fed += count

    def _result(self, length: int) -> np.ndarray:
        if length < 0:
            raise MemoryError("compiled Sequitur builder ran out of memory")
        out = np.empty(length, dtype=np.int64)
        self._lib.seq_take(self._handle, out.ctypes.data)
        return out

    def occurrence_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """Token spans of every rule occurrence except R0, as two arrays."""
        out = self._result(2 * self._lib.seq_spans(self._handle))
        count = len(out) // 2
        return out[:count], out[count:]

    def freeze(self, words: Sequence[str]) -> Grammar:
        """Snapshot into an immutable :class:`Grammar`, mapping ids to words.

        Rules are numbered exactly as :meth:`FastSequitur.freeze` numbers them.
        """
        codes = self._result(self._lib.seq_freeze(self._handle)).tolist()
        rules: list[GrammarRule] = []
        at = 0
        while at < len(codes):
            body = codes[at + 1 : at + 1 + codes[at]]
            at += 1 + codes[at]
            rhs = tuple(code >> 1 if code & 1 else words[code >> 1] for code in body)
            rules.append(GrammarRule(len(rules), rhs))
        return Grammar(tuple(rules))

    def memory_bytes(self) -> int:
        """Bytes the live arena holds: used slots, rules and digram entries."""
        return self._lib.seq_memory_bytes(self._handle)


__all__ = [
    "CompiledSequitur",
    "MAX_TOKEN_ID",
    "build",
    "cache_dir",
    "find_compiler",
    "library",
    "library_path",
]
