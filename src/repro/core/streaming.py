"""Streaming grammar-induction anomaly detection (extension).

The paper motivates grammar induction by its linear time complexity for
large-scale data; Sequitur is naturally *incremental*, so the pipeline
extends to streams. The streaming path is built on the execution engine
(:mod:`repro.core.engine`): every arriving chunk lands in one
:class:`~repro.core.engine.SharedStreamState` — a numpy-backed buffer with
running prefix sums — and ``extend()`` computes all newly completed windows'
z-normalized PAA rows and SAX symbols in one vectorized pass per distinct
PAA size. Each member then runs the batch members' tokenizer step
(:func:`repro.sax.numerosity.reduce_symbol_rows`) on its symbol rows and
keeps the interned ids. Snapshotting at any moment yields the rule density
curve over the live range of the stream: the member's grammar builder —
from :func:`repro.grammar._kernel.make_builder`, whatever the kernel, fed
token ids only — gives occurrence spans, and the spans become the curve
exactly as in the batch member pipeline
(:func:`repro.core.engine.member_density_curve`). Unbounded and sliding
members share one builder path: a cached builder over the live ids,
extended by the new suffix at each poll and rebuilt only once the horizon
has pruned tokens (an unbounded member never prunes, so it only ever
extends).

:class:`StreamingGrammarDetector` is one such live member;
:class:`StreamingEnsembleDetector` maintains a fixed parameter bag of
members over the *same shared stream state* (memory O(stream + N·w) rather
than N copies of the stream) and combines their snapshot curves exactly as
Algorithm 1 does (std filter -> max-normalize -> median).

Bounded-memory streaming
------------------------
By default the stream state (and every member's token list and grammar)
grows with the stream — the batch-parity mode, where feeding a whole series
point-by-point or in arbitrary chunks produces exactly the same density
curve as the batch detector (covered by the streaming-parity tests, which
are the contract).

``capacity=`` turns on eviction for infinite streams: the state becomes a
compacting ring buffer retiring points past the horizon, members prune
tokens whose windows slid out, and grammars forget accordingly. Memory is
O(capacity + N·w) regardless of stream length. Two policies:

- ``policy="sliding"`` (exact): the horizon is exactly the last
  ``capacity`` points. Window discretization and the kept-token stream stay
  bitwise identical to the unbounded path inside the horizon (the state
  keeps the absolute prefix sums), and each snapshot *re-induces* the
  grammar over exactly the live tokens — equivalently, every token whose
  window slid out has been un-ingested. Density is renormalized over the
  live horizon only.
- ``policy="decay"`` (approximate, amortized): tokens are segmented into
  generations (:class:`~repro.grammar.sequitur.GenerationalSequitur`), each
  with its own live incremental Sequitur builder; the horizon advances in
  generation steps and expired generations are dropped wholesale. A sealed
  generation keeps only its occurrence spans, so snapshots reuse them (only
  the newest generation is re-read), at the cost of two
  relaxed guarantees: retention overshoots the horizon by up to one
  generation, and rules never span a generation boundary.

Bounded detectors report anomalies in *absolute* stream positions; their
``density_curve()`` covers ``[horizon_start, len(stream))``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace

import numpy as np

from repro.core.anomaly import Anomaly, extract_candidates
from repro.core.combiners import COMBINERS
from repro.core.engine import EVICTION_POLICIES, SharedStreamState, member_density_curve
from repro.core.ensemble import combine_members, sample_parameters
from repro.core.executors import ExecutorOwnerMixin, MemberExecutor
from repro.grammar import _kernel
from repro.grammar.density import density_curve_from_token_spans
from repro.grammar.sequitur import GenerationalSequitur
from repro.obs.stages import stage_timer
from repro.sax.alphabet import WordInterner
from repro.sax.numerosity import STRATEGIES, TokenSequence, reduce_symbol_rows
from repro.sax.plan import DiscretizationPlan
from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import (
    validate_alphabet_size,
    validate_paa_size,
    validate_window,
)

#: Window starts discretized per drain block — bounds the transient PAA/
#: symbol matrices even when one huge chunk arrives, so bounded-memory
#: streams stay bounded during ingest as well as between chunks.
_DRAIN_BLOCK = 65_536

#: Dead tokens tolerated at the front of a member's kept lists before the
#: lists are physically compacted (amortized O(1) per token).
_PRUNE_SLACK = 1024

#: Version of the in-memory session-snapshot structure produced by
#: :meth:`StreamingEnsembleDetector.snapshot`. Bumped on any incompatible
#: change; :meth:`StreamingEnsembleDetector.restore` rejects other versions
#: with :class:`SnapshotVersionError` instead of producing garbage.
SNAPSHOT_STATE_VERSION = 1

#: The ``format`` tag stamped into every session snapshot.
SNAPSHOT_FORMAT = "repro-session"


class SnapshotVersionError(ValueError):
    """A snapshot's format/version is not one this build can restore."""


def _make_state(
    capacity: int | None,
    policy: str,
    segments: int,
    window: int,
) -> SharedStreamState:
    """Build (and validate) the stream state for a detector's parameters."""
    if capacity is not None and int(capacity) < int(window):
        raise ValueError(
            f"capacity={capacity} is smaller than one window ({window}); "
            "at least one complete window must stay inside the horizon"
        )
    return SharedStreamState(capacity, policy=policy, segments=segments)


class StreamingGrammarDetector:
    """One live grammar-induction pipeline over a growing series.

    Parameters
    ----------
    window, paa_size, alphabet_size:
        The discretization of this member (fixed for the stream's life).
    znorm_threshold:
        Constant-window guard, as in the batch pipeline.
    numerosity:
        Reduction strategy (``"exact"`` or ``"none"``), as in the batch
        pipeline.
    capacity, policy, segments:
        Bounded-memory streaming (see the module docstring): ``capacity``
        bounds retention to (at least) the last ``capacity`` points and must
        be at least ``window``; ``policy`` picks exact ``"sliding"`` or
        generation-``"decay"`` grammar forgetting. Only valid when the
        member owns its state (otherwise the shared state's configuration
        governs).
    state:
        Optional :class:`~repro.core.engine.SharedStreamState` to attach to.
        When given, this member holds *no* copy of the stream — it only
        tracks its own grammar — and ingestion is driven by the state's
        owner (see :class:`StreamingEnsembleDetector`); ``append``/``extend``
        on the member itself are disabled. When omitted, the member owns a
        private state and is fed directly.

    Example
    -------
    >>> import numpy as np
    >>> detector = StreamingGrammarDetector(window=50, paa_size=4, alphabet_size=4)
    >>> for value in np.sin(np.linspace(0, 40 * np.pi, 2000)):
    ...     detector.append(float(value))
    >>> len(detector.density_curve()) == 2000
    True
    """

    def __init__(
        self,
        window: int,
        paa_size: int = 4,
        alphabet_size: int = 4,
        *,
        znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
        numerosity: str = "exact",
        capacity: int | None = None,
        policy: str | None = None,
        segments: int | None = None,
        state: SharedStreamState | None = None,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be at least 2, got {window}")
        if numerosity not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {numerosity!r}; expected one of {STRATEGIES}"
            )
        self.window = int(window)
        self.paa_size = validate_paa_size(paa_size, self.window)
        self.alphabet_size = validate_alphabet_size(alphabet_size)
        self.znorm_threshold = float(znorm_threshold)
        self.numerosity = numerosity
        self._owns_state = state is None
        if state is None:
            state = _make_state(
                capacity,
                "sliding" if policy is None else policy,
                4 if segments is None else segments,
                self.window,
            )
        elif capacity is not None or policy is not None or segments is not None:
            raise ValueError(
                "capacity/policy/segments belong to the stream state; a member "
                "attached to a shared state inherits its eviction configuration"
            )
        elif state.capacity is not None and state.capacity < self.window:
            raise ValueError(
                f"shared state capacity={state.capacity} is smaller than one "
                f"window ({self.window})"
            )
        self.state = state
        #: Single-member discretization plan: with ``amin == amax == a`` the
        #: merged table *is* ``gaussian_breakpoints(a)`` and ``symbols_for``
        #: is the identity column, so the shared sweep is bitwise equal to
        #: the historical direct ``searchsorted`` against the member table.
        self._plan = DiscretizationPlan(
            self.window,
            [(self.paa_size, self.alphabet_size)],
            znorm_threshold=self.znorm_threshold,
            min_alphabet_size=self.alphabet_size,
        )
        #: Grammar kernel pinned at construction (see
        #: :mod:`repro.grammar._kernel`): a mid-stream ``REPRO_KERNEL``
        #: change must not mix kernels within one member's life.
        self._kernel = _kernel.current_kernel()
        #: Window starts already discretized and fed to the grammar.
        self._consumed = 0
        #: Symbol row of the last seen window (online numerosity reduction
        #: across chunk boundaries).
        self._last_symbols: np.ndarray | None = None
        #: Kept tokens as interned ids against :attr:`_interner`'s
        #: vocabulary — word strings are materialized only when read
        #: (``tokens()`` and snapshot export).
        self._interner = WordInterner()
        self._kept_ids: list[int] = []
        self._kept_offsets: list[int] = []
        #: Index into the kept lists of the first *live* token.
        self._live_from = 0
        #: Monotone counters identifying the live token set (cache keys that
        #: survive list compaction).
        self._total_kept = 0
        self._total_pruned = 0
        #: Grammar backend, by mode: generation-segmented builders dropped
        #: wholesale as the horizon passes them (decay), else a builder over
        #: the live ids, tagged with the prune counter it was anchored at
        #: and fed at poll time (see :meth:`_builder_spans`) — so
        #: ingest-only workloads never pay for grammar work.
        self._generations: GenerationalSequitur | None = None
        self._span_builder: tuple[int, "object"] | None = None
        #: Last snapshot curve, keyed by the shared state's version counter:
        #: repeated ``density_curve()`` polls without new data are O(1).
        self._curve_cache: tuple[int, np.ndarray] | None = None
        if self.state.generation_size is not None:
            self._generations = GenerationalSequitur(
                self.state.generation_size, kernel=self._kernel
            )

    def __len__(self) -> int:
        return len(self.state)

    @property
    def bounded(self) -> bool:
        """Whether this member runs with a retention horizon."""
        return self.state.capacity is not None

    @property
    def horizon_start(self) -> int:
        """Global index of the first live stream point (0 when unbounded)."""
        return self.state.start

    @property
    def n_windows(self) -> int:
        """Completed sliding windows so far (global count)."""
        return self.state.n_windows(self.window)

    @property
    def n_tokens(self) -> int:
        """Live tokens (after reduction and any horizon pruning)."""
        return len(self._kept_ids) - self._live_from

    @property
    def retired_tokens(self) -> int:
        """Tokens whose windows slid out of the horizon (0 when unbounded)."""
        return self._total_pruned

    def memory_bytes(self) -> int:
        """O(1) estimate of this member's retained bytes.

        Counts the kept token ids and offsets (CPython ``int`` prices), the
        interner's vocabulary (one string per *distinct* word ever seen),
        and the live grammar state (the cached span builder or the
        generation set) —
        *excluding* the shared stream state, which is stored once per
        stream and accounted separately via
        :attr:`~repro.core.engine.SharedStreamState.nbytes`. An estimate,
        not an exact measurement: it is what the serving layer's session
        memory budget accounts against.
        """
        total = len(self._kept_ids) * 72 + self._interner.memory_bytes()
        if self._span_builder is not None:
            total += self._span_builder[1].memory_bytes()
        if self._generations is not None:
            total += self._generations.memory_bytes()
        return total

    def _require_owned_state(self) -> None:
        if not self._owns_state:
            raise ValueError(
                "this member shares its stream state; feed the owning "
                "ensemble instead of the member"
            )

    def append(self, value: float) -> None:
        """Consume one observation; amortized O(w)."""
        self._require_owned_state()
        self.state.append(value)
        _drain(self.state, self._plan, {self.paa_size: [self]})

    def extend(self, values) -> None:
        """Consume a batch of observations in one vectorized pass."""
        self._require_owned_state()
        self.state.extend(values)
        _drain(self.state, self._plan, {self.paa_size: [self]})

    def _forget_before(self, start: int) -> None:
        """Prune tokens whose window start precedes ``start`` (amortized O(1)).

        The kept-offset list is sorted, so the new live boundary is one
        bisect away; the dead prefix is physically deleted only once it
        outweighs the live part. Under the decay policy, grammar
        generations that ended before ``start`` are dropped wholesale.
        """
        if start <= 0:
            return
        live_from = bisect_left(self._kept_offsets, start, lo=self._live_from)
        if live_from != self._live_from:
            self._total_pruned += live_from - self._live_from
            self._live_from = live_from
        if self._live_from > _PRUNE_SLACK and self._live_from * 2 > len(self._kept_ids):
            # Compaction only ever runs in a call that just advanced
            # _total_pruned, so the span builder's anchor check
            # (_builder_spans) can never see a silently-shifted list.
            del self._kept_ids[: self._live_from]
            del self._kept_offsets[: self._live_from]
            self._live_from = 0
        if self._generations is not None:
            self._generations.drop_before(start)

    def _ingest_symbols(
        self, symbols: np.ndarray, first_start: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Numerosity-reduce and intern one block of symbol rows.

        ``symbols`` holds one row per window start in
        ``first_start .. first_start + len(symbols) - 1``; the step is the
        batch members' :func:`~repro.sax.numerosity.reduce_symbol_rows`,
        with the last row carried across blocks. Returns the new kept
        ``(ids, offsets)`` as int64 arrays. Grammar feeding is not done
        here: span builders catch up at the next poll, decay generations
        are fed by the drain.
        """
        kept, ids = reduce_symbol_rows(
            symbols, self._interner, self.numerosity, self._last_symbols
        )
        self._last_symbols = np.array(symbols[-1], dtype=np.int64)
        offsets = kept + first_start
        self._kept_ids.extend(ids.tolist())
        self._kept_offsets.extend(offsets.tolist())
        self._total_kept += len(ids)
        self._consumed = first_start + len(symbols)
        return ids, offsets

    # ------------------------------------------------------------------
    # Snapshot / restore (serialization).
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Serializable state of this member (shared stream excluded).

        Holds the live kept tokens (as interned ids + window offsets), the
        vocabulary that gives those ids meaning, and the ingest cursors.
        Grammar builders are deliberately *not* exported: a grammar is a
        deterministic function of the token sequence fed to it, so
        :meth:`_restore_state` rebuilds them by replaying the live ids —
        smaller snapshots, no kernel-private structures on the wire, and
        restorability across grammar kernels (the kernel-equivalence
        contract makes the replayed grammars bitwise identical).
        """
        return {
            "paa_size": int(self.paa_size),
            "alphabet_size": int(self.alphabet_size),
            "consumed": int(self._consumed),
            "last_symbols": (
                None if self._last_symbols is None else self._last_symbols.copy()
            ),
            "vocabulary": list(self._interner.vocabulary),
            "kept_ids": np.asarray(self._kept_ids[self._live_from :], dtype=np.int64),
            "kept_offsets": np.asarray(
                self._kept_offsets[self._live_from :], dtype=np.int64
            ),
            "total_kept": int(self._total_kept),
            "total_pruned": int(self._total_pruned),
        }

    def _restore_state(self, data: dict) -> None:
        """Install :meth:`export_state` output into a freshly built member.

        The member must already be attached to the restored shared state and
        configured identically (window, sizes, numerosity). Unbounded and
        sliding members rebuild their span builder over the live ids at the
        next poll; decay members replay through
        :meth:`~repro.grammar.sequitur.GenerationalSequitur.replay` (pure
        offset routing, so generations re-seal at identical boundaries).
        """
        if int(data["paa_size"]) != self.paa_size or int(data["alphabet_size"]) != self.alphabet_size:
            raise ValueError(
                f"member snapshot is for (w={data['paa_size']}, a={data['alphabet_size']}), "
                f"not (w={self.paa_size}, a={self.alphabet_size})"
            )
        self._interner = WordInterner.from_vocabulary(data["vocabulary"])
        ids = [int(i) for i in np.asarray(data["kept_ids"], dtype=np.int64)]
        offsets = [int(o) for o in np.asarray(data["kept_offsets"], dtype=np.int64)]
        if len(ids) != len(offsets):
            raise ValueError(
                f"member snapshot holds {len(ids)} ids but {len(offsets)} offsets"
            )
        if ids and (min(ids) < 0 or max(ids) >= len(self._interner.vocabulary)):
            raise ValueError("member snapshot token ids fall outside its vocabulary")
        self._kept_ids = ids
        self._kept_offsets = offsets
        self._live_from = 0
        self._total_kept = int(data["total_kept"])
        self._total_pruned = int(data["total_pruned"])
        self._consumed = int(data["consumed"])
        last = data["last_symbols"]
        self._last_symbols = None if last is None else np.asarray(last, dtype=np.int64)
        self._span_builder = None
        self._curve_cache = None
        if self._generations is not None:
            self._generations = GenerationalSequitur.replay(
                zip(ids, offsets),
                generation_size=self.state.generation_size,
                kernel=self._kernel,
            )

    # ------------------------------------------------------------------
    # Snapshots.
    # ------------------------------------------------------------------

    def _live_offsets(self) -> np.ndarray:
        return np.asarray(self._kept_offsets[self._live_from :], dtype=np.int64)

    def _require_window(self) -> None:
        if self.n_windows == 0:
            raise ValueError(
                f"no complete window yet ({len(self.state)} of {self.window} points)"
            )

    def tokens(self) -> TokenSequence:
        """Snapshot of the live numerosity-reduced token sequence.

        Unbounded members return every token seen; bounded members return
        the tokens whose windows start inside the horizon — exactly the
        unbounded token stream restricted to ``offset >= horizon_start``.
        """
        self._require_window()
        if not self.n_tokens:
            raise ValueError(
                "no live tokens: every kept word's window starts before the "
                f"eviction horizon {self.state.start}"
            )
        vocabulary = self._interner.vocabulary
        words = tuple(vocabulary[i] for i in self._kept_ids[self._live_from :])
        return TokenSequence(words, self._live_offsets(), self.n_windows, self.window)

    def _builder_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """Occurrence spans of the grammar over exactly the live token ids.

        Amortized prune-and-repair, the unbounded and sliding path: while no
        token has been pruned since the cached builder was anchored, the
        live sequence has only grown at the right end — where Sequitur *is*
        incremental — so the builder is repaired by feeding just the new
        suffix (an unbounded member never prunes, so this is all it ever
        does). Once the horizon has claimed tokens, the dead prefix
        invalidates the grammar (Sequitur output depends on the whole
        sequence, and the parity contract is re-induction over exactly the
        live tokens), so the builder is rebuilt over the live ids: O(live)
        work bounded by the capacity, never by the stream length — which is
        what keeps poll latency flat as the stream grows.

        The anchor check is sound against list compaction: compaction only
        runs inside a ``_forget_before`` call that just advanced
        ``_total_pruned``, so an unchanged prune counter guarantees both an
        unchanged ``_live_from`` and an unshifted list.
        """
        cached = self._span_builder
        if cached is not None and cached[0] == self._total_pruned:
            builder = cached[1]
            delta = self._kept_ids[self._live_from + builder.n_tokens :]
            if delta:
                builder.feed_many(delta)
        else:
            builder = _kernel.make_builder(self._kernel)
            builder.feed_many(self._kept_ids[self._live_from :])
            self._span_builder = (self._total_pruned, builder)
        return builder.occurrence_spans()

    def _generation_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """Occurrence spans of the live decay generations, in live-token indices.

        Sealed generations' spans were extracted once at seal time
        (:meth:`GenerationalSequitur.live_spans`); only the growing
        generation is re-read per poll. The horizon only advances in whole
        generations, so the live generations hold exactly the live tokens,
        oldest first, and each generation's spans shift by the tokens
        before it.
        """
        firsts: list[np.ndarray] = []
        lasts: list[np.ndarray] = []
        base = 0
        for _index, generation_firsts, generation_lasts, count in self._generations.live_spans():
            firsts.append(generation_firsts + base)
            lasts.append(generation_lasts + base)
            base += count
        if base != self.n_tokens:
            raise RuntimeError(
                f"live generations hold {base} tokens but {self.n_tokens} tokens "
                "are live; horizon and generations are out of step"
            )
        return np.concatenate(firsts), np.concatenate(lasts)

    def density_curve(self) -> np.ndarray:
        """Rule density curve over the live stream range (snapshot).

        Unbounded: the full-stream curve, bitwise equal to the batch
        pipeline's. Bounded: the curve over ``[horizon_start, len(self))``
        — index ``i`` covers absolute point ``horizon_start + i`` — built
        from the live tokens only and renormalized over the live horizon.

        The grammar side reads occurrence spans off the member's live
        builder (unbounded and sliding: repaired or rebuilt over the live
        ids; decay: per generation), and the spans become the curve exactly
        as in the batch member pipeline.

        The last snapshot is memoized keyed on the shared state's
        :attr:`~repro.core.engine.SharedStreamState.version`, so repeated
        polls without new data return the cached curve without re-inducing
        anything. The returned array is the cached object — treat it as
        read-only.
        """
        self._require_window()
        version = self.state.version
        if self._curve_cache is not None and self._curve_cache[0] == version:
            return self._curve_cache[1]
        length = self.state.live_length
        if not self.n_tokens:
            # Every kept token expired (e.g. one constant run spanning the
            # whole horizon): no rules, zero density everywhere.
            curve = np.zeros(length, dtype=np.float64)
        else:
            with stage_timer("grammar"):
                if self._generations is not None:
                    firsts, lasts = self._generation_spans()
                else:
                    firsts, lasts = self._builder_spans()
            with stage_timer("density"):
                curve = density_curve_from_token_spans(
                    self._live_offsets(),
                    self.window,
                    firsts,
                    lasts,
                    length,
                    horizon_start=self.state.start,
                )
        self._curve_cache = (version, curve)
        return curve

    def _snapshot_payload(self) -> tuple:
        """Picklable :func:`_snapshot_density_task` input: the live tokens.

        The live ids and their offsets cross the process boundary; the
        worker re-induces the grammar from them (the live builders and the
        vocabulary never leave this process).
        """
        self._require_window()
        return (
            np.asarray(self._kept_ids[self._live_from :], dtype=np.int64),
            self._live_offsets(),
            self.window,
            self.state.live_length,
            self._kernel,
            self.state.start,
            self.state.generation_size,
        )

    def detect(self, k: int = 3) -> list[Anomaly]:
        """Top-``k`` anomalies over the live stream range.

        Positions are absolute stream indices (a bounded member's curve
        starts at :attr:`horizon_start`, and candidates are shifted back).
        """
        curve = self.density_curve()
        candidates = extract_candidates(curve, self.window, k, minimize=True)
        start = self.state.start
        if start:
            candidates = [replace(a, position=a.position + start) for a in candidates]
        return candidates


def _drain(
    state: SharedStreamState,
    plan: DiscretizationPlan,
    by_paa_size: dict[int, list[StreamingGrammarDetector]],
) -> None:
    """Discretize every completed-but-unseen window and feed the members.

    One shared sweep per block serves every member: PAA and interval
    matrices once per distinct PAA size (the sweep times ``paa`` and
    ``discretize`` itself), then per member the symbol lookup and the
    reduce step (``discretize``) and, for decay members, the generation
    feed (``grammar``). Large chunks are drained in fixed-size blocks
    (bounded transient memory); block boundaries are invisible to the
    result because numerosity reduction carries the last row across them.
    Once every member has consumed every completed window, the retention
    horizon advances and members forget what slid out.
    """
    n_windows = state.n_windows(plan.window)
    # Members are drained in lock-step (an attached member never ingests on
    # its own), so one cursor serves all.
    first = next(iter(by_paa_size.values()))[0]._consumed
    decay = state.generation_size is not None
    while first < n_windows:
        stop = min(first + _DRAIN_BLOCK, n_windows)
        sweep = state.sweep(plan, first, stop=stop)
        for paa_size, members in by_paa_size.items():
            intervals = sweep.interval_rows(paa_size)
            with stage_timer("discretize"):
                fresh = [
                    member._ingest_symbols(
                        plan.alphabet_table.symbols_for(intervals, member.alphabet_size),
                        first,
                    )
                    for member in members
                ]
            if decay:
                # Generation boundaries are offset-driven, so decay members
                # are fed as tokens arrive: one builder call per generation
                # run of the block.
                with stage_timer("grammar"):
                    for member, (ids, offsets) in zip(members, fresh):
                        member._generations.feed_ids(ids, offsets)
        first = stop
    if state.capacity is not None:
        start = state.trim()
        if start:
            for members in by_paa_size.values():
                for member in members:
                    member._forget_before(start)


def _member_snapshot_curve(member: "StreamingGrammarDetector") -> np.ndarray:
    """Thread task: one member's snapshot rule density curve."""
    return member.density_curve()


def _snapshot_density_task(payload) -> np.ndarray:
    """Process task: a member's snapshot curve from its live tokens.

    Runs the batch member pipeline, :func:`~repro.core.engine.member_density_curve`,
    over the shipped ids, curve origin at the live horizon. Under the decay
    policy each generation (tokens with one ``offset // generation_size``)
    is induced on its own, as the live generations were; rules never span
    one, and the integer-valued curves add exactly.
    """
    ids, offsets, window, length, kernel, start, generation_size = payload
    bounds = [0, len(ids)]
    if generation_size is not None:
        generations = offsets // generation_size
        bounds[1:1] = (np.flatnonzero(np.diff(generations)) + 1).tolist()
    curve = np.zeros(length, dtype=np.float64)
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            curve += member_density_curve(
                ids[lo:hi],
                offsets[lo:hi],
                window,
                length,
                kernel=kernel,
                horizon_start=start,
            )
    return curve


class StreamingEnsembleDetector(ExecutorOwnerMixin):
    """Algorithm 1 over a stream: N live members on one shared stream state.

    Parameters mirror :class:`repro.core.ensemble.EnsembleGrammarDetector`
    (including ``znorm_threshold`` and ``numerosity``, so a streaming
    ensemble configured like a batch one produces the *same* curve); the
    ``(w, a)`` bag is sampled once at construction (a stream has one life,
    so the sample is fixed up front). ``capacity``/``policy``/``segments``
    turn on bounded-memory streaming for infinite inputs (see the module
    docstring); ``capacity`` must be at least ``window``.

    All members reference a single :class:`~repro.core.engine.SharedStreamState`
    — the stream is stored once, not per member — and ``extend()`` ingests
    each chunk with one vectorized PAA/interval pass per distinct PAA size,
    shared by every member of that size via the merged breakpoint table.

    ``executor`` parallelizes the *snapshot* side (``density_curve`` /
    ``detect``), where every member's grammar is turned into a rule density
    curve: thread workers call the live members directly, process workers
    receive each member's live token ids and offsets and
    re-induce the grammar with :func:`~repro.core.engine.member_density_curve`
    (the live Sequitur state never leaves this process). Ingest stays serial — it is already one
    vectorized pass. Results are identical across backends.
    """

    def __init__(
        self,
        window: int,
        *,
        max_paa_size: int = 10,
        max_alphabet_size: int = 10,
        ensemble_size: int = 20,
        selectivity: float = 0.4,
        combiner: str = "median",
        numerosity: str = "exact",
        znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
        capacity: int | None = None,
        policy: str = "sliding",
        segments: int = 4,
        seed: RandomState = None,
        executor: MemberExecutor | str | None = None,
    ) -> None:
        if ensemble_size < 1:
            raise ValueError(f"ensemble_size must be positive, got {ensemble_size}")
        self._configure(
            window,
            max_paa_size,
            max_alphabet_size,
            selectivity,
            combiner,
            numerosity,
            znorm_threshold,
            executor,
        )
        parameters = sample_parameters(
            ensure_rng(seed), self.max_paa_size, self.max_alphabet_size, ensemble_size
        )
        self._wire(parameters, _make_state(capacity, policy, segments, self.window))

    def _configure(
        self,
        window,
        max_paa_size,
        max_alphabet_size,
        selectivity,
        combiner,
        numerosity,
        znorm_threshold,
        executor,
    ) -> None:
        """Validate and install the configuration (construction and restore)."""
        if window < 2:
            raise ValueError(f"window must be at least 2, got {window}")
        self.window = int(window)
        self.max_paa_size = validate_paa_size(max_paa_size, self.window)
        self.max_alphabet_size = validate_alphabet_size(max_alphabet_size)
        if not 0.0 < selectivity <= 1.0:
            raise ValueError(f"selectivity must be in (0, 1], got {selectivity}")
        self.selectivity = float(selectivity)
        self.combiner = str(combiner)
        if self.combiner not in COMBINERS:
            raise ValueError(f"unknown combiner {combiner!r}; expected one of {COMBINERS}")
        self.numerosity = str(numerosity)
        if self.numerosity not in STRATEGIES:
            raise ValueError(f"unknown strategy {numerosity!r}; expected one of {STRATEGIES}")
        self.znorm_threshold = float(znorm_threshold)
        self._init_executor(executor)

    def _wire(self, parameters: list[tuple[int, int]], state: SharedStreamState) -> None:
        """Build the members of ``parameters`` over ``state`` and one shared plan."""
        self.parameters = parameters
        self.ensemble_size = len(parameters)
        #: The single stream buffer every member references.
        self.state = state
        #: Shared multi-window discretization plan: one sweep per drained
        #: block serves every member (PAA per distinct paa_size, one merged
        #: binary search, per-member symbol lookup).
        self._plan = DiscretizationPlan(
            self.window,
            parameters,
            znorm_threshold=self.znorm_threshold,
            max_alphabet_size=self.max_alphabet_size,
        )
        self.members = [
            StreamingGrammarDetector(
                self.window,
                w,
                a,
                znorm_threshold=self.znorm_threshold,
                numerosity=self.numerosity,
                state=state,
            )
            for w, a in parameters
        ]
        #: Members grouped by PAA size — the vectorized ingest shares one
        #: PAA/interval pass per distinct size.
        self._by_paa_size: dict[int, list[StreamingGrammarDetector]] = {}
        for member in self.members:
            self._by_paa_size.setdefault(member.paa_size, []).append(member)
        #: Snapshot memoization keyed by the state's version counter: the
        #: combined ensemble curve, and the last ``detect(k)`` result, so
        #: high-frequency polling without new data is O(1).
        self._curve_cache: tuple[int, np.ndarray] | None = None
        self._detect_cache: tuple[int, int, list] | None = None

    def __len__(self) -> int:
        return len(self.state)

    @property
    def bounded(self) -> bool:
        """Whether the ensemble runs with a retention horizon."""
        return self.state.capacity is not None

    @property
    def horizon_start(self) -> int:
        """Global index of the first live stream point (0 when unbounded)."""
        return self.state.start

    def append(self, value: float) -> None:
        """Feed one observation to the shared state (and every member)."""
        self.state.append(value)
        _drain(self.state, self._plan, self._by_paa_size)

    def extend(self, values) -> None:
        """Feed a chunk of observations in one vectorized pass."""
        self.state.extend(values)
        _drain(self.state, self._plan, self._by_paa_size)

    def _snapshot_curves(self) -> list[np.ndarray]:
        """Every member's snapshot curve, via the configured executor.

        Curves are deterministic functions of each member's live tokens and
        the shared stream, so all backends return bitwise-identical results.
        """
        executor = self.executor
        if executor is None or executor.kind == "serial":
            return [member.density_curve() for member in self.members]
        if executor.kind == "thread":
            # Members are independent snapshot readers of the shared state;
            # threads can call them directly, zero serialization.
            return executor.map(_member_snapshot_curve, self.members)
        # Process backend: ship each member's live tokens; the live grammar
        # builders stay here.
        payloads = [member._snapshot_payload() for member in self.members]
        return executor.map(_snapshot_density_task, payloads)

    def memory_bytes(self) -> int:
        """O(1) estimate of the bytes this ensemble retains.

        The shared stream buffers (stored once, referenced by every member)
        plus each member's token/offset estimate — the quantity the serving
        layer's global session memory budget sums over its live sessions.
        """
        return self.state.nbytes + sum(member.memory_bytes() for member in self.members)

    # ------------------------------------------------------------------
    # Snapshot / restore (serialization).
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Versioned, self-describing state of this live ensemble.

        The returned dict holds JSON scalars plus numpy arrays (the wire
        encoding lives in :mod:`repro.service.snapshot`): the construction
        configuration, the *sampled* ``(w, a)`` bag (so restore never
        re-samples), the shared stream state with its absolute prefix sums,
        and each member's live tokens. :meth:`restore` rebuilds a detector
        whose every future ``extend``/``detect`` is bitwise identical to
        the original's — the crash-recovery contract of the serving tier.
        """
        return {
            "format": SNAPSHOT_FORMAT,
            "state_version": SNAPSHOT_STATE_VERSION,
            "kernel": _kernel.current_kernel(),
            "config": {
                "window": int(self.window),
                "max_paa_size": int(self.max_paa_size),
                "max_alphabet_size": int(self.max_alphabet_size),
                "selectivity": float(self.selectivity),
                "combiner": self.combiner,
                "numerosity": self.numerosity,
                "znorm_threshold": float(self.znorm_threshold),
                "capacity": self.state.capacity,
                "policy": self.state.policy,
                "segments": int(self.state.segments),
            },
            "parameters": [[int(w), int(a)] for w, a in self.parameters],
            "stream": self.state.export_state(),
            "members": [member.export_state() for member in self.members],
        }

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        *,
        executor: MemberExecutor | str | None = None,
    ) -> "StreamingEnsembleDetector":
        """Rebuild a live ensemble from :meth:`snapshot` output.

        Restoring is kernel-portable: grammars are replayed from the live
        token ids under the *current* ``REPRO_KERNEL``, and the kernel
        equivalence contract keeps the results bitwise identical to the
        snapshotting process's. A snapshot from a different
        ``state_version`` raises :class:`SnapshotVersionError` — a clear
        rejection, never garbage output.
        """
        if not isinstance(snapshot, dict) or snapshot.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotVersionError(
                f"not a {SNAPSHOT_FORMAT} snapshot "
                f"(format={snapshot.get('format')!r})"
                if isinstance(snapshot, dict)
                else f"not a {SNAPSHOT_FORMAT} snapshot"
            )
        version = snapshot.get("state_version")
        if version != SNAPSHOT_STATE_VERSION:
            raise SnapshotVersionError(
                f"snapshot state_version {version!r} is not supported by this "
                f"build (supports {SNAPSHOT_STATE_VERSION}); re-snapshot the "
                "session with a matching version"
            )
        config = snapshot["config"]
        parameters = [(int(w), int(a)) for w, a in snapshot["parameters"]]
        member_states = snapshot["members"]
        if len(parameters) != len(member_states):
            raise ValueError(
                f"snapshot holds {len(parameters)} parameter pairs but "
                f"{len(member_states)} member states"
            )
        instance = cls.__new__(cls)
        instance._configure(
            config["window"],
            config["max_paa_size"],
            config["max_alphabet_size"],
            config["selectivity"],
            config["combiner"],
            config["numerosity"],
            config["znorm_threshold"],
            executor,
        )
        instance._wire(parameters, SharedStreamState.from_state(snapshot["stream"]))
        for member, data in zip(instance.members, member_states):
            member._restore_state(data)
        return instance

    def density_curve(self) -> np.ndarray:
        """Ensemble rule density curve over the live stream range.

        Bounded ensembles return the curve over ``[horizon_start,
        len(self))``; index ``i`` covers absolute point
        ``horizon_start + i``.

        The combined curve is memoized keyed on the shared state's
        :attr:`~repro.core.engine.SharedStreamState.version`: polling
        without new data returns the cached array (treat it as read-only)
        without touching the members or the executor. Parity is unaffected
        — the cache only ever replays a value the uncached path computed.
        """
        version = self.state.version
        if self._curve_cache is not None and self._curve_cache[0] == version:
            return self._curve_cache[1]
        curves = self._snapshot_curves()
        with stage_timer("combine"):
            curve, _ = combine_members(curves, self.selectivity, self.combiner)
        self._curve_cache = (version, curve)
        return curve

    def detect(self, k: int = 3) -> list[Anomaly]:
        """Top-``k`` anomalies over the live stream range (absolute positions).

        Repeated polls without new data are O(1): the result is memoized
        keyed on ``(state.version, k)`` on top of the curve memoization.
        """
        validate_window(self.window, self.state.live_length)
        version = self.state.version
        k = int(k)
        if self._detect_cache is not None and self._detect_cache[:2] == (version, k):
            return list(self._detect_cache[2])
        curve = self.density_curve()
        candidates = extract_candidates(curve, self.window, k, minimize=True)
        start = self.state.start
        if start:
            candidates = [replace(a, position=a.position + start) for a in candidates]
        self._detect_cache = (version, k, candidates)
        return list(candidates)


__all__ = [
    "EVICTION_POLICIES",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_STATE_VERSION",
    "SnapshotVersionError",
    "StreamingEnsembleDetector",
    "StreamingGrammarDetector",
]
