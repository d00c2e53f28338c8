"""Sequitur grammar induction (Nevill-Manning & Witten 1997; paper Section 5.1).

Sequitur reads a token sequence left to right and maintains two invariants:

- **Digram uniqueness** — no pair of adjacent symbols occurs more than once
  in the grammar; a repeated digram is replaced by a (possibly new)
  non-terminal.
- **Rule utility** — every rule is referenced at least twice; a rule whose
  reference count drops to one is inlined and deleted.

The implementation follows the canonical linked-list design from the
reference implementation: each rule body is a circular doubly-linked list
anchored by a *guard* symbol, and a hash table maps digram keys to their
single current occurrence. Amortized cost is O(1) per input token.

The builder (:class:`_SequiturBuilder`) is internal; the public entry points
are :func:`induce_grammar`, which returns a frozen
:class:`repro.grammar.rules.Grammar`, and :class:`GenerationalSequitur`,
the generation-segmented variant whose old generations can be retired
wholesale (the streaming eviction layer's grammar forgetting). Its
:meth:`~GenerationalSequitur.feed_ids` routes a block of interned token
ids, splitting it at generation boundaries and handing each run to its
generation's builder in one ``feed_many`` call — bitwise the same as
per-token :meth:`~GenerationalSequitur.feed_id`, and what the decay drain
uses so a compiled kernel is not driven one token per call. A sealed
generation keeps only its occurrence spans and token count.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.grammar import _kernel
from repro.grammar.rules import Grammar, GrammarRule

#: Type of a digram-table key: a pair of per-symbol keys (see ``_Symbol.key``).
_DigramKey = tuple[object, object]


class _Rule:
    """A grammar rule under construction: circular list body + refcount."""

    __slots__ = ("guard", "count", "serial")

    def __init__(self, serial: int) -> None:
        self.serial = serial
        self.count = 0
        self.guard = _Guard(self)
        self.guard.next = self.guard
        self.guard.prev = self.guard

    def first(self) -> "_Symbol":
        return self.guard.next

    def last(self) -> "_Symbol":
        return self.guard.prev


class _Symbol:
    """Base node of a rule body's doubly-linked list."""

    __slots__ = ("prev", "next")

    is_guard = False
    is_nonterminal = False

    def __init__(self) -> None:
        self.prev: _Symbol | None = None
        self.next: _Symbol | None = None

    @property
    def key(self) -> object:
        raise NotImplementedError

    def clone(self) -> "_Symbol":
        raise NotImplementedError


class _Terminal(_Symbol):
    __slots__ = ("word",)

    def __init__(self, word: str) -> None:
        super().__init__()
        self.word = word

    @property
    def key(self) -> object:
        return self.word

    def clone(self) -> "_Terminal":
        return _Terminal(self.word)


class _NonTerminal(_Symbol):
    __slots__ = ("rule",)

    is_nonterminal = True

    def __init__(self, rule: _Rule) -> None:
        super().__init__()
        self.rule = rule
        rule.count += 1

    @property
    def key(self) -> object:
        # Rules are identified by serial number; serials are never reused,
        # so stale digram-table entries for deleted rules can never collide.
        return self.rule.serial

    def clone(self) -> "_NonTerminal":
        return _NonTerminal(self.rule)


class _Guard(_Symbol):
    __slots__ = ("rule",)

    is_guard = True

    def __init__(self, rule: _Rule) -> None:
        super().__init__()
        self.rule = rule

    @property
    def key(self) -> object:
        # A guard participates in no digram; a unique key guarantees that.
        return self

    def clone(self) -> "_Symbol":
        raise TypeError("guards are never cloned")


class _SequiturBuilder:
    """Incremental Sequitur: feed tokens, then freeze into a Grammar."""

    def __init__(self) -> None:
        self._digrams: dict[_DigramKey, _Symbol] = {}
        self._serial = 0
        self.root = self._new_rule()

    def _new_rule(self) -> _Rule:
        rule = _Rule(self._serial)
        self._serial += 1
        return rule

    # ------------------------------------------------------------------
    # Linked-list primitives (ports of the reference implementation).
    # ------------------------------------------------------------------

    def _digram_key(self, symbol: _Symbol) -> _DigramKey:
        return (symbol.key, symbol.next.key)

    def _delete_digram(self, symbol: _Symbol) -> None:
        """Drop the digram starting at ``symbol`` from the table, if it owns it."""
        if symbol.is_guard or symbol.next is None or symbol.next.is_guard:
            return
        key = self._digram_key(symbol)
        if self._digrams.get(key) is symbol:
            del self._digrams[key]

    def _join(self, left: _Symbol, right: _Symbol) -> None:
        """Link ``left -> right``, maintaining the digram table.

        Includes the triple-repetition fix from the reference implementation:
        when unlinking inside a run of identical symbols (e.g. ``aaa``), the
        overlapping digram that becomes primary must be (re-)registered.
        """
        if left.next is not None:
            self._delete_digram(left)
            if (
                right.prev is not None
                and right.next is not None
                and not right.is_guard
                and not right.prev.is_guard
                and not right.next.is_guard
                and right.key == right.prev.key
                and right.key == right.next.key
            ):
                self._digrams[self._digram_key(right)] = right
            if (
                left.prev is not None
                and left.next is not None
                and not left.is_guard
                and not left.prev.is_guard
                and not left.next.is_guard
                and left.key == left.next.key
                and left.key == left.prev.key
            ):
                self._digrams[self._digram_key(left.prev)] = left.prev
        left.next = right
        right.prev = left

    def _insert_after(self, anchor: _Symbol, new: _Symbol) -> None:
        self._join(new, anchor.next)
        self._join(anchor, new)

    def _cleanup(self, symbol: _Symbol) -> None:
        """Unlink ``symbol`` from its rule body, updating table and refcounts."""
        if symbol.is_guard:
            return
        self._join(symbol.prev, symbol.next)
        self._delete_digram(symbol)
        if symbol.is_nonterminal:
            symbol.rule.count -= 1

    # ------------------------------------------------------------------
    # Core Sequitur steps.
    # ------------------------------------------------------------------

    def _check(self, symbol: _Symbol) -> bool:
        """Enforce digram uniqueness for the digram starting at ``symbol``.

        Returns True when the digram matched an existing occurrence (whether
        or not a replacement happened — overlapping matches are skipped, as
        in the reference implementation).
        """
        if symbol.is_guard or symbol.next is None or symbol.next.is_guard:
            return False
        key = self._digram_key(symbol)
        found = self._digrams.get(key)
        if found is None:
            self._digrams[key] = symbol
            return False
        if found.next is not symbol:
            self._process_match(symbol, found)
        return True

    def _process_match(self, new: _Symbol, match: _Symbol) -> None:
        """Replace both occurrences of a repeated digram by a non-terminal."""
        if match.prev.is_guard and match.next.next.is_guard:
            # The matching occurrence is the entire body of an existing rule:
            # reuse that rule instead of creating a new one.
            rule = match.prev.rule
            self._substitute(new, rule)
        else:
            rule = self._new_rule()
            first = new.clone()
            second = new.next.clone()
            rule.guard.next = first
            first.prev = rule.guard
            first.next = second
            second.prev = first
            second.next = rule.guard
            rule.guard.prev = second
            self._substitute(match, rule)
            self._substitute(new, rule)
            self._digrams[self._digram_key(first)] = first
        # Rule utility: the replacement may have dropped another rule's
        # reference count to one, in which case it is inlined.
        first_of_rule = rule.first()
        if first_of_rule.is_nonterminal and first_of_rule.rule.count == 1:
            self._expand(first_of_rule)

    def _substitute(self, symbol: _Symbol, rule: _Rule) -> None:
        """Replace the digram starting at ``symbol`` with ``NonTerminal(rule)``."""
        anchor = symbol.prev
        self._cleanup(symbol)
        self._cleanup(symbol.next)
        self._insert_after(anchor, _NonTerminal(rule))
        if not self._check(anchor):
            self._check(anchor.next)

    def _expand(self, nonterminal: _NonTerminal) -> None:
        """Inline a once-referenced rule at its sole remaining use site."""
        rule = nonterminal.rule
        left = nonterminal.prev
        right = nonterminal.next
        first = rule.first()
        last = rule.last()
        # Remove the table entries owned by the disappearing digrams around
        # the non-terminal before relinking.
        self._delete_digram(nonterminal)
        self._join(left, first)
        self._join(last, right)
        self._digrams[self._digram_key(last)] = last
        rule.count = 0
        rule.guard.next = rule.guard
        rule.guard.prev = rule.guard

    # ------------------------------------------------------------------
    # Public builder API.
    # ------------------------------------------------------------------

    def feed(self, word: str) -> None:
        """Append one token to the sequence and restore the invariants."""
        terminal = _Terminal(word)
        self._insert_after(self.root.last(), terminal)
        self._check(terminal.prev)

    def freeze(self) -> Grammar:
        """Snapshot the builder into an immutable :class:`Grammar`.

        Rules are renumbered 1..k in the order of first reference during a
        pre-order walk from R0, so output numbering is deterministic and
        deleted rules leave no gaps.
        """
        numbering: dict[int, int] = {}
        ordered_rules: list[_Rule] = []
        # Pre-order walk with an explicit stack: deep grammars must not hit
        # the interpreter recursion limit.
        stack: list[_Symbol] = [self.root.first()]
        while stack:
            symbol = stack.pop()
            while not symbol.is_guard:
                if symbol.is_nonterminal and symbol.rule.serial not in numbering:
                    numbering[symbol.rule.serial] = len(ordered_rules) + 1
                    ordered_rules.append(symbol.rule)
                    stack.append(symbol.next)
                    symbol = symbol.rule.first()
                    continue
                symbol = symbol.next

        def _rhs(rule: _Rule) -> tuple[str | int, ...]:
            body: list[str | int] = []
            symbol = rule.first()
            while not symbol.is_guard:
                if symbol.is_nonterminal:
                    body.append(numbering[symbol.rule.serial])
                else:
                    body.append(symbol.word)
                symbol = symbol.next
            return tuple(body)

        grammar_rules = [GrammarRule(0, _rhs(self.root))]
        grammar_rules.extend(
            GrammarRule(index + 1, _rhs(rule)) for index, rule in enumerate(ordered_rules)
        )
        return Grammar(tuple(grammar_rules))


class GenerationalSequitur:
    """Generation-segmented Sequitur with wholesale rule retirement.

    The streaming eviction layer's grammar-forgetting backend for the
    ``"decay"`` policy: token ids are routed by their window offset into
    fixed ``generation_size``-point generations, each owning an independent
    Sequitur builder from the kernel seam
    (:func:`repro.grammar._kernel.make_builder`, any kernel). A generation
    is *sealed* as soon as the first token of the next generation arrives:
    its occurrence spans and token count are kept and its builder is
    discarded. :meth:`drop_before` retires whole sealed generations once
    the eviction horizon passes them, which is what keeps a live grammar's
    memory proportional to the horizon instead of the stream.

    The relaxation relative to a single grammar over the same tokens: rules
    never span a generation boundary, so repeated structure crossing a
    boundary is not compressed (and contributes less rule density there).
    The sliding policy avoids this by re-inducing over the live tokens
    instead; see :mod:`repro.core.streaming`.

    Grammar state is token ids and spans only: no word ever enters it, and
    a sealed generation holds two small int arrays, never its builder's
    arena — which :meth:`memory_bytes` makes observable.
    """

    def __init__(self, generation_size: int, *, kernel: str | None = None) -> None:
        generation_size = int(generation_size)
        if generation_size < 1:
            raise ValueError(f"generation_size must be positive, got {generation_size}")
        self.generation_size = generation_size
        #: Kernel every generation builder is created from, pinned at
        #: construction so a mid-stream env change cannot mix kernels.
        self.kernel = _kernel.current_kernel() if kernel is None else kernel
        if self.kernel not in _kernel.KERNELS:
            raise ValueError(f"unknown grammar kernel {self.kernel!r}")
        #: Sealed generations' token counts: ``{generation_index: count}``.
        self._sealed: dict[int, int] = {}
        #: Sealed generations' occurrence spans, extracted once at seal time —
        #: what makes decay polls amortized: a sealed generation never
        #: changes, so its spans never need re-reading.
        self._sealed_spans: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._current_index: int | None = None
        self._current_builder = None
        self._current_count = 0
        #: Span cache of the (still growing) current generation.
        self._current_spans: tuple[int, tuple] | None = None
        self.retired_generations = 0
        self.retired_tokens = 0

    @classmethod
    def replay(
        cls,
        tokens: Iterable[tuple[int, int]],
        *,
        generation_size: int,
        kernel: str | None = None,
    ) -> "GenerationalSequitur":
        """Rebuild generation-segmented grammar state from live tokens.

        The session-snapshot restore path: ``tokens`` is the live
        ``(token_id, offset)`` stream (offsets non-decreasing). Generation
        routing is a pure function of the offsets
        (``offset // generation_size``) and each generation's grammar a pure
        function of its token ids, so replaying the live tokens reconstructs
        every live generation bitwise — sealed ones re-seal at the same
        boundaries, and the newest keeps growing. Retirement statistics are
        *not* live state and restart at zero.
        """
        instance = cls(generation_size, kernel=kernel)
        pairs = np.asarray(list(tokens), dtype=np.int64).reshape(-1, 2)
        instance.feed_ids(pairs[:, 0], pairs[:, 1])
        return instance

    def generation_of(self, offset: int) -> int:
        """Generation index owning the window offset ``offset``."""
        return int(offset) // self.generation_size

    def _seal_current(self) -> None:
        if self._current_builder is None:
            return
        # Only the spans survive: dropping the builder releases the
        # generation's symbol arena and digram table — sealed generations
        # must not pin retired token storage.
        self._sealed[self._current_index] = self._current_count
        self._sealed_spans[self._current_index] = self._current_builder.occurrence_spans()
        self._current_builder = None
        self._current_spans = None
        self._current_count = 0

    def _route(self, offset: int) -> None:
        index = self.generation_of(offset)
        if self._current_index is not None and index < self._current_index:
            raise ValueError(
                f"token offsets must be non-decreasing: generation {index} "
                f"after generation {self._current_index}"
            )
        if index != self._current_index:
            self._seal_current()
            self._current_index = index
        if self._current_builder is None:
            self._current_builder = _kernel.make_builder(self.kernel)

    def feed_id(self, token_id: int, offset: int) -> None:
        """Route one token id (with its window offset) to its generation.

        Offsets must be fed in non-decreasing order — they are window start
        positions of a numerosity-reduced stream, which is naturally
        monotone.
        """
        self._route(offset)
        self._current_builder.feed(token_id)
        self._current_count += 1
        self._current_spans = None

    def feed_ids(self, token_ids: Sequence[int], offsets: Sequence[int]) -> None:
        """Route a block of token ids, one builder call per generation.

        ``offsets[i]`` is the window offset of ``token_ids[i]``. The block is
        split where ``offset // generation_size`` changes and each run goes
        to its generation in one ``feed_many`` call, so the result is the
        same as :meth:`feed_id` per token, on any kernel — the decay drain's
        entry, which keeps per-token interpreter and call overhead out of
        the compiled kernel's path.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if token_ids.shape != offsets.shape or token_ids.ndim != 1:
            raise ValueError(
                "feed_ids needs equal-length 1-d ids and offsets, got shapes "
                f"{token_ids.shape} and {offsets.shape}"
            )
        if not len(token_ids):
            return
        self._current_spans = None
        cuts = np.flatnonzero(np.diff(offsets // self.generation_size)) + 1
        bounds = [0, *cuts.tolist(), len(token_ids)]
        for start, stop in zip(bounds, bounds[1:]):
            self._route(int(offsets[start]))
            self._current_builder.feed_many(token_ids[start:stop])
            self._current_count += stop - start

    def drop_before(self, offset: int) -> int:
        """Retire every sealed generation ending at or before ``offset``.

        Returns the number of generations dropped. Only *sealed* generations
        are eligible (the current one is still growing and, with the decay
        policy's aligned horizon, never expired).
        """
        boundary = int(offset)
        dropped = 0
        for index in sorted(self._sealed):
            if (index + 1) * self.generation_size > boundary:
                break
            self.retired_tokens += self._sealed.pop(index)
            del self._sealed_spans[index]
            self.retired_generations += 1
            dropped += 1
        return dropped

    def live_spans(self) -> list[tuple[int, np.ndarray, np.ndarray, int]]:
        """``(index, firsts, lasts, count)`` of every live generation.

        Sealed generations return the occurrence spans extracted at seal
        time; only the growing generation reads its live builder (cached
        until the next token) — the decay snapshot path feeds these straight
        into the fused density scatter. Oldest generation first.
        """
        live = [
            (index, *self._sealed_spans[index], count)
            for index, count in sorted(self._sealed.items())
        ]
        if self._current_builder is not None:
            if self._current_spans is None or self._current_spans[0] != self._current_count:
                self._current_spans = (
                    self._current_count,
                    self._current_builder.occurrence_spans(),
                )
            firsts, lasts = self._current_spans[1]
            live.append((self._current_index, firsts, lasts, self._current_count))
        return live

    def memory_bytes(self) -> int:
        """Estimate of bytes retained by live grammar state.

        The growing generation is charged its builder's own estimate;
        sealed generations are charged their spans. The decay soak asserts
        this stays bounded as generations retire — the accounting that
        catches a sealed generation accidentally pinning its builder.
        """
        total = 0
        if self._current_builder is not None:
            total += self._current_builder.memory_bytes()
        for firsts, lasts in self._sealed_spans.values():
            total += firsts.nbytes + lasts.nbytes
        return total


def induce_grammar(tokens: Iterable[str] | Sequence[str]) -> Grammar:
    """Run Sequitur over ``tokens`` and return the induced grammar.

    Parameters
    ----------
    tokens:
        The (numerosity-reduced) SAX words, or any iterable of hashable
        strings.

    Returns
    -------
    Grammar
        Frozen grammar with ``rules[0]`` being R0 (the compressed sequence).

    Example
    -------
    The paper's Eq. (4) token sequence compresses to
    ``R0 -> R2 cc ca R2`` with ``R2 -> ab bc aa`` (Table 2):

    >>> grammar = induce_grammar(["ab", "bc", "aa", "cc", "ca", "ab", "bc", "aa"])
    >>> grammar.rules[0].rhs
    (1, 'cc', 'ca', 1)
    >>> grammar.rules[1].rhs
    ('ab', 'bc', 'aa')
    """
    # Intern words on the fly and feed integer ids through the kernel seam;
    # grammar structure depends only on the equality pattern of the tokens,
    # so every kernel returns the oracle's grammar.
    ids: dict[str, int] = {}
    vocabulary: list[str] = []
    id_builder = _kernel.make_builder()
    feed = id_builder.feed
    fed = False
    for word in tokens:
        if not isinstance(word, str):
            raise TypeError(f"tokens must be strings, got {type(word).__name__}")
        token_id = ids.get(word)
        if token_id is None:
            token_id = len(vocabulary)
            ids[word] = token_id
            vocabulary.append(word)
        feed(token_id)
        fed = True
    if not fed:
        raise ValueError("cannot induce a grammar from an empty token sequence")
    return id_builder.freeze(vocabulary)
