"""Numba-jitted Sequitur kernel (``REPRO_KERNEL=compiled``).

Import-guarded: importing this module requires numba. The seam
(:func:`repro.grammar._kernel.make_builder`) catches the ImportError and
re-raises with an install hint; the kernel-equivalence tests skip
themselves when numba is missing, and run the compiled kernel through the
exact same oracle comparisons when it is present.

The state layout is the :class:`~repro.grammar._kernel.FastSequitur` arena
with numpy storage: ``next``/``prev``/``value`` int64 arrays, rule guard
and refcount arrays indexed by serial, and a ``numba.typed.Dict`` digram
table. The jitted code is a line-for-line port of the pure-Python kernel:
``_check_at`` inlines the oracle's ``_check``/``_process_match``/
``_substitute`` chain into one *self-recursive* function (numba supports
self- but not mutual recursion), so the depth-first cascade order — which
the frozen grammar depends on — is identical to the reference. Arena
growth happens between batches in Python: capacity is sized to
``8 * tokens + 1024`` slots, far above Sequitur's linear-in-n allocation
bound, and the jitted code raises rather than write past the end.
:class:`CompiledSequitur` subclasses ``FastSequitur`` so the cold paths —
``freeze``, ``occurrence_spans`` — are inherited (they only read the
arena) and only the feed hot loop is compiled.
"""

from __future__ import annotations

import numpy as np
from numba import int64, njit
from numba.typed import Dict

from repro.grammar._kernel import FastSequitur

#: state[] slot indices for the scalar registers shared with the jit code.
_N_SYMBOLS = 0
_N_RULES = 1
_FED = 2


@njit(cache=True)
def _delete_digram(nxt, val, digrams, symbol):  # pragma: no cover - requires numba
    after = nxt[symbol]
    if val[symbol] < 0 or after == -1 or val[after] < 0:
        return
    key = (val[symbol] << 32) | val[after]
    if digrams.get(key, int64(-1)) == symbol:
        del digrams[key]


@njit(cache=True)
def _join(nxt, prv, val, digrams, left, right):  # pragma: no cover - requires numba
    if nxt[left] != -1:
        _delete_digram(nxt, val, digrams, left)
        rp, rn = prv[right], nxt[right]
        rv = val[right]
        if rp != -1 and rn != -1 and rv >= 0 and val[rp] == rv and val[rn] == rv:
            digrams[(rv << 32) | rv] = right
        lp, ln = prv[left], nxt[left]
        lv = val[left]
        if lp != -1 and ln != -1 and lv >= 0 and val[ln] == lv and val[lp] == lv:
            digrams[(lv << 32) | lv] = lp
    nxt[left] = right
    prv[right] = left


@njit(cache=True)
def _check_at(symbol, state, nxt, prv, val, rule_guard, rule_count, digrams):  # pragma: no cover - requires numba
    """Oracle ``_check`` with ``_process_match``/``_substitute`` inlined.

    Returns True when the digram at ``symbol`` matched an existing
    occurrence. Recursive calls mirror the oracle's
    ``if not check(anchor): check(anchor.next)`` exactly.
    """
    after = nxt[symbol]
    if val[symbol] < 0 or after == -1 or val[after] < 0:
        return False
    key = (val[symbol] << 32) | val[after]
    found = digrams.get(key, int64(-1))
    if found == -1:
        digrams[key] = symbol
        return False
    if nxt[found] == symbol:
        return True

    # ---- _process_match(new=symbol, match=found) ----------------------
    new = symbol
    match = found
    match_prev = prv[match]
    match_next_next = nxt[nxt[match]]
    first_clone = int64(-1)
    if val[match_prev] < 0 and val[match_next_next] < 0:
        # The match is the entire body of an existing rule: reuse it.
        serial = -val[match_prev] - 1
        new_rule = False
    else:
        n_symbols = state[_N_SYMBOLS]
        n_rules = state[_N_RULES]
        if n_symbols + 3 > val.shape[0] or n_rules + 1 > rule_guard.shape[0]:
            raise RuntimeError("compiled Sequitur arena overflow")
        serial = n_rules
        guard = n_symbols
        val[guard] = -serial - 1
        nxt[guard] = -1
        prv[guard] = -1
        rule_guard[serial] = guard
        rule_count[serial] = 0
        first_clone = n_symbols + 1
        val[first_clone] = val[new]
        second = n_symbols + 2
        val[second] = val[nxt[new]]
        state[_N_SYMBOLS] = n_symbols + 3
        state[_N_RULES] = n_rules + 1
        if val[first_clone] & 1:
            rule_count[(val[first_clone] - 1) >> 1] += 1
        if val[second] & 1:
            rule_count[(val[second] - 1) >> 1] += 1
        nxt[guard] = first_clone
        prv[first_clone] = guard
        nxt[first_clone] = second
        prv[second] = first_clone
        nxt[second] = guard
        prv[guard] = second
        new_rule = True

    # ---- substitutions, in oracle order --------------------------------
    n_sites = 2 if new_rule else 1
    for site_index in range(n_sites):
        site = match if (new_rule and site_index == 0) else new
        anchor = prv[site]
        # _cleanup(site); _cleanup(site.next)
        second_victim = nxt[site]
        for victim_index in range(2):
            victim = site if victim_index == 0 else second_victim
            v = val[victim]
            if v < 0:
                continue
            _join(nxt, prv, val, digrams, prv[victim], nxt[victim])
            _delete_digram(nxt, val, digrams, victim)
            if v & 1:
                rule_count[(v - 1) >> 1] -= 1
        n_symbols = state[_N_SYMBOLS]
        if n_symbols + 1 > val.shape[0]:
            raise RuntimeError("compiled Sequitur arena overflow")
        nonterminal = n_symbols
        val[nonterminal] = (serial << 1) | 1
        nxt[nonterminal] = -1
        prv[nonterminal] = -1
        state[_N_SYMBOLS] = n_symbols + 1
        rule_count[serial] += 1
        _join(nxt, prv, val, digrams, nonterminal, nxt[anchor])
        _join(nxt, prv, val, digrams, anchor, nonterminal)
        if not _check_at(anchor, state, nxt, prv, val, rule_guard, rule_count, digrams):
            _check_at(nxt[anchor], state, nxt, prv, val, rule_guard, rule_count, digrams)

    if new_rule:
        digrams[(val[first_clone] << 32) | val[nxt[first_clone]]] = first_clone

    # ---- rule utility: inline a once-referenced rule heading this one --
    first_of_rule = nxt[rule_guard[serial]]
    head = val[first_of_rule]
    if head > 0 and head & 1 and rule_count[(head - 1) >> 1] == 1:
        inner = (head - 1) >> 1
        left = prv[first_of_rule]
        right = nxt[first_of_rule]
        inner_guard = rule_guard[inner]
        inner_first = nxt[inner_guard]
        inner_last = prv[inner_guard]
        _delete_digram(nxt, val, digrams, first_of_rule)
        _join(nxt, prv, val, digrams, left, inner_first)
        _join(nxt, prv, val, digrams, inner_last, right)
        digrams[(val[inner_last] << 32) | val[nxt[inner_last]]] = inner_last
        rule_count[inner] = 0
        nxt[inner_guard] = inner_guard
        prv[inner_guard] = inner_guard
    return True


@njit(cache=True)
def _feed_batch(tokens, state, nxt, prv, val, rule_guard, rule_count, digrams):  # pragma: no cover - requires numba
    for t in range(tokens.shape[0]):
        n_symbols = state[_N_SYMBOLS]
        if n_symbols + 1 > val.shape[0]:
            raise RuntimeError("compiled Sequitur arena overflow")
        encoded = tokens[t] << 1
        terminal = n_symbols
        val[terminal] = encoded
        state[_N_SYMBOLS] = n_symbols + 1
        guard0 = rule_guard[0]
        last = prv[guard0]
        nxt[terminal] = guard0
        prv[guard0] = terminal
        nxt[last] = terminal
        prv[terminal] = last
        state[_FED] += 1
        _check_at(last, state, nxt, prv, val, rule_guard, rule_count, digrams)


class CompiledSequitur(FastSequitur):
    """FastSequitur with the feed loop compiled by numba.

    Cold paths (``freeze``, ``occurrence_spans``) are inherited — they only
    read the arena, which numpy storage serves identically. Equivalence
    with the oracle is enforced by the same property tests as the fast
    kernel, run whenever numba is importable.
    """

    __slots__ = ("_state",)

    _INITIAL = 4096

    def __init__(self) -> None:
        self._next = np.full(self._INITIAL, -1, dtype=np.int64)
        self._prev = np.full(self._INITIAL, -1, dtype=np.int64)
        self._value = np.zeros(self._INITIAL, dtype=np.int64)
        self._rule_guard = np.zeros(self._INITIAL // 8, dtype=np.int64)
        self._rule_count = np.zeros(self._INITIAL // 8, dtype=np.int64)
        self._digrams = Dict.empty(key_type=int64, value_type=int64)
        self._state = np.zeros(4, dtype=np.int64)
        # serial 0 = R0, created here so the jit loop never sees an empty arena.
        self._value[0] = -1
        self._next[0] = 0
        self._prev[0] = 0
        self._state[_N_SYMBOLS] = 1
        self._state[_N_RULES] = 1

    @property
    def n_tokens(self) -> int:
        return int(self._state[_FED])

    def _grow(self, incoming: int) -> None:
        needed = int(self._state[_N_SYMBOLS]) + 8 * incoming + 1024
        if needed > len(self._value):
            capacity = max(needed, 2 * len(self._value))
            for name in ("_next", "_prev", "_value"):
                old = getattr(self, name)
                grown = np.full(capacity, -1, dtype=np.int64)
                grown[: len(old)] = old
                setattr(self, name, grown)
        rules_needed = int(self._state[_N_RULES]) + incoming + 64
        if rules_needed > len(self._rule_guard):
            capacity = max(rules_needed, 2 * len(self._rule_guard))
            for name in ("_rule_guard", "_rule_count"):
                old = getattr(self, name)
                grown = np.zeros(capacity, dtype=np.int64)
                grown[: len(old)] = old
                setattr(self, name, grown)

    def feed(self, token_id: int) -> None:
        self.feed_many(np.asarray([token_id], dtype=np.int64))

    def feed_many(self, token_ids) -> None:
        tokens = np.asarray(token_ids, dtype=np.int64)
        if tokens.size == 0:
            return
        self._grow(len(tokens))
        _feed_batch(
            tokens,
            self._state,
            self._next,
            self._prev,
            self._value,
            self._rule_guard,
            self._rule_count,
            self._digrams,
        )

    def memory_bytes(self) -> int:
        return int(
            self._next.nbytes
            + self._prev.nbytes
            + self._value.nbytes
            + self._rule_guard.nbytes
            + self._rule_count.nbytes
            + len(self._digrams) * 32
        )


__all__ = ["CompiledSequitur"]
