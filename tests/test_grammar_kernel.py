"""Kernel equivalence: the fast Sequitur backends against the oracle.

The contract (see ``repro/grammar/_kernel.py``): for any token sequence,
every kernel produces the identical frozen
:class:`~repro.grammar.rules.Grammar` — same rules, same numbering, same
refcounts — and the identical occurrence-span multiset. Grammar structure
depends only on the equality pattern of the tokens, so interning token
strings to integer ids is invisible to the result.

The property suite drives random (repetition-biased) token streams through
the id kernels and the reference ``_SequiturBuilder`` side by side; the
compiled (C) kernel runs the same battery, and its fallback to ``fast``
when no compiler is available is pinned here too.
"""

from __future__ import annotations

import logging
import os
import pickle
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.grammar import _compiled, _kernel
from repro.grammar._kernel import FastSequitur
from repro.grammar.sequitur import GenerationalSequitur, _SequiturBuilder, induce_grammar

#: Token streams with heavy repetition (small alphabets make digram matches,
#: rule reuse, and rule-utility inlining all fire often).
token_streams = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200)

#: Fixed regressions: runs of one symbol exercise the triple-repetition
#: digram fix at every length; the last case is the paper's Eq. (4).
FIXED_STREAMS = (
    [[0] * n for n in range(1, 18)]
    + [[0, 1, 0, 1], [0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 0, 1]]
    + [[0, 1, 2, 3, 4, 0, 1, 2]]  # ab bc aa cc ca ab bc aa
)


def _vocabulary(stream) -> list[str]:
    return [f"w{i}" for i in range(max(stream) + 1)]


def _oracle(stream):
    builder = _SequiturBuilder()
    vocabulary = _vocabulary(stream)
    for token in stream:
        builder.feed(vocabulary[token])
    return builder


def _assert_matches_oracle(builder, stream) -> None:
    """Frozen grammar, refcounts, and span multiset must match the oracle."""
    oracle = _oracle(stream)
    expected = oracle.freeze()
    actual = builder.freeze(_vocabulary(stream))
    assert actual == expected
    assert actual.rule_refcounts() == expected.rule_refcounts()
    firsts, lasts = builder.occurrence_spans()
    spans = sorted(zip(firsts.tolist(), lasts.tolist()))
    reference = sorted(zip(*(a.tolist() for a in expected.occurrence_spans())))
    assert spans == reference


class TestFastKernelEquivalence:
    @given(stream=token_streams)
    def test_feed_matches_oracle(self, stream):
        builder = FastSequitur()
        for token in stream:
            builder.feed(token)
        _assert_matches_oracle(builder, stream)

    @given(stream=token_streams)
    def test_feed_many_matches_feed(self, stream):
        one_by_one = FastSequitur()
        for token in stream:
            one_by_one.feed(token)
        batched = FastSequitur()
        batched.feed_many(np.asarray(stream, dtype=np.int64))
        assert batched.freeze(_vocabulary(stream)) == one_by_one.freeze(
            _vocabulary(stream)
        )
        assert batched.n_tokens == one_by_one.n_tokens == len(stream)

    @given(stream=token_streams, split=st.integers(min_value=0, max_value=200))
    def test_incremental_prefix_feeding(self, stream, split):
        """feed_many in two arbitrary chunks equals one pass (streaming's
        catch-up repair relies on exactly this)."""
        split = min(split, len(stream))
        chunked = FastSequitur()
        chunked.feed_many(stream[:split])
        chunked.feed_many(stream[split:])
        _assert_matches_oracle(chunked, stream)

    @pytest.mark.parametrize("stream", FIXED_STREAMS, ids=repr)
    def test_fixed_regressions(self, stream):
        builder = FastSequitur()
        builder.feed_many(stream)
        _assert_matches_oracle(builder, stream)

    def test_paper_example(self):
        """Eq. (4): R0 -> R1 cc ca R1, R1 -> ab bc aa (Table 2)."""
        words = ["ab", "bc", "aa", "cc", "ca", "ab", "bc", "aa"]
        with _kernel.use_kernel("fast"):
            grammar = induce_grammar(words)
        assert grammar.rules[0].rhs == (1, "cc", "ca", 1)
        assert grammar.rules[1].rhs == ("ab", "bc", "aa")

    @given(stream=token_streams)
    def test_memory_bytes_positive_and_grows(self, stream):
        builder = FastSequitur()
        builder.feed_many(stream)
        grown = builder.memory_bytes()
        assert grown > 0
        builder.feed_many(stream)
        assert builder.memory_bytes() >= grown


class TestInduceGrammarKernelParity:
    @given(stream=token_streams)
    def test_fast_equals_python(self, stream):
        words = [_vocabulary(stream)[token] for token in stream]
        with _kernel.use_kernel("python"):
            reference = induce_grammar(words)
        with _kernel.use_kernel("fast"):
            fast = induce_grammar(words)
        assert fast == reference

    def test_empty_and_type_errors_survive_the_fast_path(self):
        with _kernel.use_kernel("fast"):
            with pytest.raises(ValueError, match="empty token sequence"):
                induce_grammar([])
            with pytest.raises(TypeError, match="must be strings"):
                induce_grammar(["ab", 3])


class TestKernelSeam:
    def test_default_is_compiled_when_cc_exists_else_fast(self, monkeypatch):
        monkeypatch.delenv(_kernel.KERNEL_ENV, raising=False)
        with _kernel.use_kernel(None):
            expected = "compiled" if _compiled.library() is not None else "fast"
            assert _kernel.current_kernel() == expected
        assert _kernel.DEFAULT_KERNEL == "compiled"
        if shutil.which("cc") is not None:
            assert expected == "compiled"

    def test_environment_selects_kernel(self, monkeypatch):
        monkeypatch.setenv(_kernel.KERNEL_ENV, "python")
        with _kernel.use_kernel(None):
            assert _kernel.current_kernel() == "python"

    def test_environment_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv(_kernel.KERNEL_ENV, "turbo")
        with _kernel.use_kernel(None):
            with pytest.raises(ValueError, match="unknown grammar kernel"):
                _kernel.current_kernel()

    def test_use_kernel_restores_previous(self):
        before = _kernel.current_kernel()
        with _kernel.use_kernel("python"):
            assert _kernel.current_kernel() == "python"
        assert _kernel.current_kernel() == before

    def test_python_builder_takes_no_vocabulary(self):
        """Every kernel is id-fed: ``make_builder()`` alone serves the oracle."""
        assert isinstance(_kernel.make_builder("python"), _kernel.OracleSequitur)
        with _kernel.use_kernel("python"):
            builder = _kernel.make_builder()
        builder.feed_many([0, 1, 0, 1])
        assert _spans(builder) == ([0, 2], [1, 3])

    def test_make_builder_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown grammar kernel"):
            _kernel.make_builder("warp")

    def test_compiled_builder_is_the_c_kernel(self):
        builder = _kernel.make_builder("compiled")
        if _compiled.library() is None:
            assert isinstance(builder, FastSequitur)
        else:
            assert isinstance(builder, _compiled.CompiledSequitur)


def _spans(builder) -> tuple[list[int], list[int]]:
    firsts, lasts = builder.occurrence_spans()
    return firsts.tolist(), lasts.tolist()


def _listed_live_spans(forgetter) -> list[tuple]:
    return [
        (index, firsts.tolist(), lasts.tolist(), count)
        for index, firsts, lasts, count in forgetter.live_spans()
    ]


class TestPythonIdBuilderEquivalence:
    """``make_builder("python")`` — the oracle behind the id seam — emits the
    same occurrence spans, in the same order, as :class:`FastSequitur`."""

    @given(stream=token_streams)
    def test_spans_equal_fast(self, stream):
        oracle = _kernel.make_builder("python")
        oracle.feed_many(stream)
        fast = FastSequitur()
        fast.feed_many(stream)
        assert _spans(oracle) == _spans(fast)
        assert oracle.n_tokens == fast.n_tokens == len(stream)

    @given(stream=token_streams, split=st.integers(min_value=0, max_value=200))
    def test_incremental_feeding_spans_equal_fast(self, stream, split):
        split = min(split, len(stream))
        oracle = _kernel.make_builder("python")
        oracle.feed_many(stream[:split])
        for token in stream[split:]:
            oracle.feed(token)
        fast = FastSequitur()
        fast.feed_many(stream)
        assert _spans(oracle) == _spans(fast)

    @pytest.mark.parametrize("stream", FIXED_STREAMS, ids=repr)
    def test_fixed_regressions(self, stream):
        oracle = _kernel.make_builder("python")
        oracle.feed_many(np.asarray(stream, dtype=np.int64))
        fast = FastSequitur()
        fast.feed_many(stream)
        assert _spans(oracle) == _spans(fast)
        _assert_matches_oracle(oracle, stream)

    def test_freeze_maps_terminals_to_words(self):
        """Words enter only at freeze; ids equal to rule serials stay terminals."""
        oracle = _kernel.make_builder("python")
        for token in [0, 1, 0, 1, 2, 0, 1]:
            oracle.feed(token)
        assert oracle.freeze(["w0", "w1", "w2"]).rules[0].rhs == (1, 1, "w2", 1)


class TestGenerationalSequiturKernels:
    @given(stream=token_streams)
    def test_python_kernel_live_spans_equal_fast(self, stream):
        oracle = GenerationalSequitur(8, kernel="python")
        fast = GenerationalSequitur(8, kernel="fast")
        for offset, token in enumerate(stream):
            oracle.feed_id(token, offset)
            fast.feed_id(token, offset)
        assert _listed_live_spans(oracle) == _listed_live_spans(fast)

    @given(stream=token_streams)
    def test_feed_id_matches_python_feed_ids(self, stream):
        reference = GenerationalSequitur(8, kernel="python")
        reference.feed_ids(stream, np.arange(len(stream)))
        fast = GenerationalSequitur(8, kernel="fast")
        for offset, token in enumerate(stream):
            fast.feed_id(token, offset)
        assert _listed_live_spans(fast) == _listed_live_spans(reference)

    @given(stream=token_streams)
    def test_live_spans_match_per_generation_oracle(self, stream):
        """Each generation's spans are the oracle grammar's over its tokens."""
        forgetter = GenerationalSequitur(8, kernel="fast")
        forgetter.feed_ids(stream, np.arange(len(stream)))
        for index, firsts, lasts, count in forgetter.live_spans():
            grammar = _oracle(stream[8 * index : 8 * index + 8]).freeze()
            spans = sorted(zip(firsts.tolist(), lasts.tolist()))
            expected = sorted(zip(*(a.tolist() for a in grammar.occurrence_spans())))
            assert spans == expected
            assert count == grammar.expanded_lengths()[0]

    @pytest.mark.parametrize("kernel", _kernel.KERNELS)
    @given(
        stream=token_streams,
        gaps=st.lists(st.integers(min_value=0, max_value=6), min_size=200, max_size=200),
        cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=6),
        generation_size=st.integers(min_value=1, max_value=12),
    )
    def test_feed_ids_equals_per_token_feed_id(self, kernel, stream, gaps, cuts, generation_size):
        """Blocks cut at random points straddle generation boundaries; the
        batched feed must seal the same generations with the same spans."""
        offsets = np.cumsum(gaps[: len(stream)]).astype(np.int64)
        ids = np.asarray(stream, dtype=np.int64)
        per_token = GenerationalSequitur(generation_size, kernel=kernel)
        for token_id, offset in zip(stream, offsets.tolist()):
            per_token.feed_id(token_id, offset)
        batched = GenerationalSequitur(generation_size, kernel=kernel)
        bounds = sorted({0, len(stream), *(min(cut, len(stream)) for cut in cuts)})
        for start, stop in zip(bounds, bounds[1:]):
            batched.feed_ids(ids[start:stop], offsets[start:stop])
        assert _listed_live_spans(batched) == _listed_live_spans(per_token)
        assert sorted(batched._sealed) == sorted(per_token._sealed)
        assert batched._current_index == per_token._current_index

    def test_feed_ids_validates_its_block(self):
        forgetter = GenerationalSequitur(4, kernel="fast")
        with pytest.raises(ValueError, match="equal-length"):
            forgetter.feed_ids([0, 1], [0])
        forgetter.feed_ids([], [])
        assert forgetter.live_spans() == []
        forgetter.feed_ids([0, 1], [8, 9])
        with pytest.raises(ValueError, match="non-decreasing"):
            forgetter.feed_ids([0], [3])

    def test_sealing_releases_the_builder_arena(self):
        """Decay soak (the interned-word bugfix): sealed generations must not
        pin retired token storage — memory accounting stays bounded as
        generations retire, instead of accumulating one arena per seal."""
        rng = np.random.default_rng(7)
        forgetter = GenerationalSequitur(64, kernel="fast")
        readings = []
        for offset in range(6400):
            forgetter.feed_id(int(rng.integers(0, 16)), offset)
            if offset % 64 == 63:
                forgetter.drop_before(max(0, offset - 255))
                readings.append(forgetter.memory_bytes())
        assert forgetter.retired_generations > 0
        assert forgetter._current_builder is not None
        # Live state is ~4 generations throughout: the estimate must plateau,
        # not grow with the number of seals (100 generations were sealed).
        assert max(readings[50:]) <= 2 * max(readings[:50])
        # And every *sealed* generation has dropped its builder: only spans
        # and counts remain.
        assert set(forgetter._sealed) == set(forgetter._sealed_spans)


def _compiled_builder() -> _compiled.CompiledSequitur:
    return _compiled.CompiledSequitur(_compiled.library())


class TestCompiledKernel:
    """The C kernel is gated by the same battery as the fast kernel."""

    @pytest.fixture(autouse=True)
    def _require_compiler(self):
        # The C kernel is part of the tested surface: a missing compiler is
        # a failure here, not a skip (the fallback has its own tests below).
        assert _compiled.library() is not None, "the C kernel failed to build"

    @given(stream=token_streams)
    def test_matches_oracle(self, stream):
        builder = _compiled_builder()
        builder.feed_many(stream)
        _assert_matches_oracle(builder, stream)

    @given(stream=token_streams)
    def test_feed_matches_oracle(self, stream):
        builder = _compiled_builder()
        for token in stream:
            builder.feed(token)
        _assert_matches_oracle(builder, stream)
        assert builder.n_tokens == len(stream)

    @given(stream=token_streams, split=st.integers(min_value=0, max_value=200))
    def test_incremental_prefix_feeding(self, stream, split):
        split = min(split, len(stream))
        chunked = _compiled_builder()
        chunked.feed_many(np.asarray(stream[:split], dtype=np.int64))
        chunked.feed_many(stream[split:])
        _assert_matches_oracle(chunked, stream)

    @given(stream=token_streams)
    def test_spans_equal_fast_in_order(self, stream):
        builder = _compiled_builder()
        builder.feed_many(stream)
        fast = FastSequitur()
        fast.feed_many(stream)
        assert _spans(builder) == _spans(fast)
        assert builder.freeze(_vocabulary(stream)) == fast.freeze(_vocabulary(stream))

    @pytest.mark.parametrize("stream", FIXED_STREAMS, ids=repr)
    def test_fixed_regressions(self, stream):
        builder = _compiled_builder()
        builder.feed_many(stream)
        _assert_matches_oracle(builder, stream)

    def test_long_stream_equals_fast(self):
        """Long enough to grow the arena, rule and digram tables many times."""
        stream = np.random.default_rng(3).integers(0, 12, 20_000)
        builder = _compiled_builder()
        builder.feed_many(stream)
        fast = FastSequitur()
        fast.feed_many(stream)
        assert _spans(builder) == _spans(fast)
        words = _vocabulary(stream.tolist())
        assert builder.freeze(words) == fast.freeze(words)

    def test_paper_example(self):
        words = ["ab", "bc", "aa", "cc", "ca", "ab", "bc", "aa"]
        with _kernel.use_kernel("compiled"):
            grammar = induce_grammar(words)
        assert grammar.rules[0].rhs == (1, "cc", "ca", 1)
        assert grammar.rules[1].rhs == ("ab", "bc", "aa")

    def test_empty_builder(self):
        builder = _compiled_builder()
        builder.feed_many([])
        firsts, lasts = builder.occurrence_spans()
        assert firsts.size == lasts.size == 0
        assert builder.freeze([]).rules[0].rhs == ()

    @pytest.mark.parametrize("bad", [-1, 1 << 30, 1 << 40])
    def test_rejects_ids_outside_the_packed_range(self, bad):
        builder = _compiled_builder()
        builder.feed_many([0, 1])
        with pytest.raises(ValueError, match="token id"):
            builder.feed(bad)
        with pytest.raises(ValueError, match="token ids"):
            builder.feed_many([0, bad])
        # Nothing reached C: the builder is unchanged and still usable.
        assert builder.n_tokens == 2
        builder.feed_many([0, 1])
        _assert_matches_oracle(builder, [0, 1, 0, 1])

    def test_largest_id_is_accepted(self):
        builder = _compiled_builder()
        top = (1 << 30) - 1
        builder.feed_many([top, 0, top, 0])
        assert _spans(builder) == ([0, 2], [1, 3])

    @given(stream=token_streams)
    def test_memory_bytes_counts_the_live_arena(self, stream):
        builder = _compiled_builder()
        empty = builder.memory_bytes()
        builder.feed_many(stream)
        grown = builder.memory_bytes()
        assert 0 < empty < grown
        # Live slots, not preallocated capacity: a few dozen bytes per token.
        assert grown <= empty + 64 * len(stream)
        builder.feed_many(stream)
        assert builder.memory_bytes() >= grown

    def test_not_picklable(self):
        with pytest.raises(TypeError, match="cannot be pickled"):
            pickle.dumps(_compiled_builder())


def _fallback_detection() -> list:
    from repro.core.ensemble import EnsembleGrammarDetector

    series = np.sin(np.linspace(0.0, 30.0 * np.pi, 900))
    series[400:440] = 0.0
    detector = EnsembleGrammarDetector(window=40, ensemble_size=5, seed=2)
    return [(a.position, a.score) for a in detector.detect(series, 2)]


class _Records(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture
def unresolved(monkeypatch, tmp_path):
    """The C library unresolved against an empty cache directory.

    Yields ``(reference, fallbacks, records)``: the detection computed with
    the real library beforehand, the fallback counter's increase since the
    fixture started, and the ``repro.grammar`` log records.
    """
    from repro.obs.metrics import REGISTRY

    monkeypatch.delenv(_kernel.KERNEL_ENV, raising=False)
    reference = _fallback_detection()
    monkeypatch.setattr(_compiled, "_library", _compiled._UNRESOLVED)
    monkeypatch.setattr(_compiled, "cache_dir", lambda: tmp_path / "cache")
    counter = REGISTRY.counter("repro_kernel_fallback_total")
    before = counter.value
    handler = _Records()
    logger = logging.getLogger("repro.grammar")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        yield reference, lambda: counter.value - before, handler.records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


class TestCompiledFallback:
    """Without a working compiler the seam serves (and reports) ``fast``."""

    @staticmethod
    def _assert_falls_back(unresolved, expected_message) -> None:
        reference, fallbacks, records = unresolved
        with _kernel.use_kernel(None):
            assert _kernel.current_kernel() == "fast"
            assert isinstance(_kernel.make_builder("compiled"), FastSequitur)
            assert _fallback_detection() == reference
        assert [r.levelno for r in records] == [logging.WARNING]
        assert expected_message in records[0].getMessage()
        assert fallbacks() == 1

    def test_missing_compiler(self, unresolved, monkeypatch):
        monkeypatch.setattr(_compiled, "find_compiler", lambda: None)
        self._assert_falls_back(unresolved, "no C compiler")

    def test_failing_build_logs_the_compiler_stderr(self, unresolved, monkeypatch, tmp_path):
        broken = tmp_path / "cc"
        broken.write_text("#!/bin/sh\necho 'error: the compiler is broken' >&2\nexit 1\n")
        broken.chmod(0o755)
        monkeypatch.setattr(_compiled, "find_compiler", lambda: str(broken))
        self._assert_falls_back(unresolved, "the compiler is broken")
        # The failed build leaves no temporary file behind.
        assert list((tmp_path / "cache").iterdir()) == []

    def test_fallback_is_visible_in_the_metrics_scrape(self, unresolved, monkeypatch):
        from repro.obs import REGISTRY, render

        _reference, fallbacks, _records = unresolved
        monkeypatch.setattr(_compiled, "find_compiler", lambda: None)
        assert _kernel.current_kernel() == "fast"
        scraped = [
            line for line in render(REGISTRY.collect()).splitlines()
            if line.startswith("repro_kernel_fallback_total ")
        ]
        counter = REGISTRY.counter("repro_kernel_fallback_total")
        assert scraped == [f"repro_kernel_fallback_total {int(counter.value)}"]
        assert fallbacks() == 1

    def test_library_is_built_once_into_the_cache(self, unresolved):
        _reference, fallbacks, records = unresolved
        assert _compiled.library() is not None
        assert _kernel.current_kernel() == "compiled"
        assert fallbacks() == 0 and records == []
        assert [p.name for p in _compiled.cache_dir().iterdir()] == [
            _compiled.library_path().name
        ]


_CONCURRENT_START = """
import numpy as np
from repro.core.ensemble import EnsembleGrammarDetector
from repro.grammar import _kernel
series = np.sin(np.linspace(0.0, 30.0 * np.pi, 900))
series[400:440] = 0.0
curve = EnsembleGrammarDetector(window=40, ensemble_size=5, seed=2).density_curve(series)
print(_kernel.current_kernel(), curve.tobytes().hex())
"""


def test_concurrent_first_builds_share_one_cache_entry(tmp_path):
    """Two processes starting against one empty cache both build, both load a
    complete library, detect correctly, and leave exactly one file."""
    from repro.core.ensemble import EnsembleGrammarDetector

    source_root = Path(_kernel.__file__).parents[2]
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(source_root))
    env.pop(_kernel.KERNEL_ENV, None)
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", _CONCURRENT_START], env=env, stdout=subprocess.PIPE, text=True
        )
        for _ in range(2)
    ]
    outputs = [process.communicate(timeout=300)[0].split() for process in processes]
    assert [process.returncode for process in processes] == [0, 0]
    series = np.sin(np.linspace(0.0, 30.0 * np.pi, 900))
    series[400:440] = 0.0
    with _kernel.use_kernel("fast"):
        curve = EnsembleGrammarDetector(window=40, ensemble_size=5, seed=2).density_curve(series)
    assert outputs == [["compiled", curve.tobytes().hex()]] * 2
    assert [p.name for p in (tmp_path / "repro").iterdir()] == [_compiled.library_path().name]


def test_threads_resolve_once_and_feed_independently(unresolved):
    """More threads than cores resolve the library at once (one build, no
    fallback), then feed their own builders concurrently: ctypes releases
    the interpreter lock inside C, so each builder must own all its state."""
    _reference, fallbacks, records = unresolved
    stream = np.random.default_rng(5).integers(0, 8, 5000)
    fast = FastSequitur()
    fast.feed_many(stream)

    def feed():
        builder = _kernel.make_builder("compiled")
        for chunk in np.array_split(stream, 50):
            builder.feed_many(chunk)
        return type(builder), _spans(builder)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(feed) for _ in range(8)]
            results = [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [(_compiled.CompiledSequitur, _spans(fast))] * 8
    assert fallbacks() == 0 and records == []
    assert [p.name for p in _compiled.cache_dir().iterdir()] == [_compiled.library_path().name]
