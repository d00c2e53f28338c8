"""Unit tests for repro.core.engine (shared state + parallel execution)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import (
    BatchItemError,
    SharedStreamState,
    compute_member_curves,
    detect_batch,
    iter_detect_batch,
)
from repro.core.ensemble import EnsembleGrammarDetector
from repro.core.streaming import StreamingEnsembleDetector, StreamingGrammarDetector
from repro.sax.paa import CumulativeStats
from repro.sax.plan import DiscretizationPlan


@pytest.fixture
def batch_series(rng) -> np.ndarray:
    series = np.sin(np.linspace(0, 40 * np.pi, 2000))
    series += 0.05 * rng.standard_normal(2000)
    series[900:1000] = np.sin(np.linspace(0, 12 * np.pi, 100))
    return series


def _paa_rows(state, first_start, window, paa_size, *, stop=None):
    """PAA rows of ``state`` through a one-member discretization sweep."""
    plan = DiscretizationPlan(window, [(paa_size, 4)])
    return state.sweep(plan, first_start, stop=stop).paa_rows(paa_size)


class TestSharedStreamState:
    def test_append_matches_cumsum(self, rng):
        values = rng.standard_normal(300)
        state = SharedStreamState(initial_capacity=4)  # force several growth cycles
        for value in values:
            state.append(float(value))
        assert len(state) == 300
        assert np.array_equal(state.values, values)
        assert np.array_equal(state.prefix_sum, np.concatenate(([0.0], np.cumsum(values))))
        assert np.array_equal(state.prefix_sq, np.concatenate(([0.0], np.cumsum(values**2))))

    def test_chunked_extend_bitwise_equals_batch_cumsum(self, rng):
        """The resumed running total must reproduce np.cumsum's exact
        left-associated float accumulation, no matter the chunking."""
        values = rng.standard_normal(1000) * 1e3
        state = SharedStreamState(initial_capacity=1)
        splits = [0, 1, 2, 10, 11, 500, 993, 1000]
        for start, stop in zip(splits[:-1], splits[1:]):
            state.extend(values[start:stop])
        assert np.array_equal(state.prefix_sum, np.concatenate(([0.0], np.cumsum(values))))
        assert np.array_equal(state.prefix_sq, np.concatenate(([0.0], np.cumsum(values**2))))

    def test_paa_rows_bitwise_equal_batch_matrix(self, rng):
        values = np.cumsum(rng.standard_normal(400))
        state = SharedStreamState()
        state.extend(values[:123])
        state.extend(values[123:])
        stats = CumulativeStats(values)
        for window, paa_size in [(50, 4), (10, 3), (60, 7)]:
            expected = stats.sliding_paa_matrix(window, paa_size)
            assert np.array_equal(_paa_rows(state, 0, window, paa_size), expected)
            # Partial reads tile the full matrix.
            assert np.array_equal(_paa_rows(state, 100, window, paa_size), expected[100:])

    def test_n_windows(self):
        state = SharedStreamState()
        assert state.n_windows(10) == 0
        state.extend(np.arange(9.0))
        assert state.n_windows(10) == 0
        state.append(1.0)
        assert state.n_windows(10) == 1

    def test_non_finite_rejected_whole_chunk(self):
        state = SharedStreamState()
        state.extend([1.0, 2.0])
        chunk = np.array([3.0, np.nan, 4.0])
        with pytest.raises(ValueError, match="finite"):
            state.extend(chunk)
        # A rejected chunk must leave the state untouched.
        assert len(state) == 2
        with pytest.raises(ValueError, match="finite"):
            state.append(float("inf"))
        assert len(state) == 2

    def test_non_1d_chunk_rejected(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            SharedStreamState().extend(np.ones((2, 2)))

    def test_bad_first_start_rejected(self):
        state = SharedStreamState()
        state.extend(np.arange(20.0))
        with pytest.raises(ValueError, match="first_start"):
            _paa_rows(state, 50, 10, 2)

    def test_paa_rows_validates_window_and_paa_size(self):
        """Same guards as the batch entry point (sliding_paa_matrix)."""
        state = SharedStreamState()
        state.extend(np.arange(100.0))
        with pytest.raises(ValueError, match="exceeds"):
            _paa_rows(state, 0, 10, 20)  # paa_size > window
        with pytest.raises(ValueError, match="exceeds"):
            _paa_rows(state, 0, 200, 4)  # window > stream length
        with pytest.raises(ValueError, match="at least 2"):
            _paa_rows(state, 0, 1, 1)  # window < 2


class TestCapacityBoundaries:
    """_grow_to / extend around the doubling boundaries (exact behaviour)."""

    @staticmethod
    def _assert_prefix_integrity(state: SharedStreamState, values: np.ndarray) -> None:
        assert len(state) == len(values)
        assert np.array_equal(state.values, values)
        assert np.array_equal(state.prefix_sum, np.concatenate(([0.0], np.cumsum(values))))
        assert np.array_equal(state.prefix_sq, np.concatenate(([0.0], np.cumsum(values**2))))

    def test_fill_to_exact_capacity_does_not_reallocate(self, rng):
        state = SharedStreamState(initial_capacity=4)
        buffer_before = state._values
        values = rng.standard_normal(4)
        state.extend(values)  # exactly full
        assert state._values is buffer_before
        assert len(state._values) == 4
        self._assert_prefix_integrity(state, values)

    def test_append_exactly_at_capacity_triggers_one_doubling(self, rng):
        state = SharedStreamState(initial_capacity=4)
        values = rng.standard_normal(5)
        for value in values[:4]:
            state.append(float(value))
        assert len(state._values) == 4
        state.append(float(values[4]))  # the boundary append
        assert len(state._values) == 8  # doubled, not grown to 5
        self._assert_prefix_integrity(state, values)

    def test_extend_spanning_one_growth(self, rng):
        state = SharedStreamState(initial_capacity=4)
        values = rng.standard_normal(7)
        state.extend(values[:3])
        assert len(state._values) == 4
        state.extend(values[3:])  # 3 + 4 = 7 > 4: one doubling to 8
        assert len(state._values) == 8
        self._assert_prefix_integrity(state, values)

    def test_extend_spanning_two_growths(self, rng):
        state = SharedStreamState(initial_capacity=4)
        values = rng.standard_normal(14)
        state.extend(values[:5])  # 5 > 4: grow to max(5, 8) = 8
        assert len(state._values) == 8
        state.extend(values[5:])  # 14 > 8: grow to max(14, 16) = 16
        assert len(state._values) == 16
        self._assert_prefix_integrity(state, values)

    def test_oversized_chunk_jumps_straight_to_required(self, rng):
        state = SharedStreamState(initial_capacity=4)
        values = rng.standard_normal(50)
        state.extend(values)  # 50 > 2 * 4: capacity jumps to required
        assert len(state._values) == 50
        self._assert_prefix_integrity(state, values)

    def test_growth_preserves_prefix_sums_bitwise(self, rng):
        """The copied prefix arrays must stay bitwise equal to one cumsum."""
        values = rng.standard_normal(100) * 1e3
        grown = SharedStreamState(initial_capacity=1)  # many growth cycles
        roomy = SharedStreamState(initial_capacity=256)  # zero growth cycles
        for start in range(0, 100, 7):
            grown.extend(values[start : start + 7])
            roomy.extend(values[start : start + 7])
        assert np.array_equal(grown.values, roomy.values)
        assert np.array_equal(grown.prefix_sum, roomy.prefix_sum)
        assert np.array_equal(grown.prefix_sq, roomy.prefix_sq)


class TestPaaRowsWindowCountEdges:
    def test_empty_matrix_when_first_start_equals_window_count(self):
        state = SharedStreamState()
        state.extend(np.arange(30.0) % 7)
        stop = state.n_windows(10)
        rows = _paa_rows(state, stop, 10, 5)
        assert rows.shape == (0, 5)
        assert rows.dtype == np.float64

    def test_single_window_stream(self):
        """len(stream) == window: exactly one completed window."""
        state = SharedStreamState()
        state.extend(np.arange(10.0))
        assert state.n_windows(10) == 1
        assert _paa_rows(state, 0, 10, 5).shape == (1, 5)
        assert _paa_rows(state, 1, 10, 5).shape == (0, 5)

    def test_zero_completed_windows_raises_cleanly(self):
        """window > stream length means zero windows: a clear error, not junk."""
        state = SharedStreamState()
        state.extend(np.arange(9.0))
        assert state.n_windows(10) == 0
        with pytest.raises(ValueError, match="exceeds"):
            _paa_rows(state, 0, 10, 4)


class TestSharedMemoryLayout:
    def test_ensemble_members_share_one_buffer(self):
        """The engine contract: O(stream + N·w) memory — every member
        references the ensemble's single stream state and holds no
        per-member value/prefix copies."""
        detector = StreamingEnsembleDetector(window=50, ensemble_size=10, seed=0)
        detector.extend(np.sin(np.linspace(0, 20 * np.pi, 1000)))
        assert all(member.state is detector.state for member in detector.members)
        for member in detector.members:
            assert not hasattr(member, "_values")
            assert not hasattr(member, "_prefix")
            assert not hasattr(member, "_prefix_sq")
        # The state itself holds exactly one buffer of each kind.
        assert len(detector.state.values) == 1000

    def test_shared_member_cannot_be_fed_directly(self):
        detector = StreamingEnsembleDetector(window=50, ensemble_size=4, seed=0)
        member = detector.members[0]
        with pytest.raises(ValueError, match="shares its stream state"):
            member.append(1.0)
        with pytest.raises(ValueError, match="shares its stream state"):
            member.extend([1.0, 2.0])

    def test_standalone_member_owns_its_state(self):
        member = StreamingGrammarDetector(window=10)
        member.extend(np.arange(20.0) % 7)
        assert member.state.n_windows(10) == 11


class TestParallelMemberExecution:
    def test_n_jobs_curves_identical_to_serial(self, batch_series):
        parameters = [(4, 4), (4, 7), (2, 3), (6, 5), (6, 2)]
        serial = compute_member_curves(
            batch_series, 100, parameters, max_paa_size=10, max_alphabet_size=10, n_jobs=1
        )
        parallel = compute_member_curves(
            batch_series, 100, parameters, max_paa_size=10, max_alphabet_size=10, n_jobs=2
        )
        assert len(serial) == len(parallel) == len(parameters)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)

    def test_ensemble_detector_n_jobs_identical(self, batch_series):
        serial = EnsembleGrammarDetector(window=100, ensemble_size=8, seed=3, n_jobs=1)
        parallel = EnsembleGrammarDetector(window=100, ensemble_size=8, seed=3, n_jobs=2)
        assert serial.detect(batch_series, 3) == parallel.detect(batch_series, 3)
        assert np.array_equal(
            serial.density_curve(batch_series), parallel.density_curve(batch_series)
        )

    def test_invalid_n_jobs_rejected(self):
        with pytest.raises(ValueError, match="n_jobs"):
            EnsembleGrammarDetector(window=100, n_jobs=0)
        with pytest.raises(ValueError, match="n_jobs"):
            compute_member_curves(
                np.arange(200.0), 50, [(4, 4)], max_paa_size=10, max_alphabet_size=10,
                n_jobs=-1,
            )


class TestDetectBatch:
    def _series_batch(self, rng, count=3, length=1200):
        batch = []
        for i in range(count):
            series = np.sin(np.linspace(0, 24 * np.pi, length))
            series += 0.05 * rng.standard_normal(length)
            position = 200 + 250 * i
            series[position : position + 60] = np.sin(np.linspace(0, 8 * np.pi, 60))
            batch.append(series)
        return batch

    def test_parallel_identical_to_serial(self, rng):
        batch = self._series_batch(rng)
        detector = EnsembleGrammarDetector(window=60, ensemble_size=6, seed=11)
        serial = detector.detect_batch(batch, 3, n_jobs=1)
        parallel = detector.detect_batch(batch, 3, n_jobs=2)
        assert serial == parallel
        assert len(serial) == len(batch)

    def test_same_seed_same_anomalies(self, rng):
        batch = self._series_batch(rng)
        first = EnsembleGrammarDetector(window=60, ensemble_size=6, seed=11)
        second = EnsembleGrammarDetector(window=60, ensemble_size=6, seed=11)
        assert first.detect_batch(batch, 3) == second.detect_batch(batch, 3)

    def test_batch_results_are_ranked_per_series(self, rng):
        batch = self._series_batch(rng, count=2)
        detector = EnsembleGrammarDetector(window=60, ensemble_size=6, seed=0)
        results = detector.detect_batch(batch, 2)
        for anomalies in results:
            assert [a.rank for a in anomalies] == list(range(1, len(anomalies) + 1))

    def test_module_function_matches_method(self, rng):
        batch = self._series_batch(rng, count=2)
        detector = EnsembleGrammarDetector(window=60, ensemble_size=6, seed=4)
        assert detect_batch(detector, batch, 2) == detector.detect_batch(batch, 2)

    def test_empty_batch(self):
        detector = EnsembleGrammarDetector(window=60, ensemble_size=4, seed=0)
        assert detector.detect_batch([], 3) == []

    def test_generator_seed_supported(self, rng):
        batch = self._series_batch(rng, count=2)
        detector = EnsembleGrammarDetector(
            window=60, ensemble_size=4, seed=np.random.default_rng(9)
        )
        results = detector.detect_batch(batch, 2)
        assert len(results) == 2

    def test_worker_error_names_failing_series_inline(self, rng):
        """Regression: a raised exception used to lose which input failed."""
        batch = self._series_batch(rng, count=2) + [np.arange(10.0)]  # too short
        detector = EnsembleGrammarDetector(window=60, ensemble_size=4, seed=0)
        with pytest.raises(BatchItemError) as excinfo:
            detector.detect_batch(batch, 2)
        error = excinfo.value
        assert error.index == 2
        assert error.label is None
        assert "series 2" in str(error)
        assert error.__cause__ is not None  # inline path keeps the chain

    def test_worker_error_names_failing_series_pooled(self, rng):
        batch = [np.arange(10.0)] + self._series_batch(rng, count=2)
        detector = EnsembleGrammarDetector(window=60, ensemble_size=4, seed=0)
        with pytest.raises(BatchItemError) as excinfo:
            detector.detect_batch(
                batch, 2, n_jobs=2, labels=["bad.csv", "a.csv", "b.csv"]
            )
        error = excinfo.value
        assert error.index == 0
        assert error.label == "bad.csv"
        assert "bad.csv" in str(error)
        assert "exceeds" in error.cause_message

    def test_iter_detect_batch_error_carries_index(self, rng):
        batch = self._series_batch(rng, count=1) + [np.arange(10.0)]
        detector = EnsembleGrammarDetector(window=60, ensemble_size=4, seed=0)
        seen = []
        with pytest.raises(BatchItemError) as excinfo:
            for index, anomalies in iter_detect_batch(detector, batch, 2):
                seen.append(index)
        assert excinfo.value.index == 1
        assert seen == [0]  # the healthy series was still delivered

    def test_mismatched_labels_rejected(self, rng):
        batch = self._series_batch(rng, count=2)
        detector = EnsembleGrammarDetector(window=60, ensemble_size=4, seed=0)
        with pytest.raises(ValueError, match="labels"):
            detector.detect_batch(batch, 2, labels=["only-one.csv"])

    def test_clone_kwargs_round_trip(self):
        detector = EnsembleGrammarDetector(
            window=80,
            max_paa_size=8,
            max_alphabet_size=6,
            ensemble_size=12,
            selectivity=0.25,
            combiner="mean",
            numerosity="none",
            znorm_threshold=0.05,
        )
        clone = EnsembleGrammarDetector(**detector.clone_kwargs(), seed=1)
        assert clone.window == 80
        assert clone.max_paa_size == 8
        assert clone.max_alphabet_size == 6
        assert clone.ensemble_size == 12
        assert clone.selectivity == 0.25
        assert clone.combiner == "mean"
        assert clone.numerosity == "none"
        assert clone.znorm_threshold == 0.05


class TestExplicitSeedsAndPartialResults:
    """The serving-layer contracts of detect_batch: seeds= and return_exceptions=."""

    def _series(self, seed, length=900):
        rng = np.random.default_rng(seed)
        series = np.sin(np.linspace(0, 18 * np.pi, length))
        series += 0.05 * rng.standard_normal(length)
        return series

    def test_explicit_seeds_equal_direct_detect(self, executor_kind):
        """seeds=[s...] makes batch slot i equal a direct detect() with seed s."""
        batch = [self._series(i) for i in range(3)]
        detector = EnsembleGrammarDetector(window=60, ensemble_size=5, seed=999)
        results = detector.detect_batch(
            batch, 3, seeds=[7, 8, 9], executor=executor_kind, n_jobs=2
        )
        for seed, series, anomalies in zip([7, 8, 9], batch, results):
            direct = EnsembleGrammarDetector(window=60, ensemble_size=5, seed=seed)
            assert anomalies == direct.detect(series, 3)

    def test_explicit_seeds_independent_of_batch_composition(self):
        """Coalescing extra series around a request never changes its result."""
        target = self._series(0)
        detector = EnsembleGrammarDetector(window=60, ensemble_size=5, seed=0)
        alone = detector.detect_batch([target], 3, seeds=[42])
        packed = detector.detect_batch(
            [self._series(1), target, self._series(2)], 3, seeds=[1, 42, 3]
        )
        assert packed[1] == alone[0]

    def test_seed_count_mismatch_rejected(self):
        detector = EnsembleGrammarDetector(window=60, ensemble_size=4, seed=0)
        with pytest.raises(ValueError, match="2 seeds for 1 series"):
            detector.detect_batch([self._series(0)], 3, seeds=[1, 2])

    def test_return_exceptions_contains_failure(self, executor_kind):
        """One bad series fills its slot with the error; the others complete."""
        batch = [self._series(0), np.arange(10.0), self._series(2)]
        detector = EnsembleGrammarDetector(window=60, ensemble_size=5, seed=3)
        results = detector.detect_batch(
            batch,
            3,
            executor=executor_kind,
            n_jobs=2,
            labels=["a", "b", "c"],
            return_exceptions=True,
        )
        assert isinstance(results[1], BatchItemError)
        assert results[1].index == 1
        assert results[1].label == "b"
        # Healthy slots match the spawned-seed derivation of the full batch.
        from repro.utils.rng import spawn_rngs

        seeds = spawn_rngs(3, 3)
        expected = detector.detect_batch(
            [batch[0], batch[2]], 3, seeds=[seeds[0], seeds[2]]
        )
        assert results[0] == expected[0]
        assert results[2] == expected[1]

    def test_iter_detect_batch_return_exceptions(self, executor_kind):
        batch = [self._series(0), np.arange(10.0)]
        detector = EnsembleGrammarDetector(window=60, ensemble_size=4, seed=0)
        outcomes = dict(
            iter_detect_batch(
                detector, batch, 2, executor=executor_kind, n_jobs=2, return_exceptions=True
            )
        )
        assert isinstance(outcomes[1], BatchItemError)
        assert not isinstance(outcomes[0], BaseException)

    def test_without_flag_still_raises(self):
        batch = [self._series(0), np.arange(10.0)]
        detector = EnsembleGrammarDetector(window=60, ensemble_size=4, seed=0)
        with pytest.raises(BatchItemError):
            detector.detect_batch(batch, 2)


class TestStreamStateVersion:
    """The version counter behind snapshot memoization and poll caching."""

    def test_bumps_on_ingest(self):
        state = SharedStreamState()
        v0 = state.version
        state.append(1.0)
        assert state.version == v0 + 1
        state.extend([2.0, 3.0, 4.0])
        assert state.version == v0 + 2
        state.extend([])  # empty chunk: no observable change
        assert state.version == v0 + 2

    def test_bumps_on_horizon_advance_only(self):
        state = SharedStreamState(capacity=8)
        state.extend(np.arange(8.0))
        before = state.version
        state.trim()  # horizon still 0: nothing retired
        assert state.version == before
        state.extend(np.arange(4.0))
        after_extend = state.version
        state.trim()
        assert state.start == 4
        assert state.version == after_extend + 1

    def test_rejected_chunk_does_not_bump(self):
        state = SharedStreamState()
        state.extend([1.0, 2.0])
        before = state.version
        with pytest.raises(ValueError, match="finite"):
            state.extend([3.0, np.nan])
        assert state.version == before

    def test_nbytes_counts_the_three_buffers(self):
        state = SharedStreamState(initial_capacity=16)
        assert state.nbytes == 16 * 8 + 2 * (17 * 8)
