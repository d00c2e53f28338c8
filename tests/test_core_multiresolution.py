"""Multi-resolution discretization (Section 6.2): the ensemble's shared path.

Every ensemble member reads one :class:`~repro.sax.plan.DiscretizationSweep`
of the series — prefix statistics once, one interval matrix per PAA size —
and runs :func:`~repro.sax.numerosity.reduce_symbol_rows` on its symbol rows
against one shared word interner. These tests pin that path to plain SAX.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import compute_member_curves
from repro.sax.alphabet import WordInterner, index_matrix_to_words
from repro.sax.numerosity import numerosity_reduction, reduce_symbol_rows
from repro.sax.paa import CumulativeStats
from repro.sax.plan import DiscretizationPlan
from repro.sax.sax import discretize


@pytest.fixture
def discretizer(rng):
    series = np.cumsum(rng.standard_normal(400))
    plan = DiscretizationPlan(50, None, max_alphabet_size=10)
    return plan.sweep_series(CumulativeStats(series)), series


def _tokens(sweep, interner, w, a, strategy="exact"):
    symbols = sweep.symbol_rows(w, a)
    kept, ids = reduce_symbol_rows(symbols, interner, strategy)
    words = tuple(interner.vocabulary[i] for i in ids)
    return words, kept, len(symbols)


class TestWordsEquivalence:
    def test_matches_direct_discretize_all_combinations(self, discretizer):
        """The headline contract: fast multi-resolution words == plain SAX."""
        sweep, series = discretizer
        for w in (2, 5, 10):
            for a in (2, 6, 10):
                words = index_matrix_to_words(sweep.symbol_rows(w, a))
                assert words == discretize(series, 50, w, a), (w, a)

    def test_tokens_match_direct_pipeline(self, discretizer):
        sweep, series = discretizer
        interner = WordInterner()
        for w, a in [(3, 4), (7, 9)]:
            direct = numerosity_reduction(discretize(series, 50, w, a), 50)
            words, offsets, n_windows = _tokens(sweep, interner, w, a)
            assert words == direct.words
            assert np.array_equal(offsets, direct.offsets)
            assert n_windows == direct.n_windows

    def test_n_windows(self, discretizer):
        sweep, series = discretizer
        assert len(sweep) == len(series) - 50 + 1


class TestCaching:
    def test_interval_matrix_cached_per_w(self, discretizer):
        sweep, _ = discretizer
        first = sweep.interval_rows(5)
        second = sweep.interval_rows(5)
        assert first is second

    def test_tokens_cached_per_combination(self, discretizer):
        """Re-reducing a combination allocates no new ids in the interner."""
        sweep, _ = discretizer
        interner = WordInterner()
        first = _tokens(sweep, interner, 4, 5)
        size = len(interner)
        second = _tokens(sweep, interner, 4, 5)
        assert len(interner) == size
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])

    def test_different_alphabets_share_interval_matrix(self, discretizer):
        """The Section 6.2.2 speedup: one interval matrix serves all a."""
        sweep, _ = discretizer
        sweep.symbol_rows(6, 3)
        matrix = sweep.interval_rows(6)
        sweep.symbol_rows(6, 9)
        assert sweep.interval_rows(6) is matrix


class TestValidation:
    def test_paa_size_above_declared_max_rejected(self, rng):
        with pytest.raises(ValueError, match="max_paa_size"):
            compute_member_curves(
                rng.standard_normal(400), 50, [(11, 4)], max_paa_size=10, max_alphabet_size=10
            )

    def test_alphabet_above_declared_max_rejected(self, discretizer):
        sweep, _ = discretizer
        with pytest.raises(ValueError, match="outside table range"):
            sweep.symbol_rows(4, 11)

    def test_window_larger_than_series_rejected(self, rng):
        with pytest.raises(ValueError, match="exceeds"):
            compute_member_curves(
                rng.standard_normal(30), 31, [(4, 4)], max_paa_size=4, max_alphabet_size=4
            )

    def test_max_paa_above_window_rejected(self, rng):
        with pytest.raises(ValueError, match="exceeds"):
            compute_member_curves(
                rng.standard_normal(30), 10, [(4, 4)], max_paa_size=11, max_alphabet_size=4
            )


class TestNumerosityModes:
    def test_none_strategy_keeps_every_window(self, rng):
        series = np.cumsum(rng.standard_normal(100))
        sweep = DiscretizationPlan(20, None, max_alphabet_size=4).sweep_series(
            CumulativeStats(series)
        )
        words, _, n_windows = _tokens(sweep, WordInterner(), 4, 4, "none")
        assert len(words) == n_windows
