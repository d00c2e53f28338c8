"""Section 6.2.3 — the multi-resolution discretization speedup.

The paper accelerates ensemble discretization two ways: prefix-sum FastPAA
(Algorithm 2) and the merged-breakpoint symbol matrix that yields all
alphabet resolutions from one binary search. This bench measures the end
effect: producing the numerosity-reduced token sequences for the full
(w, a) grid the way ensemble members do — one
:class:`repro.sax.plan.DiscretizationPlan` sweep through the
``REPRO_KERNEL`` seam (PAA and interval matrices once per ``w``), then
:func:`repro.sax.numerosity.reduce_symbol_rows` per member against one
shared interner — versus discretizing from scratch per combination.

Shape check: the shared path is substantially faster than the naive path
(the asymptotic claim is O(w_max^2 log a_max) vs O(n w_max a_max + ...)).
"""

from __future__ import annotations

from benchlib import scale_note
from repro.datasets.generators import synthetic_ecg
from repro.evaluation.tables import format_table
from repro.sax.alphabet import WordInterner
from repro.sax.numerosity import numerosity_reduction, reduce_symbol_rows
from repro.sax.paa import CumulativeStats
from repro.sax.plan import DiscretizationPlan
from repro.sax.sax import discretize
from repro.utils.timing import Timer

LENGTH = 20_000
WINDOW = 200
WMAX = 10
AMAX = 10


def _naive(series) -> float:
    with Timer() as timer:
        for w in range(2, WMAX + 1):
            for a in range(2, AMAX + 1):
                words = discretize(series, WINDOW, w, a)
                numerosity_reduction(words, WINDOW)
    return timer.elapsed


def _shared(series) -> float:
    with Timer() as timer:
        plan = DiscretizationPlan(WINDOW, None, max_alphabet_size=AMAX)
        sweep = plan.sweep_series(CumulativeStats(series))
        interner = WordInterner()
        for w in range(2, WMAX + 1):
            for a in range(2, AMAX + 1):
                reduce_symbol_rows(sweep.symbol_rows(w, a), interner)
    return timer.elapsed


def bench_discretization_speedup(benchmark, report):
    series = synthetic_ecg(LENGTH, seed=0)

    # Warm caches once so the timed naive/shared comparison is fair.
    naive_time = _naive(series)
    shared_time = benchmark.pedantic(lambda: _shared(series), rounds=1, iterations=1)

    speedup = naive_time / max(shared_time, 1e-9)
    table = format_table(
        ["Path", "Grid", "Time (s)"],
        [
            ["naive per-(w,a) SAX", f"{WMAX - 1}x{AMAX - 1}", f"{naive_time:.3f}"],
            ["shared multi-resolution", f"{WMAX - 1}x{AMAX - 1}", f"{shared_time:.3f}"],
        ],
        title=(
            f"Section 6.2.3: discretizing a {LENGTH:,}-point series "
            f"(window {WINDOW}) at every (w, a)"
        ),
    )
    report(table + f"\nspeedup: {speedup:.1f}x\n" + scale_note(), "speedup.txt")

    # Equivalence is covered by unit tests; here assert the speed claim.
    assert speedup > 1.5, f"expected a clear speedup, got {speedup:.2f}x"
