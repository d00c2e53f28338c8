"""The serial ensemble member pipeline, composed from the layer modules.

The traced batch run calls each layer through its own module's entry point,
so a span sits exactly at each layer boundary:

- ``sax.paa``: :mod:`repro.sax.plan` sweep and interval rows (PAA plus the
  merged-table breakpoint search);
- ``sax.discretize``: symbol rows, :mod:`repro.sax.numerosity` and
  interning (:mod:`repro.sax.alphabet`);
- ``grammar.induce``: the :mod:`repro.grammar._kernel` Sequitur's
  ``feed_many`` and ``occurrence_spans``;
- ``grammar.density``: :mod:`repro.grammar.density`;
- ``core.combine``: :mod:`repro.core.selection`, :mod:`repro.core.combiners`
  and :func:`repro.core.anomaly.extract_candidates`.

Nothing here reaches into ``repro.core.engine`` or
``repro.core.multiresolution``; the result is checked bitwise against
``EnsembleGrammarDetector.ensemble_report``.
"""

from __future__ import annotations

import numpy as np

from repro.core.anomaly import extract_candidates
from repro.core.combiners import combine_curves
from repro.core.selection import normalize_curve, select_by_std
from repro.grammar import _kernel
from repro.grammar.density import density_curve_from_token_spans
from repro.sax.alphabet import WordInterner, pack_symbol_rows
from repro.sax.numerosity import kept_window_mask
from repro.sax.paa import CumulativeStats
from repro.sax.plan import DiscretizationPlan


def detect(detector, series: np.ndarray, k: int, recorder) -> tuple[np.ndarray, list, dict]:
    """Algorithm 1 on ``series`` with ``detector``'s configuration and sample.

    Returns ``(curve, candidates, counts)``; ``counts`` holds the work done
    per layer. ``detector.sample_parameters()`` advances the detector's
    generator exactly as one ``detect`` call would.
    """
    window = detector.window
    parameters = detector.sample_parameters()
    counts = {"rows": 0, "windows": 0, "tokens": 0, "spans": 0, "kept_members": 0}
    with recorder.span("detect"):
        with recorder.span("sax.paa"):
            plan = DiscretizationPlan(
                window,
                parameters,
                znorm_threshold=detector.znorm_threshold,
                max_alphabet_size=detector.max_alphabet_size,
            )
            sweep = plan.sweep_series(CumulativeStats(series))
        interner = WordInterner()
        curves: list[np.ndarray] = [np.empty(0)] * len(parameters)
        seen_paa_sizes: set[int] = set()
        # Grouped by w, as the engine runs them, so one PAA size's interval
        # matrix serves all its members (and interning order matches).
        for index in sorted(range(len(parameters)), key=lambda i: parameters[i]):
            paa_size, alphabet_size = parameters[index]
            with recorder.span("sax.paa"):
                intervals = sweep.interval_rows(paa_size)
            if paa_size not in seen_paa_sizes:
                seen_paa_sizes.add(paa_size)
                counts["rows"] += len(intervals)
            with recorder.span("sax.discretize"):
                symbols = sweep.symbol_rows(paa_size, alphabet_size)
                offsets = np.flatnonzero(kept_window_mask(symbols)).astype(np.int64)
                codes = pack_symbol_rows(symbols)
                if codes is None:
                    ids = interner.intern_matrix(symbols[offsets])
                else:
                    ids = interner.intern_packed(codes[offsets], symbols.shape[1])
            with recorder.span("grammar.induce"):
                sequitur = _kernel.make_builder()
                sequitur.feed_many(ids)
                firsts, lasts = sequitur.occurrence_spans()
            with recorder.span("grammar.density"):
                curves[index] = density_curve_from_token_spans(
                    offsets, window, firsts, lasts, len(series)
                )
            counts["windows"] += len(symbols)
            counts["tokens"] += len(ids)
            counts["spans"] += len(firsts)
        with recorder.span("core.combine"):
            kept = select_by_std(curves, detector.selectivity)
            curve = combine_curves([normalize_curve(curves[i]) for i in kept], detector.combiner)
            candidates = extract_candidates(curve, window, k, minimize=True)
        counts["kept_members"] = len(kept)
    return curve, candidates, counts
