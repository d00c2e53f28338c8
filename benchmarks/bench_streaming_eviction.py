"""Bounded-memory streaming soak: flat RSS and steady per-point cost.

The eviction subsystem's claim (ISSUE 3): a `StreamingEnsembleDetector`
with ``capacity=`` runs an arbitrarily long stream in O(capacity + N·w)
memory, with per-point ingest cost that does not drift as the stream grows
— versus the unbounded path whose state and token lists grow linearly.

This bench feeds a long random-walk stream chunk-by-chunk through a
capacity-bounded sliding ensemble and through a decay ensemble, sampling
process RSS (``/proc/self/statm``) and per-chunk ingest time, then feeds a
(truncated) unbounded baseline for the growth comparison. It asserts:

- **memory, always**: after warmup (two capacities of stream), RSS drifts
  by less than 10%; retained points, buffer allocation, and live token
  counts stay bounded by the capacity, not the stream.
- **timing, only when ``REPRO_BENCH_STRICT`` is not 0**: the mean per-chunk
  ingest time of the last third is within 3x of the first third's (shared
  CI runners gate on memory but merely report timing).

Scale: ``REPRO_FULL=1`` runs the acceptance-scale 1M-point stream at
capacity 100k; otherwise ``REPRO_EVICT_POINTS`` (default 150k),
``REPRO_EVICT_CAPACITY`` (default 25k) and ``REPRO_EVICT_CHUNK`` (default
10k) apply. Results are also written to ``results/BENCH_streaming_eviction
.json`` so CI can accumulate the perf trajectory per PR.
"""

from __future__ import annotations

import gc
import os

import numpy as np

from benchlib import FULL, RESULTS_DIR, scale_note, strict
from repro.core.streaming import StreamingEnsembleDetector
from repro.datasets.generators import random_walk
from repro.evaluation.tables import format_table
from repro.utils.timing import Timer
from runner.schema import write_bench_payload

POINTS = 1_000_000 if FULL else int(os.environ.get("REPRO_EVICT_POINTS", "150000"))
CAPACITY = 100_000 if FULL else int(os.environ.get("REPRO_EVICT_CAPACITY", "25000"))
CHUNK = int(os.environ.get("REPRO_EVICT_CHUNK", "10000"))
#: The unbounded baseline only needs to demonstrate linear growth; feeding
#: it the full FULL-scale stream would need GBs for its token lists.
BASELINE_POINTS = min(POINTS, 200_000)
WINDOW = 100
MEMBERS = 10
SEED = 0

# Keep the run meaningful if someone shrinks POINTS below the capacity.
CAPACITY = max(WINDOW, min(CAPACITY, POINTS // 5))


def _rss_bytes() -> int | None:
    """Current resident set size, or None off-Linux."""
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        return None


def _state_allocation(detector: StreamingEnsembleDetector) -> int:
    state = detector.state
    return state._values.nbytes + state._prefix.nbytes + state._prefix_sq.nbytes


def _live_tokens(detector: StreamingEnsembleDetector) -> int:
    return sum(member.n_tokens for member in detector.members)


def _feed_and_sample(detector, series) -> dict:
    """Feed the stream in chunks, sampling RSS and per-chunk ingest time."""
    warmup_point = min(2 * CAPACITY, len(series) // 2)
    chunk_times: list[float] = []
    rss_warm = None
    for offset in range(0, len(series), CHUNK):
        with Timer() as timer:
            detector.extend(series[offset : offset + CHUNK])
        chunk_times.append(timer.elapsed)
        if rss_warm is None and len(detector.state) >= warmup_point:
            gc.collect()
            rss_warm = _rss_bytes()
    gc.collect()
    third = max(1, len(chunk_times) // 3)
    return {
        "rss_warm": rss_warm,
        "rss_end": _rss_bytes(),
        "early_chunk_s": float(np.mean(chunk_times[:third])),
        "late_chunk_s": float(np.mean(chunk_times[-third:])),
        "total_s": float(np.sum(chunk_times)),
    }


def bench_streaming_eviction_flat_memory(benchmark, report):
    series = random_walk(POINTS, seed=SEED)

    measured: dict[str, dict] = {}

    def _bounded_run() -> float:
        detector = StreamingEnsembleDetector(
            window=WINDOW, ensemble_size=MEMBERS, seed=SEED,
            capacity=CAPACITY, policy="sliding",
        )
        stats = _feed_and_sample(detector, series)
        measured["sliding"] = stats
        measured["sliding_detector"] = {
            "live_points": detector.state.live_length,
            "allocation_bytes": _state_allocation(detector),
            "live_tokens": _live_tokens(detector),
            "retired_tokens": sum(m.retired_tokens for m in detector.members),
        }
        # Sanity: the bounded state's live tail is bitwise the stream tail.
        assert np.array_equal(detector.state.values, series[detector.state.start :])
        assert detector.detect(3)
        return stats["total_s"]

    benchmark.pedantic(_bounded_run, rounds=1, iterations=1)

    decay = StreamingEnsembleDetector(
        window=WINDOW, ensemble_size=MEMBERS, seed=SEED,
        capacity=CAPACITY, policy="decay",
    )
    measured["decay"] = _feed_and_sample(decay, series)
    measured["decay_detector"] = {
        "live_points": decay.state.live_length,
        "allocation_bytes": _state_allocation(decay),
        "live_tokens": _live_tokens(decay),
        "retired_generations": sum(
            m._generations.retired_generations for m in decay.members
        ),
        "retired_tokens": sum(m._generations.retired_tokens for m in decay.members),
    }
    generation_size = decay.state.generation_size
    del decay
    gc.collect()

    unbounded = StreamingEnsembleDetector(window=WINDOW, ensemble_size=MEMBERS, seed=SEED)
    measured["unbounded"] = _feed_and_sample(unbounded, series[:BASELINE_POINTS])
    measured["unbounded_detector"] = {
        "live_points": unbounded.state.live_length,
        "allocation_bytes": _state_allocation(unbounded),
        "live_tokens": _live_tokens(unbounded),
    }
    del unbounded
    gc.collect()

    def _fmt_bytes(n: int) -> str:
        return f"{n / 1e6:,.1f} MB"

    def _row(name: str, stats: dict, detector_stats: dict, points: int) -> list[str]:
        rate = points / max(stats["total_s"], 1e-9)
        return [
            name,
            f"{points:,}",
            f"{detector_stats['live_points']:,}",
            _fmt_bytes(detector_stats["allocation_bytes"]),
            f"{detector_stats['live_tokens']:,}",
            f"{rate:,.0f}",
        ]

    table = format_table(
        ["Path", "Points fed", "Points live", "State alloc", "Live tokens", "Points/s"],
        [
            _row("unbounded (baseline)", measured["unbounded"], measured["unbounded_detector"], BASELINE_POINTS),
            _row(f"sliding (cap {CAPACITY:,})", measured["sliding"], measured["sliding_detector"], POINTS),
            _row(f"decay (cap {CAPACITY:,}, gen {generation_size:,})", measured["decay"], measured["decay_detector"], POINTS),
        ],
        title=(
            f"Streaming eviction soak: {POINTS:,}-point stream, "
            f"{MEMBERS}-member ensemble (window {WINDOW}, chunk {CHUNK:,})"
        ),
    )

    rss_lines = []
    for name in ("sliding", "decay"):
        stats = measured[name]
        if stats["rss_warm"] and stats["rss_end"]:
            delta = stats["rss_end"] - stats["rss_warm"]
            rss_lines.append(
                f"{name}: RSS {_fmt_bytes(stats['rss_warm'])} after warmup -> "
                f"{_fmt_bytes(stats['rss_end'])} at end "
                f"({delta / stats['rss_warm']:+.1%}); per-chunk "
                f"{stats['early_chunk_s'] * 1e3:.1f} ms early vs "
                f"{stats['late_chunk_s'] * 1e3:.1f} ms late"
            )
    report(table + "\n" + "\n".join(rss_lines) + "\n" + scale_note(), "streaming_eviction.txt")

    write_bench_payload(
        "streaming_eviction",
        {
            "points": POINTS,
            "capacity": CAPACITY,
            "chunk": CHUNK,
            "members": MEMBERS,
            "window": WINDOW,
            "baseline_points": BASELINE_POINTS,
            "strict": strict(),
            **{
                key: value
                for key, value in measured.items()
                if isinstance(value, dict)
            },
        },
        RESULTS_DIR,
    )

    # ---- memory gates: asserted on every run (strict *for memory*). ----
    sliding = measured["sliding_detector"]
    assert sliding["live_points"] <= CAPACITY
    assert sliding["allocation_bytes"] <= 3 * 8 * 4 * (CAPACITY + CHUNK), (
        "state allocation grew past O(capacity + chunk)"
    )
    assert sliding["live_tokens"] <= measured["unbounded_detector"]["live_tokens"] or (
        POINTS <= BASELINE_POINTS
    )
    decay_stats = measured["decay_detector"]
    assert decay_stats["live_points"] <= CAPACITY + (generation_size or CAPACITY)
    for name in ("sliding", "decay"):
        stats = measured[name]
        if stats["rss_warm"] and stats["rss_end"]:
            drift = (stats["rss_end"] - stats["rss_warm"]) / stats["rss_warm"]
            assert drift < 0.10, (
                f"{name}: RSS drifted {drift:+.1%} after warmup — memory is "
                "not flat over the stream"
            )

    # ---- timing gate: steady per-point cost (reported always, gated
    # only when strict — shared runners are too noisy to merge-block). ----
    for name in ("sliding", "decay"):
        stats = measured[name]
        ratio = stats["late_chunk_s"] / max(stats["early_chunk_s"], 1e-9)
        if strict():
            assert ratio < 3.0, (
                f"{name}: per-chunk ingest drifted {ratio:.2f}x from early to "
                "late stream — per-point cost is not steady"
            )
