"""Workload configuration, input generation and small statistics helpers.

Shared by ``run.py`` and the process under test
(``worker.py``). Inputs depend only on the workload seed, so the same seed
gives the same series, the same stream and the same request bodies.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from statistics import fmean

#: The checkout root (``perfbench/`` sits directly below it).
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources; the benchmark measures these, never an installed copy.
SRC = ROOT / "src"
#: Where span files are written (listed in ``.gitignore``).
OUT = Path(__file__).resolve().parent / "out"

#: Paper defaults (Section 7): N=50 members, wmax=amax=10, tau=0.4, top-3.
PAPER = {
    "ensemble_size": 50,
    "max_paa_size": 10,
    "max_alphabet_size": 10,
    "selectivity": 0.4,
}
K = 3

#: batch_paper: long fridge-freezer traces, window matched to the cycle. A run
#: cycles through ``series`` distinct traces, so neither its cost nor its
#: score hangs on one draw of the data.
BATCH = {"length": 60_000, "period": 900, "series": 3}

#: stream_*: a bounded ensemble at capacity, fed fixed chunks and polled
#: after each one. Every pass starts from a detector pre-filled to capacity
#: (outside the timed region), so only steady-state chunks are timed. Passes
#: cycle through ``streams`` distinct streams.
STREAM = {"period": 300, "capacity": 5_000, "chunk": 500, "pass_points": 10_000, "streams": 3}

#: serve_http: short distinct series (no cache hits) at a few open-loop rates
#: stepping past saturation; ``REFERENCE_RATE`` is the below-saturation rate
#: whose latency is the end-to-end ``latency_ms_p50``.
SERVE = {"length": 600, "period": 64}
RATES = (5, 10, 20, 30)
REFERENCE_RATE = 10
#: Shares of ``--seconds`` per rate: the two phases the end-to-end metrics
#: read (10/s and 30/s) run twice as long as the other two.
PHASE_SHARES = (1, 2, 1, 2)
#: Load-generator connections: at most nproc, and two on any larger box.
CONNECTIONS = min(2, os.cpu_count() or 1)
#: The server's own slow-request threshold (``--slow-request-ms`` default).
LATENCY_LIMIT_MS = 1000.0
#: Requests checked against a direct ``detect`` call after the load.
SERVE_CHECKS = 24
#: Requests timed down the closed-loop ladder in the traced run.
LADDER_REQUESTS = 40

WORKLOADS = ("batch_paper", "stream_sliding", "stream_decay", "serve_http")


def program_env() -> dict:
    """Environment for a process running the program from this checkout.

    ``REPRO_KERNEL`` is removed so every workload runs the program's default
    kernel; the resolved name is recorded with the results.
    """
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` in the current process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def batch_input(seed: int, index: int):
    """The ``index``-th batch_paper series and its planted anomalies."""
    from repro.datasets import fridge_freezer_series

    return fridge_freezer_series(
        BATCH["length"], seed=[seed, 1, index], mean_period=BATCH["period"]
    )


def stream_input(seed: int, index: int):
    """Stream ``index``: ``capacity`` pre-fill points then ``pass_points`` timed ones."""
    from repro.datasets import fridge_freezer_series

    length = STREAM["capacity"] + STREAM["pass_points"]
    return fridge_freezer_series(length, seed=[seed, 2, index], mean_period=STREAM["period"])


def serve_input(seed: int, index: int):
    """Request ``index``'s series and planted anomalies (distinct per index)."""
    from repro.datasets import fridge_freezer_series

    return fridge_freezer_series(
        SERVE["length"], seed=[seed, 3, index], mean_period=SERVE["period"]
    )


def serve_config() -> dict:
    """Detector configuration carried by every served request."""
    return {"window": SERVE["period"], **PAPER}


def anomaly_documents(anomalies) -> list[dict]:
    """Anomalies as the ``/v1/detect`` response body lists them."""
    return [
        {"rank": a.rank, "position": a.position, "length": a.length, "score": a.score}
        for a in anomalies
    ]


def mean_best_score(anomalies, planted) -> float:
    """Mean over ``planted`` of the paper's Eq. 5 best score of ``anomalies``."""
    from repro.evaluation.metrics import best_score

    return fmean(best_score(anomalies, p.position, p.length) for p in planted)


def tail(samples) -> tuple[float, float, int]:
    """``(value, percentile, n)`` at the highest percentile with ten samples beyond it.

    With ten or fewer samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    index = n - 11
    return ordered[index], 100.0 * index / (n - 1), n

