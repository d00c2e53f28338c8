"""The process under test for the in-process workloads, and the serve ladder.

Usage (``run.py`` starts it from the checkout root)::

    python3 perfbench/worker.py setup WORKLOAD SEED SECONDS TRACE [URL]
    python3 perfbench/worker.py run   WORKLOAD SEED SECONDS TRACE [URL]

Both modes import the program and build what the workload needs, then
print ``READY`` (``run.py`` times spawn-to-``READY`` as set-up). ``setup``
exits there. ``run`` goes on to the workload, prints ``RESULT <json>``, and
waits for its standard input to close, so ``run.py`` can read the peak
resident memory while the process still exists.
"""

from __future__ import annotations

import json
import sys
from statistics import median
from time import perf_counter

from common import (
    BATCH,
    K,
    LADDER_REQUESTS,
    OUT,
    PAPER,
    STREAM,
    anomaly_documents,
    mean_best_score,
    serve_config,
    serve_input,
    tail,
    use_checkout_sources,
)

use_checkout_sources()

#: Seed of the detectors' member sampling. The workload seed varies the
#: data; the member sample stays fixed, so a run's cost does not swing with
#: which (w, a) pairs happened to be drawn.
DETECTOR_SEED = 0


class Outcome:
    """Operations attempted and failed, and the metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.info: dict = {}

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation, and a failure unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.info.setdefault("failed_checks", []).append(what)


# ----------------------------------------------------------------------
# batch_paper
# ----------------------------------------------------------------------


def batch_detector():
    """A fresh batch_paper detector (paper defaults, fixed member sample)."""
    from repro import EnsembleGrammarDetector

    return EnsembleGrammarDetector(window=BATCH["period"], seed=DETECTOR_SEED, **PAPER)


def run_batch(seed: int, seconds: float, trace: bool, outcome: Outcome) -> None:
    """batch_paper: time serial ``detect`` or, traced, the composed layers."""
    import layers
    from common import batch_input
    from spans import NullRecorder, SpanRecorder
    from speed import ScaledClock

    inputs = [batch_input(seed, index) for index in range(BATCH["series"])]

    def composed(series, recorder) -> tuple[list, dict]:
        reference = batch_detector().ensemble_report(series).curve
        curve, candidates, counts = layers.detect(batch_detector(), series, K, recorder)
        outcome.check(curve.tobytes() == reference.tobytes(), "composed curve != ensemble_report")
        return candidates, counts

    if not trace:
        expected = [composed(series, NullRecorder())[0] for series, _ in inputs]
        raw, times = [], []
        clock = ScaledClock()
        deadline = perf_counter() + seconds
        # Whole rounds over the series, so each weighs the same in a run.
        while True:
            index = len(times) % len(inputs)
            detector = batch_detector()
            started = perf_counter()
            found = detector.detect(inputs[index][0], K)
            raw.append(perf_counter() - started)
            times.append(raw[-1] * clock.factor())
            outcome.check(found == expected[index], "detect != composed layers")
            if index == len(inputs) - 1 and perf_counter() >= deadline:
                break
        scores = [mean_best_score(found, planted) for found, (_, planted) in zip(expected, inputs)]
        # A pooled median would jump between the series' clusters of times.
        medians = [median(times[index :: len(inputs)]) for index in range(len(inputs))]
        # A run holds only a dozen calls, so one calibration hiccup beside a
        # call would swing the total: the run's median factor scales it.
        outcome.metrics.update(
            points_per_s=BATCH["length"] * len(raw) / (sum(raw) * median(clock.factors)),
            latency_ms_p50=1000 * sum(medians) / len(medians),
            mean_score=sum(scores) / len(scores),
        )
        outcome.info.update(detect_s=raw, speed_factors=clock.factors)
        return
    recorder = SpanRecorder()
    runs = len(inputs)
    totals: dict[str, float] = {}
    for repetition, (series, _) in enumerate(inputs):
        recorder.run = repetition
        for name, value in composed(series, recorder)[1].items():
            totals[name] = totals.get(name, 0) + value
    # Layer numbers are per detect call: means over the series.
    counts = {name: value / runs for name, value in totals.items()}
    recorder.write(OUT / f"spans-batch_paper-{seed}.jsonl")
    self_s = {name: value / runs for name, value in recorder.self_times().items()}
    wall = recorder.wall() / runs
    layer_s = {
        "sax.paa.s": self_s.get("sax.paa", 0.0),
        "sax.discretize.s": self_s.get("sax.discretize", 0.0),
        "grammar.induce.s": self_s.get("grammar.induce", 0.0),
        "grammar.density.s": self_s.get("grammar.density", 0.0),
        "core.combine.s": self_s.get("core.combine", 0.0),
    }
    outcome.metrics.update(
        layer_s,
        **{
            "sax.paa.rows": counts["rows"],
            "sax.numerosity.kept_ratio": counts["tokens"] / counts["windows"],
            "grammar.induce.tokens": counts["tokens"],
            "grammar.induce.us_per_token": 1e6 * layer_s["grammar.induce.s"] / counts["tokens"],
            "grammar.induce.spans": counts["spans"],
            "core.combine.kept_members": counts["kept_members"],
            "unattributed.s": self_s.get("detect", 0.0),
            "trace.wall_s": wall,
            "trace.overhead_ratio": recorder.overhead_ratio(),
        },
    )


# ----------------------------------------------------------------------
# stream_sliding / stream_decay
# ----------------------------------------------------------------------


def stream_detector(policy: str):
    """A fresh bounded streaming ensemble under ``policy``."""
    from repro import StreamingEnsembleDetector

    return StreamingEnsembleDetector(
        window=STREAM["period"],
        capacity=STREAM["capacity"],
        policy=policy,
        seed=DETECTOR_SEED,
        **PAPER,
    )


def run_stream(policy: str, seed: int, seconds: float, trace: bool, outcome: Outcome) -> None:
    """stream_*: time chunked ingest plus poll passes over the seeded streams."""
    from common import stream_input
    from repro.obs import stages
    from spans import NullRecorder, SpanRecorder
    from speed import ScaledClock

    inputs = [stream_input(seed, index) for index in range(STREAM["streams"])]
    capacity, chunk = STREAM["capacity"], STREAM["chunk"]
    expected = []
    for stream, _ in inputs:
        reference = stream_detector(policy)
        reference.extend(stream)
        expected.append(reference.detect(K))

    ingest_s = poll_s = stage_s = scaled_s = 0.0
    points = 0
    polls: list[float] = []
    scaled_polls: list[float] = []
    scores: dict[int, float] = {}
    state_bytes = 0

    def one_pass(number: int, recorder, deadline: float | None, clock=None) -> bool:
        """Feed the timed part of pass ``number``'s stream; return whether
        it completed.

        With a ``clock``, each chunk's ingest and poll are also scaled to
        the nominal CPU speed.
        """
        nonlocal ingest_s, poll_s, stage_s, scaled_s, points, state_bytes
        index = number % len(inputs)
        stream, planted = inputs[index]
        detector = stream_detector(policy)
        detector.extend(stream[:capacity])
        detector.detect(K)
        seen = []
        with recorder.span("pass"), stages.capture() as stage_times:
            for start in range(capacity, len(stream), chunk):
                started = perf_counter()
                with recorder.span("core.streaming.ingest"):
                    detector.extend(stream[start : start + chunk])
                ingested = perf_counter()
                with recorder.span("core.streaming.poll"):
                    found = detector.detect(K)
                polled = perf_counter()
                ingest_s += ingested - started
                poll_s += polled - ingested
                polls.append(polled - ingested)
                if clock is not None:
                    factor = clock.factor()
                    scaled_s += (polled - started) * factor
                    scaled_polls.append((polled - ingested) * factor)
                points += chunk
                outcome.attempted += 1
                seen.append((detector.horizon_start, len(detector), found))
                if deadline is not None and polled >= deadline and start + chunk < len(stream):
                    return False
        stage_s += sum(stage_times.values())
        state_bytes = max(state_bytes, detector.memory_bytes())
        outcome.check(found == expected[index], "final anomalies != one-shot extend")
        if index not in scores:
            # Each poll is scored against the planted anomalies inside its
            # live horizon; every completed pass of a stream scores the same.
            poll_scores = []
            for low, high, candidates in seen:
                visible = [p for p in planted if low <= p.position <= high - p.length]
                if visible:
                    poll_scores.append(mean_best_score(candidates, visible))
            scores[index] = sum(poll_scores) / len(poll_scores)
        return True

    if not trace:
        clock = ScaledClock()
        deadline = perf_counter() + seconds
        # The first pass over each stream always completes, so every run
        # checks and scores each one.
        number = 0
        while len(scores) < len(inputs) or perf_counter() < deadline:
            cut = deadline if len(scores) == len(inputs) else None
            one_pass(number, NullRecorder(), cut, clock)
            number += 1
        outcome.metrics.update(
            points_per_s=points / scaled_s,
            latency_ms_p50=1000 * median(scaled_polls),
            mean_score=sum(scores.values()) / len(scores),
        )
        outcome.info.update(
            polls=len(polls),
            poll_ms=[1000 * p for p in polls],
            raw_points_per_s=points / (ingest_s + poll_s),
            speed_factors=clock.factors,
        )
        return
    recorder = SpanRecorder()
    deadline = perf_counter() + seconds
    while recorder.run < len(inputs) or perf_counter() < deadline:
        one_pass(recorder.run, recorder, None)
        recorder.run += 1
    passes = recorder.run
    recorder.write(OUT / f"spans-stream_{policy}-{seed}.jsonl")
    self_s = recorder.self_times()
    wall = recorder.wall() / passes
    value, percentile, n = tail([1000 * p for p in polls])
    outcome.metrics.update(
        {
            "core.streaming.ingest.s": self_s.get("core.streaming.ingest", 0.0) / passes,
            "core.streaming.ingest.us_per_point": 1e6 * ingest_s / points,
            "core.streaming.poll.s": self_s.get("core.streaming.poll", 0.0) / passes,
            "core.streaming.polls": len(polls),
            "core.streaming.state_bytes": state_bytes,
            "obs.stage_sum_over_wall": stage_s / (ingest_s + poll_s),
            "latency_ms_tail": value,
            "latency_tail_pct": percentile,
            "latency_tail_n": n,
            "unattributed.s": self_s.get("pass", 0.0) / passes,
            "trace.wall_s": wall,
            "trace.overhead_ratio": recorder.overhead_ratio(),
        }
    )


# ----------------------------------------------------------------------
# serve_http: the closed-loop ladder of the traced run
# ----------------------------------------------------------------------


def run_ladder(seed: int, url: str, outcome: Outcome) -> None:
    """Time the same requests down four public calls, one request at a time.

    Rungs: HTTP round trip to the serve node; in-process
    ``DetectService.detect``; ``detect_batch`` on the same kind of process
    executor; serial ``detect``. Differences between rung medians are the
    serving layers, and they telescope to the HTTP median.
    """
    import asyncio
    import http.client

    from repro import EnsembleGrammarDetector
    from repro.core.engine import detect_batch
    from repro.core.executors import as_executor
    from repro.service import DetectService
    from serving import post
    from spans import SpanRecorder

    config = serve_config()
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=120)
    executor = as_executor("process", None)
    service = DetectService(executor=executor, n_jobs=1)
    loop = asyncio.new_event_loop()
    recorder = SpanRecorder()
    rungs = ("rung.http", "rung.service", "rung.detect_batch", "rung.detect")
    try:
        for index in range(-1, LADDER_REQUESTS):
            # Index -1 warms every rung (pool spawn, first imports) untimed.
            series, _ = serve_input(seed, 100_000 + index)
            request_seed = 100_000 + index
            body = json.dumps({"series": series.tolist(), "seed": request_seed, "k": K, **config})
            outputs = {}

            def http_rung():
                status, payload = post(connection, "/v1/detect", body.encode())
                return json.loads(payload)["anomalies"] if status == 200 else None

            calls = {
                "rung.http": http_rung,
                "rung.service": lambda: list(
                    loop.run_until_complete(
                        service.detect(series, k=K, seed=request_seed, **config)
                    ).anomalies
                ),
                "rung.detect_batch": lambda: detect_batch(
                    EnsembleGrammarDetector(**config, seed=0),
                    [series],
                    K,
                    n_jobs=1,
                    executor=executor,
                    seeds=[request_seed],
                )[0],
                "rung.detect": lambda: EnsembleGrammarDetector(**config, seed=request_seed).detect(
                    series, K
                ),
            }
            # Rotate the rung order per request so no rung always runs first.
            order = rungs[index % 4 :] + rungs[: index % 4]
            recorder.run = index
            with recorder.span("request"):
                for rung in order:
                    with recorder.span(rung):
                        outputs[rung] = calls[rung]()
            direct = outputs["rung.detect"]
            results = {
                "http": outputs["rung.http"] == anomaly_documents(direct),
                "service": outputs["rung.service"] == direct,
                "detect_batch": outputs["rung.detect_batch"] == direct,
            }
            for rung, ok in results.items():
                outcome.check(ok, f"ladder {rung} != detect (request {index})")
            if index < 0:
                recorder.spans.clear()
    finally:
        loop.run_until_complete(service.aclose())
        loop.close()
        executor.close()
        connection.close()
    recorder.write(OUT / f"spans-serve_http-ladder-{seed}.jsonl")
    durations: dict[str, list[float]] = {rung: [] for rung in rungs}
    for name, start, end, _, run in recorder.spans:
        if name in durations:
            durations[name].append(1000 * (end - start))
    http_ms, service_ms, batch_ms, detect_ms = (median(durations[rung]) for rung in rungs)
    self_s = recorder.self_times()
    outcome.metrics.update(
        {
            "service.http.ms": http_ms - service_ms,
            "service.batching.ms": service_ms - batch_ms,
            "core.executors.dispatch.ms": batch_ms - detect_ms,
            "core.compute.ms": detect_ms,
            "serve.ladder.http_ms": http_ms,
            "unattributed.s": self_s["request"] / LADDER_REQUESTS,
            "trace.wall_s": recorder.wall() / LADDER_REQUESTS,
            "trace.overhead_ratio": recorder.overhead_ratio(),
        }
    )


def prepare(workload: str) -> None:
    """Import and construct what the workload needs (the timed set-up)."""
    if workload == "batch_paper":
        batch_detector()
    elif workload.startswith("stream_"):
        stream_detector(workload.split("_", 1)[1])
    else:
        import repro.service  # noqa: F401


def main(argv: list[str]) -> int:
    """Set up, print ``READY``, then (``run`` mode) run and print the result."""
    mode, workload, seed, seconds, trace = argv[:5]
    url = argv[5] if len(argv) > 5 else ""
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    prepare(workload)
    print("READY", flush=True)
    if mode == "setup":
        return 0
    outcome = Outcome()
    if workload == "batch_paper":
        run_batch(seed, seconds, trace, outcome)
    elif workload.startswith("stream_"):
        run_stream(workload.split("_", 1)[1], seed, seconds, trace, outcome)
    else:
        run_ladder(seed, url, outcome)
    result = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
        "info": outcome.info,
    }
    print("RESULT " + json.dumps(result), flush=True)
    sys.stdin.read()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
