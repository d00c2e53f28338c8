"""End-to-end benchmark of the detector, with a per-layer breakdown.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch_paper --seed 1 --seconds 16 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

- ``batch_paper``: serial ``EnsembleGrammarDetector.detect`` at the paper
  defaults on a long fridge-freezer trace;
- ``stream_sliding`` / ``stream_decay``: a bounded
  ``StreamingEnsembleDetector`` fed fixed chunks and polled after each;
- ``serve_http``: one ``repro serve`` node driven by an open-loop load
  generator over ``POST /v1/detect``.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that records spans at the layer boundaries and reports the per-layer
metrics. Every run checks the program's outputs. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give provenance and detail. The exit code
is 0 when every check passed, 1 when one failed and 2 when the checkout
does not hold the program.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace

from common import (
    CONNECTIONS,
    K,
    LATENCY_LIMIT_MS,
    OUT,
    PHASE_SHARES,
    RATES,
    REFERENCE_RATE,
    ROOT,
    SERVE,
    SERVE_CHECKS,
    SRC,
    WORKLOADS,
    anomaly_documents,
    mean_best_score,
    program_env,
    serve_config,
    serve_input,
    tail,
    use_checkout_sources,
)

WORKER = Path(__file__).resolve().parent / "worker.py"
#: Cold starts per run; set-up is reported as their median.
SETUP_REPEATS = 3


def peak_rss_mb(pids) -> float:
    """Summed peak resident memory (``VmHWM``) of live processes, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


class Worker:
    """``worker.py`` in a subprocess: the process under test."""

    def __init__(self, mode: str, workload: str, seed: int, seconds: float, trace: bool, url=""):
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(WORKER), mode, workload, str(seed), str(seconds),
             "1" if trace else "0", url],
            cwd=ROOT,
            env=program_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        if line.strip() != "READY":
            self.process.kill()
            self.process.communicate()
            raise RuntimeError(f"worker failed before it was ready: {line!r}")
        self.setup_s = time.perf_counter() - self.started

    def result(self) -> tuple[dict, float]:
        """The worker's result and its peak resident memory (MiB)."""
        for line in self.process.stdout:
            if line.startswith("RESULT "):
                return json.loads(line[len("RESULT "):]), peak_rss_mb([self.process.pid])
        raise RuntimeError("worker exited without a result")

    def close(self) -> None:
        """Close the worker's input and wait for it to exit cleanly."""
        self.process.stdin.close()
        self.process.stdout.close()
        if self.process.wait(timeout=60) != 0:
            raise RuntimeError(f"worker exited with {self.process.returncode}")


def measure_setup(workload: str, seed: int) -> list[float]:
    """Spawn-to-ready seconds of ``SETUP_REPEATS`` cold starts of the worker."""
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = Worker("setup", workload, seed, 0, False)
        probe.close()
        samples.append(probe.setup_s)
    return samples


def run_in_process(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run a batch or streaming workload in a worker process."""
    setup = [] if trace else measure_setup(workload, seed)
    worker = Worker("run", workload, seed, seconds, trace)
    try:
        result, rss = worker.result()
    finally:
        worker.close()
    if not trace:
        result["metrics"].update(setup_s=median(setup), peak_rss_mb=rss)
        result["info"]["setup_s"] = setup
    return result


# ----------------------------------------------------------------------
# serve_http
# ----------------------------------------------------------------------


def request_bodies(seed: int, count: int, first: int = 0):
    """JSON bodies and planted anomalies of requests ``first .. first+count``."""
    config = serve_config()
    bodies, planted = [], []
    for index in range(first, first + count):
        series, anomalies = serve_input(seed, index)
        request = {"series": series.tolist(), "seed": index, "k": K, **config}
        bodies.append(json.dumps(request).encode())
        planted.append(anomalies)
    return bodies, planted


def phase_summary(phase, factor: float) -> dict:
    """Counts, latency, lag and backlog verdict of one load phase.

    Latencies and elapsed time are scaled by ``factor`` to the nominal CPU
    speed; lag and the sustained verdict use the times as measured.
    """
    ok = [r for r in phase.requests if r.status == 200]
    latencies = [r.latency_ms for r in phase.requests]
    lags = [r.lag_ms for r in phase.requests]
    quarter = max(1, len(lags) // 4)
    # A growing backlog shows as lag that keeps rising through the phase.
    growing = median(lags[-quarter:]) - median(lags[:quarter]) > 100.0
    value, percentile, n = tail(latencies)
    elapsed = max(r.done for r in phase.requests) - min(r.due for r in phase.requests)
    return {
        "rate": phase.rate,
        "sent": len(phase.requests),
        "succeeded": len(ok),
        "failed": len(phase.requests) - len(ok),
        "http_ms_p50": median(latencies) * factor,
        "http_ms_tail": value * factor,
        "tail_pct": percentile,
        "tail_n": n,
        "lag_ms_max": max(lags),
        "growing_backlog": growing,
        "sustained": not growing and value <= LATENCY_LIMIT_MS and len(ok) == len(phase.requests),
        "elapsed_s": elapsed * factor,
        "raw_http_ms_p50": median(latencies),
        "raw_elapsed_s": elapsed,
    }


def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    """Run serve_http: open-loop load on one serve node (and, traced, the ladder)."""
    from serving import ServeNode, get_json, open_loop
    from speed import BackgroundCalibration

    phase_seconds = [seconds * share / sum(PHASE_SHARES) for share in PHASE_SHARES]
    count = sum(int(round(rate * length)) for rate, length in zip(RATES, phase_seconds))
    bodies, planted = request_bodies(seed, count)
    warmup, _ = request_bodies(seed, SETUP_REPEATS + 2 * CONNECTIONS, first=1_000_000)
    result = {"attempted": 0, "failed": 0, "metrics": {}, "info": {}}
    setup = []
    node = ServeNode()
    try:
        for repeat in range(1 if trace else SETUP_REPEATS):
            node.stop()
            setup.append(node.start(warmup[repeat]))
        node.warm(warmup[SETUP_REPEATS:], CONNECTIONS)
        before = get_json(node.host, node.port, "/v1/stats")
        with BackgroundCalibration() as calibration:
            phases = open_loop(node.host, node.port, RATES, phase_seconds, bodies, CONNECTIONS)
        rss = peak_rss_mb(node.pids())
        stats = get_json(node.host, node.port, "/v1/stats")
        if trace:
            ladder = Worker("run", "serve_http", seed, seconds, True, node.url)
            try:
                result, _ = ladder.result()
            finally:
                ladder.close()
    finally:
        node.stop()

    info, metrics = result["info"], result["metrics"]
    factor = calibration.factor()
    summaries = [phase_summary(phase, factor) for phase in phases]
    info.update(phases=summaries, executor=stats["executor"], speed_factor=factor)
    sent = [r for phase in phases for r in phase.requests]
    result["attempted"] += len(sent)
    result["failed"] += sum(r.status != 200 for r in sent)
    hits = stats["cache"]["hits"] - before["cache"]["hits"]
    misses = stats["cache"]["misses"] - before["cache"]["misses"]
    rejected = stats["batcher"]["rejected_overload"] - before["batcher"]["rejected_overload"]
    checks = [("cache bypassed", hits == 0), ("no request refused", rejected == 0)]
    checks += check_served(sent, bodies)
    for what, ok in checks:
        result["attempted"] += 1
        if not ok:
            result["failed"] += 1
            info.setdefault("failed_checks", []).append(what)

    reference = summaries[RATES.index(REFERENCE_RATE)]
    if not trace:
        top = summaries[-1]
        scores = [
            mean_best_score(
                [SimpleNamespace(**a) for a in json.loads(r.body)["anomalies"]], planted[r.index]
            )
            for r in sent
            if r.status == 200
        ]
        metrics.update(
            setup_s=median(setup),
            points_per_s=top["succeeded"] * SERVE["length"] / top["elapsed_s"],
            latency_ms_p50=reference["http_ms_p50"],
            peak_rss_mb=rss,
            mean_score=sum(scores) / len(scores),
        )
        info["setup_s"] = setup
        return result
    batches = stats["batcher"]["batches"] - before["batcher"]["batches"]
    dispatched = stats["batcher"]["dispatched"] - before["batcher"]["dispatched"]
    metrics.update(
        {
            "latency_ms_tail": reference["http_ms_tail"],
            "latency_tail_pct": reference["tail_pct"],
            "latency_tail_n": reference["tail_n"],
            "loadgen.lag_ms_max": max(s["lag_ms_max"] for s in summaries),
            "loadgen.sustained_rps": max(
                (s["rate"] for s in summaries if s["sustained"]), default=0.0
            ),
            "service.batching.mean_batch_size": dispatched / max(1, batches),
            "service.batching.rejected": rejected,
            "service.cache.hit_ratio": hits / max(1, hits + misses),
        }
    )
    for summary in summaries:
        for key in ("sent", "succeeded", "failed", "http_ms_p50"):
            metrics[f"loadgen.r{summary['rate']:g}.{key}"] = summary[key]
    return result


def check_served(sent, bodies) -> list[tuple[str, bool]]:
    """Served anomalies of ``SERVE_CHECKS`` requests against a direct detect call."""
    import numpy as np
    from repro import EnsembleGrammarDetector

    checks = []
    stride = max(1, len(sent) // SERVE_CHECKS)
    for request in sent[::stride]:
        if request.status != 200:
            continue
        document = json.loads(bodies[request.index])
        series = np.asarray(document["series"], dtype=np.float64)
        direct = EnsembleGrammarDetector(**serve_config(), seed=document["seed"]).detect(series, K)
        served = json.loads(request.body)["anomalies"]
        ok = served == anomaly_documents(direct)
        checks.append((f"request {request.index} == direct detect", ok))
    return checks


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def provenance(seed: int) -> dict:
    """Workload seed, resolved kernel, nproc, CPU model and git SHA."""
    sys.path.insert(0, str(ROOT))
    from benchmarks.runner.machine import machine_fingerprint

    fingerprint = dict(machine_fingerprint())
    fingerprint.update(seed=seed, nproc=os.cpu_count())
    return fingerprint


def main(argv=None) -> int:
    """Parse the arguments, run one workload and print the result line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # Every process runs the program's default kernel (see program_env).
    os.environ.pop("REPRO_KERNEL", None)
    use_checkout_sources()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    trace = bool(args.trace)
    if args.workload == "serve_http":
        result = run_serve(args.seed, args.seconds, trace)
    else:
        result = run_in_process(args.workload, args.seed, args.seconds, trace)
    info = result["info"]
    info["provenance"] = provenance(args.seed)
    measured = result["metrics"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in measured and not trace:
            raise RuntimeError(f"workload {args.workload} did not measure {name}")
        # A layer this workload does not exercise reads 0 in the traced run.
        metrics[name] = {"value": float(measured.get(name, 0.0)), "unit": metric["unit"]}
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"metrics": metrics, "info": info}, indent=1))
    print("provenance " + json.dumps(info["provenance"]))
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    for what in info.get("failed_checks", []):
        print(f"  FAILED CHECK: {what}")
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
