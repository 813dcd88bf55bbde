"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload route-warm --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed; their
times are scaled to a reference host speed (``measure.HostSpeed``).
``--trace 1`` measures half the time plain and half traced, and prints the
per-layer metrics (see ``perfbench/README.md``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 0 only when every output matched its
reference (and, for the recorded seeds, its digest in ``expected.json``).

The program under test is imported from ``src/`` next to this directory;
everything the run writes stays under the checkout (``.bench_tmp/`` while it
runs, ``.bench_results/`` after).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("route-warm", "preprocess-cold", "serve-tcp")
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this run's digests in expected.json instead of checking them",
    )
    return parser.parse_args(argv)


def _prepare_environment(workdir: Path) -> None:
    """Import ``repro`` from the checkout and keep temporary files inside it."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # Spawned shard servers inherit these.
    inherited = [path for path in os.environ.get("PYTHONPATH", "").split(os.pathsep) if path]
    os.environ["PYTHONPATH"] = os.pathsep.join([src, str(BENCH_DIR), *inherited])
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)


def _check_digests(
    workload: str, seed: int, digests: list[str], canary: str, record: bool
) -> list[str]:
    """Compare with (or, with ``record``, store) the pinned digests."""
    path = BENCH_DIR / "expected.json"
    expected = json.loads(path.read_text())
    pinned = expected["digests"].setdefault(workload, {})
    if record:
        pinned[str(seed)] = digests
        expected["canary"] = canary
        path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        return []
    problems = []
    if canary != expected["canary"]:
        problems.append(f"canary digest is {canary}, expected {expected['canary']}")
    recorded = pinned.get(str(seed), [])
    problems += [
        f"digest {index} is {actual}, expected {want}"
        for index, (actual, want) in enumerate(zip(digests, recorded))
        if actual != want
    ]
    return problems


def _run(args: argparse.Namespace, workdir: Path) -> dict:
    import workloads
    import measure
    import spans

    # first, while the process is small: building the probe's array briefly
    # takes three times its size
    speed = measure.HostSpeed()
    shm_before = measure.shm_segments()
    canary = workloads.canary_digest()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    recorder = spans.Recorder()
    try:
        setup_times, setup_scaled = [], []
        for _ in range(workload.setup_repeats):
            speed.probe(3)
            started = time.perf_counter()
            workload.setup()
            ended = time.perf_counter()
            speed.probe(3)
            setup_times.append(ended - started)
            setup_scaled.append((ended - started) * speed.scale(ended))
        seconds = args.seconds
        capacity, at_capacity = 0.0, workloads.Sample()
        if args.trace:
            plain = workload.measure(seconds / 2, speed)
            spans.install(recorder)
            before = spans.registry_snapshot(getattr(workload, "metrics", None))
            recorder.enabled = True
            try:
                sample = workload.measure(seconds / 2, speed, recorder)
            finally:
                recorder.enabled = False
                recorder.restore()
            after = spans.registry_snapshot(getattr(workload, "metrics", None))
            sample.absorb_failures(plain)
            if args.workload == "serve-tcp":
                capacity, at_capacity = workload.capacity(sample)
        else:
            sample = workload.measure(seconds, speed)
        rss = measure.peak_rss_mb()
    finally:
        workload.close()
    leaked = len(measure.shm_segments() - shm_before)
    measure.stop_resource_tracker()

    # End-to-end times are scaled to the reference host speed (see
    # measure.HostSpeed); the wall-clock figures are kept in the result file.
    latency = measure.latency_summary(
        [wall * speed.scale(at) for wall, at in zip(sample.latencies, sample.stamps)]
    )
    wall_latency = measure.latency_summary(sample.latencies)
    busy = sum(wall * speed.scale(at) for at, wall in sample.ops)
    wall_busy = sum(wall for _, wall in sample.ops)
    throughput = sample.completed / busy if busy else 0.0
    wall_throughput = sample.completed / wall_busy if wall_busy else 0.0
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": sample.attempted,
        "failed": sample.failed,
        "wrong": sample.wrong,
        "problems": sample.problems,
        "digests": workload.digests(),
        "canary": canary,
        "setup_samples_s": setup_times,
        "setup_scaled_s": setup_scaled,
        "latency": latency,
        "wall": {
            "setup_s": measure.median(setup_times),
            "throughput_qps": wall_throughput,
            "latency_p50_ms": wall_latency["p50_ms"],
            "latency_p99_ms": wall_latency["tail_ms"],
        },
        "host_speed": {
            "probes": len(speed.durations),
            "probe_p50_ms": measure.median(speed.durations) * 1000.0,
            "reference_probe_ms": measure.REFERENCE_PROBE_S * 1000.0,
        },
        "latencies_s": sample.latencies,
        "shm_leaked_segments": leaked,
        "journal_dir": str(getattr(workload, "journal_dir", workdir)),
    }
    if args.trace:
        delta = {key: after[key] - before[key] for key in before}
        layers = spans.layer_metrics(recorder, sample.completed, delta)
        plain_p50 = measure.median(plain.latencies)
        layers.update(
            {
                "core.query_rounds_per_query": sample.query_rounds / sample.completed
                if sample.completed
                else 0.0,
                # the open loop at capacity (serve-tcp's ladder)
                "loadgen.send_lag_p99_ms": measure.percentile(
                    at_capacity.send_lags, measure.tail_percentile(len(at_capacity.send_lags))
                )
                * 1000.0,
                "loadgen.backlog_max": at_capacity.backlog_max,
                "trace.overhead_frac": measure.median(sample.latencies) / plain_p50 - 1.0
                if plain_p50
                else 0.0,
                "trace.residual_frac": recorder.residual_fraction("op"),
                "service.shm_leaked_segments": leaked,
                "capacity_qps": capacity,
            }
        )
        result["layers"] = layers
        result["ladder"] = getattr(workload, "ladder", [])
    else:
        result["end_to_end"] = {
            "setup_s": measure.median(setup_scaled),
            "throughput_qps": throughput,
            "latency_p50_ms": latency["p50_ms"],
            "latency_p99_ms": latency["tail_ms"],
            "peak_rss_mb": rss,
        }
        result["failed_frac"] = sample.failed / sample.attempted if sample.attempted else 0.0
    return result


def _print_table(result: dict) -> None:
    latency = result["latency"]
    print(f"# perfbench {result['workload']} seed={result['seed']} trace={result['trace']}")
    print(f"# {json.dumps(result['metadata'], sort_keys=True)}")
    rows = []
    if "end_to_end" in result:
        for name, value in result["end_to_end"].items():
            note = ""
            samples = latency["samples"]
            if name == "setup_s":
                samples = len(result["setup_samples_s"])
                note = "median of set-ups"
            elif name == "latency_p99_ms":
                note = f"p{latency['tail_percentile']}: highest with >=10 samples beyond"
            elif name == "peak_rss_mb":
                samples, note = 1, "this process + children, before shutdown"
            if name in result["wall"]:
                note = f"wall {result['wall'][name]:.4g}; " + note
            rows.append((name, value, END_TO_END_UNITS[name], samples, note))
        rows.append(("failed_frac", result["failed_frac"], "frac", result["attempted"], ""))
    else:
        for name, value in result["layers"].items():
            note = "traced"
            if name == "capacity_qps":
                ladder = " ".join(
                    f"{step['rate_qps']:g}{'+' if step['passed'] else '-'}"
                    for step in result["ladder"]
                )
                note = f"untraced, after the traced half; ladder {ladder}"
            rows.append((name, value, _layer_unit(name), "", note))
    for name, value, unit, samples, note in rows:
        print(f"{name:38s} {value:14.4f} {unit:6s} n={samples!s:6s} {note}")
    for problem in result["problems"]:
        print(f"! {problem}")


def _terminate(signum, frame) -> None:
    # Unwind through the ``finally`` blocks, which stop every process the
    # workload started and remove the run's working directory.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_tmp" / str(os.getpid())
    import measure
    import workloads

    if (
        args.workload == "serve-tcp"
        and workloads.longest_socket_path(workdir) > workloads.UNIX_PATH_MAX
    ):
        print(
            f"perfbench: serve-tcp needs unix socket paths of up to "
            f"{workloads.longest_socket_path(workdir)} bytes under {workdir}, more than "
            f"the {workloads.UNIX_PATH_MAX} a socket can bind; run it from a checkout "
            "whose path is shorter",
            file=sys.stderr,
        )
        return 2
    _prepare_environment(workdir)

    try:
        with measure.StderrCapture(workdir / "stderr.txt") as capture:
            result = _run(args, workdir)
        result["metadata"] = measure.run_metadata(ROOT, Path(result["journal_dir"]).parent)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tracebacks = capture.tracebacks
    problems = _check_digests(
        args.workload, args.seed, result["digests"], result["canary"], args.record
    )
    result["problems"] += problems
    result["child_tracebacks"] = tracebacks
    correct = not problems and result["wrong"] == 0
    result["correct"] = correct
    if args.trace:
        result["layers"]["proc.child_tracebacks"] = tracebacks

    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    _print_table(result)
    metrics = result["end_to_end"] if not args.trace else result["layers"]
    units = END_TO_END_UNITS if not args.trace else {}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units.get(name, _layer_unit(name))}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name == "capacity_qps":
        return "1/s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s_per_batch"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_ratio", "_frac")):
        return "frac"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
