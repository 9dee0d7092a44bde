"""Benchmark of evicrit: end-to-end op latency and set-up, per-layer spans.

One run measures one workload (see workloads.py) in this single-threaded
process, as a closed loop with one client: each op starts only after the
previous one has returned, and its output is checked between ops, outside
the timed interval.  Inputs come from ``--seed``.

    python3 bench/run.py --workload example --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with times
scaled to a reference host speed (see hostspeed.py; the unscaled figures
are printed as ``raw.*``); ``--trace 1`` alternates untraced and
traced ops and reports the per-layer metrics.
``--workload all`` runs both modes for every workload.  Every metric is
printed as ``name = value unit``; the last line of a single run is one JSON
object.  The exit code is 1 when a check fails and 2 when the sources
under ``src/`` are missing.  Run records and spans go to ``bench/out/``.
"""

from __future__ import annotations

import os

# one thread per process, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path[:0] = [str(SRC), str(BENCH)]

import hostspeed  # noqa: E402  (after the thread settings and the path)
import tracing  # noqa: E402

#: fresh interpreters per set-up and import measurement, after one warm-up
SPAWNS = 5


def setup_seconds(cmd: list[str]) -> tuple[float, float]:
    """Median wall time of SPAWNS runs of ``cmd`` after one page-cache warm-up:
    scaled by the host speed measured around each run, and unscaled."""
    scaled, raw = [], []
    for attempt in range(SPAWNS + 1):
        around = [hostspeed.timed_kernel() for _ in range(3)]
        started = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - started
        around += [hostspeed.timed_kernel() for _ in range(3)]
        if attempt:
            raw.append(elapsed)
            scaled.append(elapsed / hostspeed.factor(around))
    return statistics.median(scaled), statistics.median(raw)


def import_times_ms() -> dict[str, float]:
    """Cumulative ``-X importtime`` of evicrit and numpy, medians of SPAWNS."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import evicrit"
    found: dict[str, list[float]] = {"evicrit": [], "numpy": []}
    for attempt in range(SPAWNS + 1):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              check=True, capture_output=True, text=True)
        if not attempt:
            continue
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in found:
                found[fields[2].strip()].append(float(fields[1]) / 1e3)
    return {f"import.{name}_ms": statistics.median(v) for name, v in found.items()}


def run_record(workload: str, inputs: dict[str, Path]) -> dict:
    import evicrit
    import numpy

    sources = sorted((SRC / "evicrit").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() if done.returncode == 0 else None
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "evicrit": evicrit.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "inputs": {name: {"bytes": p.stat().st_size,
                          "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
                   for name, p in sorted(inputs.items())},
    }


class LoopResult:
    """What one closed loop measured: latencies, failures, problems found."""

    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.kernel_times: list[float] = []
        self.traced_latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0


def closed_loop(workload, state, seconds: float, tracer=None,
                probe_host: bool = False) -> LoopResult:
    """Run ops back to back for ``seconds``; check each one between ops.

    The first op is an untimed warm-up whose output is the reference: its
    fingerprint must be reproduced by every later op, and the run-level
    checks run on it.  With a tracer, every second op is traced.  With
    ``probe_host``, the host-speed kernel is timed after every op.
    """
    result = LoopResult()
    reference_output = workload.op(state)
    reference = workload.fingerprint(reference_output, state)
    result.problems = workload.check_run(reference_output, state)
    reference_ok = not result.problems
    gc.collect()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        traced = tracer is not None and result.attempted % 2 == 1
        result.attempted += 1
        try:
            if traced:
                with tracer.installed():
                    output, elapsed = tracer.run_op(workload.op, state)
                tracer.end_op()
            else:
                op_started = time.perf_counter()
                output = workload.op(state)
                elapsed = time.perf_counter() - op_started
            ok = reference_ok and workload.fingerprint(output, state) == reference
        except Exception:  # a raising op is a failed op; keep measuring
            result.failed += 1
            if result.failed == 1:
                result.problems.append("op raised:\n" + traceback.format_exc())
            continue
        if traced:
            result.traced_latencies.append(elapsed)
        else:
            result.starts.append(op_started - started)
            result.latencies.append(elapsed)
            if probe_host:
                result.kernel_times.append(hostspeed.timed_kernel())
        if not ok:
            result.failed += 1
            if result.failed == 1 and not result.problems:
                result.problems.append(f"op {result.attempted} output differs from the first op's")
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def end_to_end(workload, state, work: Path, seconds: float) -> tuple[dict, LoopResult]:
    setup_s, raw_setup_s = setup_seconds(
        [sys.executable, str(BENCH / "firstop.py"), workload.name, str(work)])
    loop = closed_loop(workload, state, seconds, probe_host=True)
    raw = [1e3 * t for t in loop.latencies]
    ms, factor = hostspeed.scaled(loop.starts, raw, loop.kernel_times)
    if len(ms) < 200:
        print(f"warning: {len(ms)} ops leave fewer than 10 samples beyond p95",
              file=sys.stderr)
    metrics = {
        "setup_s": setup_s,
        "op_ms_p50": statistics.median(ms),
        "op_ms_p95": _p95(ms),
        "ops_per_s": 1e3 * len(ms) / sum(ms),
        "peak_rss_mb": loop.peak_rss_mb,
        "samples": len(ms),
        "raw.setup_s": raw_setup_s,
        "raw.op_ms_p50": statistics.median(raw),
        "raw.op_ms_p95": _p95(raw),
        "raw.ops_per_s": 1e3 * len(raw) / sum(raw),
        "host.speed_factor": factor,
    }
    return metrics, loop


def per_layer(workload, state, seconds: float, spans_path: Path) -> tuple[dict, LoopResult, list]:
    tracer = tracing.Tracer()
    metrics = import_times_ms()
    loop = closed_loop(workload, state, seconds, tracer)
    tracer.write_jsonl(spans_path)
    metrics.update(tracer.medians())
    loop.problems += [f"count {k} differs between traced ops"
                      for k in tracer.varying_counts()]
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(loop.traced_latencies) / statistics.median(loop.latencies) - 1.0)
    metrics["samples"] = len(loop.traced_latencies)
    return metrics, loop, tracer.wrapped


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_share") or name.startswith("share.") or name.endswith("_factor"):
        return "ratio"
    return "count"


def run_one(args) -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        inputs = workload.prepare(args.seed, work)
        record = run_record(workload.name, inputs)
        state = workload.load(work)
        if args.trace:
            metrics, loop, record["wrapped"] = per_layer(
                workload, state, args.seconds, OUT / f"spans-{workload.name}.jsonl")
        else:
            metrics, loop = end_to_end(workload, state, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                  attempted=loop.attempted, failed=loop.failed,
                  problems=loop.problems, metrics=metrics)
    (OUT / f"record-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"record: workload={workload.name} seed={args.seed} nproc={record['nproc']} "
          f"cpu={record['cpu_model']!r} python={record['python']} numpy={record['numpy']} "
          f"commit={record['commit']} src_lines={record['src_lines']} "
          f"src_sha256={record['src_sha256'][:12]}")
    for name, info in record["inputs"].items():
        print(f"input: {name} bytes={info['bytes']} sha256={info['sha256']}")
    for problem in loop.problems:
        print(f"CHECK FAILED: {problem}")
    listed_units = {m["name"]: m["unit"] for m in listed}
    for name, value in metrics.items():
        base = name.removeprefix("raw.")
        print(f"{name} = {value:.6g} {listed_units.get(base, _unit(base))}")
    print(f"error_rate = {loop.failed / max(loop.attempted, 1):.6g} ratio "
          f"({loop.failed} of {loop.attempted} ops)")
    correct = not loop.problems and loop.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    status = 0
    for name in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        for trace in (0, 1):
            done = subprocess.run([sys.executable, __file__, "--workload", name["name"],
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(trace)])
            status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evicrit" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC / 'evicrit'}", file=sys.stderr)
        return 2
    import evicrit

    if Path(evicrit.__file__).resolve().parent != (SRC / "evicrit").resolve():
        print(f"bench: imported evicrit from {evicrit.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
