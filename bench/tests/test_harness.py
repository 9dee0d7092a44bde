"""Tests of the benchmark harness itself (not of evicrit).

    python3 -m pytest -q bench/tests
"""

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SYNTHETIC = ("expert-panel", "dense-evidence", "wide-matrix")


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def _lookups():
    out = {}
    for name, modules in tracing.TRACED.items():
        attr = name.split(".")[1]
        for module_name in modules:
            module = importlib.import_module(f"evicrit.{module_name}")
            out[(module_name, attr)] = getattr(module, attr)
    return out


@pytest.mark.parametrize("name", SYNTHETIC)
def test_seed_reproduces_identical_inputs(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    workload.prepare(7, tmp_path / "a")
    workload.prepare(7, tmp_path / "b")
    workload.prepare(8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_expert_panel_passes_the_gate_without_force(tmp_path):
    workload = workloads.WORKLOADS["expert-panel"]
    workload.prepare(3, tmp_path)
    config = workload.load(tmp_path)
    assert not config.force
    assert workload.check_run(workload.op(config), config) == []


def test_traced_run_restores_attributes_and_keeps_outputs(tmp_path):
    workload = workloads.WORKLOADS["example"]
    workload.prepare(1, tmp_path)
    config = workload.load(tmp_path)
    untraced = workload.fingerprint(workload.op(config), config)
    before = _lookups()

    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(getattr(importlib.import_module(f"evicrit.{m}"), a) is not f
                   for (m, a), f in before.items())
        output, _ = tracer.run_op(workload.op, config)
    counters = tracer.end_op()

    assert _lookups() == before
    assert workload.fingerprint(output, config) == untraced
    assert counters["evidence.dempster_combine_calls"] == 18
    assert 0.0 < counters["share.report"] < 1.0


def test_attributes_restored_when_the_op_raises(tmp_path):
    before = _lookups()
    tracer = tracing.Tracer()

    def failing_op(_):
        importlib.import_module("evicrit.pipeline").aggregate_geometric([])

    with pytest.raises(Exception):
        with tracer.installed():
            tracer.run_op(failing_op, None)
    assert _lookups() == before


def test_corrupted_output_counts_as_a_failed_op(tmp_path):
    example = workloads.WORKLOADS["example"]
    example.prepare(1, tmp_path)
    config = example.load(tmp_path)
    calls = 0

    class Corrupting:
        fingerprint = staticmethod(example.fingerprint)
        check_run = staticmethod(example.check_run)

        @staticmethod
        def op(state):
            nonlocal calls
            calls += 1
            manifest = example.op(state)
            if calls == 3:
                with open(Path(state.out_dir) / "report.txt", "a") as f:
                    f.write("corrupted\n")
            return manifest

    result = run.closed_loop(Corrupting, config, seconds=0.3)
    assert result.attempted >= 3
    assert result.failed == 1


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "example",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_host_speed_scaling_is_per_chunk():
    import hostspeed

    ref = hostspeed.REFERENCE_MS / 1e3
    starts = [0.0, 0.1, hostspeed.CHUNK_S, hostspeed.CHUNK_S + 0.1]
    latencies = [4.0, 6.0, 4.0, 6.0]
    kernel_times = [ref, ref, 2 * ref, 2 * ref]
    scaled, factor = hostspeed.scaled(starts, latencies, kernel_times)
    assert scaled == pytest.approx([4.0, 6.0, 2.0, 3.0])
    assert factor == pytest.approx(1.5)
