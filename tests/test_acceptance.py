"""Acceptance gate: the ten shipping criteria, one verdict line each.

Criteria 1..9 cover fixtures, properties, and oracles and are implemented
in evicrit.selftest (shared with the `selftest` CLI subcommand); here each
is executed, its budget checked, and its verdict printed.  Criterion 10
exercises the installed command line end to end in subprocesses.

Verdict lines are printed with capture suspended so they appear in the
live pytest log, pass or fail.
"""

import re
import subprocess
import sys
import time

from evicrit import cli, selftest
from evicrit.datasets import export_example_inputs
from evicrit.selftest import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)

# per-criterion runtime budgets (seconds) where the contract pins one
BUDGETS = {1: 1.0, 2: 1.0}


def verdict(capsys, number: int, name: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"\nacceptance criterion {number:2d} [{status}] {name}: "
              f"{detail}", flush=True)
    assert passed, f"criterion {number}: {detail}"


def run_criterion(capsys, number: int, name: str, fn):
    started = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - started
    budget = BUDGETS.get(number)
    if budget is not None:
        detail = f"{detail} [{elapsed:.3f}s, budget {budget:g}s]"
        passed = passed and elapsed < budget
    verdict(capsys, number, name, passed, detail)


def test_criterion_01_reference_table_complement(capsys):
    # |d - (1 - E)| <= 5e-4 on all fourteen published rows, under a second
    run_criterion(capsys, 1, "published d equals 1 - E", criterion_1)


def test_criterion_02_fusion_average_reproduced(capsys):
    # recomputed average row within +-0.005 of the published cells
    run_criterion(capsys, 2, "published fusion average reproduced",
                  criterion_2)


def test_criterion_03_ranking_verdicts(capsys):
    run_criterion(capsys, 3, "top B8 by weight, bottom B6 adjusted",
                  criterion_3)


def test_criterion_04_six_windows(capsys):
    run_criterion(capsys, 4, "window 4 stride 2 yields the six groups",
                  criterion_4)


def test_criterion_05_documented_nonreproducibility(capsys):
    # the printed weight columns do NOT follow from the printed d and priors;
    # the criterion asserts the discrepancy is real and documented
    run_criterion(capsys, 5, "printed W / adjusted-W not derivable",
                  criterion_5)


def test_criterion_06_membership_grid(capsys):
    run_criterion(capsys, 6, "membership partition, adjacency, slope",
                  criterion_6)


def test_criterion_07_combination_oracle(capsys):
    run_criterion(capsys, 7, "combination matches exhaustive oracle",
                  criterion_7)


def test_criterion_08_weighting_invariances(capsys):
    run_criterion(capsys, 8, "weighting invariances and exact ends",
                  criterion_8)


def test_criterion_09_eigenvalue_oracle(capsys):
    run_criterion(capsys, 9, "aggregation and eigenvalue oracle", criterion_9)


def test_criterion_10_end_to_end(tmp_path, capsys):
    inputs = export_example_inputs(tmp_path / "inputs")
    base = [sys.executable, "-m", "evicrit"]
    eval_args = base + [
        "evaluate",
        "--scores", str(inputs["scores.csv"]),
        "--matrices", str(inputs["matrices.json"]),
        "--priors", str(inputs["priors.csv"]),
        "--ri-table", str(inputs["ri.json"]),
        "--alpha", "0.8",
    ]

    manifests = []
    slowest = 0.0
    for out_name in ("out1", "out2"):
        out_dir = tmp_path / out_name
        started = time.perf_counter()
        proc = subprocess.run(eval_args + ["--out-dir", str(out_dir)],
                              capture_output=True, text=True, timeout=60)
        slowest = max(slowest, time.perf_counter() - started)
        assert proc.returncode == 0, proc.stderr
        manifests.append((out_dir / "manifest.json").read_bytes())

    deterministic = manifests[0] == manifests[1]

    started = time.perf_counter()
    selftest_proc = subprocess.run(base + ["selftest"], capture_output=True,
                                   text=True, timeout=120)
    selftest_seconds = time.perf_counter() - started

    passed = (deterministic and slowest < 5.0
              and selftest_proc.returncode == 0 and selftest_seconds < 60.0)
    detail = (f"evaluate runs deterministic={deterministic}, slowest "
              f"{slowest:.2f}s (budget 5s); selftest exit "
              f"{selftest_proc.returncode} in {selftest_seconds:.2f}s "
              f"(budget 60s)")
    verdict(capsys, 10, "CLI end to end, deterministic manifest", passed,
            detail)


def test_selftest_prints_a_line_per_criterion_and_a_verdict(monkeypatch, capsys):
    def raises():
        raise ValueError("no fixture")

    passes = (1, "passes", lambda: (True, "fine"))
    monkeypatch.setattr(selftest, "_CRITERIA", (
        passes, (2, "fails", lambda: (False, "off by one")), (3, "raises", raises)))
    assert cli.run(["selftest"]) == 1
    out = re.sub(r" \(\d+\.\d\ds\):", ":", capsys.readouterr().out)
    assert out.splitlines() == [
        "criterion 1 [PASS] passes: fine",
        "criterion 2 [FAIL] fails: off by one",
        "criterion 3 [FAIL] raises: raised ValueError: no fixture",
        "selftest: FAIL (1/3 criteria)",
    ]
    monkeypatch.setattr(selftest, "_CRITERIA", (passes, passes))
    assert cli.run(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "selftest: PASS (2/2 criteria)"
