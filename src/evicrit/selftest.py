"""Fixture and oracle suite, runnable via the `selftest` subcommand.

Each criterion is an independent function returning pass/fail plus detail;
the same functions back the acceptance tests.  All randomized checks use
fixed seeds, so the suite is deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ahp import PairwiseMatrix, aggregate_geometric, consistency, principal_eigenvalue
from .core import CATALOG_IDS, SLOTS, SUBSETS, Bpa, Subset, unit_normalized, vacuous
from .datasets import reference_fusion, reference_weights
from .entropy import (
    DecisionMatrix,
    adjust_weights,
    build_table,
    column_normalize,
    entropy_values,
    entropy_weights,
)
from .errors import TotalConflict
from .evidence import (
    average_bpas,
    brute_force_combine,
    conflict,
    dempster_combine,
    murphy_combine,
    rank,
)
from .fuzzy import membership
from .pipeline import windows


# --- independent dominant-eigenvalue oracle ----------------------------------

def charpoly_lambda_max(a: np.ndarray) -> float:
    """Largest real root of det(lambda I - A) for a positive matrix A.

    Independent of power iteration: evaluates the characteristic polynomial
    by LU determinant, walks down from above the row-sum bound to the first
    sign change (the dominant root is the largest real root, and the monic
    polynomial is positive above it), then bisects.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    identity = np.eye(n)

    def g(lam: float) -> float:
        return float(np.linalg.det(lam * identity - a))

    hi = float(a.sum(axis=1).max()) + 1.0
    steps = 4000
    step = hi / steps
    upper, upper_val = hi, g(hi)
    lower = None
    for i in range(1, steps + 1):
        lam = hi - step * i
        val = g(lam)
        if val == 0.0:
            return lam
        if (val < 0.0) != (upper_val < 0.0):
            lower, lower_val = lam, val
            break
        upper, upper_val = lam, val
    if lower is None:
        raise ValueError("no real root found below the row-sum bound")
    while upper - lower > 1e-10:
        mid = 0.5 * (upper + lower)
        val = g(mid)
        if val == 0.0:
            return mid
        if (val < 0.0) == (lower_val < 0.0):
            lower, lower_val = mid, val
        else:
            upper, upper_val = mid, val
    return 0.5 * (upper + lower)


# --- randomized input generators (seeded, shared by the criteria) -------------

def random_reciprocal(rng: np.random.Generator, n: int) -> PairwiseMatrix:
    m = np.ones((n, n))
    span = math.log(9.0)
    for i in range(n):
        for j in range(i + 1, n):
            v = math.exp(float(rng.uniform(-span, span)))
            m[i, j] = v
            m[j, i] = 1.0 / v
    return PairwiseMatrix(m)


def consistent_matrix(rng: np.random.Generator, n: int) -> PairwiseMatrix:
    w = np.exp(rng.uniform(-1.5, 1.5, size=n))
    m = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            v = float(w[i] / w[j])
            m[i, j] = v
            m[j, i] = 1.0 / v
    return PairwiseMatrix(m)


_NONEMPTY = SUBSETS[1:]


def random_bpa(rng: np.random.Generator, max_focal: int = 6) -> Bpa:
    count = int(rng.integers(1, max_focal + 1))
    picked = rng.choice(len(_NONEMPTY), size=count, replace=False)
    weights = rng.dirichlet(np.ones(count))
    masses = [0.0] * SLOTS
    for i, w in zip(picked.tolist(), weights.tolist()):
        masses[_NONEMPTY[i].bits] = w
    return unit_normalized(masses)


# --- criteria ------------------------------------------------------------------

def criterion_1() -> tuple[bool, str]:
    """Reference weighting table: divergence column equals 1 - entropy column."""
    table = reference_weights()
    gaps = [abs(d - (1.0 - e)) for e, d in zip(table.entropy, table.div)]
    worst = max(gaps)
    return worst <= 5e-4, f"max |d - (1 - E)| = {worst:.2e} over {len(gaps)} rows"


def criterion_2() -> tuple[bool, str]:
    """Averaging the six window rows reproduces the published average row."""
    fusion = reference_fusion()
    computed = average_bpas([b for _, b in fusion.windows])
    cells = {
        "H": Subset.from_names(["H"]),
        "VL+L": Subset.from_names(["VL", "L"]),
        "L+M": Subset.from_names(["L", "M"]),
        "M+H": Subset.from_names(["M", "H"]),
        "H+VH": Subset.from_names(["H", "VH"]),
    }
    diffs = {name: abs(computed.mass(s) - fusion.average.mass(s))
             for name, s in cells.items()}
    worst = max(diffs.values())
    detail = ", ".join(f"{k}: {v:.4f}" for k, v in diffs.items())
    return worst <= 0.005, f"per-cell |computed - published|: {detail}"


def criterion_3() -> tuple[bool, str]:
    """Published weight column ranks B8 first; adjusted column ranks B6 last."""
    table = reference_weights()
    by_weight = rank(dict(zip(table.ids, table.weights)))
    by_adjusted = rank(dict(zip(table.ids, table.adjusted)))
    ok = by_weight.top == "B8" and by_adjusted.bottom == "B6"
    return ok, (f"top by W = {by_weight.top} (want B8); "
                f"bottom by W_adj = {by_adjusted.bottom} (want B6)")


def criterion_4() -> tuple[bool, str]:
    """Window 4 / stride 2 over the catalog gives the six published groups."""
    computed = windows(CATALOG_IDS, 4, 2)
    published = tuple(ids for ids, _ in reference_fusion().windows)
    ok = computed == published and len(computed) == 6
    return ok, f"{len(computed)} windows: {['-'.join(w) for w in computed]}"


def criterion_5() -> tuple[bool, str]:
    """The published W and W_adj columns are NOT reproducible from their own
    table via the weighting equations; the fixtures must stay inconsistent."""
    table = reference_weights()
    recomputed_w = entropy_weights(np.array(table.div))
    gap_w = float(np.max(np.abs(recomputed_w - np.array(table.weights))))
    recomputed_adj = adjust_weights(np.array(table.weights),
                                    np.array(table.priors))
    gap_adj = float(np.max(np.abs(recomputed_adj - np.array(table.adjusted))))
    ok = gap_w > 0.05 and gap_adj > 0.05
    return ok, (f"recomputing W from printed d is off by up to {gap_w:.3f}; "
                f"recomputing W_adj from printed W and priors is off by up to "
                f"{gap_adj:.3f} (documented, excluded from reproduction)")


def criterion_6() -> tuple[bool, str]:
    """Membership grid: partition of unity, adjacency, Lipschitz continuity."""
    points = 10_001
    worst_sum = 0.0
    worst_step = 0.0
    eps = 10.0 / (points - 1)
    previous = None
    for i in range(points):
        x = i * eps
        v = membership(min(x, 10.0))  # guard the last rounding step
        worst_sum = max(worst_sum, abs(math.fsum(v.values) - 1.0))
        active = v.active()
        if len(active) > 2:
            return False, f"more than two grades active at x={x!r}"
        if len(active) == 2 and int(active[1][0]) - int(active[0][0]) != 1:
            return False, f"non-adjacent grades active at x={x!r}"
        if previous is not None:
            jump = max(abs(a - b) for a, b in zip(v.values, previous))
            worst_step = max(worst_step, jump)
        previous = v.values
    limit = 0.4 * eps + 1e-12
    ok = worst_sum <= 1e-12 and worst_step <= limit
    return ok, (f"{points} points: max |sum(mu) - 1| = {worst_sum:.2e}, "
                f"max per-grade step = {worst_step:.6f} (limit {limit:.6f})")


def criterion_7() -> tuple[bool, str]:
    """Combination rule against the brute-force oracle, plus algebra checks."""
    rng = np.random.default_rng(70301)
    pairs = 1000
    worst_oracle = 0.0
    worst_comm = 0.0
    total_conflicts = 0
    for _ in range(pairs):
        m1, m2 = random_bpa(rng), random_bpa(rng)
        try:
            fast = dempster_combine(m1, m2)
        except TotalConflict as fast_err:
            try:
                brute_force_combine(m1, m2)
            except TotalConflict as brute_err:
                total_conflicts += 1
                if abs(fast_err.conflict_k - brute_err.conflict_k) > 1e-12:
                    return False, "oracle disagrees on a total-conflict pair"
                continue
            return False, "only the optimized path saw total conflict"
        brute = brute_force_combine(m1, m2)
        gap = max(abs(fast.bpa.mass(s) - brute.bpa.mass(s)) for s in _NONEMPTY)
        gap = max(gap, abs(fast.conflict_k - brute.conflict_k))
        worst_oracle = max(worst_oracle, gap)
        swapped = dempster_combine(m2, m1)
        comm = max(abs(fast.bpa.mass(s) - swapped.bpa.mass(s)) for s in _NONEMPTY)
        worst_comm = max(worst_comm, comm)
    if worst_oracle > 1e-9:
        return False, f"oracle gap {worst_oracle:.2e} > 1e-9"
    if worst_comm > 1e-12:
        return False, f"commutativity gap {worst_comm:.2e} > 1e-12"

    worst_assoc = 0.0
    accepted = 0
    attempts = 0
    while accepted < 500 and attempts < 20_000:
        attempts += 1
        a, b, c = (random_bpa(rng) for _ in range(3))
        if max(conflict(a, b), conflict(a, c), conflict(b, c)) >= 0.99:
            continue
        try:
            left = dempster_combine(dempster_combine(a, b).bpa, c)
            right = dempster_combine(a, dempster_combine(b, c).bpa)
        except TotalConflict:
            continue
        accepted += 1
        gap = max(abs(left.bpa.mass(s) - right.bpa.mass(s)) for s in _NONEMPTY)
        worst_assoc = max(worst_assoc, gap)
    if accepted < 500:
        return False, f"only {accepted} associativity triples accepted"
    if worst_assoc > 1e-9:
        return False, f"associativity gap {worst_assoc:.2e} > 1e-9"

    b = random_bpa(np.random.default_rng(70302))
    with_vacuous = dempster_combine(b, vacuous())
    if with_vacuous.bpa != b or with_vacuous.conflict_k != 0.0:
        return False, "vacuous assignment is not a combination identity"

    try:
        dempster_combine(Bpa({Subset.from_names(["VL"]): 1.0}),
                         Bpa({Subset.from_names(["VH"]): 1.0}))
        return False, "disjoint singletons did not raise total conflict"
    except TotalConflict:
        pass

    rng2 = np.random.default_rng(70303)
    group = [random_bpa(rng2) for _ in range(5)]
    baseline = murphy_combine(group)
    for order in ((4, 3, 2, 1, 0), (2, 0, 4, 1, 3)):
        permuted = murphy_combine([group[i] for i in order])
        if permuted.bpa != baseline.bpa or permuted.conflict_k != baseline.conflict_k:
            return False, "averaging rule is not permutation invariant"

    return True, (f"{pairs} oracle pairs (max gap {worst_oracle:.2e}, "
                  f"{total_conflicts} total-conflict pairs matched), "
                  f"commutativity {worst_comm:.2e}, {accepted} associativity "
                  f"triples (max gap {worst_assoc:.2e}), identity and "
                  f"permutation checks exact")


def criterion_8() -> tuple[bool, str]:
    """Weighting invariances: scaling, permutation, unit sums, uniform priors."""
    rng = np.random.default_rng(80401)
    worst_scale = 0.0
    worst_perm = 0.0
    worst_sum = 0.0
    worst_prior = 0.0
    cases = 40
    for _ in range(cases):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        values = rng.uniform(0.05, 10.0, size=(m, n))
        ids = tuple(f"C{j + 1}" for j in range(n))
        d = DecisionMatrix(values, ids)
        table = build_table(d)

        scale = np.ones(n)
        scale[int(rng.integers(0, n))] = float(rng.uniform(0.5, 20.0))
        scaled_table = build_table(DecisionMatrix(values * scale, ids))
        worst_scale = max(worst_scale, max(
            abs(a - b) for a, b in zip(table.weights, scaled_table.weights)))
        worst_scale = max(worst_scale, max(
            abs(a - b) for a, b in zip(table.entropy, scaled_table.entropy)))

        perm = rng.permutation(m)
        permuted_table = build_table(DecisionMatrix(values[perm], ids))
        worst_perm = max(worst_perm, max(
            abs(a - b) for a, b in zip(table.entropy, permuted_table.entropy)))
        worst_perm = max(worst_perm, max(
            abs(a - b) for a, b in zip(table.weights, permuted_table.weights)))

        worst_sum = max(worst_sum, abs(math.fsum(table.weights) - 1.0))
        uniform_adjusted = adjust_weights(np.array(table.weights), np.ones(n))
        worst_prior = max(worst_prior, float(np.max(
            np.abs(uniform_adjusted - np.array(table.weights)))))
        adjusted = build_table(d, priors=dict(zip(ids, rng.uniform(0.1, 1.0, size=n))))
        worst_sum = max(worst_sum, abs(math.fsum(adjusted.adjusted) - 1.0))

    uniform_col = np.column_stack([np.full(5, 3.7), np.arange(1.0, 6.0)])
    e_uniform = entropy_values(column_normalize(
        DecisionMatrix(uniform_col, ("A", "B"))))
    point_col = np.zeros((4, 2))
    point_col[2, 0] = 5.0
    point_col[:, 1] = 1.0
    e_point = entropy_values(column_normalize(DecisionMatrix(point_col, ("A", "B"))))
    exact_ok = e_uniform[0] == 1.0 and e_point[0] == 0.0 and e_point[1] == 1.0

    ok = (worst_scale <= 1e-12 and worst_perm <= 1e-12 and worst_sum <= 1e-12
          and worst_prior <= 1e-12 and exact_ok)
    return ok, (f"{cases} cases: scale {worst_scale:.2e}, permutation "
                f"{worst_perm:.2e}, unit-sum {worst_sum:.2e}, uniform-prior "
                f"{worst_prior:.2e}; uniform column E = 1 and point mass "
                f"E = 0 {'exact' if exact_ok else 'VIOLATED'}")


def criterion_9() -> tuple[bool, str]:
    """Matrix suite: reciprocity, dominant-eigenvalue bound, oracle agreement."""
    rng = np.random.default_rng(90501)
    worst_recip = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 8))
        group = [random_reciprocal(rng, n) for _ in range(int(rng.integers(1, 5)))]
        merged = aggregate_geometric(group).values
        gap = float(np.max(np.abs(merged * merged.T - 1.0)))
        worst_recip = max(worst_recip, gap)
    if worst_recip > 1e-9:
        return False, f"aggregation reciprocity gap {worst_recip:.2e} > 1e-9"

    worst_deficit = 0.0
    for n in range(3, 10):
        for _ in range(100):
            lam = principal_eigenvalue(random_reciprocal(rng, n))
            worst_deficit = max(worst_deficit, n - lam)
    if worst_deficit > 1e-9:
        return False, f"lambda_max fell below n by {worst_deficit:.2e}"

    worst_cr = 0.0
    for n in (3, 5, 7, 9):
        for _ in range(5):
            report = consistency(consistent_matrix(rng, n))
            worst_cr = max(worst_cr, abs(report.cr), abs(report.ci))
            if not report.acceptable:
                return False, f"consistent {n}x{n} matrix rejected"
    if worst_cr > 1e-12:
        return False, f"consistent-matrix CR/CI reached {worst_cr:.2e} > 1e-12"

    worst_oracle = 0.0
    for n in (2, 3, 4, 5):
        for _ in range(5):
            m = random_reciprocal(rng, n)
            gap = abs(principal_eigenvalue(m) - charpoly_lambda_max(m.values))
            worst_oracle = max(worst_oracle, gap)
        gap = abs(principal_eigenvalue(consistent_matrix(rng, n))
                  - float(n))
        worst_oracle = max(worst_oracle, gap)
    ok = worst_oracle <= 1e-7
    return ok, (f"reciprocity {worst_recip:.2e}, lambda_max >= n (deficit "
                f"{worst_deficit:.2e}, 700 matrices), consistent CR "
                f"{worst_cr:.2e}, eigenvalue oracle gap {worst_oracle:.2e}")


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


_CRITERIA: tuple[tuple[int, str, Callable[[], tuple[bool, str]]], ...] = (
    (1, "reference table: d = 1 - E", criterion_1),
    (2, "published fusion average reproduced", criterion_2),
    (3, "ranking fixtures: top B8, bottom B6", criterion_3),
    (4, "six fusion windows", criterion_4),
    (5, "documented fixture inconsistency", criterion_5),
    (6, "membership grid properties", criterion_6),
    (7, "combination oracle and algebra", criterion_7),
    (8, "weighting invariances", criterion_8),
    (9, "matrix aggregation and eigenvalue oracle", criterion_9),
)


def run_criteria() -> list[CriterionResult]:
    results = []
    for number, name, fn in _CRITERIA:
        started = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as e:  # a crashed criterion is a failed criterion
            passed, detail = False, f"raised {type(e).__name__}: {e}"
        results.append(CriterionResult(number, name, passed, detail,
                                       time.perf_counter() - started))
    return results


def run_selftest() -> bool:
    """Run all criteria, print one line each to stdout, return overall success."""
    results = run_criteria()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.number} [{status}] {r.name} "
              f"({r.seconds:.2f}s): {r.detail}")
    all_passed = all(r.passed for r in results)
    print(f"selftest: {'PASS' if all_passed else 'FAIL'} "
          f"({sum(r.passed for r in results)}/{len(results)} criteria)")
    return all_passed
