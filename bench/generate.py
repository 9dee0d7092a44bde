"""Seeded input generators for the synthetic workloads.

Pure numpy and the standard library: nothing here imports evicrit, so the
program under test receives only the generated files.  Every function
draws from the ``numpy.random.Generator`` it is given, so one seed always
yields the same bytes.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

#: the catalog ids the pipeline accepts (B1..B14)
CATALOG_IDS = tuple(f"B{i}" for i in range(1, 15))
#: grade names in frame order; bit i of a subset is GRADES[i]
GRADES = ("VL", "L", "M", "H", "VH")
#: published random index for order 14, the value the bundled example uses
RI_ORDER_14 = 1.57


def alonso_lamata_ri(n: int) -> float:
    """Random index for order ``n`` from the linear fit of Alonso and Lamata
    (2006): mean random lambda_max = 2.7699 n - 4.3513."""
    return (2.7699 * n - 4.3513 - n) / (n - 1)


def noisy_reciprocal_panel(rng: np.random.Generator, n: int, experts: int,
                           sigma: float) -> np.ndarray:
    """``experts`` reciprocal n x n matrices scattered around one consistent base.

    The base is w_i / w_j for random positive weights; each upper-triangle
    entry gets log-normal noise of spread ``sigma`` and the lower triangle
    is its reciprocal, so every matrix is exactly reciprocal and the
    geometric mean of the panel is nearly consistent (0 < CR << 0.1).
    """
    w = np.exp(rng.uniform(-1.5, 1.5, size=n))
    log_base = np.log(w)[:, None] - np.log(w)[None, :]
    noise = rng.normal(0.0, sigma, size=(experts, n, n))
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    out = np.ones((experts, n, n))
    values = np.exp(log_base + noise)
    out[:, upper] = values[:, upper]
    out.transpose(0, 2, 1)[:, upper] = 1.0 / values[:, upper]
    return out


def panel_matrices_json(panel: np.ndarray, ids) -> str:
    experts = [{"id": f"e{k + 1}", "matrix": m.tolist()} for k, m in enumerate(panel)]
    return json.dumps({"indicators": list(ids), "experts": experts})


def panel_scores(rng: np.random.Generator, experts: int, ids) -> np.ndarray:
    """Half-point scores in [0, 10], one row per expert, one column per id."""
    centre = rng.uniform(0.0, 10.0, size=len(ids))
    raw = rng.normal(centre, 1.0, size=(experts, len(ids)))
    return np.round(np.clip(raw, 0.0, 10.0) * 2.0) / 2.0


def scores_csv(scores: np.ndarray, ids) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("expert_id", "indicator", "score"))
    for k, row in enumerate(scores):
        for indicator_id, value in zip(ids, row):
            writer.writerow((f"e{k + 1}", indicator_id, repr(float(value))))
    return buf.getvalue()


def priors_csv(rng: np.random.Generator, ids) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("indicator", "lambda"))
    for indicator_id, value in zip(ids, rng.uniform(0.05, 0.4, size=len(ids))):
        writer.writerow((indicator_id, f"{value:.4f}"))
    return buf.getvalue()


def dense_masses(rng: np.random.Generator, low: int = 20,
                 high: int = 31) -> dict[int, float]:
    """A mass function on ``low``..``high`` of the 31 nonempty grade subsets,
    keyed by subset bitmask, with Dirichlet(1) masses."""
    count = int(rng.integers(low, high + 1))
    bits = rng.choice(np.arange(1, 32), size=count, replace=False)
    masses = rng.dirichlet(np.ones(count))
    return {int(b): float(m) for b, m in zip(bits, masses)}


def subset_names(bits: int) -> list[str]:
    return [g for i, g in enumerate(GRADES) if bits >> i & 1]


def fixtures_json(fixtures: dict[str, dict[int, float]]) -> str:
    doc = {
        indicator_id: {
            "frame": list(GRADES),
            "masses": [{"subset": subset_names(b), "mass": m}
                       for b, m in sorted(masses.items())],
        }
        for indicator_id, masses in fixtures.items()
    }
    return json.dumps(doc, indent=1)
