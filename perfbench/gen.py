"""Seeded inputs for the predgap benchmark workloads.

Every input is a pure function of ``(workload, seed)``.  Models are perfect
binary trees grown depth-first exactly like the test suite's
``perfect_tree`` (split feature, threshold, left subtree, right subtree,
leaf values ~ N(0, 1)), but built here so the benchmark never imports the
package it measures.  The program only ever sees the files written below.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

D = 8
SIZE_CYCLE = (1, 2, 4, 8)

# (trees, depth) per workload.
SHAPES = {"exact-sweep": (12, 5), "rank-eval": (10, 4), "sampler-nmae": (8, 3)}
WORKLOADS = tuple(SHAPES)

EXACT_SIGMA = 0.3
RANK_SIGMA = 0.3
EVAL_SIGMA = 1.0
BENCH_SIGMAS = (0.3, 1.0)
QMC_ITERATIONS = 10000
# The `pg2 benchmark` default iteration grid.
ITERATION_GRID = (100, 500, 1000, 2000, 4000, 6000, 8000, 10000, 15000, 20000, 25000, 30000, 35000)

# Op-stream pool sizes.  A run that outlasts its pool wraps around.
EXACT_POOL = 4096
RANK_POOL = 128
DATA_ROWS = 64
BENCH_POOL = 4096
BENCH_PAIRS = 2


def perfect_tree(rng: np.random.Generator, depth: int) -> dict:
    """One perfect tree in the canonical model JSON node format."""
    if depth == 0:
        return {"value": float(rng.normal())}
    return {
        "feature": int(rng.integers(D)),
        "threshold": float(rng.normal(0.0, 0.8)),
        "left": perfect_tree(rng, depth - 1),
        "right": perfect_tree(rng, depth - 1),
    }


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed % 2**64])


def _write_csv(path: Path, rows: np.ndarray) -> None:
    header = ",".join(f"f{j}" for j in range(D))
    body = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
    path.write_text(header + "\n" + body + "\n")


def _subset(rng: np.random.Generator, k: int) -> list[int]:
    return sorted(int(q) for q in rng.choice(D, size=k, replace=False))


def write_inputs(workload: str, seed: int, run_dir: Path) -> dict:
    """Write the model, data and op stream of one workload; return the spec.

    The spec names every file relative to ``run_dir`` and lists the op
    stream the workload process replays.  ``inputs.json`` holds it without
    the raw query rows ``X``, which only the output check needs.
    """
    rng = _rng(workload, seed)
    trees, depth = SHAPES[workload]
    model = {"num_features": D, "trees": [perfect_tree(rng, depth) for _ in range(trees)]}
    (run_dir / "model.json").write_text(json.dumps(model) + "\n")
    spec = {
        "workload": workload,
        "seed": seed,
        "model": "model.json",
        "size": {"T": trees, "depth": depth, "d": D, "L": trees * 2**depth,
                 "n": trees * (2 ** (depth + 1) - 1)},
    }

    if workload == "exact-sweep":
        X = rng.normal(size=(EXACT_POOL, D))
        _write_csv(run_dir / "queries.csv", X)
        subsets = [_subset(rng, SIZE_CYCLE[i % len(SIZE_CYCLE)]) for i in range(EXACT_POOL)]
        # One table per |S| cycle; each block of four cycles tables every class once.
        n = len(SIZE_CYCLE)
        tables = []
        for cycle in range(EXACT_POOL // n):
            if cycle % n == 0:
                perm = rng.permutation(n)
            tables.append(n * cycle + int(perm[cycle % n]))
        spec.update(data="queries.csv", X=X.tolist(), sigma=EXACT_SIGMA, subsets=subsets,
                    tables=tables, cycle=n)
        spec["size"]["queries_pool"] = EXACT_POOL
    elif workload == "rank-eval":
        rows_dir = run_dir / "rows"
        rows_dir.mkdir()
        X = rng.normal(size=(RANK_POOL, D))
        for i in range(RANK_POOL):
            _write_csv(rows_dir / f"row{i}.csv", X[i:i + 1])
        spec.update(rows=[f"rows/row{i}.csv" for i in range(RANK_POOL)], X=X.tolist(),
                    sigma=RANK_SIGMA, sigma_metric=EVAL_SIGMA)
        spec["size"].update(rows_per_invocation=1, rows_pool=RANK_POOL)
    else:
        X = rng.normal(size=(DATA_ROWS, D))
        _write_csv(run_dir / "data.csv", X)
        # Each invocation takes two pairs with |S| = k and d + 1 - k, so every
        # invocation costs about the same while a cycle of d / 2 covers 1..d.
        ops = []
        for i in range(BENCH_POOL):
            k = i % (D // 2) + 1
            sizes = [k, D + 1 - k]
            ops.append({
                "sizes": sizes,
                "seed": int(rng.integers(2**31)),
                "qmc": [{"point": int(rng.integers(DATA_ROWS)), "features": _subset(rng, n)}
                        for n in sizes],
            })
        spec.update(data="data.csv", X=X.tolist(), sigmas=list(BENCH_SIGMAS),
                    grid=list(ITERATION_GRID), qmc_iterations=QMC_ITERATIONS, ops=ops,
                    cycle=D // 2)
        spec["size"].update(rows=DATA_ROWS, pairs_per_invocation=BENCH_PAIRS,
                            grid=list(ITERATION_GRID))
    (run_dir / "inputs.json").write_text(json.dumps({k: v for k, v in spec.items() if k != "X"}))
    return spec
