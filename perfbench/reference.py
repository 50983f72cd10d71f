"""Independent reference computations and the per-op output check.

The reference engine works on leaf boxes: each leaf is the half-open box
``[lo, hi)`` its root path confines x to.  A leaf is alive when its box
holds x on every unperturbed feature, and the probability that two alive
leaves fire together is the product, over the perturbed features, of the
noise mass on the intersection of their boxes.  With leaf values shifted
per tree by the leaf x reaches, PG2 = y' P y over the alive leaves.  This
shares no code with the package's recursive traversal, so a defect in one
shows as a mismatch against the other.

Samplers are replayed draw for draw (same seeds, same Halton points), so
their estimates are compared at the same tolerance.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import erf, ndtri

# Values agree to this share of the magnitude sum |y|' P |y| ...
REL_TOL = 1e-9
# ... plus an absolute floor: each interval probability is a difference of
# two CDF values near 1, so it carries an absolute rounding error of a few
# 1e-16.  Per query the floor is CDF_FLOOR * |S| * (sum of |y| over alive
# leaves)^2, which only matters for values far below the magnitude sum.
CDF_FLOOR = 1e-15
# `pg2` prints nine significant digits.
PRINT_TOL = 1e-8
# NMAE entries at larger iteration counts are checked for shape only;
# every count up to this one is replayed draw for draw.
REPLAY_MAX_ITERATIONS = 2000


class Forest:
    """A canonical-JSON model as flat arrays plus per-leaf boxes."""

    def __init__(self, model: dict):
        self.d = d = model["num_features"]
        self.trees = []
        lo, hi, value, tree_of = [], [], [], []
        for t, root in enumerate(model["trees"]):
            feat, thr, left, right, val = [], [], [], [], []
            stack = [(root, -1, False, np.full(d, -np.inf), np.full(d, np.inf))]
            while stack:
                node, parent, is_right, blo, bhi = stack.pop()
                i = len(feat)
                if parent >= 0:
                    (right if is_right else left)[parent] = i
                left.append(-1)
                right.append(-1)
                if "value" in node:
                    feat.append(-1)
                    thr.append(0.0)
                    val.append(node["value"])
                    lo.append(blo)
                    hi.append(bhi)
                    value.append(node["value"])
                    tree_of.append(t)
                    continue
                q, cut = node["feature"], node["threshold"]
                feat.append(q)
                thr.append(cut)
                val.append(0.0)
                rlo, lhi = blo.copy(), bhi.copy()
                lhi[q] = min(bhi[q], cut)
                rlo[q] = max(blo[q], cut)
                stack.append((node["right"], i, True, rlo, bhi))
                stack.append((node["left"], i, False, blo, lhi))
            self.trees.append(tuple(np.asarray(a) for a in (feat, thr, left, right, val)))
        self.lo, self.hi = np.array(lo), np.array(hi)
        self.value = np.array(value)
        self.tree_of = np.array(tree_of)

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros(len(X))
        rows = np.arange(len(X))
        for feat, thr, left, right, val in self.trees:
            idx = np.zeros(len(X), dtype=np.int64)
            while (feat[idx] >= 0).any():
                f = feat[idx]
                go_left = X[rows, np.maximum(f, 0)] < thr[idx]
                idx = np.where(f >= 0, np.where(go_left, left[idx], right[idx]), idx)
            out += val[idx]
        return out

    def pair_probs(self, x, features, sigma):
        """Alive leaf indices and their joint firing probabilities."""
        S = sorted(set(int(q) for q in features))
        rest = [q for q in range(self.d) if q not in S]
        alive = np.flatnonzero(
            np.all((self.lo[:, rest] <= x[rest]) & (x[rest] < self.hi[:, rest]), axis=1)
        )
        lo, hi = self.lo[alive][:, S], self.hi[alive][:, S]
        a = np.maximum(lo[:, None, :], lo[None, :, :]) - x[S]
        b = np.minimum(hi[:, None, :], hi[None, :, :]) - x[S]
        scale = sigma * math.sqrt(2.0)
        F = np.where(b > a, 0.5 * (erf(b / scale) - erf(a / scale)), 0.0)
        return alive, np.prod(F, axis=2)

    def _quadratic(self, weights, x, features, sigma):
        """w' P w over the alive leaves, with the tolerance a result may deviate by."""
        alive, P = self.pair_probs(x, features, sigma)
        w = np.abs(weights[alive])
        value = float(weights[alive] @ P @ weights[alive])
        tol = REL_TOL * max(abs(value), float(w @ P @ w))
        tol += CDF_FLOOR * len(set(features)) * float(w.sum()) ** 2
        return value, tol, alive, P

    def pg2(self, x, features, sigma):
        """(PG2, tolerance) for one query."""
        if not features:
            return 0.0, 0.0
        reached = np.all((self.lo <= x) & (x < self.hi), axis=1)
        shift = np.zeros(len(self.trees))
        shift[self.tree_of[reached]] = self.value[reached]
        value, tol, _, _ = self._quadratic(self.value - shift[self.tree_of], x, features, sigma)
        return value, tol

    def table_summary(self, x, features, sigma):
        """Per-tree leaf probability sums, and E[f(x')^2] with its tolerance."""
        second, tol, alive, P = self._quadratic(self.value, x, features, sigma)
        sums = np.bincount(self.tree_of[alive], weights=np.diag(P), minlength=len(self.trees))
        return sums, second, tol

    def sampled(self, x, features, sigma, method, iterations, seed):
        feats = sorted(set(int(q) for q in features))
        X = np.tile(x, (iterations, 1))
        if method == "mc":
            rng = np.random.default_rng(seed)
            for q in feats:
                X[:, q] += rng.normal(0.0, sigma, size=iterations)
        else:
            U = halton(iterations, len(feats))
            for j, q in enumerate(feats):
                X[:, q] += sigma * ndtri(U[:, j])
        c = float(self.predict(x[None, :])[0])
        gaps = self.predict(X) - c
        return float(np.mean(gaps * gaps))


def _primes(count):
    primes, n = [], 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


def halton(count, dim):
    """Unscrambled Halton points for indices 1..count."""
    out = np.empty((count, dim))
    for j, base in enumerate(_primes(dim)):
        work = np.arange(1, count + 1, dtype=np.int64)
        inv = np.zeros(count)
        scale = 1.0 / base
        while work.any():
            inv += (work % base) * scale
            work //= base
            scale /= base
        out[:, j] = inv
    return out


def derived_seed(*parts):
    """The per-(sigma, iterations, repetition, pair) MC seed of `pg2 benchmark`."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _close(got, want, tol):
    return math.isfinite(got) and abs(got - want) <= tol


def _parse_line(text):
    return float(text.strip())


class Checker:
    """Checks every op record of one run against the reference and goldens."""

    def __init__(self, spec, model, golden=None):
        self.spec = spec
        self.forest = Forest(model)
        self.golden = golden or {}
        self.notes: list[str] = []
        self.rankings: dict[int, list[int]] = {}

    def check(self, record) -> str | None:
        """Return why the record is wrong, or None when it is right."""
        if record["error"]:
            return record["error"].strip().splitlines()[-1]
        kind, i = record["kind"], record["i"]
        golden = self.golden.get(kind, {}).get(str(i))
        return getattr(self, "_" + kind)(i, record["out"], golden)

    def _exact(self, i, out, golden):
        spec = self.spec
        q = i % len(spec["subsets"])
        x = np.array(spec["X"][q])
        want, tol = self.forest.pg2(x, spec["subsets"][q], spec["sigma"])
        if not _close(out, want, tol):
            return f"pg2_exact {out!r} vs reference {want!r}"
        if golden is not None and not _close(out, golden, tol):
            return f"pg2_exact {out!r} vs golden {golden!r}"
        return None

    def _table(self, i, out, golden):
        spec = self.spec
        q = i % len(spec["subsets"])
        x = np.array(spec["X"][q])
        sums, second, tol = self.forest.table_summary(x, spec["subsets"][q], spec["sigma"])
        leaves = len(self.forest.value)
        if out["pairs"] != leaves * leaves:
            return f"table has {out['pairs']} pairs, expected {leaves * leaves}"
        for got, want in zip(out["tree_sums"], golden if golden is not None else sums):
            if not _close(got, want, REL_TOL):
                return f"table tree sums {out['tree_sums']} vs {list(golden or sums)}"
        if not _close(out["second_moment"], second, tol):
            return f"table second moment {out['second_moment']!r} vs reference {second!r}"
        return None

    def _rank(self, i, out, golden):
        spec = self.spec
        x = np.array(spec["X"][i % len(spec["X"])])
        order = [int(v) for v in out.strip().split(",")]
        if sorted(order) != list(range(self.forest.d)):
            return f"ranking {out.strip()!r} is not a permutation"
        chosen = []
        for step, pick in enumerate(order):
            remaining = [j for j in range(self.forest.d) if j not in chosen]
            vals = {j: self.forest.pg2(x, chosen + [j], spec["sigma"]) for j in remaining}
            best = max(remaining, key=lambda j: (vals[j][0], -j))
            tol = max(t for _, t in vals.values())
            if vals[pick][0] < vals[best][0] - tol:
                return f"row {i} step {step}: picked {pick}, reference picks {best}"
            if pick != best:
                self.notes.append(f"rank row {i} step {step}: near-tie, picked {pick}, "
                                  f"reference {best} (gap {vals[best][0] - vals[pick][0]:.3g})")
            chosen.append(pick)
        self.rankings[i] = order
        if golden is not None and out != golden:
            tie = any(n.startswith(f"rank row {i} ") for n in self.notes)
            return (f"row {i}: ranking {out.strip()!r} vs golden {golden.strip()!r}"
                    + (" (near-tie flip)" if tie else ""))
        return None

    def _eval(self, i, out, golden):
        spec = self.spec
        x = np.array(spec["X"][i % len(spec["X"])])
        order = self.rankings.get(i)
        if order is None:
            return "eval ran without a checked ranking"
        vals = [self.forest.pg2(x, order[:k], spec["sigma_metric"]) for k in range(1, len(order) + 1)]
        want = sum(v for v, _ in vals) / len(vals)
        tol = sum(t for _, t in vals) / len(vals) + PRINT_TOL * abs(want)
        got = _parse_line(out)
        if not _close(got, want, tol):
            return f"row {i}: PGI2 {got!r} vs reference {want!r}"
        if golden is not None and not _close(got, _parse_line(golden), tol):
            return f"row {i}: PGI2 {out.strip()!r} vs golden {golden.strip()!r}"
        return None

    def _bench(self, i, out, golden):
        spec = self.spec
        op = spec["ops"][i % len(spec["ops"])]
        X = np.array(spec["X"])
        # The pairs `pg2 benchmark` samples: row, then subset, per pair.
        rng = np.random.default_rng(op["seed"])
        pairs = []
        for size in op["sizes"]:
            x = X[int(rng.integers(len(X)))]
            pairs.append((x, sorted(int(q) for q in rng.choice(self.forest.d, size=size, replace=False))))
        expected = []
        for s, sigma in enumerate(spec["sigmas"]):
            truths = [self.forest.pg2(x, subset, sigma) for x, subset in pairs]
            denom = sum(abs(t) for t, _ in truths)
            if denom == 0.0:
                continue
            scale = sum(tol for _, tol in truths) / denom
            for n in spec["grid"]:
                for method in ("mc", "qmc"):
                    want = None
                    if n <= REPLAY_MAX_ITERATIONS:
                        errors = [
                            abs(t - self.forest.sampled(x, subset, sigma, method, n,
                                                        derived_seed(op["seed"], s, n, 0, p)))
                            for p, ((x, subset), (t, _)) in enumerate(zip(pairs, truths))
                        ]
                        want = sum(errors) / denom
                    expected.append((method, n, sigma, want, scale))
        if len(out) != len(expected) or (golden is not None and len(golden) != len(out)):
            return f"report has {len(out)} entries, expected {len(expected)}"
        for k, (entry, (method, n, sigma, want, scale)) in enumerate(zip(out, expected)):
            if (entry["method"], entry["iterations"], entry["sigma"]) != (method, n, sigma):
                return f"report entry {entry} out of order"
            got = entry["nmae"]
            if not (math.isfinite(got) and got >= 0.0):
                return f"report entry {entry} has an invalid NMAE"
            tol = scale * (1.0 + got)
            if want is not None and abs(got - want) > tol:
                return f"{method}@{n} sigma={sigma}: NMAE {got!r} vs reference {want!r}"
            if golden is not None and abs(got - golden[k]) > tol:
                return f"{method}@{n} sigma={sigma}: NMAE {got!r} vs golden {golden[k]!r}"
        return None

    def _qmc(self, i, out, golden):
        spec = self.spec
        query = spec["ops"][i // 2 % len(spec["ops"])]["qmc"][i % 2]
        x = np.array(spec["X"][query["point"]])
        want = self.forest.sampled(x, query["features"], spec["sigmas"][0], "qmc",
                                   spec["qmc_iterations"], 0)
        got = _parse_line(out)
        if not _close(got, want, PRINT_TOL * abs(want)):
            return f"pg2 --method qmc printed {out.strip()!r}, reference {want!r}"
        if golden is not None and not _close(got, _parse_line(golden), PRINT_TOL * abs(want)):
            return f"pg2 --method qmc printed {out.strip()!r}, golden {golden.strip()!r}"
        return None


def check_records(spec, model, records, golden=None):
    """Check records in order; return (failures, notes) with failures keyed by record index."""
    checker = Checker(spec, model, golden)
    failures = {}
    for n, record in enumerate(records):
        why = checker.check(record)
        if why is not None:
            failures[n] = f"{record['kind']} op {record['i']}: {why}"
    return failures, checker.notes


def load_golden(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None
