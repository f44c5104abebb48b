"""Output checks that share no code with the program.

Every check recomputes its expectation from the generator's ground truth
(``corpus.Corpus`` or the raw edge array) with plain numpy and returns a
list of failure messages; an empty list means the output passed. The
PageRank semantics checked are those of the README (uniform start,
``uniform-all`` dangling redistribution, L1 stopping rule), after Langville
and Meyer, "Deeper inside PageRank" (2004).
"""
from __future__ import annotations

import csv
import filecmp
import json
import os
import sys
import traceback

import numpy as np

SUM_TOLERANCE = 1e-9
FLOW_RELATIVE_TOLERANCE = 1e-12
RANK_OUTPUTS = ("scores_d0.5.tsv", "rank_table.txt", "rank_table.csv", "summary.json")


class Ops:
    """Attempted and failed operation counts, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def attempt(self) -> None:
        self.attempted += 1

    def record(self, what: str, failures: list[str]) -> None:
        if failures:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(failures[:3])}")

    def crash(self, what: str) -> None:
        """Count the exception being handled as a failed operation."""
        text = traceback.format_exc()
        print(f"{what} raised:\n{text}", file=sys.stderr)
        self.record(what, [text.strip().splitlines()[-1]])


def dedup_edges(citing: np.ndarray, cited: np.ndarray, node_count: int):
    """Distinct non-loop (citing, cited) pairs, sorted, plus the loop count."""
    loops = citing == cited
    key = citing[~loops] * np.int64(node_count) + cited[~loops]
    key.sort()
    keep = np.ones(key.size, dtype=bool)
    keep[1:] = key[1:] != key[:-1]
    key = key[keep]
    return key // node_count, key % node_count, int(loops.sum())


def graph_counts(citing: np.ndarray, cited: np.ndarray, node_count: int) -> dict:
    src, dst, loops = dedup_edges(citing, cited, node_count)
    return {
        "edges_input": int(citing.size),
        "self_loops_dropped": loops,
        "duplicate_edges_dropped": int(citing.size) - loops - int(src.size),
        "edges_stored": int(src.size),
        "src": src,
        "dst": dst,
    }


def check_equal(what: str, got, expected) -> list[str]:
    return [] if got == expected else [f"{what}: got {got!r}, expected {expected!r}"]


def check_build_report(report: dict, expected: dict, counts: dict) -> list[str]:
    """The dataset build report (as printed by the CLI) against planted counts."""
    failures = []
    for stream in ("citations", "metadata"):
        got = report.get(stream) or {}
        for key, value in expected[stream].items():
            failures += check_equal(f"{stream}.{key}", got.get(key), value)
    for key in ("nodes", "placeholder_nodes"):
        failures += check_equal(key, report.get(key), expected[key])
    for key in ("self_loops_dropped", "duplicate_edges_dropped", "edges_stored"):
        failures += check_equal(key, report.get(key), counts[key])
    return failures


def pagerank_residual(scores: np.ndarray, src: np.ndarray, dst: np.ndarray, damping: float) -> float:
    """L1 norm of T(x) - x for one synchronous step on the deduplicated edges."""
    n = scores.size
    out_degree = np.bincount(src, minlength=n)
    share = np.zeros(n)
    linked = out_degree > 0
    share[linked] = scores[linked] / out_degree[linked]
    inflow = np.bincount(dst, weights=share[src], minlength=n)
    dangling_mass = scores[~linked].sum()
    step = (1.0 - damping) / n + damping * (inflow + dangling_mass / n)
    return float(np.abs(step - scores).sum())


def check_scores(scores, src, dst, damping: float, epsilon: float) -> list[str]:
    """Scores are a distribution and an epsilon fixed point of the PageRank map."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all() or (scores < 0).any():
        return ["scores: non-finite or negative entries"]
    failures = []
    total = float(scores.sum())
    if abs(total - 1.0) > SUM_TOLERANCE:
        failures.append(f"scores: sum {total!r} differs from 1 by more than {SUM_TOLERANCE}")
    residual = pagerank_residual(scores, src, dst, damping)
    if not residual <= epsilon:
        failures.append(f"scores: fixed-point L1 residual {residual:.3e} > epsilon {epsilon:g}")
    return failures


def top_order(scores: np.ndarray, in_degree: np.ndarray, ids: list[str], n: int) -> list[int]:
    """Indices of the top ``n`` by (score desc, in-degree desc, id asc)."""
    if n <= 0:
        return []
    k = min(n, scores.size)
    threshold = np.partition(scores, scores.size - k)[scores.size - k]
    candidates = np.flatnonzero(scores >= threshold).tolist()
    candidates.sort(key=lambda i: (-scores[i], -int(in_degree[i]), ids[i]))
    return candidates[:n]


def flow_tables(class_code, year, src, dst, scores, classes: list[str], target: int | None = None):
    """Expected inflow series for every target class (or just ``target``).

    Returns ``{target_class: {"citation-count": {...}, "pagerank-sum": {...}}}``
    with entries keyed by (source class, year), as the README defines them:
    each citing patent outside the target class counts once per target
    class, under its own class and grant year, when both are known.
    """
    n = class_code.size
    c = len(classes)
    hit = class_code[dst] >= 0
    if target is not None:
        hit &= class_code[dst] == target
    key = class_code[dst[hit]].astype(np.int64) * n + src[hit]
    key.sort()
    keep = np.ones(key.size, dtype=bool)
    keep[1:] = key[1:] != key[:-1]
    key = key[keep]
    t, u = key // n, key % n
    ok = (class_code[u] >= 0) & (year[u] > 0) & (class_code[u] != t)
    t, u = t[ok], u[ok]
    y0 = int(year[year > 0].min()) if (year > 0).any() else 0
    span = int(year.max()) - y0 + 1 if (year > 0).any() else 1
    bucket = (t * c + class_code[u]) * span + (year[u] - y0)
    size = c * c * span
    counts = np.bincount(bucket, minlength=size)
    sums = np.bincount(bucket, weights=scores[u], minlength=size)
    tables = {}
    for tc in range(c) if target is None else (target,):
        count_entries, sum_entries = {}, {}
        block = slice(tc * c * span, (tc + 1) * c * span)
        for b in np.flatnonzero(counts[block]).tolist():
            k = (classes[b // span], y0 + b % span)
            count_entries[k] = int(counts[block][b])
            sum_entries[k] = float(sums[block][b])
        tables[classes[tc]] = {"citation-count": count_entries, "pagerank-sum": sum_entries}
    return tables


def check_flow(entries: dict, expected: dict, metric: str) -> list[str]:
    """Program series entries against ``flow_tables`` output for one metric."""
    if set(entries) != set(expected):
        missing = sorted(set(expected) - set(entries))[:3]
        extra = sorted(set(entries) - set(expected))[:3]
        return [f"flow {metric}: keys differ (missing {missing}, extra {extra})"]
    if metric == "citation-count":
        bad = [k for k in expected if entries[k] != expected[k]]
    else:
        bad = [
            k for k in expected
            if abs(entries[k] - expected[k]) > FLOW_RELATIVE_TOLERANCE * abs(expected[k])
        ]
    return [f"flow {metric}: {len(bad)} entries differ, first {bad[0]}"] if bad else []


def exclusion_counts(owned: np.ndarray, src: np.ndarray, dst: np.ndarray) -> tuple[dict, np.ndarray]:
    """Removal counts per reason and the keep mask, from the owned mask."""
    cites = np.zeros(owned.size, dtype=bool)
    cites[src[owned[dst] & ~owned[src]]] = True
    cited = np.zeros(owned.size, dtype=bool)
    cited[dst[owned[src] & ~owned[dst]]] = True
    cited &= ~cites
    counts = {
        "owned": int(owned.sum()),
        "cites_owned": int(cites.sum()),
        "cited_by_owned": int(cited.sum()),
    }
    counts["excluded_total"] = counts["owned"] + counts["cites_owned"] + counts["cited_by_owned"]
    return counts, ~(owned | cites | cited)


def check_exclusion_report(report: dict, expected: dict) -> list[str]:
    return [f"exclusion {k}: got {report.get(k)!r}, expected {v!r}"
            for k, v in expected.items() if report.get(k) != v]


def restrict(keep: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """Edges among kept nodes, re-indexed in ascending old-index order."""
    remap = np.cumsum(keep) - 1
    both = keep[src] & keep[dst]
    return remap[src[both]], remap[dst[both]]


class IdIndex:
    """Maps the program's external ids back to generator node indices."""

    def __init__(self, ids: np.ndarray) -> None:
        self.ids = ids
        self.order = np.argsort(ids, kind="stable")
        self.sorted = ids[self.order]

    def lookup(self, external: np.ndarray) -> np.ndarray | None:
        """Generator index per external id, or None if any id is unknown."""
        pos = np.searchsorted(self.sorted, external)
        pos = np.minimum(pos, self.sorted.size - 1)
        if not np.array_equal(self.sorted[pos], external):
            return None
        return self.order[pos]


def build_report_line(stderr_text: str) -> dict:
    """The JSON build report the CLI prints on stderr ({} if absent)."""
    for line in stderr_text.splitlines():
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                continue
    return {}


def check_rank_outputs(out_dir: str, stderr_text: str, truth, expected: dict, counts: dict,
                       damping: float = 0.5, epsilon: float = 1e-6, top: int = 20) -> list[str]:
    """Everything one default ``patentflow rank`` run printed and wrote."""
    failures = check_build_report(build_report_line(stderr_text), expected, counts)
    n = truth.node_count
    with open(os.path.join(out_dir, f"scores_d{damping:g}.tsv"), encoding="utf-8") as f:
        rows = [line.split("\t") for line in f.read().splitlines()]
    if len(rows) != n or any(len(r) != 3 for r in rows):
        return failures + [f"scores TSV: expected {n} rows of 3 fields"]
    if [int(r[0]) for r in rows] != list(range(n)):
        failures.append("scores TSV: node_index column is not 0..n-1")
    ids = [r[1] for r in rows]
    scores = np.array([float(r[2]) for r in rows])
    pos = IdIndex(truth.ids).lookup(np.array(ids).astype(np.int64))
    if pos is None or not np.array_equal(np.sort(pos), np.arange(n)):
        return failures + ["scores TSV: ids differ from the generated ids"]
    mine = np.empty(n)
    mine[pos] = scores
    failures += check_scores(mine, counts["src"], counts["dst"], damping, epsilon)

    in_degree = np.bincount(counts["dst"], minlength=n)[pos]
    class_names = truth.class_names[pos]
    with open(os.path.join(out_dir, "rank_table.csv"), encoding="utf-8") as f:
        table = list(csv.reader(f))[1:]
    order = top_order(scores, in_degree, ids, top)
    if len(table) != len(order):
        return failures + [f"rank table: {len(table)} rows, expected {len(order)}"]
    for rank, (row, i) in enumerate(zip(table, order), start=1):
        want = [str(rank), ids[i], class_names[i], str(in_degree[i]), f"{scores[i]:.17g}"]
        if row != want:
            failures.append(f"rank table row {rank}: {row} != {want}")
            break

    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as f:
        summary = json.load(f)
    failures += check_equal("summary.nodes", summary.get("nodes"), n)
    failures += check_equal("summary.edges", summary.get("edges"), counts["edges_stored"])
    failures += check_equal("summary.converged", summary.get("converged"), True)
    return failures


def check_same_rank_outputs(code: int, out_dir: str, first_dir: str) -> list[str]:
    """A repeated ``rank`` run must exit 0 and rewrite the first run's files byte for byte."""
    if code != 0:
        return [f"exit code {code}"]
    differ = [f for f in RANK_OUTPUTS
              if not filecmp.cmp(os.path.join(out_dir, f), os.path.join(first_dir, f), shallow=False)]
    return [f"{', '.join(differ)} differ from the first run"] if differ else []
