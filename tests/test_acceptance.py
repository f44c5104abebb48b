"""Acceptance suite: one test per criterion, one PASS line each (run -s).

Criteria 1-9 gate the build. Criterion 10 needs a real USPTO corpus and
only runs when PATENTFLOW_USPTO_DIR points at citations.tsv/patents.tsv.
"""
import csv
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from patentflow import (
    ClassFlowSeries,
    PageRankParams,
    build_graph,
    class_inflow_series,
    crossover_year,
    pagerank,
    top_table,
)
from patentflow.cli import main
from conftest import random_dataset
from dense_oracle import dense_pagerank, random_citation_edges, random_graph
from test_trends import _series_via_breakdowns

SWEEP = (0.01, 0.15, 0.50, 0.85, 0.99)
CROSSOVER_YEAR = 2004

SPEC_5000 = {
    "node_count": 5000,
    "classes": [["347", 0.15], ["400", 0.2], ["358", 0.2], ["435", 0.25], ["999", 0.2]],
    "year_range": [1995, 2010],
    "assignees": [["canoncorp", 0.3], ["alpha", 0.4], ["beta", 0.3]],
    "edge_model": {"out_degree_mean": 4.0},
    "planted_crossover": {
        "target_class": "347",
        "source_class_a": "400",
        "source_class_b": "358",
        "crossover_year": CROSSOVER_YEAR,
    },
    "dominant_assignee": "canoncorp",
}


def _ok(num: int, text: str) -> None:
    print(f"\n[acceptance {num}] PASS: {text}")


@pytest.fixture(scope="module")
def synthetic_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance_data")
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps(SPEC_5000), encoding="utf-8")
    out = tmp / "data"
    assert main(["gen", "--spec", str(spec_path), "--seed", "42", "--out", str(out)]) == 0
    return out


def _dataset_args(data_dir):
    return [
        "--citations", str(data_dir / "citations.tsv"),
        "--patents", str(data_dir / "patents.tsv"),
    ]


def _series_from_csv(path: Path) -> dict[str, ClassFlowSeries]:
    """Independent re-parse of a flow CSV into one series per metric."""
    per_metric: dict[str, dict] = {}
    target = None
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        for row in reader:
            target = row["target_class"]
            value = (
                int(row["value"])
                if row["metric"] == "citation-count"
                else float(row["value"])
            )
            per_metric.setdefault(row["metric"], {})[
                (row["source_class"], int(row["year"]))
            ] = value
    return {
        metric: ClassFlowSeries(target_class=target, metric=metric, entries=entries)
        for metric, entries in per_metric.items()
    }


def test_criterion_1_oracle_equivalence_and_3_mass_conservation():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for case in range(50):
        n = int(rng.integers(5, 201))
        m = int(rng.integers(max(2, n // 2), 6 * n))
        g = random_graph(n, m, seed=case)
        assert g.dangling_nodes.size >= 1
        for d in SWEEP:
            params = PageRankParams(damping=d, epsilon=1e-12, max_iterations=20000)
            r = pagerank(g, params)
            assert r.converged
            oracle = dense_pagerank(g, params)
            assert np.abs(r.scores - oracle).max() < 1e-9
            assert abs(r.scores.sum() - 1.0) <= 1e-9
            assert (r.scores >= 0).all()
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _ok(1, f"sparse engine matches dense oracle within 1e-9 on {checked} runs "
           f"(50 graphs x 5 damping values) in {elapsed:.1f}s")
    _ok(3, "mass conserved within 1e-9 at convergence on every run above")


def test_criterion_2_closed_form_two_node_fixture():
    g = build_graph([(0, 1)], 2)
    for d in SWEEP:
        r = pagerank(g, PageRankParams(damping=d, epsilon=1e-13, max_iterations=20000))
        assert abs(r.scores[0] - 1.0 / (2.0 + d)) < 1e-9
        assert abs(r.scores[1] - (1.0 + d) / (2.0 + d)) < 1e-9
    r = pagerank(g, PageRankParams(damping=0.5, epsilon=1e-13, max_iterations=20000))
    assert abs(r.scores[0] - 0.4) < 1e-9 and abs(r.scores[1] - 0.6) < 1e-9
    _ok(2, "two-node fixture gives (0.4, 0.6) at d=0.5 and P(A)=1/(2+d) for all five d")


def test_criterion_3_uniform_at_zero_damping():
    for seed in range(5):
        n = 20 + 13 * seed
        g = random_graph(n, 4 * n, seed=seed)
        r = pagerank(g, PageRankParams(damping=0.0))
        assert np.array_equal(r.scores, np.full(n, 1.0 / n))
    _ok(3, "d=0 yields the exact uniform vector 1/N on every test graph")


def test_criterion_4_convergence_rule():
    g = random_graph(150, 700, seed=99)
    r = pagerank(g, PageRankParams(damping=0.5))
    assert r.params.epsilon == 1e-6
    assert r.converged and r.final_delta < 1e-6
    for seed in range(20):
        rng = np.random.default_rng(seed + 7000)
        n = int(rng.integers(30, 200))
        g = random_graph(n, int(rng.integers(n, 6 * n)), seed=seed)
        iters = [pagerank(g, PageRankParams(damping=d)).iterations for d in SWEEP]
        assert iters == sorted(iters), f"seed {seed}: {iters}"
    _ok(4, "default halting at L1 delta < 1e-6; iteration count non-decreasing "
           "in d over the five sweep values on 20 seeded graphs")


def test_criterion_5_trend_pipeline_recovers_crossover(synthetic_dir, tmp_path):
    started = time.perf_counter()
    out = tmp_path / "flow"
    assert main(["flow", *_dataset_args(synthetic_dir), "--target-class", "347",
                 "--damping", "0.5", "--out", str(out)]) == 0
    series = _series_from_csv(out / "flow_347.csv")
    assert set(series) == {"citation-count", "pagerank-sum"}
    for metric in ("citation-count", "pagerank-sum"):
        year = crossover_year(series[metric], "400", "358")
        assert year == CROSSOVER_YEAR, f"{metric}: got {year}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"flow pipeline took {elapsed:.1f}s"
    _ok(5, f"flow + crossover detection recover year {CROSSOVER_YEAR} exactly for "
           f"both metrics on the 5000-node planted dataset in {elapsed:.1f}s")


def test_criterion_6_exclusion_robustness(synthetic_dir, tmp_path):
    out_excluded = tmp_path / "excluded"
    assert main(["exclude-flow", *_dataset_args(synthetic_dir),
                 "--target-class", "347", "--exclude-assignee", "canoncorp",
                 "--damping", "0.5", "--out", str(out_excluded)]) == 0
    report = json.loads((out_excluded / "exclusion_report.json").read_text())
    assert report["owned"] > 0
    series = _series_from_csv(out_excluded / "flow_347.csv")
    for metric in ("citation-count", "pagerank-sum"):
        year = crossover_year(series[metric], "400", "358")
        assert year == CROSSOVER_YEAR, f"excluded {metric}: got {year}"

    out_flow = tmp_path / "plain"
    out_null = tmp_path / "null"
    assert main(["flow", *_dataset_args(synthetic_dir), "--target-class", "347",
                 "--damping", "0.5", "--out", str(out_flow)]) == 0
    assert main(["exclude-flow", *_dataset_args(synthetic_dir),
                 "--target-class", "347", "--exclude-assignee", "nosuchco",
                 "--damping", "0.5", "--out", str(out_null)]) == 0
    plain = (out_flow / "flow_347.csv").read_bytes()
    null = (out_null / "flow_347.csv").read_bytes()
    assert plain == null
    _ok(6, f"crossover year {CROSSOVER_YEAR} survives exclusion of the dominant "
           "assignee; null-assignee exclusion is byte-identical to plain flow")


def test_criterion_7_aggregation_consistency():
    for seed in range(20):
        ds = random_dataset(seed + 300, n=140, edge_factor=3.5)
        result = pagerank(ds.graph, PageRankParams(damping=0.5, epsilon=1e-10))
        for target in ("100", "300"):
            counts = class_inflow_series(ds, result, target, "citation-count")
            assert counts.entries == _series_via_breakdowns(
                ds, result, target, "citation-count"
            )
            sums = class_inflow_series(ds, result, target, "pagerank-sum")
            expected = _series_via_breakdowns(ds, result, target, "pagerank-sum")
            assert set(sums.entries) == set(expected)
            for key, value in sums.entries.items():
                assert abs(value - expected[key]) <= 1e-12
    _ok(7, "per-patent breakdowns summed over each class reproduce the class "
           "series on 20 random datasets (counts exact, sums within 1e-12)")


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_cli_byte_determinism(synthetic_dir, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_5000), encoding="utf-8")
    base = _dataset_args(synthetic_dir)
    patent_id = (
        (synthetic_dir / "patents.tsv").read_text().splitlines()[0].split("\t")[0]
    )
    commands = {
        "rank": lambda threads: ["rank", *base, "--damping", "0.5", "--top", "20",
                                 "--threads", str(threads)],
        "sweep": lambda threads: ["sweep", *base, "--threads", str(threads)],
        "flow": lambda threads: ["flow", *base, "--target-class", "347",
                                 "--threads", str(threads)],
        "exclude-flow": lambda threads: ["exclude-flow", *base, "--target-class", "347",
                                         "--exclude-assignee", "canoncorp",
                                         "--threads", str(threads)],
        "patent": lambda threads: ["patent", *base, patent_id,
                                   "--threads", str(threads)],
        "gen": lambda threads: ["gen", "--spec", str(spec_path), "--seed", "42"],
    }
    for name, argv in commands.items():
        runs = []
        for tag, threads in (("a", 1), ("b", 7)):
            out = tmp_path / f"{name}_{tag}"
            assert main([*argv(threads), "--out", str(out)]) == 0
            runs.append(_tree_bytes(out))
        assert runs[0].keys() == runs[1].keys(), name
        for rel in runs[0]:
            assert runs[0][rel] == runs[1][rel], f"{name}: {rel} differs"
    _ok(8, "all six CLI commands byte-identical across repeat runs with "
           "--threads 1 vs 7")


def test_criterion_9_million_node_performance_budget():
    started = time.perf_counter()
    edges = random_citation_edges(1_000_000, 10_000_000, seed=1)
    g = build_graph(edges, 1_000_000)
    assert g.edge_count > 9_000_000
    assert g.dangling_nodes.size > 0
    r = pagerank(g, PageRankParams(damping=0.5, epsilon=1e-6))
    elapsed = time.perf_counter() - started
    assert r.converged
    assert abs(r.scores.sum() - 1.0) <= 1e-9
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _ok(9, f"1M nodes / {g.edge_count:,} edges built and ranked (d=0.5, eps=1e-6, "
           f"{r.iterations} iterations) in {elapsed:.1f}s < 300s")


USPTO_DIR = os.environ.get("PATENTFLOW_USPTO_DIR")


@pytest.mark.skipif(
    not USPTO_DIR, reason="set PATENTFLOW_USPTO_DIR to a directory with "
    "citations.tsv and patents.tsv to run the corpus integration check"
)
def test_criterion_10_uspto_corpus_integration():
    from patentflow import load_dataset

    root = Path(USPTO_DIR)
    ds = load_dataset(root / "citations.tsv", root / "patents.tsv")
    result = pagerank(ds.graph, PageRankParams(damping=0.5))
    table = top_table(ds, [result], 20, 0.5)
    ids = [row.patent_id for row in table.rows]
    assert "4683195" in ids and "4683202" in ids
    first = ids.index("4683195")
    second = ids.index("4683202")
    assert first < second
    assert table.rows[first].ncit < table.rows[second].ncit
    _ok(10, "corpus top-20 contains 4683195 ranked above 4683202 despite fewer citations")
