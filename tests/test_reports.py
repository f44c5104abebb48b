import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patentflow import (
    PageRankParams,
    PageRankResult,
    PatentFlowError,
    RankRow,
    RankTable,
    generate_synthetic_dataset,
    pagerank,
    pagerank_sweep,
    render_rank_table,
    top_table,
    write_rank_csv,
    write_scores_tsv,
    SyntheticSpec,
)
from conftest import make_dataset


def _dataset():
    return make_dataset(
        [("a", "c"), ("b", "c"), ("c", "d"), ("a", "d"), ("b", "d")],
        [
            ("a", "100", 2000, ""),
            ("b", "100", 2001, ""),
            ("c", "200", 1995, ""),
            ("d", "300", 1990, ""),
        ],
    )


def test_empty_table():
    ds = _dataset()
    results = [pagerank(ds.graph, PageRankParams(damping=0.5))]
    table = top_table(ds, results, 0, 0.5)
    assert table.rows == ()


def test_principal_damping_must_be_present():
    ds = _dataset()
    results = [pagerank(ds.graph, PageRankParams(damping=0.5))]
    with pytest.raises(PatentFlowError):
        top_table(ds, results, 5, 0.85)


def test_tie_break_by_ncit_then_id():
    # equal scores at d=0; b has more citations than a; c and d tie on
    # everything except their ids
    ds = make_dataset(
        [("x", "b"), ("y", "b"), ("x", "a"), ("x", "c"), ("y", "d")],
        [
            ("a", "100", 2000, ""),
            ("b", "100", 2001, ""),
            ("c", "200", 1995, ""),
            ("d", "300", 1990, ""),
            ("x", "400", 2002, ""),
            ("y", "400", 2003, ""),
        ],
    )
    results = [pagerank(ds.graph, PageRankParams(damping=0.0))]
    table = top_table(ds, results, 6, 0.0)
    assert [row.patent_id for row in table.rows] == ["b", "a", "c", "d", "x", "y"]
    assert [row.ncit for row in table.rows] == [2, 1, 1, 1, 0, 0]


def test_damping_zero_scaled_scores_equal():
    ds = _dataset()
    results = [pagerank(ds.graph, PageRankParams(damping=0.0))]
    table = top_table(ds, results, 4, 0.0)
    scaled = {table.scaled(row, 0.0) for row in table.rows}
    assert len(scaled) == 1


def test_scaled_rounds_half_to_even():
    row = RankRow(1, "p", "100", 0, {0.5: 2.5e-08})
    table = RankTable((row,), (0.5,))
    assert table.scaled(row, 0.5) == 2
    row2 = RankRow(1, "p", "100", 0, {0.5: 1.55e-07})
    assert table.scaled(row2, 0.5) == 16


def test_table_matches_external_sort_of_score_tsv(tmp_path):
    spec = SyntheticSpec(
        node_count=200,
        classes=(("100", 0.4), ("200", 0.3), ("300", 0.3)),
        year_range=(1998, 2005),
        assignees=(("x", 0.5), ("y", 0.5)),
    )
    ds = generate_synthetic_dataset(spec, seed=3)
    results = pagerank_sweep(ds.graph, [0.5], epsilon=1e-12)
    table = top_table(ds, results, 20, 0.5)

    # oracle: parse the exported TSV and sort it independently
    path = tmp_path / "scores.tsv"
    write_scores_tsv(ds.index_to_id, results[0].scores, path)
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        idx_text, pid, score_text = line.split("\t")
        rows.append((-float(score_text), -ds.graph.in_degree(int(idx_text)), pid))
    rows.sort()
    expected_ids = [pid for _, _, pid in rows[:20]]
    assert [row.patent_id for row in table.rows] == expected_ids


def test_render_and_csv(tmp_path):
    ds = _dataset()
    results = pagerank_sweep(ds.graph, [0.5, 0.85], epsilon=1e-12)
    table = top_table(ds, results, 3, 0.5)
    text = render_rank_table(table)
    lines = text.splitlines()
    assert lines[0].split() == ["RANK", "PATENT", "CLASS", "NCIT", "PR*1E8[d=0.5]", "PR*1E8[d=0.85]"]
    assert len(lines) == 4

    path = tmp_path / "table.csv"
    write_rank_csv(table, path)
    with open(path, newline="") as f:
        parsed = list(csv.reader(f))
    assert parsed[0] == ["rank", "patent_id", "class", "ncit", "score_d0.5", "score_d0.85"]
    assert len(parsed) == 4
    # full precision round-trips
    top = table.rows[0]
    assert float(parsed[1][4]) == top.scores[0.5]


def test_ncit_equals_in_degree():
    ds = _dataset()
    results = [pagerank(ds.graph, PageRankParams(damping=0.5))]
    table = top_table(ds, results, 4, 0.5)
    for row in table.rows:
        idx = ds.index_of(row.patent_id)
        assert row.ncit == ds.graph.in_degree(idx)


def _full_sort_top_table(dataset, results, n, principal_d):
    """The sort-every-node ``top_table``, kept as the oracle for the partition version."""
    damping_values = tuple(r.params.damping for r in results)
    principal = None
    for r in results:
        if r.params.damping == principal_d:
            principal = r
            break
    if principal is None:
        raise PatentFlowError(
            f"principal damping {principal_d} not among computed values {damping_values}"
        )
    scores = principal.scores
    in_degrees = dataset.graph.in_degrees
    ids = dataset.index_to_id
    order = sorted(
        range(dataset.node_count),
        key=lambda i: (-scores[i], -int(in_degrees[i]), ids[i]),
    )
    rows = []
    for rank, i in enumerate(order[: max(int(n), 0)], start=1):
        rows.append(
            RankRow(
                rank=rank,
                patent_id=ids[i],
                primary_class=dataset.meta_of(i).primary_class,
                ncit=int(in_degrees[i]),
                scores={r.params.damping: float(r.scores[i]) for r in results},
            )
        )
    return RankTable(rows=tuple(rows), damping_values=damping_values)


def _result(scores, damping):
    return PageRankResult(
        scores=np.asarray(scores, dtype=np.float64),
        iterations=1,
        final_delta=0.0,
        converged=True,
        params=PageRankParams(damping=damping),
    )


@st.composite
def tied_rankings(draw):
    """A dataset whose scores take few distinct values, so ties cross the top-n boundary."""
    n_nodes = draw(st.integers(0, 25))
    ids = [f"p{k:02d}" for k in draw(st.permutations(range(n_nodes)))]
    node = st.sampled_from(ids) if ids else st.nothing()
    edges = draw(st.lists(st.tuples(node, node), max_size=60)) if ids else []
    ds = make_dataset(edges, [(pid, "100", 2000, "") for pid in ids])
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    principal = draw(st.lists(st.sampled_from(levels), min_size=n_nodes, max_size=n_nodes))
    other = draw(st.lists(st.floats(0.0, 1.0), min_size=n_nodes, max_size=n_nodes))
    top = draw(st.sampled_from([0, 1, n_nodes, n_nodes + 3]) | st.integers(-2, n_nodes + 2))
    return ds, [_result(principal, 0.5), _result(other, 0.85)], top


@settings(max_examples=300, deadline=None)
@given(tied_rankings())
def test_top_table_matches_full_sort_oracle(case):
    ds, results, top = case
    assert top_table(ds, results, top, 0.5) == _full_sort_top_table(ds, results, top, 0.5)
