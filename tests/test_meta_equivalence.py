"""Columnar metadata code against the per-node code it replaced.

The oracles in ``meta_oracle`` hold one ``PatentMeta`` per node and scan
them in Python. On the same edges and records, the columnar dataset must
give the same ids and per-node records, the same flow and breakdown
entries (same key and value types, same float bits), the same exclusion
arrays with the same dtypes, and the same reduced datasets.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PatentMeta, columns_of, meta_of, records_of
from ingest_oracle import intern_pairs
from meta_oracle import (
    apply_exclusion as oracle_apply_exclusion,
    assignee_exclusion_set as oracle_exclusion_set,
    class_inflow_series as oracle_class_inflow_series,
    meta_tuple_assemble_dataset,
    patent_inflow_breakdown as oracle_breakdown,
)
from patentflow import (
    PageRankParams,
    PageRankResult,
    PatentFlowError,
    apply_exclusion,
    assemble_dataset,
    assignee_exclusion_set,
    class_inflow_series,
    patent_inflow_breakdown,
)

CLASSES = ["", "100", "200", "100 ", "300"]
# case, surrounding whitespace and non-ASCII casefolding variants
ASSIGNEES = [
    "", "  ", "acme", "ACME", " acme ", "Acme Inc",
    "SOCIÉTÉ", "société", " Société ", "SOCIETE",
    "ß", "SS", "ss", "straße", "STRASSE",
]
QUERIES = [
    "acme", " ACME", "société", "SOCIÉTÉ ", "ss", "ß", "strasse", "acme inc", "nosuchco",
]
TARGETS = ["100", "200", "100 ", "300", "999"]
METRICS = ["citation-count", "pagerank-sum"]
CSR = ("out_indptr", "out_indices", "in_indptr", "in_indices", "dangling_nodes")


def _result(scores) -> PageRankResult:
    return PageRankResult(
        scores=np.asarray(scores, dtype=np.float64),
        params=PageRankParams(damping=0.5),
        delta_history=(0.0,),
    )


@st.composite
def cases(draw):
    """Edges and records over a small id pool: duplicate record ids, ids
    cited without a record (placeholders), unknown classes and years."""
    ids = [f"p{k}" for k in range(draw(st.integers(1, 24)))]
    pid = st.sampled_from(ids)
    # few years, so buckets collect several citers and summation order shows
    year = st.none() | st.integers(1990, 1992) | st.sampled_from([1, 32767])
    records = draw(st.lists(
        st.tuples(pid, st.sampled_from(CLASSES), year, st.sampled_from(ASSIGNEES)),
        max_size=30,
    ))
    edges = draw(st.lists(st.tuples(pid, pid), max_size=90))
    metas = [PatentMeta(*r) for r in records]
    new = assemble_dataset(intern_pairs(edges), columns_of(records_of(metas)))
    old = meta_tuple_assemble_dataset(edges, metas)
    # magnitudes far apart make a float sum depend on its order
    score = st.sampled_from([1.0, 0.1, 0.3, 1e-16, 3e-17]) | st.floats(0.0, 1.0)
    scores = draw(st.lists(score, min_size=new.node_count, max_size=new.node_count))
    return new, old, _result(scores), {m.patent_id for m in metas}


def _random_case(seed: int, n: int = 400, m: int = 3000):
    """Larger data than the Hypothesis cases: buckets of tens of citers,
    whose score sums differ in their last bits when added in another order."""
    rng = np.random.default_rng(seed)
    ids = [f"q{k}" for k in range(n)]
    records = [
        PatentMeta(
            ids[k],
            str(rng.choice(CLASSES)),
            None if rng.random() < 0.1 else int(rng.integers(1990, 1992)),
            str(rng.choice(ASSIGNEES)),
        )
        for k in range(int(n * 0.9))
    ]
    edges = [(ids[u], ids[v]) for u, v in rng.integers(0, n, size=(m, 2)).tolist()]
    new = assemble_dataset(intern_pairs(edges), columns_of(records_of(records)))
    old = meta_tuple_assemble_dataset(edges, records)
    magnitudes = rng.choice([1.0, 0.1, 0.3, 1e-16, 3e-17], size=new.node_count)
    scores = magnitudes * rng.random(new.node_count)
    return new, old, _result(scores), {m.patent_id for m in records}


def _same_value(got, want):
    assert type(got) is type(want)
    if isinstance(want, float):
        assert got.hex() == want.hex()
    else:
        assert got == want


def _same_entries(got: dict, want: dict):
    assert got.keys() == want.keys()
    for cls, year in got:
        assert type(cls) is str and type(year) is int
    for key, value in want.items():
        if isinstance(value, tuple):
            assert len(got[key]) == len(value)
            for g, w in zip(got[key], value):
                _same_value(g, w)
        else:
            _same_value(got[key], value)


def _same_array(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _same_dataset(new, old):
    assert new.index_to_id == old.index_to_id
    for pid, i in old.id_to_index.items():
        assert new.index_of(pid) == i
    assert [meta_of(new, i) for i in range(new.node_count)] == list(old.meta)
    for name in CSR:
        _same_array(getattr(new.graph, name), getattr(old.graph, name))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_assembled_dataset_matches_meta_tuples(case):
    new, old, _, _ = case
    _same_dataset(new, old)
    assert new.build_report == old.build_report
    assert (new.class_code.dtype, new.year.dtype, new.assignee_code.dtype) == (
        np.int32, np.int16, np.int32
    )


def _check_flows(new, old, result):
    for target in TARGETS:
        for metric in METRICS:
            got = class_inflow_series(new, result, target, metric)
            want = oracle_class_inflow_series(old, result, target, metric)
            assert (got.target_class, got.metric) == (want.target_class, want.metric)
            _same_entries(dict(got.entries), dict(want.entries))
    for patent in range(new.node_count):
        _same_entries(
            patent_inflow_breakdown(new, result, patent),
            oracle_breakdown(old, result, patent),
        )


@settings(max_examples=200, deadline=None)
@given(cases())
def test_flows_and_breakdowns_match_oracle(case):
    new, old, result, _ = case
    _check_flows(new, old, result)


@pytest.mark.parametrize("seed", range(3))
def test_larger_datasets_match_oracle(seed):
    new, old, result, record_ids = _random_case(seed)
    _same_dataset(new, old)
    _check_flows(new, old, result)
    for query in QUERIES:
        _check_exclusion(new, old, record_ids, query)


def _check_exclusion(new, old, record_ids, query):
    got = assignee_exclusion_set(new, query)
    want = oracle_exclusion_set(old, query)
    for name in ("owned", "cites_owned", "cited_by_owned"):
        _same_array(getattr(got, name), getattr(want, name))
    assert got.report() == want.report()

    if got.excluded.size == new.node_count:
        with pytest.raises(PatentFlowError):
            apply_exclusion(new, got)
        with pytest.raises(PatentFlowError):
            oracle_apply_exclusion(old, want)
        return
    reduced, remap = apply_exclusion(new, got)
    want_reduced, want_remap = oracle_apply_exclusion(old, want)
    _same_array(remap, want_remap)
    _same_dataset(reduced, want_reduced)
    report = reduced.build_report
    assert (report.nodes, report.edges_stored) == (
        want_reduced.build_report.nodes, want_reduced.build_report.edges_stored
    )
    # placeholders are the kept ids that no metadata record named
    assert report.placeholder_nodes == sum(
        1 for pid in reduced.index_to_id if pid not in record_ids
    )


@settings(max_examples=200, deadline=None)
@given(cases())
def test_exclusion_matches_oracle(case):
    new, old, _, record_ids = case
    for query in QUERIES:
        _check_exclusion(new, old, record_ids, query)
