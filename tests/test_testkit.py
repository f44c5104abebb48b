import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patentflow import (
    EdgeModel,
    PageRankParams,
    PatentFlowError,
    PlantedCrossover,
    SyntheticSpec,
    assemble_dataset,
    build_graph,
    generate_synthetic_dataset,
)
from patentflow.testkit import synthetic_files
from conftest import assert_same_dataset, columns_of, meta_of, records_of
from ingest_oracle import label_fits_patents_tsv, write_citations, write_metadata
from dense_oracle import dense_pagerank, random_citation_edges, random_graph


def test_dense_three_cycle_uniform():
    g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
    p = dense_pagerank(g, PageRankParams(damping=0.5, epsilon=1e-12))
    assert np.abs(p - 1.0 / 3).max() < 1e-12


def test_dense_two_node_fixture():
    g = build_graph([(0, 1)], 2)
    p = dense_pagerank(g, PageRankParams(damping=0.5, epsilon=1e-12))
    assert p[0] == pytest.approx(0.4, abs=1e-12)
    assert p[1] == pytest.approx(0.6, abs=1e-12)


def test_dense_damping_zero_uniform():
    g = random_graph(40, 100, seed=2)
    p = dense_pagerank(g, PageRankParams(damping=0.0))
    assert np.abs(p - 1.0 / 40).max() < 1e-15


def test_dense_node_limit():
    g = build_graph([], 2001)
    with pytest.raises(PatentFlowError):
        dense_pagerank(g, PageRankParams(damping=0.5))


def _metas(ds):
    return [meta_of(ds, i) for i in range(ds.node_count)]


def _crossover_spec(n=1500, dominant=None):
    return SyntheticSpec(
        node_count=n,
        classes=(("347", 0.15), ("400", 0.2), ("358", 0.2), ("435", 0.25), ("999", 0.2)),
        year_range=(1995, 2010),
        assignees=(("canoncorp", 0.3), ("alpha", 0.4), ("beta", 0.3)),
        edge_model=EdgeModel(),
        planted_crossover=PlantedCrossover("347", "400", "358", 2004),
        dominant_assignee=dominant,
    )


def test_generator_empty_spec():
    spec = SyntheticSpec(
        node_count=0,
        classes=(("a", 1.0),),
        year_range=(2000, 2001),
        assignees=(("x", 1.0),),
    )
    ds = generate_synthetic_dataset(spec, seed=0)
    assert ds.node_count == 0
    assert ds.graph.edge_count == 0


def test_generator_deterministic_per_seed():
    spec = _crossover_spec()
    a = generate_synthetic_dataset(spec, seed=5)
    b = generate_synthetic_dataset(spec, seed=5)
    assert _metas(a) == _metas(b)
    assert np.array_equal(a.graph.out_indptr, b.graph.out_indptr)
    assert np.array_equal(a.graph.out_indices, b.graph.out_indices)
    c = generate_synthetic_dataset(spec, seed=6)
    assert not (
        _metas(a) == _metas(c) and np.array_equal(a.graph.out_indices, c.graph.out_indices)
    )


def test_generator_graph_is_acyclic_and_backward_in_time():
    ds = generate_synthetic_dataset(_crossover_spec(dominant="canoncorp"), seed=5)
    edges = ds.graph.edge_array()
    # every edge points to a lower index, so index order is a topological order
    assert (edges[:, 0] > edges[:, 1]).all()
    years = np.array([m.grant_year for m in _metas(ds)])
    assert (years[edges[:, 0]] >= years[edges[:, 1]]).all()


@pytest.mark.parametrize("window", [0.0, 1e-17])
def test_generator_narrowest_recency_window_picks_the_latest_patent(window):
    def edges(recency_bias):
        spec = SyntheticSpec(
            node_count=200,
            classes=(("a", 1.0),),
            year_range=(2000, 2004),
            assignees=(("x", 1.0),),
            edge_model=EdgeModel(preferential=0.0, recency_bias=recency_bias,
                                 recency_window=window),
        )
        return generate_synthetic_dataset(spec, seed=3).graph.edge_array()

    only_recent = edges(1.0)
    assert only_recent.size and (only_recent[:, 1] == only_recent[:, 0] - 1).all()
    mixed = edges(0.5)
    assert (mixed[:, 1] < mixed[:, 0]).all()


def test_generator_marginals_within_3_sigma():
    spec = SyntheticSpec(
        node_count=4000,
        classes=(("a", 0.5), ("b", 0.3), ("c", 0.2)),
        year_range=(2000, 2009),
        assignees=(("x", 0.6), ("y", 0.4)),
    )
    ds = generate_synthetic_dataset(spec, seed=1)
    n = ds.node_count
    class_counts = Counter(m.primary_class for m in _metas(ds))
    for code, p in spec.classes:
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(class_counts[code] - n * p) <= 3 * sigma
    asg_counts = Counter(m.assignee for m in _metas(ds))
    for name, p in spec.assignees:
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(asg_counts[name] - n * p) <= 3 * sigma
    year_counts = Counter(m.grant_year for m in _metas(ds))
    assert set(year_counts) == set(range(2000, 2010))
    for y in year_counts:
        assert abs(year_counts[y] - n / 10) <= 3 * math.sqrt(n * 0.1 * 0.9) + 1


def test_planted_crossover_regimes():
    spec = _crossover_spec()
    ds = generate_synthetic_dataset(spec, seed=9)
    pc = spec.planted_crossover
    # brute-force per-year external citer counts into the target class
    target_nodes = {
        i for i, m in enumerate(_metas(ds)) if m.primary_class == pc.target_class
    }
    citers = set()
    for t in target_nodes:
        citers.update(int(u) for u in ds.graph.in_neighbors(t))
    per_year = {}
    for u in citers:
        m = meta_of(ds, u)
        if m.primary_class in (pc.source_class_a, pc.source_class_b):
            d = per_year.setdefault(m.grant_year, Counter())
            d[m.primary_class] += 1
    years = sorted(per_year)
    assert years == list(range(1996, 2011))
    for y in years:
        a = per_year[y][pc.source_class_a]
        b = per_year[y][pc.source_class_b]
        if y < pc.crossover_year:
            assert a >= 3 * b, (y, a, b)
        else:
            assert b >= 3 * a, (y, a, b)
        # planted citing patents are leaves: nobody cites them
    for u in citers:
        assert int(ds.graph.in_degrees[u]) == 0


def test_spec_validation_errors():
    good = _crossover_spec()
    with pytest.raises(PatentFlowError):
        SyntheticSpec(
            node_count=10,
            classes=(("a", 0.5), ("b", 0.6)),
            year_range=(2000, 2001),
            assignees=(("x", 1.0),),
        )
    with pytest.raises(PatentFlowError):
        SyntheticSpec(
            node_count=10,
            classes=(("a", 1.0),),
            year_range=(2005, 2001),
            assignees=(("x", 1.0),),
        )
    with pytest.raises(PatentFlowError):
        SyntheticSpec(
            node_count=good.node_count,
            classes=good.classes,
            year_range=(1995, 2010),
            assignees=good.assignees,
            planted_crossover=PlantedCrossover("347", "400", "358", 1995),
        )
    with pytest.raises(PatentFlowError):
        SyntheticSpec(
            node_count=good.node_count,
            classes=good.classes,
            year_range=good.year_range,
            assignees=good.assignees,
            dominant_assignee="nobody",
        )
    with pytest.raises(PatentFlowError):
        EdgeModel(preferential=0.8, recency_bias=0.5)
    # a spec built in Python gets the type checks load_spec gives a JSON one
    base = dict(node_count=good.node_count, classes=good.classes,
                year_range=good.year_range, assignees=good.assignees)
    for bad in (
        dict(node_count=500.5),
        dict(node_count=True),
        dict(year_range=(2000.5, 2005)),
        dict(year_range=(1995, np.float64(2010))),
        dict(classes=(("a", True),)),
        dict(classes=(("a", "1.0"),)),
        dict(classes=((347, 1.0),)),
        dict(assignees=((None, 1.0),)),
        dict(planted_crossover=PlantedCrossover("347", 400, "358", 2004)),
        dict(classes=(("a", 10**400),)),
    ):
        with pytest.raises(PatentFlowError):
            SyntheticSpec(**{**base, **bad})
    for year in (2003.5, True, "2004"):
        with pytest.raises(PatentFlowError):
            PlantedCrossover("347", "400", "358", year)
    # numpy integers are integers
    SyntheticSpec(**{**base, "node_count": np.int64(good.node_count),
                     "year_range": (np.int16(1995), np.uint16(2010)),
                     "planted_crossover": PlantedCrossover("347", "400", "358", np.int64(2004))})


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: EdgeModel(preferential=1.5), "preferential must be in [0, 1], got 1.5"),
        (lambda: EdgeModel(recency_window=-0.25), "recency_window must be in [0, 1], got -0.25"),
        (lambda: replace(_crossover_spec(), classes=()), "classes must be non-empty"),
        (lambda: replace(_crossover_spec(), assignees=()), "assignees must be non-empty"),
        (lambda: replace(_crossover_spec(), classes=(("347", 0.5), ("347", 0.5))),
         "classes labels must be unique"),
        (lambda: replace(_crossover_spec(), planted_crossover=PlantedCrossover("347", "400", "347", 2004)),
         "planted classes must be three distinct codes"),
        (lambda: _crossover_spec(n=16 * (14 + 6) - 1),
         "node_count too small to plant a crossover across 16 years"),
        (lambda: replace(_crossover_spec(dominant="canoncorp"), assignees=(("canoncorp", 1.0),)),
         "a dominant assignee needs at least one other assignee"),
    ],
    ids=["preferential", "recency-window", "no-classes", "no-assignees", "repeated-class",
         "planted-class-twice", "too-few-nodes", "dominant-alone"],
)
def test_spec_errors(make, message):
    with pytest.raises(PatentFlowError, match=f"^{re.escape(message)}$"):
        make()


def test_others_of_zero_weight_are_picked_uniformly():
    # every drawn assignee is canoncorp, so each planted patent it must not
    # own gets another assignee; their weights sum to 0, so it is drawn uniformly
    spec = replace(_crossover_spec(dominant="canoncorp"),
                   assignees=(("canoncorp", 1.0), ("alpha", 0.0), ("beta", 0.0)))
    ds = generate_synthetic_dataset(spec, seed=5)
    names = Counter(ds.assignees[c] for c in ds.assignee_code.tolist())
    # per year 2 targets not owned, and from the second year 10 citers
    drawn = 16 * 2 + 15 * 10
    assert names["alpha"] + names["beta"] == drawn
    assert names["canoncorp"] == spec.node_count - drawn
    assert abs(names["alpha"] - drawn / 2) <= 3 * math.sqrt(drawn / 4)


def test_generator_classes_hold_the_unknown_label():
    spec = _crossover_spec()
    ds = generate_synthetic_dataset(spec, seed=3)
    assert ds.class_code.min() >= 0
    assert "" in ds.classes and "" in ds.assignees
    # every node has a record with a spec class, so no node reads ""
    labels = {c for c, _ in spec.classes}
    assert {ds.classes[c] for c in ds.class_code} <= labels
    assert set(ds.classes) == {ds.classes[c] for c in ds.class_code} | {""}


def _label_spec(n, classes, assignees, **kw):
    return SyntheticSpec(node_count=n, classes=classes, year_range=(2000, 2004),
                         assignees=assignees, **kw)


@pytest.mark.parametrize(
    "spec",
    [
        _label_spec(300, (("", 0.3), ("société", 0.3), ("L" * 40, 0.4)),
                    (("ß" * 20, 0.5), ("", 0.5))),
        _label_spec(300, (("400", 0.5), ("358", 0.5)), (("big", 0.6), ("small", 0.4)),
                    planted_crossover=PlantedCrossover("347", "400", "358", 2003),
                    dominant_assignee="big"),
        _label_spec(0, (("a", 1.0),), (("x", 1.0),)),
        _label_spec(1, (("é", 1.0),), (("", 1.0),)),
        _label_spec(300, (("a\0b", 0.5), ("#347", 0.5)), (("x\u2028y", 0.6), ("#", 0.4))),
    ],
    ids=["empty-non-ascii-and-long-labels", "target-not-in-classes-and-dominant", "no-nodes",
         "one-node", "nul-comment-mark-and-line-separator"],
)
def test_generator_numbers_labels_as_assemble_dataset_of_its_records(spec, tmp_path):
    # labels by first appearance, "" appended when absent, one names dict
    # for the labels longer than 32 bytes, and int16 years
    ds = generate_synthetic_dataset(spec, seed=7)
    records = columns_of(records_of(_metas(ds)))
    assert_same_dataset(ds, assemble_dataset((list(ds.index_to_id), ds.graph.edge_array()), records))
    # gen's files are what the oracle writers write for the dataset they read back as
    write_citations(ds, tmp_path / "citations.tsv")
    write_metadata(ds, tmp_path / "patents.tsv")
    assert synthetic_files(spec, seed=7) == ((tmp_path / "citations.tsv").read_bytes(),
                                             (tmp_path / "patents.tsv").read_bytes())


# characters at the edges of the format: field and line breaks, whitespace
# that str.strip() removes or keeps, NUL, a byte-order mark, a comment mark,
# lone surrogates, and a run long enough to be numbered by a dict
_LABEL_PARTS = ["a", "é", " ", "#", "\t", "\r", "\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85",
                "\xa0", "\u2028", "\u3000", "\0", "\ufeff", "\ud800", "\udfff", "L" * 40]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_LABEL_PARTS), max_size=5).map("".join),
                min_size=1, max_size=3, unique=True))
# the second label's line break writes a later record over the first's
@example(["a", "b\n0\tz"])
def test_spec_accepts_labels_exactly_when_the_stated_format_carries_them(labels):
    def spec():
        return _label_spec(0, tuple((label, 1 / len(labels)) for label in labels), (("x", 1.0),))

    bad = [label for label in labels if not label_fits_patents_tsv(label)]
    if bad:
        with pytest.raises(PatentFlowError, match=f"^label {re.escape(repr(bad[0]))} is not"):
            spec()
    else:
        spec()


def test_random_citation_edges_point_backward():
    edges = random_citation_edges(10_000, 50_000, seed=3)
    assert (edges[:, 1] < edges[:, 0]).all()
    assert edges[:, 0].max() < 10_000
    assert edges[:, 1].min() >= 0


def test_random_graph_has_dangling_nodes():
    g = random_graph(100, 300, seed=1)
    assert g.dangling_nodes.size >= 1
