import dataclasses
import re
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patentflow import (
    ClassFlowSeries,
    PageRankParams,
    PatentFlowError,
    SyntheticSpec,
    apply_exclusion,
    assignee_exclusion_set,
    build_graph,
    class_inflow_series,
    class_ratio,
    crossover_year,
    generate_synthetic_dataset,
    pagerank,
    patent_inflow_breakdown,
)
from conftest import make_dataset, meta_of, random_dataset
from ingest_oracle import intern_pairs

PARAMS = PageRankParams(damping=0.5, epsilon=1e-10)


def _excluded_flow(ds, assignee, target_class, metric="pagerank-sum"):
    """The ``exclude-flow`` steps: exclude, rank the reduced graph, take its flow."""
    reduced, _ = apply_exclusion(ds, assignee_exclusion_set(ds, assignee))
    return class_inflow_series(reduced, pagerank(reduced.graph, PARAMS), target_class, metric)


def _three_citer_dataset():
    # u1 (400, 2000) and u2 (358, 2000) cite t (347, 1990)
    return make_dataset(
        [("u1", "t"), ("u2", "t")],
        [
            ("t", "347", 1990, "canon"),
            ("u1", "400", 2000, "acme"),
            ("u2", "358", 2000, "globex"),
        ],
    )


def test_series_pagerank_sum_three_nodes():
    ds = _three_citer_dataset()
    r = pagerank(ds.graph, PARAMS)
    s = class_inflow_series(ds, r, "347", "pagerank-sum")
    u1, u2 = ds.index_of("u1"), ds.index_of("u2")
    assert s.entries == {
        ("400", 2000): float(r.scores[u1]),
        ("358", 2000): float(r.scores[u2]),
    }


def test_series_citation_count_three_nodes():
    ds = _three_citer_dataset()
    r = pagerank(ds.graph, PARAMS)
    s = class_inflow_series(ds, r, "347", "citation-count")
    assert s.entries == {("400", 2000): 1, ("358", 2000): 1}


def test_series_skips_internal_citations():
    ds = make_dataset(
        [("u", "t")],
        [("t", "347", 1990, ""), ("u", "347", 2000, "")],
    )
    r = pagerank(ds.graph, PARAMS)
    s = class_inflow_series(ds, r, "347")
    assert s.entries == {}


def test_series_skips_unknown_class_or_year():
    ds = make_dataset(
        [("u1", "t"), ("u2", "t"), ("u3", "t")],
        [
            ("t", "347", 1990, ""),
            ("u1", "", 2000, ""),
            ("u2", "400", None, ""),
            ("u3", "400", 2001, ""),
        ],
    )
    r = pagerank(ds.graph, PARAMS)
    s = class_inflow_series(ds, r, "347", "citation-count")
    assert s.entries == {("400", 2001): 1}


def test_series_on_a_dataset_whose_classes_lack_the_empty_label():
    # a hand-built dataset need not hold "": no citer is dropped for its class
    ds = _three_citer_dataset()
    assert ds.classes[-1] == "" and ds.record_count == ds.node_count
    bare = dataclasses.replace(ds, classes=ds.classes[:-1])
    r = pagerank(ds.graph, PARAMS)
    for metric in ("pagerank-sum", "citation-count"):
        want = class_inflow_series(ds, r, "347", metric).entries
        assert class_inflow_series(bare, r, "347", metric).entries == want
    assert len(want) == 2


def test_series_counts_each_citer_once():
    # one citer citing two target-class patents contributes a single unit
    ds = make_dataset(
        [("u", "t1"), ("u", "t2")],
        [
            ("t1", "347", 1990, ""),
            ("t2", "347", 1991, ""),
            ("u", "400", 2000, ""),
        ],
    )
    r = pagerank(ds.graph, PARAMS)
    s = class_inflow_series(ds, r, "347", "citation-count")
    assert s.entries == {("400", 2000): 1}
    s2 = class_inflow_series(ds, r, "347", "pagerank-sum")
    assert s2.entries[("400", 2000)] == pytest.approx(
        float(r.scores[ds.index_of("u")]), abs=0
    )


def test_series_unknown_target_class_empty():
    ds = _three_citer_dataset()
    r = pagerank(ds.graph, PARAMS)
    s = class_inflow_series(ds, r, "777")
    assert s.entries == {}


@pytest.mark.parametrize("target", ["", "  ", "\t"])
def test_series_rejects_empty_target_class(target):
    # a patent with an unknown class is stored with class "", and those
    # patents stay out of class aggregations
    ds = make_dataset(
        [("u", "t")], [("t", "", 1990, "canon"), ("u", "400", 2000, "acme")]
    )
    r = pagerank(ds.graph, PARAMS)
    with pytest.raises(PatentFlowError, match="target class"):
        class_inflow_series(ds, r, target)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda ds, r, short: class_inflow_series(ds, short, "347"),
         "score vector length does not match the dataset's node count"),
        (lambda ds, r, short: patent_inflow_breakdown(ds, short, 0),
         "score vector length does not match the dataset's node count"),
        (lambda ds, r, short: patent_inflow_breakdown(ds, r, 3), "patent index 3 out of range"),
        (lambda ds, r, short: patent_inflow_breakdown(ds, r, -1), "patent index -1 out of range"),
    ],
    ids=["series-scores", "breakdown-scores", "patent-past-end", "negative-patent"],
)
def test_trends_errors(call, message):
    ds = _three_citer_dataset()
    # ``short`` ranks a graph with one node fewer than the dataset's
    short = pagerank(build_graph([(0, 1)], 2), PARAMS)
    with pytest.raises(PatentFlowError, match=f"^{re.escape(message)}$"):
        call(ds, pagerank(ds.graph, PARAMS), short)


def test_series_rejects_bad_metric():
    ds = _three_citer_dataset()
    r = pagerank(ds.graph, PARAMS)
    with pytest.raises(PatentFlowError):
        class_inflow_series(ds, r, "347", "edge-count")


def test_breakdown_no_inlinks():
    ds = _three_citer_dataset()
    r = pagerank(ds.graph, PARAMS)
    assert patent_inflow_breakdown(ds, r, ds.index_of("u1")) == {}


def test_breakdown_two_citers_same_bucket():
    ds = make_dataset(
        [("a", "t"), ("b", "t")],
        [
            ("t", "347", 1990, ""),
            ("a", "358", 2000, ""),
            ("b", "358", 2000, ""),
        ],
    )
    r = pagerank(ds.graph, PARAMS)
    bd = patent_inflow_breakdown(ds, r, ds.index_of("t"))
    a, b = ds.index_of("a"), ds.index_of("b")
    count, total = bd[("358", 2000)]
    assert count == 2
    assert total == pytest.approx(float(r.scores[a]) + float(r.scores[b]), abs=1e-15)


_TINY_SPEC = SyntheticSpec(node_count=10, classes=(("347", 1.0),), year_range=(2000, 2001),
                           assignees=(("x", 1.0),))


@pytest.mark.parametrize(
    "call",
    [
        lambda ds, r: intern_pairs([3]),
        lambda ds, r: intern_pairs([(["a"], "b")]),
        lambda ds, r: intern_pairs(5),
        lambda ds, r: class_inflow_series(ds, r, 347),
        lambda ds, r: class_inflow_series(ds, r, None),
        lambda ds, r: assignee_exclusion_set(ds, None),
        lambda ds, r: assignee_exclusion_set(ds, b"canon"),
        lambda ds, r: patent_inflow_breakdown(ds, r, 1.5),
        lambda ds, r: patent_inflow_breakdown(ds, r, "1"),
        lambda ds, r: patent_inflow_breakdown(ds, r, True),
        lambda ds, r: patent_inflow_breakdown(ds, r, np.float64(1.0)),
        lambda ds, r: generate_synthetic_dataset(_TINY_SPEC, None),
        lambda ds, r: generate_synthetic_dataset(_TINY_SPEC, "3"),
        lambda ds, r: generate_synthetic_dataset(_TINY_SPEC, 1.5),
        lambda ds, r: generate_synthetic_dataset(_TINY_SPEC, True),
    ],
    ids=["int-pair", "list-id", "int-pairs", "int-class", "none-class", "none-assignee",
         "bytes-assignee", "float-patent", "str-patent", "bool-patent", "numpy-float-patent",
         "none-seed", "str-seed", "float-seed", "bool-seed"],
)
def test_wrongly_typed_arguments_raise_patentflow_error(call):
    ds = _three_citer_dataset()
    with pytest.raises(PatentFlowError):
        call(ds, pagerank(ds.graph, PARAMS))


def test_numpy_integers_are_patent_indices_and_seeds():
    ds = _three_citer_dataset()
    r = pagerank(ds.graph, PARAMS)
    t = ds.index_of("t")
    assert patent_inflow_breakdown(ds, r, np.int32(t)) == patent_inflow_breakdown(ds, r, t)
    a = generate_synthetic_dataset(_TINY_SPEC, np.uint8(3))
    b = generate_synthetic_dataset(_TINY_SPEC, 3)
    assert np.array_equal(a.graph.edge_array(), b.graph.edge_array())


def _series_via_breakdowns(ds, result, target, metric):
    """Oracle: sum per-patent breakdowns over the target class, then undo
    the double counting of citers that cite several target patents."""
    g = ds.graph
    targets = [i for i in range(ds.node_count) if meta_of(ds, i).primary_class == target]
    agg = defaultdict(lambda: [0, 0.0])
    for t in targets:
        for key, (cnt, pr) in patent_inflow_breakdown(ds, result, t).items():
            agg[key][0] += cnt
            agg[key][1] += pr
    citations_per_citer = Counter()
    for t in targets:
        for u in g.in_neighbors(t):
            citations_per_citer[int(u)] += 1
    for u, k in citations_per_citer.items():
        m = meta_of(ds, u)
        if k > 1 and m.primary_class != "" and m.grant_year is not None:
            agg[(m.primary_class, m.grant_year)][0] -= k - 1
            agg[(m.primary_class, m.grant_year)][1] -= (k - 1) * float(result.scores[u])
    if metric == "citation-count":
        return {k: v[0] for k, v in agg.items() if k[0] != target}
    return {k: v[1] for k, v in agg.items() if k[0] != target}


@pytest.mark.parametrize("seed", range(6))
def test_aggregation_consistency_random_datasets(seed):
    ds = random_dataset(seed, n=150, edge_factor=4.0)
    result = pagerank(ds.graph, PARAMS)
    for target in ("100", "200"):
        counts = class_inflow_series(ds, result, target, "citation-count")
        expected_counts = _series_via_breakdowns(ds, result, target, "citation-count")
        assert counts.entries == expected_counts
        sums = class_inflow_series(ds, result, target, "pagerank-sum")
        expected_sums = _series_via_breakdowns(ds, result, target, "pagerank-sum")
        assert set(sums.entries) == set(expected_sums)
        for key, value in sums.entries.items():
            assert value == pytest.approx(expected_sums[key], abs=1e-12)
        # externality: the target class never appears as a source
        assert all(cls != target for cls, _ in counts.entries)


def test_class_ratio_basic():
    s = ClassFlowSeries("t", "citation-count", {("a", 2000): 2, ("b", 2000): 8})
    assert class_ratio(s, "a", "b") == {2000: 0.25}


def test_class_ratio_absent_denominator():
    s = ClassFlowSeries("t", "citation-count", {("a", 2000): 2, ("b", 2001): 3})
    ratios = class_ratio(s, "a", "b")
    assert 2000 not in ratios
    assert ratios[2001] == 0.0


def test_class_ratio_year_window():
    s = ClassFlowSeries(
        "t",
        "citation-count",
        {("a", y): 4 for y in (2000, 2001, 2002)} | {("b", y): 2 for y in (2000, 2001, 2002)},
    )
    assert class_ratio(s, "a", "b", year_window=(2001, 2002)) == {2001: 2.0, 2002: 2.0}


def test_class_ratio_two_regime_dataset():
    from patentflow import EdgeModel, PlantedCrossover, SyntheticSpec, generate_synthetic_dataset

    spec = SyntheticSpec(
        node_count=1200,
        classes=(("347", 0.15), ("400", 0.2), ("358", 0.2), ("435", 0.45)),
        year_range=(1996, 2008),
        assignees=(("alpha", 0.5), ("beta", 0.5)),
        edge_model=EdgeModel(),
        planted_crossover=PlantedCrossover("347", "400", "358", 2003),
    )
    ds = generate_synthetic_dataset(spec, seed=21)
    r = pagerank(ds.graph, PARAMS)
    for metric in ("citation-count", "pagerank-sum"):
        s = class_inflow_series(ds, r, "347", metric)
        ratios = class_ratio(s, "400", "358")
        for year, ratio in ratios.items():
            if year < 2003:
                assert ratio > 1.0, (metric, year, ratio)
            else:
                assert ratio < 1.0 / 3.0, (metric, year, ratio)


def test_crossover_year_example():
    entries = {}
    for y, (a, b) in zip(range(2001, 2005), [(3, 1), (3, 1), (1, 3), (1, 4)]):
        entries[("a", y)] = a
        entries[("b", y)] = b
    s = ClassFlowSeries("t", "citation-count", entries)
    assert crossover_year(s, "a", "b") == 2003


def test_crossover_absent_when_b_always_dominates():
    entries = {("a", 2000): 1, ("b", 2000): 2, ("a", 2001): 1, ("b", 2001): 3}
    s = ClassFlowSeries("t", "citation-count", entries)
    assert crossover_year(s, "a", "b") is None


def test_crossover_absent_when_a_holds_to_the_end():
    entries = {("a", 2000): 1, ("b", 2000): 2, ("a", 2001): 5, ("b", 2001): 3}
    s = ClassFlowSeries("t", "citation-count", entries)
    assert crossover_year(s, "a", "b") is None


def test_crossover_empty_series():
    s = ClassFlowSeries("t", "citation-count", {})
    assert crossover_year(s, "a", "b") is None


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)), min_size=1, max_size=12
    ),
    st.floats(0.001, 1000),
)
def test_crossover_scale_invariant(flows, factor):
    entries = {}
    for y, (a, b) in enumerate(flows, start=2000):
        if a:
            entries[("a", y)] = a
        if b:
            entries[("b", y)] = b
    base = crossover_year(ClassFlowSeries("t", "pagerank-sum", entries), "a", "b")
    scaled_entries = {k: v * factor for k, v in entries.items()}
    scaled = crossover_year(ClassFlowSeries("t", "pagerank-sum", scaled_entries), "a", "b")
    assert base == scaled


def test_exclusion_unknown_assignee_empty():
    ds = _three_citer_dataset()
    exc = assignee_exclusion_set(ds, "nosuchco")
    assert exc.excluded.size == 0
    assert exc.report()["excluded_total"] == 0


def test_exclusion_chain():
    # x cites c (owned), c cites y: x is cites-owned, y is cited-by-owned
    ds = make_dataset(
        [("x", "c"), ("c", "y")],
        [
            ("x", "100", 2000, "acme"),
            ("c", "100", 1995, "canon"),
            ("y", "100", 1990, "globex"),
            ("z", "100", 1990, "initech"),
        ],
    )
    exc = assignee_exclusion_set(ds, "canon")
    assert exc.owned.tolist() == [ds.index_of("c")]
    assert exc.cites_owned.tolist() == [ds.index_of("x")]
    assert exc.cited_by_owned.tolist() == [ds.index_of("y")]
    assert ds.index_of("z") not in exc.excluded.tolist()


def test_exclusion_arrays_are_read_only_and_the_union_is_built_once():
    ds = _three_citer_dataset()
    exc = assignee_exclusion_set(ds, "canon")
    excluded = exc.excluded
    assert exc.excluded is excluded and excluded.tolist() == sorted(excluded.tolist())
    for name in ("owned", "cites_owned", "cited_by_owned", "excluded"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(exc, name)[:1] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        exc.excluded = excluded


def test_results_and_exclusions_compare_by_identity():
    # field-wise == would ask numpy for the truth value of an array
    ds = _three_citer_dataset()
    result = pagerank(ds.graph, PARAMS)
    exc = assignee_exclusion_set(ds, "canon")
    for value, twin in ((result, dataclasses.replace(result)), (exc, dataclasses.replace(exc))):
        assert value == value and value != twin
        assert hash(value) == hash(value) != hash(twin)


def test_exclusion_matching_is_trimmed_and_casefolded():
    ds = make_dataset(
        [("a", "b")],
        [("a", "100", 2000, "  CANON Inc "), ("b", "100", 1999, "other")],
    )
    exc = assignee_exclusion_set(ds, "canon inc")
    assert ds.index_of("a") in set(exc.owned.tolist())


@pytest.mark.parametrize("assignee", ["", " ", "\t "])
def test_exclusion_rejects_empty_assignee(assignee):
    # an empty name would match every patent without an assignee
    ds = make_dataset([("a", "b")], [("a", "100", 2000, ""), ("b", "100", 1999, "acme")])
    with pytest.raises(PatentFlowError, match="assignee"):
        assignee_exclusion_set(ds, assignee)


def _brute_force_exclusion(ds, assignee):
    key = assignee.strip().casefold()
    owned = {
        i for i in range(ds.node_count) if meta_of(ds, i).assignee.strip().casefold() == key
    }
    cites, cited = set(), set()
    for u, v in ds.graph.edge_array().tolist():
        if v in owned and u not in owned:
            cites.add(u)
        if u in owned and v not in owned:
            cited.add(v)
    return owned | cites | cited


@pytest.mark.parametrize("seed", range(5))
def test_exclusion_matches_brute_force_edge_scan(seed):
    ds = random_dataset(seed + 50, n=130, edge_factor=3.5)
    for assignee in ("acme", "globex", "initech"):
        exc = assignee_exclusion_set(ds, assignee)
        assert set(exc.excluded.tolist()) == _brute_force_exclusion(ds, assignee)
        parts = (
            set(exc.owned.tolist()),
            set(exc.cites_owned.tolist()),
            set(exc.cited_by_owned.tolist()),
        )
        assert sum(len(p) for p in parts) == exc.excluded.size


def test_null_exclusion_series_identical():
    ds = random_dataset(7, n=100)
    result = pagerank(ds.graph, PARAMS)
    direct = class_inflow_series(ds, result, "100", "pagerank-sum")
    excluded = _excluded_flow(ds, "nosuchco", "100", "pagerank-sum")
    assert excluded.entries == direct.entries
    direct_counts = class_inflow_series(ds, result, "100", "citation-count")
    excluded_counts = _excluded_flow(ds, "nosuchco", "100", "citation-count")
    assert excluded_counts.entries == direct_counts.entries


def test_excluded_pipeline_chain_example():
    ds = make_dataset(
        [("x", "c"), ("c", "y"), ("w", "y")],
        [
            ("x", "100", 2000, "acme"),
            ("c", "100", 1995, "canon"),
            ("y", "347", 1990, "globex"),
            ("w", "200", 2001, "initech"),
        ],
    )
    # y is cited by owned c, so it vanishes with the exclusion and the
    # reduced dataset has no target-class patent left
    s = _excluded_flow(ds, "canon", "347", "citation-count")
    assert s.entries == {}
    # without exclusion both c and w are external citers of y
    full = class_inflow_series(ds, pagerank(ds.graph, PARAMS), "347", "citation-count")
    assert full.entries == {("100", 1995): 1, ("200", 2001): 1}


def test_excluded_pipeline_empty_graph_raises():
    ds = make_dataset([], [("a", "100", 2000, "solo")])
    with pytest.raises(PatentFlowError, match="solo"):
        _excluded_flow(ds, "solo", "100")


def test_apply_exclusion_remap():
    ds = make_dataset(
        [("x", "c"), ("c", "y")],
        [
            ("x", "100", 2000, "acme"),
            ("c", "100", 1995, "canon"),
            ("y", "100", 1990, "globex"),
            ("z", "100", 1990, "initech"),
        ],
    )
    exc = assignee_exclusion_set(ds, "canon")
    reduced, remap = apply_exclusion(ds, exc)
    assert reduced.node_count == 1
    assert meta_of(reduced, 0).patent_id == "z"
    assert remap[ds.index_of("z")] == 0
    assert remap[ds.index_of("c")] == -1


def test_reduced_placeholders_are_citation_only_ids():
    # b is a metadata record with every field empty: not a placeholder
    ds = make_dataset(
        [("a", "b"), ("c", "d"), ("q", "z")],
        [
            ("a", "100", 2000, ""),
            ("b", "", None, ""),
            ("c", "100", 2000, "Y"),
            ("d", "100", 2000, "Y"),
        ],
    )
    assert ds.build_report.placeholder_nodes == 2
    reduced, _ = apply_exclusion(ds, assignee_exclusion_set(ds, "Y"))
    assert reduced.index_to_id == ("a", "b", "q", "z")
    assert reduced.build_report.placeholder_nodes == 2
    assert reduced.record_count == 2
