import math
from collections import Counter

import numpy as np
import pytest

from patentflow import (
    EdgeModel,
    PageRankParams,
    PatentFlowError,
    PlantedCrossover,
    SyntheticSpec,
    build_graph,
    dense_pagerank,
    generate_synthetic_dataset,
    random_citation_edges,
    random_graph,
)


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
    return [ds.meta_of(i) for i in range(ds.node_count)]


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
    assert not ds.graph.has_cycle()
    years = np.array([m.grant_year for m in _metas(ds)])
    edges = ds.graph.edge_array()
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
        m = ds.meta_of(u)
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
        assert ds.graph.in_degree(u) == 0


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


def test_random_citation_edges_point_backward():
    edges = random_citation_edges(10_000, 50_000, seed=3)
    assert (edges[:, 1] < edges[:, 0]).all()
    assert edges[:, 0].max() < 10_000
    assert edges[:, 1].min() >= 0


def test_random_graph_has_dangling_nodes():
    g = random_graph(100, 300, seed=1)
    assert g.dangling_nodes.size >= 1
