"""Mask-based subgraph and exclusion code against the versions it replaced.

The oracles are the earlier ``np.unique``/``setdiff1d`` implementations of
``induced_subgraph`` and ``assignee_exclusion_set``, kept here unchanged
apart from returning node indices as int32, as the graph now stores them.
The current code must return the same values with the same dtypes. The
oracle subgraph is built with the three-``lexsort`` build from
``lexsort_oracle``, so it does not depend on the current ``build_graph``;
that build returns the in-CSR beside the graph, and so does the oracle here.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import meta_of, random_dataset
from lexsort_oracle import lexsort_build_graph
from patentflow import PatentFlowError, assignee_exclusion_set, build_graph, induced_subgraph


def _unique_induced_subgraph(graph, keep):
    keep_arr = np.unique(np.asarray(list(keep) if isinstance(keep, (set, frozenset)) else keep,
                                    dtype=np.int64))
    if keep_arr.size and (keep_arr[0] < 0 or keep_arr[-1] >= graph.node_count):
        raise PatentFlowError("keep set contains indices outside the graph")
    remap = np.full(graph.node_count, -1, dtype=np.int32)
    remap[keep_arr] = np.arange(keep_arr.size, dtype=np.int32)

    src = np.repeat(np.arange(graph.node_count, dtype=np.int32), graph.out_degrees)
    dst = graph.out_indices
    mask = (remap[src] >= 0) & (remap[dst] >= 0)
    new_edges = np.column_stack((remap[src[mask]], remap[dst[mask]]))
    sub, in_indptr, in_indices = lexsort_build_graph(new_edges, keep_arr.size)
    return sub, {"in_indptr": in_indptr, "in_indices": in_indices}, remap


def _unique_exclusion_arrays(dataset, assignee):
    key = assignee.strip().casefold()
    n = dataset.node_count
    owned_mask = np.fromiter(
        (meta_of(dataset, i).assignee.strip().casefold() == key for i in range(n)),
        dtype=bool,
        count=n,
    )
    graph = dataset.graph
    src = np.repeat(np.arange(n, dtype=np.int32), graph.out_degrees)
    dst = graph.out_indices
    cites = np.unique(src[owned_mask[dst] & ~owned_mask[src]])
    cited = np.unique(dst[owned_mask[src] & ~owned_mask[dst]])
    cited = np.setdiff1d(cited, cites, assume_unique=True)
    return np.flatnonzero(owned_mask).astype(np.int32), cites, cited


def _assert_same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@st.composite
def graphs_and_keeps(draw):
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=90))
    keep = draw(st.lists(node, max_size=2 * n))
    form = draw(st.sampled_from([list, set, np.array]))
    return build_graph(edges, n), form(keep)


@settings(max_examples=150, deadline=None)
@given(graphs_and_keeps())
def test_induced_subgraph_matches_unique_oracle(case):
    graph, keep = case
    sub, remap = induced_subgraph(graph, keep)
    want_sub, want_in, want_remap = _unique_induced_subgraph(graph, keep)
    _assert_same(remap, want_remap)
    assert sub.node_count == want_sub.node_count
    assert sub.build_report == want_sub.build_report
    for name in ("out_indptr", "out_indices", "dangling_nodes"):
        _assert_same(getattr(sub, name), getattr(want_sub, name))
    for name, want in want_in.items():
        _assert_same(getattr(sub, name), want)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 150),
    st.floats(0.0, 4.0),
    st.sampled_from(["acme", " ACME ", "globex", "initech", "", "nosuchco"]),
)
def test_exclusion_matches_unique_oracle(seed, n, edge_factor, assignee):
    ds = random_dataset(seed, n=n, edge_factor=edge_factor)
    if not assignee:
        # an empty name is rejected rather than matched
        with pytest.raises(PatentFlowError):
            assignee_exclusion_set(ds, assignee)
        return
    exclusion = assignee_exclusion_set(ds, assignee)
    got = (exclusion.owned, exclusion.cites_owned, exclusion.cited_by_owned)
    for g, w in zip(got, _unique_exclusion_arrays(ds, assignee)):
        _assert_same(g, w)
