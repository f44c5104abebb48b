"""Interned citation ids and id-keyed metadata against the ingest they replaced.

``ingest_oracle`` keeps the string-pair ``parse_citations``, the
``PatentMeta``-list ``parse_metadata`` and their ``assemble_dataset``
unchanged. The interning parser's payload, mapped back to id strings, must
equal the oracle's pairs; the metadata mapping must hold the oracle's
records as ``id -> (class, year, assignee)`` in the same order; and
``assemble_dataset(intern_pairs(pairs), records_of(metas))`` must build the
dataset the oracle builds from ``pairs`` and ``metas``: ids, columns and
tables with dtypes, record count, every CSR array and the build report.
Inputs include duplicate metadata ids, ids seen only in citations,
self-loops, repeated pairs and empty inputs.
"""
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_oracle as oracle
from conftest import records_of
from patentflow import (
    PatentMeta,
    assemble_dataset,
    intern_pairs,
    parse_citations,
    parse_metadata,
)

COLUMNS = ("class_code", "year", "assignee_code")
CSR = ("out_indptr", "out_indices", "in_indptr", "in_indices")
# "p1 " and " p1" strip to "p1"; "é" is a non-ASCII id
ID_POOL = ["p0", "p1", "p2", "p3", "p4", "p5", "p1 ", " p1", "é"]


def _assert_same_dataset(got, want):
    assert got.index_to_id == want.index_to_id
    for name in COLUMNS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name
    assert got.classes == want.classes
    assert got.assignees == want.assignees
    assert got.record_count == want.record_count
    for name in CSR:
        g, w = getattr(got.graph, name), getattr(want.graph, name)
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name
    assert got.build_report == want.build_report


def _pairs(payload):
    ids, edges = payload
    assert edges.dtype == np.int64 and edges.ndim == 2 and edges.shape[1] == 2
    return [(ids[a], ids[b]) for a, b in edges.tolist()]


@st.composite
def pairs_and_metas(draw):
    """Id pairs with self-loops and repeats, and records with repeated ids,
    over a pool in which some ids have no record."""
    ids = [f"n{k}" for k in range(draw(st.integers(1, 12)))]
    pid = st.sampled_from(ids)
    pairs = draw(st.lists(st.tuples(pid, pid), max_size=40))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    loops = draw(st.lists(pid, max_size=4))
    pairs = pairs + repeats + [(u, u) for u in loops]
    metas = draw(st.lists(
        st.builds(
            PatentMeta,
            pid,
            st.sampled_from(["", "100", "200"]),
            st.none() | st.integers(1990, 1992),
            st.sampled_from(["", "acme", "Acme "]),
        ),
        max_size=15,
    ))
    return draw(st.permutations(pairs)), metas


@settings(max_examples=300, deadline=None)
@given(pairs_and_metas())
def test_assemble_matches_string_pair_oracle(case):
    pairs, metas = case
    got = assemble_dataset(intern_pairs(pairs), records_of(metas))
    _assert_same_dataset(got, oracle.assemble_dataset(pairs, metas))


def test_assemble_empty_inputs_match_oracle():
    _assert_same_dataset(assemble_dataset(intern_pairs([]), {}), oracle.assemble_dataset([], []))
    metas = [PatentMeta("a", "100", 2000, "acme"), PatentMeta("a", "200", 2001, "")]
    _assert_same_dataset(
        assemble_dataset(intern_pairs([]), records_of(metas)), oracle.assemble_dataset([], metas)
    )


_citation_line = st.one_of(
    st.tuples(st.sampled_from(ID_POOL), st.sampled_from(ID_POOL)).map("\t".join),
    st.sampled_from(["", "  ", "# comment", "p1", "p1\tp2\tp3", "\tp2", "p1\t ", "p\udcff\tp1"]),
)
_metadata_line = st.one_of(
    st.tuples(
        st.sampled_from(ID_POOL),
        st.sampled_from(["", "100", " 200", "200\x1c"]),
        st.sampled_from(["", "1999", "2000 ", "+1999", "1_999", "1492", "2101", "x"]),
        st.sampled_from(["", "acme", " Acme", "Acme\x1f "]),
    ).map("\t".join),
    st.sampled_from(["", "#", "p1\t100", "\t100\t1999\tacme"]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_citation_line, max_size=40),
    st.lists(_metadata_line, max_size=20),
    st.sampled_from(["\n", "\r\n"]),
)
def test_parsed_text_matches_string_pair_oracle(citation_lines, metadata_lines, newline):
    citations = newline.join(citation_lines)
    patents = newline.join(metadata_lines)
    payload, cit_report = parse_citations(io.StringIO(citations))
    want_pairs, want_cit_report = oracle.parse_citations(io.StringIO(citations))
    assert _pairs(payload) == want_pairs
    assert cit_report == want_cit_report
    records, meta_report = parse_metadata(io.StringIO(patents))
    want_metas, want_meta_report = oracle.parse_metadata(io.StringIO(patents))
    assert type(records) is dict
    assert list(records.items()) == [
        (m.patent_id, (m.primary_class, m.grant_year, m.assignee)) for m in want_metas
    ]
    assert meta_report == want_meta_report
    _assert_same_dataset(
        assemble_dataset(payload, records, cit_report, meta_report),
        oracle.assemble_dataset(want_pairs, want_metas, want_cit_report, want_meta_report),
    )
