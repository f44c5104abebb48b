import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from patentflow import (
    ExclusionSet,
    MalformedEdgeError,
    PatentFlowError,
    apply_exclusion,
    assemble_dataset,
    assignee_exclusion_set,
    intern_pairs,
    load_dataset,
    parse_citations,
    parse_metadata,
    write_citations,
    write_metadata,
)


def _pairs(payload):
    """The (citing, cited) id pairs of a parse_citations payload."""
    ids, edges = payload
    return [(ids[a], ids[b]) for a, b in edges.tolist()]


def test_parse_citations_basic():
    payload, report = parse_citations("4683202\t4683195\n".encode())
    assert _pairs(payload) == [("4683202", "4683195")]
    assert report.edges == 1
    assert report.malformed == 0


def test_parse_citations_comment_and_blank():
    payload, report = parse_citations("# header\n\n".encode())
    assert _pairs(payload) == []
    assert report.comments == 1
    assert report.blank == 1


def test_parse_citations_malformed_line_skipped():
    payload, report = parse_citations("a\tb\nc\n".encode())
    assert _pairs(payload) == [("a", "b")]
    assert report.malformed == 1


@pytest.mark.parametrize("line", ["a\t\n", "\tb\n", "a\tb\tc\n"])
def test_parse_citations_rejects_bad_fields(line):
    payload, report = parse_citations(line.encode())
    assert _pairs(payload) == []
    assert report.malformed == 1


def test_parse_metadata_basic():
    records, report = parse_metadata("4723129\t347\t1988\tCanon\n".encode())
    assert records == {"4723129": ("347", 1988, "Canon")}
    assert report.records == 1


def test_parse_metadata_missing_fields():
    records, report = parse_metadata("x\t435\t\t\n".encode())
    assert records == {"x": ("435", None, "")}
    assert report.unknown_years == 1


def test_parse_metadata_duplicate_last_wins():
    text = "x\t100\t1999\tfirst\ny\t300\t\t\nx\t200\t2001\tsecond\n"
    records, report = parse_metadata(text.encode())
    # the last record, at the first record's position
    assert list(records.items()) == [("x", ("200", 2001, "second")), ("y", ("300", None, ""))]
    assert report.duplicate_ids == 1


@pytest.mark.parametrize("year", ["notayear", "1492", "2525"])
def test_parse_metadata_bad_year_kept_unknown(year):
    records, report = parse_metadata(f"x\t435\t{year}\tacme\n".encode())
    assert records["x"][1] is None
    assert report.unknown_years == 1


def test_assemble_both_endpoints_known():
    ds = assemble_dataset(
        intern_pairs([("a", "b")]),
        {"a": ("100", 2000, ""), "b": ("200", 1999, "")},
    )
    assert ds.node_count == 2
    assert ds.build_report.placeholder_nodes == 0
    assert ds.graph.edge_count == 1


def test_assemble_placeholders_for_unknown_ids():
    ds = assemble_dataset(intern_pairs([("a", "b")]), {})
    assert ds.node_count == 2
    assert ds.build_report.placeholder_nodes == 2
    assert ds.meta_of(0).patent_id == "a"
    assert ds.meta_of(0).primary_class == ""
    assert ds.meta_of(0).grant_year is None


def test_assemble_id_map_bijection():
    ds = assemble_dataset(
        intern_pairs([("a", "b"), ("c", "a")]),
        {"b": ("100", 2000, "acme")},
    )
    assert ds.node_count == len(ds.index_to_id) == len(set(ds.index_to_id))
    for idx, pid in enumerate(ds.index_to_id):
        assert ds.index_of(pid) == idx
        assert ds.meta_of(idx).patent_id == pid
    assert ds.index_of("q") is None
    # acme owns b and a cites b: only c is left
    reduced, _ = apply_exclusion(ds, assignee_exclusion_set(ds, "acme"))
    assert reduced.index_to_id == ("c",)
    assert reduced.index_of("c") == 0
    assert reduced.index_of("a") is None
    assert reduced.index_of("b") is None


@pytest.mark.parametrize("edges", [[[0, -1]], [[-2, 1]], [[0, 1], [2, 0]]])
def test_assemble_rejects_citation_index_outside_ids(edges):
    # -1 would otherwise wrap around to the last id
    with pytest.raises(MalformedEdgeError, match="out of range"):
        assemble_dataset((["a", "b"], np.array(edges, dtype=np.int64)), {})


@pytest.mark.parametrize(
    "edges", [np.zeros((2, 3), dtype=np.int64), np.zeros(4, dtype=np.int64), [[[0, 1]]]]
)
def test_assemble_rejects_citations_not_shaped_m_by_2(edges):
    with pytest.raises(PatentFlowError, match=r"edges must be a sequence of \(citing, cited\) pairs"):
        assemble_dataset((["a", "b"], edges), {})


def _recount_oracle(citation_lines, metadata_lines):
    """Independent tally over the raw text, no ingest code involved."""
    ids = set()
    pairs = set()
    for line in metadata_lines:
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 4 and parts[0].strip():
            ids.add(parts[0].strip())
    for line in citation_lines:
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            continue
        a, b = parts[0].strip(), parts[1].strip()
        if a and b:
            ids.add(a)
            ids.add(b)
            if a != b:
                pairs.add((a, b))
    return len(ids), len(pairs)


def test_ten_thousand_line_fixture_matches_recount(tmp_path):
    import numpy as np

    rng = np.random.default_rng(11)
    cit_lines = ["# synthetic fixture\n"]
    for _ in range(6000):
        r = rng.random()
        a, b = rng.integers(0, 1800, size=2)
        if r < 0.02:
            cit_lines.append(f"only_one_field_{a}\n")
        elif r < 0.04:
            cit_lines.append("\n")
        else:
            cit_lines.append(f"n{a}\tn{b}\n")
    meta_lines = []
    for i in range(4000):
        year = 1980 + int(rng.integers(0, 30))
        if rng.random() < 0.03:
            meta_lines.append(f"n{i}\tbadline\n")
        else:
            meta_lines.append(f"n{i}\t{int(rng.integers(100, 105))}\t{year}\tco{int(rng.integers(5))}\n")

    citations = tmp_path / "citations.tsv"
    patents = tmp_path / "patents.tsv"
    citations.write_text("".join(cit_lines), encoding="utf-8")
    patents.write_text("".join(meta_lines), encoding="utf-8")

    ds = load_dataset(citations, patents)
    nodes, edges = _recount_oracle(cit_lines, meta_lines)
    assert ds.node_count == nodes
    assert ds.graph.edge_count == edges


ids_st = st.text(alphabet="abcdefgh0123456789", min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(ids_st, ids_st), max_size=30),
    st.lists(
        st.tuples(
            ids_st,
            st.sampled_from(["", "100", "200"]),
            st.one_of(st.none(), st.integers(1980, 2020)),
            st.sampled_from(["", "acme", "globex"]),
        ),
        max_size=20,
        unique_by=lambda t: t[0],
    ),
)
def test_round_trip(tmp_path_factory, edges, metas):
    records = {pid: (cls, year, asg) for pid, cls, year, asg in metas}
    ds = assemble_dataset(intern_pairs(edges), records)
    tmp = tmp_path_factory.mktemp("roundtrip")
    write_citations(ds, tmp / "c.tsv")
    write_metadata(ds, tmp / "p.tsv")
    # the bytes of the writers that went node by node through meta_of
    ids = ds.index_to_id
    assert (tmp / "c.tsv").read_text(encoding="utf-8") == "".join(
        f"{ids[u]}\t{ids[v]}\n" for u in range(ds.node_count) for v in ds.graph.out_neighbors(u)
    )
    rows = [ds.meta_of(i) for i in range(ds.node_count)]
    assert (tmp / "p.tsv").read_text(encoding="utf-8") == "".join(
        f"{m.patent_id}\t{m.primary_class}\t{'' if m.grant_year is None else m.grant_year}"
        f"\t{m.assignee}\n" for m in rows
    )
    ds2 = load_dataset(tmp / "c.tsv", tmp / "p.tsv")
    assert ds2.index_to_id == ds.index_to_id
    for idx, pid in enumerate(ds.index_to_id):
        assert ds2.index_of(pid) == idx
    assert ds2.index_of("") is None
    if ds.node_count >= 2:
        empty = np.array([], dtype=np.int64)
        drop_first = ExclusionSet("x", np.array([0]), empty, empty)
        reduced, _ = apply_exclusion(ds2, drop_first)
        assert reduced.index_of(ds.index_to_id[0]) is None
        for idx, pid in enumerate(ds.index_to_id[1:]):
            assert reduced.index_of(pid) == idx
    assert [ds2.meta_of(i) for i in range(ds2.node_count)] == [
        ds.meta_of(i) for i in range(ds.node_count)
    ]
    assert np.array_equal(ds2.graph.out_indptr, ds.graph.out_indptr)
    assert np.array_equal(ds2.graph.out_indices, ds.graph.out_indices)


def test_node_count_is_union_of_ids():
    ds = assemble_dataset(
        intern_pairs([("a", "b"), ("b", "c")]),
        {"c": ("100", 2000, ""), "d": ("200", 2001, "")},
    )
    assert ds.node_count == 4


def test_undecodable_lines_are_malformed(tmp_path):
    citations = tmp_path / "c.tsv"
    citations.write_bytes(b"a\tb\nc\t\xffd\n#\xfe comment\n")
    patents = tmp_path / "p.tsv"
    patents.write_bytes("a\t100\t2000\tcafé\n".encode() + b"b\t100\t2001\t\xe9\n")
    ds = load_dataset(citations, patents)
    cit, meta = ds.build_report.citations, ds.build_report.metadata
    assert (cit.lines, cit.edges, cit.malformed) == (3, 1, 2)
    assert (meta.lines, meta.records, meta.malformed) == (2, 1, 1)
    assert ds.meta_of(ds.index_of("a")).assignee == "café"


_chunks = st.one_of(
    st.sampled_from(
        [b"\t", b"\n", b"\r", b"\r\n", b"#", b" ", b"1999", b"\xff", b"\xc3\xa9", b"\xed\xa0\x80"]
    ),
    st.binary(max_size=6),
)
tsv_bytes = st.lists(_chunks, max_size=40).map(b"".join)


@settings(max_examples=150, deadline=None)
@given(tsv_bytes, tsv_bytes)
def test_arbitrary_bytes_never_raise_and_every_line_is_counted(
    tmp_path_factory, citation_bytes, metadata_bytes
):
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "c.tsv").write_bytes(citation_bytes)
    (tmp / "p.tsv").write_bytes(metadata_bytes)
    report = load_dataset(tmp / "c.tsv", tmp / "p.tsv").build_report
    c, m = report.citations, report.metadata
    assert c.lines == c.blank + c.comments + c.malformed + c.edges
    assert m.lines == m.blank + m.comments + m.malformed + m.records + m.duplicate_ids
