"""Byte-level ingest against the text-mode and string-pair ingest it replaced.

``ingest_oracle`` keeps the text-mode parsers, which read a file opened in
text mode with universal newlines and ``surrogateescape`` line by line, and
the string-pair ``parse_citations``, the ``PatentMeta``-list
``parse_metadata`` and their ``assemble_dataset``, as they were.

The byte parsers must give the text-mode parsers' payloads and reports for
the same bytes, in blocks of any size, on inputs rich in the bytes whose
handling the fast path must get exactly right. The interning parser's
payload, mapped back to id strings, must equal the string-pair oracle's
pairs; the metadata mapping must hold the oracle's records as
``id -> (class, year, assignee)`` in the same order; and
``assemble_dataset(intern_pairs(pairs), columns_of(records_of(metas)))``
must build the dataset the oracle builds from ``pairs`` and ``metas``: ids,
columns and tables with dtypes, record count, every CSR array and the build
report.
Inputs include duplicate metadata ids, ids seen only in citations,
self-loops, repeated pairs and empty inputs.
"""
import codecs
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ingest_oracle as oracle
from ingest_oracle import intern_pairs
from conftest import PatentMeta, assert_same_columns, assert_same_dataset, columns_of, records_of
from patentflow import (
    assemble_dataset,
    ingest,
    load_dataset,
    parse_citations,
    parse_metadata,
)

# "p1 " and " p1" strip to "p1"; "é" is a non-ASCII id
ID_POOL = ["p0", "p1", "p2", "p3", "p4", "p5", "p1 ", " p1", "é"]


def _pairs(payload):
    ids, edges = payload
    assert edges.dtype == np.int32 and edges.ndim == 2 and edges.shape[1] == 2
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
    got = assemble_dataset(intern_pairs(pairs), columns_of(records_of(metas)))
    assert_same_dataset(got, oracle.assemble_dataset(pairs, metas))


def test_assemble_empty_inputs_match_oracle():
    assert_same_dataset(assemble_dataset(intern_pairs([]), columns_of({})), oracle.assemble_dataset([], []))
    metas = [PatentMeta("a", "100", 2000, "acme"), PatentMeta("a", "200", 2001, "")]
    assert_same_dataset(
        assemble_dataset(intern_pairs([]), columns_of(records_of(metas))),
        oracle.assemble_dataset([], metas),
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
    payload, cit_report = parse_citations(citations.encode("utf-8", "surrogateescape"))
    want_pairs, want_cit_report = oracle.parse_citations(io.StringIO(citations))
    assert _pairs(payload) == want_pairs
    assert cit_report == want_cit_report
    records, meta_report = parse_metadata(patents.encode("utf-8", "surrogateescape"))
    want_metas, want_meta_report = oracle.parse_metadata(io.StringIO(patents))
    assert_same_columns(records, columns_of(records_of(want_metas)))
    assert meta_report == want_meta_report
    assert_same_dataset(
        assemble_dataset(payload, records, cit_report, meta_report),
        oracle.assemble_dataset(want_pairs, want_metas, want_cit_report, want_meta_report),
    )


# ids of 1 to 33 bytes, which pack into one to five words (33 bytes is too
# long for the fast path), one holding DEL, which the fast path reads as
# simple though ``str.isprintable()`` does not, and spellings that strip to
# one of them, or hold a NUL, another control byte, a non-ASCII character or
# bytes that are not UTF-8
_IDS = [
    b"p1", b"p", b"p2", b"4683202", b"12345678", b"US4683202", b"EP1234567A1", b"x" * 16,
    b"y" * 17, b"WO2005123456A2-0000001", b"z" * 24, b"w" * 32, b"v" * 33, b"p\x7f1",
]
_ID_SPELLINGS = [
    b" p1", b"p1 ", b"p1\x1c", b"\x1fp1", "\u3000p1".encode(), "p1\x85".encode(), b"p\x001",
    b"\x00", b"p\xff1", "\xe9".encode(), b"\xed\xa0\x80", b"#p1", b" #p1", b"p 1", b" US4683202 ",
    b" p\x7f1", b"\x01p1",
]
_YEARS = [
    b"", b"1999", b"2000", b"0199", b"1789", b"1790", b"2100", b"2101", b"+1990", b"-1990",
    b"1_990", b"01990", b"1" * 30, b" 1999", b"1999\x1c", b"n/a", "\u0661\u0669\u0669\u0660".encode(),
    b"19\xff", b"0001999", b"0" * 29 + b"1999", b"19\x0099", "1\uff1999".encode(), b"19 99",
]
# labels longer than 32 bytes or holding a NUL are numbered by a dict; U+00A0
# and U+3000 at an edge are stripped, as a space is
_CLASSES = [
    b"", b"100", b"200", b" 200", b"200\x1c", "\xe9".encode(), b"a b", b"\xff", b"c" * 33,
    b"2\x000", "\xa0200".encode(), "200\u3000".encode(),
]
_ASSIGNEES = [
    b"", b"Acme", b"Org1155 GmbH", b" Acme", b"Acme\x1f ", "Soci\xe9t\xe9".encode(),
    "\u3000Acme".encode(), b"\xc3", "Org1270 Soci\xe9t\xe9 Anonyme Holdings".encode(),
    b"Ac\x00me", "Acme\xa0".encode(), "Acme\u3000".encode(),
]
_JUNK = [b"", b"   ", b"\t", b"\t\t\t", b"#", b"# comment", b"\x1c", "\x85".encode(), b"p1", b"p1\tp2\tp3"]


def _join(lines: list[tuple[bytes, bytes]], final_newline: bool) -> bytes:
    data = b"".join(line + end for line, end in lines)
    if lines and not final_newline:
        data = data[: -len(lines[-1][1])]
    return data


def _tsv(*fields):
    """Bytes of a TSV file, perhaps after a byte-order mark: records of
    ``fields`` mixed with junk lines, each ended by a newline, a CR LF pair
    or a lone CR, except perhaps the last."""
    line = st.one_of(
        st.tuples(*fields).map(b"\t".join),
        st.sampled_from(_JUNK),
        st.binary(max_size=6),
    )
    ends = st.sampled_from([b"\n", b"\r\n", b"\r"])
    bom = st.sampled_from([b"", codecs.BOM_UTF8])
    return st.tuples(bom, st.lists(st.tuples(line, ends), max_size=30), st.booleans()).map(
        lambda t: t[0] + _join(*t[1:])
    )


_id = st.sampled_from(_IDS + _ID_SPELLINGS)
citations_bytes = _tsv(_id, _id)
patents_bytes = _tsv(_id, st.sampled_from(_CLASSES), st.sampled_from(_YEARS), st.sampled_from(_ASSIGNEES))


def _text(data: bytes) -> io.TextIOWrapper:
    """``data`` as a file opened in text mode, as the text-mode parsers read
    it; ``utf-8-sig`` skips a leading UTF-8 byte-order mark."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", errors="surrogateescape")


@settings(max_examples=400, deadline=None)
@given(citations_bytes, patents_bytes, st.sampled_from([1, 2, 3, 7, 40, 1 << 20]))
# p1 first appears in a fallback line, then in a simple one
@example(b" p1\tp2\np1\tp3\n", b"", 1 << 20)
# a fallback-only non-ASCII id between simple lines, then the same data with
# the fallback line at a block seam
@example(b"p2\tp1\n\xc3\xa9\tp1 \np3\tp2\n", b"", 1 << 20)
@example(b"p2\tp1\n\xc3\xa9\tp1 \np3\tp2\n", b"", 7)
# ids that zero padding would merge
@example(b"p\tq\np\x00\tp\x00\x00\nq\tp\x00\n", b"", 1 << 20)
# two 40-byte ids with the same first 32 bytes, one on both sides of a seam
@example(b"x" * 32 + b"aaaaaaaa\tp1\np2\t" + b"x" * 32 + b"aaaaaaaa\n" + b"x" * 32 + b"bbbbbbbb\tp1\n",
         b"", 7)
# a repeated id whose first record's class appears nowhere else
@example(b"p1\tp2\n", b"p1\tONLY\t1999\tAcme\np2\t100\t2000\tAcme\np1\t200\t2001\tB\n", 1 << 20)
# a non-ASCII assignee line just after a block seam, then just before one
@example(b"", b"p1\t100\t1999\tAcme Corp\np2\t200\t2000\tSoci\xc3\xa9t\xc3\xa9 Anonyme\n", 24)
@example(b"", b"p2\t200\t2000\tSoci\xc3\xa9t\xc3\xa9 Anonyme\np1\t100\t1999\tAcme Corp\n", 32)
# an invalid UTF-8 line in a block with valid non-ASCII lines
@example(b"", b"p1\t100\t1999\tSoci\xc3\xa9t\xc3\xa9\np2\t100\t1999\tAc\xffme\np3\t\xc3\xa9\t2000\tx\n",
         1 << 20)
# every accepted line falls back, so only fallback ids set the key width
@example(b" p1\t" + b"y" * 17 + b"\n\xc3\xa9\tp1\n#\n", b"", 1 << 20)
# a 32-byte id read once from a fallback line and once from a simple one
@example(b" " + b"w" * 32 + b"\tp1\n" + b"w" * 32 + b"\tp1\n", b"", 1 << 20)
# files that start with a byte-order mark, one before a CR LF line end, and
# a byte-order mark inside a line, which is part of its id
@example(codecs.BOM_UTF8 + b"p1\tp2\r\np2\t\xef\xbb\xbfp1\n",
         codecs.BOM_UTF8 + b"p1\t100\t1999\tAcme\n", 1 << 20)
@example(codecs.BOM_UTF8 + b"\r\np1\tp2", codecs.BOM_UTF8, 7)
def test_byte_parsers_match_text_mode_parsers(citation_data, patent_data, block_bytes):
    with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
        (ids, edges), cit_report = parse_citations(citation_data)
        records, meta_report = parse_metadata(patent_data)
    (want_ids, want_edges), want_cit_report = oracle.parse_citations_text(_text(citation_data))
    want_records, want_meta_report = oracle.parse_metadata_text(_text(patent_data))
    assert ids == want_ids
    assert edges.dtype == want_edges.dtype and edges.shape == want_edges.shape
    assert np.array_equal(edges, want_edges)
    assert cit_report == want_cit_report
    assert_same_columns(records, columns_of(want_records))
    assert meta_report == want_meta_report
    pairs = [(want_ids[a], want_ids[b]) for a, b in want_edges.tolist()]
    metas = [PatentMeta(pid, *record) for pid, record in want_records.items()]
    assert_same_dataset(
        assemble_dataset((ids, edges), records, cit_report, meta_report),
        oracle.assemble_dataset(pairs, metas, want_cit_report, want_meta_report),
    )


@settings(max_examples=200, deadline=None)
@given(citations_bytes, patents_bytes)
def test_mapping_and_parsed_columns_assemble_the_same_dataset(citation_data, patent_data):
    citations, _ = parse_citations(citation_data)
    records, _ = parse_metadata(patent_data)
    mapping, _ = oracle.parse_metadata_text(_text(patent_data))
    assert type(mapping) is dict
    assert_same_dataset(assemble_dataset(citations, records),
                         assemble_dataset(citations, columns_of(mapping)))


@pytest.mark.parametrize("year", _YEARS)
def test_byte_parser_reads_each_year_as_text_mode_does(year):
    data = b"p1\t100\t" + year + b"\tAcme\nUS4683202\t\t" + year + b"\t\n"
    records, report = parse_metadata(data)
    want_records, want_report = oracle.parse_metadata_text(_text(data))
    assert_same_columns(records, columns_of(want_records))
    assert report == want_report


def test_load_dataset_counts_planted_malformed_lines(tmp_path):
    citations = [
        b"a\tb", b"x", b"# comment", b"\tx", b"x\t ", b"", b"c\td", b"a\tb",
        b"x\ty\tz", b"a\t\xff", b"e", b"f\tg",
    ]
    patents = [b"a\t100\t1999\tAcme", b"a\t100", b"\t100\t1999\tAcme", b"b\t\t\t"] * 3
    # a lone \r ends a line too
    (tmp_path / "c.tsv").write_bytes(b"\r".join(citations))
    (tmp_path / "p.tsv").write_bytes(b"\r\n".join(patents) + b"\n")
    report = load_dataset(tmp_path / "c.tsv", tmp_path / "p.tsv").build_report
    assert (report.citations.lines, report.citations.malformed) == (12, 6)
    assert (report.citations.comments, report.citations.blank) == (1, 1)
    assert (report.metadata.lines, report.metadata.malformed) == (12, 6)


def test_load_dataset_skips_utf8_byte_order_mark(tmp_path):
    citations = b"4723129\t4683202\r\n4683202\t4500000\r\n5000001\t4723129\r\n"
    patents = b"4723129\t435\t1988\tCetus\n4683202\t435\t1987\tCetus\n"
    for name, data in (("c.tsv", citations), ("p.tsv", patents)):
        (tmp_path / name).write_bytes(data)
        (tmp_path / f"bom_{name}").write_bytes(codecs.BOM_UTF8 + data)
    plain = load_dataset(tmp_path / "c.tsv", tmp_path / "p.tsv")
    assert plain.build_report.placeholder_nodes == 2
    assert_same_dataset(load_dataset(tmp_path / "bom_c.tsv", tmp_path / "bom_p.tsv"), plain)
    # the parsers skip it, so load_dataset is the three library calls
    (ids, edges), cit_report = parse_citations(codecs.BOM_UTF8 + citations)
    (want_ids, want_edges), want_cit_report = parse_citations(citations)
    assert ids == want_ids and ids[0] == "4723129"
    assert np.array_equal(edges, want_edges)
    assert cit_report == want_cit_report
    records, meta_report = parse_metadata(codecs.BOM_UTF8 + patents)
    want_records, want_meta_report = parse_metadata(patents)
    assert_same_columns(records, want_records)
    assert meta_report == want_meta_report
    assert_same_dataset(assemble_dataset((ids, edges), records, cit_report, meta_report), plain)
