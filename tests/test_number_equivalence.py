"""The one numbering step against the argsort numbering it replaced.

``ingest_oracle._number`` is the numbering helper as it was: an ``argsort``
(one-word keys) or ``lexsort`` of the rows, then ``minimum.reduceat`` over
the runs. ``ingest._number`` takes a (line, field, word) array, as
``_packed_fields`` returns it, and must give the oracle's codes of the
flattened keys, as (line, field) int32 codes, and its distinct rows,
whichever of its two grouping paths it takes: one ``np.sort`` of words that
hold a key's varying bits above its position, or the ``argsort``/``lexsort``
fallback when those bits do not fit in 64.

A line whose first key equals the previous line's takes that line's number
without being grouped. The parsers' payloads and reports must equal the
text-mode parsers' on grouped and ungrouped input, on runs broken by a
comment or a malformed line, on runs across a block seam and on runs whose
lines go through the per-line fallback; ``parse_metadata`` must keep each
repeated id's last record, as the oracle's ``last`` rows name it.
"""
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ingest_oracle as oracle
from conftest import assert_same_columns, columns_of
from patentflow import PatentFlowError, graph, ingest, parse_citations, parse_metadata


def _digits(value: int) -> int:
    """The decimal spelling of ``value`` packed as ``_pack`` packs an id."""
    return int.from_bytes(str(value).encode(), "little")


# one word of an ASCII-digit id (4 varying bits per byte), any word (so that
# two or three of them vary in more than 64 bits), or a few varying bits
_WORDS = {
    "digits": st.integers(10**6, 10**8 - 1).map(_digits),
    "any": st.integers(0, 2**64 - 1),
    "few": st.integers(0, 15).map(lambda v: v << 37),
}


@st.composite
def packed_keys(draw):
    """0 to 60 lines of 1 or 2 fields of 1 to 3 words, drawn with repeats
    from a small pool; a line may repeat the previous line's first key."""
    fields, width = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    word = _WORDS[draw(st.sampled_from(sorted(_WORDS)))]
    pool = draw(st.lists(st.tuples(*[word] * width), min_size=1, max_size=8))
    lines = []
    for _ in range(draw(st.integers(0, 60))):
        line = draw(st.lists(st.sampled_from(pool), min_size=fields, max_size=fields))
        if lines and draw(st.booleans()):
            line[0] = lines[-1][0]
        lines.append(line)
    return np.array(lines, dtype="<u8").reshape(len(lines), fields, width)


def _packed(*lines) -> np.ndarray:
    """(line, field, word) keys of ``lines``: each a list of fields, each a
    word or a list of words."""
    return np.array(lines, dtype="<u8").reshape(len(lines), len(lines[0]), -1)


def _assert_numbers_as_oracle(got, packed: np.ndarray):
    """``got``, what ``ingest._number`` returned, is the oracle's numbering
    of the flattened keys of ``packed``."""
    codes, distinct = got
    want_codes, _, want_distinct = oracle._number(packed.reshape(-1, packed.shape[2]).copy())
    assert codes.dtype == np.int32 and codes.shape == packed.shape[:2]
    assert np.array_equal(codes.reshape(-1), want_codes)
    assert distinct.dtype == want_distinct.dtype and np.array_equal(distinct, want_distinct)


@settings(max_examples=400, deadline=None)
@given(packed_keys(), st.sampled_from(["contiguous", "lines", "fields"]), st.sampled_from([1, 2, 3, 7, 1 << 16]))
@example(np.zeros((0, 1, 1), "<u8"), "contiguous", 1 << 16)  # no lines
@example(np.zeros((0, 2, 3), "<u8"), "lines", 1 << 16)
@example(_packed([_digits(4683202)]), "contiguous", 1 << 16)  # one line
@example(_packed([[_digits(4683202), 7]]), "fields", 1 << 16)
@example(_packed(*[[[_digits(4683202), 7]]] * 5), "lines", 2)  # all keys equal
# a run of one citing id across the seam of two-key chunks, broken once
@example(_packed(*[[_digits(4683202), _digits(4500000 + k)] for k in range(5)],
                 [_digits(4500000), _digits(4683202)], [_digits(4683202), 1 << 40]), "contiguous", 2)
# one word varying in all 64 bits, which cannot leave room for a position
@example(_packed([0, 2**64 - 1], [0, 1], [2**64 - 1, 0], [2**64 - 1, 5]), "lines", 1 << 16)
@example(_packed(*map(lambda v: [_digits(v)], [4683202, 4500000, 4683202, 4683202, 12345678])), "fields", 2)
def test_number_matches_argsort_oracle(packed, view, chunk):
    # a strided view, as a column of a wider array is, must be read the same
    given_keys = {
        "contiguous": packed.copy(),
        "lines": np.repeat(packed, 2, axis=0)[::2],
        "fields": np.concatenate((packed, packed), axis=1)[:, :packed.shape[1]],
    }[view]
    # the word packing reads ingest's name, the key compaction graph's
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk), mock.patch.object(graph, "_CHUNK_ROWS", chunk):
        got = ingest._number(given_keys)
    _assert_numbers_as_oracle(got, packed)


def _refuse(name):
    return mock.patch.object(np, name, side_effect=AssertionError(f"np.{name} was called"))


def test_number_sorts_words_only_when_the_varying_bits_fit():
    digits = _packed(*[[_digits(a), _digits(b)] for a, b in [(4683202, 4500000), (4683202, 12345678),
                                                           (12345678, 4683202), (4500000, 4500000)]])
    wide = _packed(*[[[_digits(4683202 + k), v]] for k, v in enumerate((0, 2**64 - 1, 12345))])
    with _refuse("argsort"), _refuse("lexsort"):
        got = ingest._number(digits.copy())
        with pytest.raises(AssertionError, match="lexsort"):
            ingest._number(wide.copy())
        with pytest.raises(AssertionError, match="argsort"):
            ingest._number(_packed([0], [2**64 - 1], [1]))
    _assert_numbers_as_oracle(got, digits)


def test_lexsort_path_ranks_its_groups_without_argsort():
    # 2-word keys that vary in more than 64 bits go to lexsort, and their
    # groups are ranked by the same (position, group) sort as the words'
    rng = np.random.default_rng(7)
    pool = rng.integers(0, 2**63, (6, 2), dtype=np.uint64)
    packed = pool[rng.integers(0, 6, (40, 2))].astype("<u8")
    packed[1::3, 0] = packed[:-1:3, 0]  # some runs of a first key
    with _refuse("argsort"):
        got = ingest._number(packed.copy())
    _assert_numbers_as_oracle(got, packed)


def test_number_refuses_more_keys_than_a_ranking_word_holds():
    # a zero-stride view, so that no key is allocated
    with pytest.raises(PatentFlowError, match="2\\*\\*32"):
        ingest._number(np.broadcast_to(np.zeros(1, "<u8"), ((1 << 31) + 1, 2, 1)))


def _text(data: bytes) -> io.TextIOWrapper:
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", errors="surrogateescape")


def _assert_parses_as_text_mode(data: bytes, block_bytes: int = 1 << 20):
    with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
        (ids, edges), report = parse_citations(data)
    (want_ids, want_edges), want_report = oracle.parse_citations_text(_text(data))
    assert ids == want_ids
    assert edges.dtype == want_edges.dtype and edges.shape == want_edges.shape
    assert np.array_equal(edges, want_edges)
    assert report == want_report


LONG = b"x" * 40
CITATION_CASES = {
    "grouped": b"p1\tp2\np1\tp3\np1\tp2\np2\tp1\np2\tp4\np3\tp1\n",
    "no-adjacent-repeat": b"p1\tp2\np2\tp3\np1\tp4\np3\tp1\np1\tp3\n",
    "run-broken-by-comment": b"p1\tp2\n# note\np1\tp3\n\np1\tp4\n",
    "run-broken-by-malformed": b"p1\tp2\np1\np1\tp3\np1\t\np1\tp4\np1\tp2\tp3\np1\tp5\n",
    "run-of-fallback-spellings": b"p1\tp2\n p1\tp3\np1 \tp4\np1\tp5\n",
    "run-of-long-ids": LONG + b"\tp1\n" + LONG + b"\tp2\n" + LONG + b"\tp1\np2\t" + LONG + b"\n",
    "run-of-non-ascii-ids": "\xe9\tp1\n\xe9\tp2\np1\t\xe9\n\xe9\tp3\n".encode(),
    "long-then-simple-twin": b"x" * 32 + b"\tp1\n " + b"x" * 32 + b"\tp2\n" + b"x" * 32 + b"\tp3\n",
    "id-cited-before-its-run": b"p2\tp3\np3\tp1\np3\tp2\np1\tp3\n",
}


@pytest.mark.parametrize("block_bytes", [1, 7, 13, 1 << 20])
@pytest.mark.parametrize("name", sorted(CITATION_CASES))
def test_parse_citations_runs_match_text_mode(name, block_bytes):
    # a small block puts runs across block seams
    _assert_parses_as_text_mode(CITATION_CASES[name], block_bytes)


_RUN_IDS = [b"p1", b"p2", b"4683202", b"12345678", b" p1", b"p1 ", LONG, "\xe9".encode(), b"y" * 17]
_RUN_BREAKS = [b"# comment", b"", b"p1", b"p1\t", b"\tp1", b"p1\tp2\tp3", b"p\xff1\tp2"]


@st.composite
def grouped_citations(draw):
    """Runs of lines that share a citing id, perhaps broken by junk lines,
    perhaps in shuffled line order."""
    lines = []
    for citing in draw(st.lists(st.sampled_from(_RUN_IDS), max_size=12)):
        for cited in draw(st.lists(st.sampled_from(_RUN_IDS), min_size=1, max_size=5)):
            lines.append(citing + b"\t" + cited)
            if draw(st.integers(0, 9)) == 0:
                lines.append(draw(st.sampled_from(_RUN_BREAKS)))
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    return b"".join(line + b"\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(grouped_citations(), st.sampled_from([1, 7, 40, 1 << 20]))
def test_parse_citations_of_grouped_and_shuffled_files_match_text_mode(data, block_bytes):
    _assert_parses_as_text_mode(data, block_bytes)


def test_numeric_ids_are_parsed_without_argsort_or_lexsort():
    # 7- and 8-digit ids, 3-digit classes, years and "Co <n>" assignees all
    # vary in few enough bits for the one sort; a later change must not
    # send them back to argsort or lexsort unnoticed
    rng = np.random.default_rng(3)
    ids = [str(v) for v in rng.integers(10**6, 10**8, 400)]
    citing = np.sort(rng.integers(0, 400, 3000))
    citing[::3] = rng.integers(0, 400, 1000)  # runs, some broken
    citations = "".join(f"{ids[a]}\t{ids[b]}\n" for a, b in zip(citing, rng.integers(0, 400, 3000))).encode()
    patents = "".join(f"{pid}\t{rng.integers(100, 1000)}\t{rng.integers(1976, 2006)}\tCo {rng.integers(0, 60)}\n"
                      for pid in ids).encode()
    (want_ids, want_edges), want_cit = parse_citations(citations)
    want_records, want_meta = parse_metadata(patents)
    with _refuse("argsort"), _refuse("lexsort"):
        (got_ids, got_edges), got_cit = parse_citations(citations)
        records, meta = parse_metadata(patents)
        # the patch does reach the fallback: these ids vary in 16 bytes
        with pytest.raises(AssertionError, match="sort"):
            parse_citations(b"".join(rng.bytes(8).hex().encode() + b"\tp1\n" for _ in range(50)))
    assert got_ids == want_ids and np.array_equal(got_edges, want_edges) and got_cit == want_cit
    assert records.ids == want_records.ids and meta == want_meta
    for name in ("class_code", "year", "assignee_code", "classes", "assignees"):
        assert np.array_equal(getattr(records, name), getattr(want_records, name))


_RECORD_IDS = [b"p1", b"p2", b"4683202", b"12345678", LONG, "\xe9".encode(), b"y" * 17]


@st.composite
def repeated_ids(draw):
    """Record ids that repeat, on consecutive lines and apart."""
    ids = []
    for _ in range(draw(st.integers(0, 40))):
        ids.append(ids[-1] if ids and draw(st.booleans()) else draw(st.sampled_from(_RECORD_IDS)))
    return ids


@settings(max_examples=300, deadline=None)
@given(repeated_ids(), st.sampled_from([1, 7, 40, 1 << 20]))
@example([b"p1", b"p1", b"p2", b"p1", b"p1"], 1 << 20)
def test_parse_metadata_keeps_the_last_record_of_each_id_as_the_oracle(ids, block_bytes):
    # each line's class and assignee name the line, so the kept line shows
    years = (b"1990", b"2001", b"19x5")
    data = b"".join(b"%s\tc%d\t%s\tco %d\n" % (pid, n, years[n % 3], n) for n, pid in enumerate(ids))
    with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
        records, report = parse_metadata(data)
    text = [pid.decode() for pid in ids]
    _, last, _ = oracle._number(ingest._pack(*ingest._token_bytes(text, {})), last=True)
    rows = last.tolist()
    assert records.ids == tuple(dict.fromkeys(text))
    assert [records.classes[c] for c in records.class_code.tolist()] == [f"c{n}" for n in rows]
    assert [records.assignees[c] for c in records.assignee_code.tolist()] == [f"co {n}" for n in rows]
    assert records.year.tolist() == [(1990, 2001, 0)[n % 3] for n in rows]
    assert (report.records, report.duplicate_ids) == (len(rows), len(ids) - len(rows))


@pytest.mark.parametrize("block_bytes", [1, 7, 40, 1 << 20])
def test_parse_metadata_year_runs_across_block_seams_match_text_mode(block_bytes):
    # records grouped by year, so that runs of one spelling, unknown and
    # spaced ones among them, cross the block seams
    runs = [(b"1976", 3), (b" 1976", 1), (b"1976", 2), (b"19x5", 5), (b"", 2), (b"2100", 4),
            (b"2101", 1), (b"1790", 6), (b"02000", 2), (b"2000", 3)]
    years = [year for year, count in runs for _ in range(count)]
    data = b"".join(b"p%d\t100\t%s\tAcme\n" % (n, year) for n, year in enumerate(years))
    with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
        records, report = parse_metadata(data)
    want_records, want_report = oracle.parse_metadata_text(_text(data))
    assert_same_columns(records, columns_of(want_records))
    assert report == want_report
