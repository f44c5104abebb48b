"""The one-sort id numbering against the argsort numbering it replaced.

``ingest_oracle._number`` is the numbering helper as it was: an ``argsort``
(one-word keys) or ``lexsort`` of the rows, then ``minimum.reduceat`` over
the runs. ``ingest._number`` must give the same codes, first (or last) rows
and distinct rows, with the same dtypes, whichever of its two paths it
takes: one ``np.sort`` of words that hold a row's varying bits above its
position, or the ``argsort``/``lexsort`` fallback when those bits do not fit
in 64.

``parse_citations`` numbers only the first citing id of each run of equal
citing ids and repeats its number along the run. Its payload and report must
equal the text-mode parser's on grouped and ungrouped input, on runs broken
by a comment or a malformed line, on runs across a block seam and on runs
whose lines go through the per-line fallback.
"""
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ingest_oracle as oracle
from patentflow import ingest, parse_citations, parse_metadata


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
def key_rows(draw):
    """0 to 80 rows of 1 to 3 words, drawn with repeats from a small pool."""
    width = draw(st.integers(1, 3))
    word = _WORDS[draw(st.sampled_from(sorted(_WORDS)))]
    pool = draw(st.lists(st.tuples(*[word] * width), min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(pool), max_size=80))
    return np.array(rows, dtype="<u8").reshape(len(rows), width)


def _keys(*rows) -> np.ndarray:
    return np.array(rows, dtype="<u8").reshape(len(rows), -1)


def _assert_same_numbering(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


@settings(max_examples=400, deadline=None)
@given(key_rows(), st.booleans(), st.booleans(), st.sampled_from([1, 2, 3, 7, 1 << 16]))
@example(np.zeros((0, 1), "<u8"), False, False, 1 << 16)  # no rows
@example(np.zeros((0, 3), "<u8"), True, False, 1 << 16)
@example(_keys(_digits(4683202)), True, False, 1 << 16)  # one row
@example(_keys(*[[_digits(4683202), 7]] * 5), False, True, 2)  # all rows equal
@example(_keys(*[[_digits(4683202), 7]] * 5), True, False, 2)
# one word varying in all 64 bits, which cannot leave room for a position
@example(_keys(0, 2**64 - 1, 1, 0, 2**64 - 1), True, False, 1 << 16)
@example(_keys(*map(_digits, [4683202, 4500000, 4683202, 12345678, 4500000])), True, True, 2)
def test_number_matches_argsort_oracle(keys, last, strided, chunk):
    # a strided view, as a column of a wider array is, must be read the same
    given_keys = np.repeat(keys, 2, axis=0)[::2] if strided else keys.copy()
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk):
        got = ingest._number(given_keys, last)
    _assert_same_numbering(got, oracle._number(keys.copy(), last))


def _refuse(name):
    return mock.patch.object(np, name, side_effect=AssertionError(f"np.{name} was called"))


def test_number_sorts_words_only_when_the_varying_bits_fit():
    digits = _keys(*map(_digits, [4683202, 4500000, 4683202, 12345678]))
    wide = _keys(*[[_digits(4683202 + k), v] for k, v in enumerate((0, 2**64 - 1, 12345))])
    want = oracle._number(digits.copy())
    with _refuse("argsort"), _refuse("lexsort"):
        _assert_same_numbering(ingest._number(digits.copy()), want)
        with pytest.raises(AssertionError, match="lexsort"):
            ingest._number(wide.copy())
        with pytest.raises(AssertionError, match="argsort"):
            ingest._number(_keys(0, 2**64 - 1, 1))


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
