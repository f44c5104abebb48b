"""The byte-matrix scores writer against the per-row writer it replaced.

Every case writes the same ids and scores with both writers and compares
the files' bytes. Small chunk sizes put chunk seams, and index widths that
cross a power of ten, inside a few hundred rows.
"""
import os
import tempfile
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patentflow import PatentFlowError, reports, write_scores_tsv
from scores_oracle import write_scores_tsv as oracle_write_scores_tsv

CHUNK = reports._WRITE_ROWS

SPECIAL = [0.0, -0.0, 5e-324, 1.0, 2.5, -0.25, -3e-7, -1e300, np.inf, -np.inf, np.nan]
POWERS = 10.0 ** -np.arange(13)
NEAR_POWERS = np.concatenate([np.nextafter(POWERS, 0.0), POWERS, np.nextafter(POWERS, 1.0)])


def assert_same_bytes(ids, scores, chunk=CHUNK):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(reports, "_WRITE_ROWS", chunk)
        new, old = os.path.join(tmp, "new.tsv"), os.path.join(tmp, "old.tsv")
        write_scores_tsv(ids, scores, new)
        oracle_write_scores_tsv(ids, scores, old)
        with open(new, "rb") as a, open(old, "rb") as b:
            assert a.read() == b.read()


def numeric_ids(n):
    return [str(4_000_000 + 3 * i) for i in range(n)]


@st.composite
def tie(draw):
    """m / 2**j with m odd. Where some such m has m * 5**j of 18 digits, m is
    drawn among those, and the value is a tie at 17 significant digits."""
    j = draw(st.integers(14, 60))
    lo, hi = -(-10**17 // 5**j), min((10**18 - 1) // 5**j, 2 ** min(j, 53) - 1)
    if lo <= hi - 1:
        m = draw(st.integers(lo // 2, (hi - 1) // 2)) * 2 + 1
        digits = Decimal(m) / Decimal(2**j)
        assert len(digits.as_tuple().digits) == 18 and digits.as_tuple().digits[-1] == 5
    else:
        m = draw(st.integers(0, 2 ** (min(j, 53) - 1) - 1)) * 2 + 1
    return m / 2**j


chunks = st.integers(1, 70)
fast_scores = st.floats(1e-11, 1.0, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(fast_scores, max_size=300), chunks)
def test_scores_in_the_exact_range_match_oracle(scores, chunk):
    assert_same_bytes(numeric_ids(len(scores)), np.array(scores, dtype=np.float64), chunk)


@settings(max_examples=60, deadline=None)
@given(st.lists(tie(), min_size=1, max_size=200), chunks)
def test_ties_match_oracle(scores, chunk):
    assert_same_bytes(numeric_ids(len(scores)), np.array(scores), chunk)


@pytest.mark.parametrize("chunk", [1, 7, CHUNK])
def test_neighbours_of_powers_of_ten_match_oracle(chunk):
    assert_same_bytes(numeric_ids(NEAR_POWERS.size), NEAR_POWERS, chunk)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(fast_scores, st.sampled_from(SPECIAL), st.floats()), max_size=200),
       chunks)
def test_every_fallback_class_matches_oracle(scores, chunk):
    assert_same_bytes(numeric_ids(len(scores)), np.array(scores, dtype=np.float64), chunk)


awkward_id = st.one_of(
    st.text(max_size=6),  # non-ASCII and empty among them
    st.text(st.characters(codec="utf-8"), min_size=33, max_size=80),
    st.text(st.sampled_from(["\x00", "\t", "\n", "7", "é", "特"]), max_size=40),
    st.integers(0, 10**9).map(str),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(awkward_id, max_size=150), chunks)
def test_awkward_ids_match_oracle(ids, chunk):
    scores = np.random.default_rng(len(ids)).random(len(ids)) * 0.01 + 1e-9
    assert_same_bytes(ids, scores, chunk)


@pytest.mark.parametrize("chunk, rows", [(8, n) for n in (0, 1, 7, 8, 9, 95, 105, 1003)]
                         + [(CHUNK, n) for n in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 100_001)])
def test_chunk_seams_and_index_widths_match_oracle(chunk, rows):
    scores = np.random.default_rng(rows).random(rows) / max(rows, 1) + 1e-10
    assert_same_bytes(numeric_ids(rows), scores, chunk)


@pytest.mark.parametrize("scores", [[0.5, 1, True, None, False], (0.125, 3), [None], [7]],
                         ids=["mixed-list", "tuple-with-int", "none", "int"])
def test_every_old_input_writes_the_same_bytes(scores):
    assert_same_bytes(numeric_ids(len(scores)), scores)
    assert_same_bytes([3, None, b"x", 2.5, ("t",)][:len(scores)], scores)  # ids that are not str


@pytest.mark.parametrize("scores", [np.zeros((2, 1)), np.zeros((1, 2)), np.float64(0.5),
                                    [[0.5], [0.25]]],
                         ids=["column", "row", "0-d", "nested-list"])
def test_refuses_scores_that_are_not_one_dimensional(tmp_path, scores):
    path = tmp_path / "scores.tsv"
    path.write_bytes(b"old\n")
    with pytest.raises(PatentFlowError, match="^score vector must be one-dimensional"):
        write_scores_tsv(["a", "b"], scores, path)
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scores.tsv"]


def test_writer_peak_does_not_grow_with_rows(tmp_path):
    peaks = []
    for n in (200_000, 800_000):
        ids = tuple(map(str, range(4_000_000, 4_000_000 + n)))
        scores = (np.random.default_rng(0).random(n) + 0.5) / n
        tracemalloc.start()
        try:
            write_scores_tsv(ids, scores, tmp_path / "scores.tsv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one chunk's byte matrix and temporaries: about 4.6 MB at either size,
    # where formatting the whole file as one str took 33 and 132 MB
    assert peaks[1] < 1.1 * peaks[0] and peaks[1] < 12e6, peaks
