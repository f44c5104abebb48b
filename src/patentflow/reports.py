"""The package's output files: the scores TSV, the top-N rank table across
one or more damping values (as text and as CSV) and the flow CSV."""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .atomic import atomic_write
from .errors import PatentFlowError
from .ingest import PatentDataset
from .pagerank import PageRankResult
from .trends import METRIC_CITATION_COUNT

SCORE_SCALE = 10**8
# Rows per byte matrix of write_scores_tsv (the fastest of 4,096 to 65,536
# at 210k and 3M rows), and the longest id (in UTF-8 bytes) that goes into
# one; a chunk with a longer id is formatted row by row.
_WRITE_ROWS = 16384
_WRITE_ID_BYTES = 64
_POW5 = 5 ** np.arange(28, dtype=np.uint64)  # 5**27 < 2**64
_DIGITS4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), np.uint32)  # 0000 to 9999
# The score field of a row: "0.", three zeros and the first digit (fixed
# notation), ".", 16 digits, "e-00" (exponent notation), then the newline.
_SCORE_FIELD = np.frombuffer(b"0.0000." + b"0" * 16 + b"e-00\n", np.uint8)


@dataclass(frozen=True)
class RankRow:
    rank: int
    patent_id: str
    primary_class: str
    ncit: int
    scores: dict[float, float]


@dataclass(frozen=True)
class RankTable:
    """Rows sorted by score at the principal damping value.

    Ties break by descending citation count, then ascending patent id.
    ``scaled`` gives the conventional score * 1e8 presentation, rounded
    half to even.
    """

    rows: tuple[RankRow, ...]
    damping_values: tuple[float, ...]

    def scaled(self, row: RankRow, damping: float) -> int:
        return round(float(row.scores[damping]) * SCORE_SCALE)


def top_table(
    dataset: PatentDataset,
    results: Sequence[PageRankResult],
    n: int,
    principal_d: float,
) -> RankTable:
    """Pick the top ``n`` patents by score at ``principal_d``."""
    damping_values = tuple(r.params.damping for r in results)
    if principal_d not in damping_values:
        raise PatentFlowError(
            f"principal damping {principal_d} not among computed values {damping_values}"
        )
    scores = results[damping_values.index(principal_d)].scores
    in_degrees = dataset.graph.in_degrees
    ids = dataset.index_to_id
    k = min(max(int(n), 0), dataset.node_count)
    candidates = []
    if k:
        # every top-k row scores at least the k-th largest score, so only
        # the nodes at or above it (boundary ties included) need the full key
        kth = dataset.node_count - k
        threshold = np.partition(scores, kth)[kth]
        candidates = np.flatnonzero(scores >= threshold).tolist()
    order = sorted(candidates, key=lambda i: (-scores[i], -int(in_degrees[i]), ids[i]))
    rows = []
    for rank, i in enumerate(order[:k], start=1):
        rows.append(
            RankRow(
                rank=rank,
                patent_id=ids[i],
                primary_class=dataset.classes[dataset.class_code[i]],
                ncit=int(in_degrees[i]),
                scores={r.params.damping: float(r.scores[i]) for r in results},
            )
        )
    return RankTable(rows=tuple(rows), damping_values=damping_values)


def render_rank_table(table: RankTable) -> str:
    """Aligned text table with scores scaled to integers."""
    score_headers = [f"PR*1E8[d={d:g}]" for d in table.damping_values]
    headers = ["RANK", "PATENT", "CLASS", "NCIT", *score_headers]
    body = []
    for row in table.rows:
        cells = [str(row.rank), row.patent_id, row.primary_class or "?", str(row.ncit)]
        cells.extend(str(table.scaled(row, d)) for d in table.damping_values)
        body.append(cells)
    widths = [max([len(h), *(len(r[c]) for r in body)]) for c, h in enumerate(headers)]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(cells, widths)) for cells in (headers, *body)]
    return "\n".join(lines) + "\n"


def write_rank_csv(table: RankTable, path: str | os.PathLike) -> None:
    """Full-precision CSV form of the table."""
    with atomic_write(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(
            ["rank", "patent_id", "class", "ncit"]
            + [f"score_d{d:g}" for d in table.damping_values]
        )
        for row in table.rows:
            writer.writerow(
                [row.rank, row.patent_id, row.primary_class, row.ncit]
                + [f"{row.scores[d]:.17g}" for d in table.damping_values]
            )


def _decimal(values: np.ndarray, width: int) -> np.ndarray:
    """The ASCII digits of each value, zero-padded to ``width`` (a multiple
    of 4) bytes, one row each."""
    out = np.empty((values.size, width // 4), np.uint32)
    for j in range(width // 4 - 1, -1, -1):
        rest = values // 10000  # np.divmod has no fast path for a scalar divisor
        out[:, j] = _DIGITS4[values - rest * 10000]
        values = rest
    return out.view(np.uint8)


def _score_field(x: np.ndarray, out: np.ndarray, keep: np.ndarray) -> bool:
    """Write ``'%.17g\\n' % v`` for each score v into the rows of ``out``,
    as the columns of ``_SCORE_FIELD`` that ``keep`` marks.

    A v in [1e-11, 1) is M * 2**e with M < 2**53. With X = floor(log10 v)
    and k = 16 - X <= 27, its 17 digits are D = M * 5**k / 2**-(e + k),
    rounded half to even: the product is formed exactly as a 128-bit pair of
    uint64 words from 32-bit limbs. No D rounds up to 1e17: below each power
    of ten in range, the nearest double is at least 4.5e-17 away, relative,
    and a carry needs 5e-18. Returns False, having written nothing of use,
    if some v is outside [1e-11, 1) or had its X misjudged by log10 (D before
    rounding outside [1e16, 1e17)).
    """
    if not ((x >= 1e-11) & (x < 1.0)).all():
        return False
    mant, e = np.frexp(x)
    exp10 = np.clip(np.floor(np.log10(x)), -11, -1).astype(np.int64)  # k <= 27 near 1e-11
    # only uint64 arrays and Python ints: uint64 with int64 gives float64
    m, p = (mant * 2.0**53).astype(np.uint64), _POW5[16 - exp10]
    t0 = (m & 0xFFFFFFFF) * (p & 0xFFFFFFFF)
    t1 = (m >> 32) * (p & 0xFFFFFFFF) + (t0 >> 32)
    t2 = (m & 0xFFFFFFFF) * (p >> 32) + (t1 & 0xFFFFFFFF)
    hi = (m >> 32) * (p >> 32) + (t1 >> 32) + (t2 >> 32)
    lo = (t2 << 32) | (t0 & 0xFFFFFFFF)
    shift = (37 + exp10 - e).astype(np.uint64)  # -(e - 53 + k)
    digits = (hi << (64 - shift)) | (lo >> shift)
    if not ((digits >= 10**16) & (digits < 10**17)).all():
        return False
    rest, half = lo & ((1 << shift) - 1), 1 << (shift - 1)
    digits += (rest > half) | ((rest == half) & (digits & 1 == 1))

    text = _decimal(digits, 20)  # "000" and the 17 digits
    out[:] = _SCORE_FIELD
    out[:, 2:6], out[:, 7:23] = text[:, :4], text[:, 4:]
    out[:, 25:27] = _DIGITS4[-exp10].view(np.uint8).reshape(-1, 4)[:, 2:]
    end = 20 - (text[:, :2:-1] != ord("0")).argmax(axis=1)  # after the last nonzero digit
    expo = (exp10 < -4)[:, None]
    keep[:, :5] = ~expo & (np.arange(-2, 3) < -1 - exp10[:, None])  # "0." and leading zeros
    keep[:, 6] = expo[:, 0] & (end > 4)
    keep[:, 7:23] = np.arange(4, 20) < end[:, None]
    keep[:, 23:27] = expo
    keep[:, [5, 27]] = True
    return True


def _score_rows(start: int, ids: list, x: np.ndarray) -> bytes:
    """The UTF-8 bytes of rows ``start`` onwards (see ``write_scores_tsv``)."""
    try:
        id_bytes = np.frombuffer(("\t".join(ids) + "\t").encode(), np.uint8)
    except TypeError:
        id_bytes = np.zeros(0, np.uint8)
    ends = np.flatnonzero(id_bytes == ord("\t"))
    id_width = np.diff(ends, prepend=-1)  # each id and its tab
    if ends.size == len(ids) and id_width.max() <= _WRITE_ID_BYTES + 1:
        digits = len(str(start + len(ids) - 1))
        width = digits + 1 + int(id_width.max())  # the index, a tab, the id and its tab
        matrix = np.empty((len(ids), width + _SCORE_FIELD.size), np.uint8)
        keep = np.ones(matrix.shape, bool)
        if _score_field(x, matrix[:, width:], keep[:, width:]):
            matrix[:, :digits] = _decimal(np.arange(start, start + len(ids)), 12)[:, -digits:]
            for j in range(1, digits):  # an index below 10**j has no digit in column digits-1-j
                keep[:max(0, 10**j - start), digits - 1 - j] = False
            matrix[:, digits] = ord("\t")
            marks = np.arange(width - digits - 1) < id_width[:, None]
            matrix[:, digits + 1:width][marks] = id_bytes
            keep[:, digits + 1:width] = marks
            return matrix[keep]
    rows = zip(range(start, start + len(ids)), ids, x.tolist())
    return "".join(map("%d\t%s\t%.17g\n".__mod__, rows)).encode()


def write_scores_tsv(
    index_to_id: Sequence[str], scores: np.ndarray, path: str | os.PathLike
) -> None:
    """Export ``node_index<TAB>external_id<TAB>score`` rows.

    Each score is written as Python's ``'%.17g' % score``. Rows are built
    16,384 at a time as one byte matrix, with the 17 digits of each score in
    [1e-11, 1) computed exactly in uint64 arithmetic (see ``_score_field``).
    A chunk with any other score, or with an id that is not a str, holds a
    tab or is longer than 64 UTF-8 bytes, is formatted by Python row by row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise PatentFlowError(f"score vector must be one-dimensional, got shape {scores.shape}")
    if len(index_to_id) != len(scores):
        raise PatentFlowError("id list and score vector differ in length")
    ids = iter(index_to_id)
    with atomic_write(path) as f:
        for start in range(0, scores.size, _WRITE_ROWS):
            chunk = scores[start:start + _WRITE_ROWS]
            f.buffer.write(_score_rows(start, list(islice(ids, chunk.size)), chunk))


def write_flow_csv(series_list, path: str | os.PathLike) -> None:
    """Write one or more series as ``target_class,source_class,year,metric,value``.

    Rows within a series are sorted by (source_class, year); count values
    are written as integers and pagerank sums with 17 significant digits.
    """
    with atomic_write(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["target_class", "source_class", "year", "metric", "value"])
        for series in series_list:
            for (cls, year), value in sorted(series.entries.items()):
                text = str(value) if series.metric == METRIC_CITATION_COUNT else f"{value:.17g}"
                writer.writerow([series.target_class, cls, year, series.metric, text])
