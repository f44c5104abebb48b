"""Top-N ranking tables across one or more damping values."""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .atomic import atomic_write
from .errors import PatentFlowError
from .ingest import PatentDataset
from .pagerank import PageRankResult

SCORE_SCALE = 10**8


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
    principal = None
    for r in results:
        if r.params.damping == principal_d:
            principal = r
            break
    if principal is None:
        raise PatentFlowError(
            f"principal damping {principal_d} not among computed values {damping_values}"
        )
    scores = principal.scores
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
                primary_class=dataset.meta_of(i).primary_class,
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
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in body)) if body else len(headers[c])
        for c in range(len(headers))
    ]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for cells in body:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(cells, widths)))
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
