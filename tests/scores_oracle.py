"""The scores TSV writer as it was before the byte-matrix writer, kept as
an oracle.

``write_scores_tsv`` formatted every row with ``"%d\t%s\t%.17g\n"`` over
``scores.tolist()`` and wrote the joined text through ``atomic_write``. Its
body is unchanged. The byte-matrix writer must write the same bytes for
every input this one accepted.
"""
from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from patentflow.atomic import atomic_write
from patentflow.errors import PatentFlowError


def write_scores_tsv(
    index_to_id: Sequence[str], scores: np.ndarray, path: str | os.PathLike
) -> None:
    """Export ``node_index<TAB>external_id<TAB>score`` rows, 17 significant digits."""
    if len(index_to_id) != len(scores):
        raise PatentFlowError("id list and score vector differ in length")
    with atomic_write(path) as f:
        scores = np.asarray(scores, dtype=np.float64).tolist()
        f.write("".join(map("%d\t%s\t%.17g\n".__mod__, zip(range(len(scores)), index_to_id, scores))))
