"""Shared builders for hand-made and randomized datasets."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from patentflow import assemble_dataset


@dataclass(frozen=True, slots=True)
class PatentMeta:
    """One node's metadata as a record, the shape the oracles in
    ``ingest_oracle`` and ``meta_oracle`` hold. Empty class/assignee and
    None year mean unknown."""

    patent_id: str
    primary_class: str = ""
    grant_year: int | None = None
    assignee: str = ""


def meta_of(ds, i: int) -> PatentMeta:
    """Node ``i`` of dataset ``ds`` read from its columns as a record."""
    return PatentMeta(
        patent_id=ds.index_to_id[i],
        primary_class=ds.classes[ds.class_code[i]],
        grant_year=int(ds.year[i]) or None,
        assignee=ds.assignees[ds.assignee_code[i]],
    )


def columns_of(records):
    """The ``parse_metadata`` columns of an id -> (class, year, assignee)
    mapping, by the oracle converter ``ingest_oracle._columns_of``."""
    from ingest_oracle import _columns_of  # a module that imports this one

    return _columns_of(records)


def make_dataset(edges, metas):
    """Dataset from (citing_id, cited_id) string pairs and meta tuples.

    Each meta tuple is (patent_id, class, year, assignee); year may be None.
    A repeated id keeps its last tuple at its first position.
    """
    from ingest_oracle import intern_pairs  # a module that imports this one

    records = {pid: (cls, year, asg) for pid, cls, year, asg in metas}
    return assemble_dataset(intern_pairs(edges), columns_of(records))


def records_of(metas):
    """The id -> (class, year, assignee) mapping of a ``PatentMeta`` list,
    which ``columns_of`` turns into ``assemble_dataset``'s metadata input."""
    return {m.patent_id: (m.primary_class, m.grant_year, m.assignee) for m in metas}


def assert_same_columns(got, want):
    """Metadata columns equal field by field, dtypes included."""
    assert got.ids == want.ids
    for name in ("class_code", "year", "assignee_code"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name
    assert got.classes == want.classes
    assert got.assignees == want.assignees


def assert_same_dataset(got, want):
    """Datasets equal field by field: ids, columns and tables with dtypes,
    record count, every CSR array and the build report."""
    assert got.index_to_id == want.index_to_id
    for name in ("class_code", "year", "assignee_code"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name
    assert got.classes == want.classes
    assert got.assignees == want.assignees
    assert got.record_count == want.record_count
    for name in ("out_indptr", "out_indices", "in_indptr", "in_indices"):
        g, w = getattr(got.graph, name), getattr(want.graph, name)
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name
    assert got.build_report == want.build_report


def random_dataset(
    seed: int,
    n: int = 120,
    edge_factor: float = 3.0,
    classes=("100", "200", "300", "400"),
    assignees=("acme", "globex", "initech", ""),
    years=(1995, 2005),
    unknown_frac: float = 0.12,
    placeholder_frac: float = 0.08,
):
    """Messy random dataset: unknown years/classes and metadata-less citers."""
    rng = np.random.default_rng(seed)
    ids = [f"p{i:04d}" for i in range(n)]
    metas = []
    n_meta = int(n * (1.0 - placeholder_frac))
    for i in range(n_meta):
        cls = "" if rng.random() < unknown_frac / 2 else str(rng.choice(classes))
        year = None if rng.random() < unknown_frac else int(rng.integers(years[0], years[1] + 1))
        metas.append((ids[i], cls, year, str(rng.choice(assignees))))
    m = int(n * edge_factor)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    edges = [(ids[int(a)], ids[int(b)]) for a, b in zip(src, dst)]
    return make_dataset(edges, metas)
