"""Text-mode and string-pair ingest code, kept as oracles.

``parse_citations_text`` and ``parse_metadata_text`` are the parsers as
they were before the byte-level parser: they read lines of text, such as
a file opened in text mode with ``surrogateescape``, and classify each
line with ``_accepted_fields``. The byte parser must give the same
payloads and reports for the same file contents.

``parse_citations``, ``parse_metadata`` and ``assemble_dataset`` are the
ingest functions as they were when the citation payload was a list of
``(citing, cited)`` id strings that ``assemble_dataset`` interned in a
second dict. Their bodies are unchanged. The interning code must give the
same pairs, records and reports, and the same datasets.

``intern_pairs`` numbers ``(citing, cited)`` id pairs with a dict. It was
the package's second way to build the ``(ids, edges)`` citation payload,
beside ``parse_citations``'s key sort, and is kept unchanged as the oracle
of that payload.

``_columns_of``, ``_year_column`` and ``_require_strings`` convert an id ->
``(class, year, assignee)`` mapping into the ``MetadataColumns`` that
``parse_metadata`` returns, and check its values. They were
``assemble_dataset``'s second form of metadata input, and are kept
unchanged as the oracle of that payload.

``_number`` numbers the distinct rows of a packed key array by first
appearance with an ``argsort`` or ``lexsort`` of the rows and
``minimum.reduceat`` over the runs. It was the package's numbering helper
before the one sort of compacted key and position, and is kept unchanged as
the oracle of that helper.

``write_citations`` and ``write_metadata`` serialize a dataset back to the
two file formats. They were the package's writers for ``gen`` before the
generator formatted its own bytes, and are kept unchanged as the oracle of
those bytes.

``label_fits_patents_tsv`` is the spec's label rule as it was stated
before ``SyntheticSpec`` asked ``parse_metadata`` whether a label reads
back unchanged; it is kept unchanged as the oracle of that check.
"""
from __future__ import annotations

import os
from itertools import chain
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from conftest import PatentMeta
from patentflow.atomic import atomic_write
from patentflow.errors import PatentFlowError
from patentflow.graph import build_graph
from patentflow.ingest import (
    CitationParseReport,
    DatasetBuildReport,
    MetadataColumns,
    MetadataParseReport,
    PatentDataset,
    _label_column,
    _pack,
    _parse_year,
    _token_bytes,
    _undecodable,
)

# the int16 year column holds 0 for unknown, so a known year must be positive
_YEAR_COLUMN_MAX = int(np.iinfo(np.int16).max)


def _pair(pair: Sequence[str]) -> Sequence[str]:
    if isinstance(pair, (str, bytes)) or len(pair) != 2:
        raise PatentFlowError(f"{pair!r} is not a (citing, cited) pair of ids")
    return pair


def intern_pairs(pairs: Iterable[Sequence[str]]) -> tuple[list[str], np.ndarray]:
    """The distinct ids of ``pairs`` in first-appearance order, and the pairs
    as an (m, 2) int32 array of indices into that list. Raises PatentFlowError
    for a pair that is a str or bytes or not two ids, or an unhashable id."""
    index: dict[str, int] = {}
    try:
        flat = np.fromiter((index.setdefault(pid, len(index)) for pair in map(_pair, pairs)
                            for pid in pair), np.int32)
    except TypeError as exc:  # a pair without a length, or an unhashable id
        raise PatentFlowError(f"malformed (citing, cited) pair: {exc}") from None
    return list(index), flat.reshape(-1, 2)


def _year_column(years: list[int | None]) -> np.ndarray:
    """Grant years as int16 with 0 for unknown; a known year must be an
    integer, numpy's included but not a bool, in [1, 32767]."""
    for kind in set(map(type, years)) - {type(None)}:
        if issubclass(kind, bool) or not issubclass(kind, (int, np.integer)):
            raise PatentFlowError(f"grant year of type {kind.__name__} is not an integer")
    bad = [y for y in years if y is not None and not 1 <= y <= _YEAR_COLUMN_MAX]
    if bad:
        raise PatentFlowError(f"grant year {int(bad[0])} is outside [1, {_YEAR_COLUMN_MAX}]")
    return np.array([0 if y is None else y for y in years], dtype=np.int16)


def _require_strings(values: Iterable) -> None:
    for kind in set(map(type, values)):
        if not issubclass(kind, str):
            raise PatentFlowError(f"an id, class or assignee of type {kind.__name__} is not a string")


def _columns_of(records: Mapping[str, tuple[str, int | None, str]]) -> MetadataColumns:
    """The columns of an id -> ``(class, year, assignee)`` mapping."""
    try:
        classes, years, assignees = list(zip(*[(c, y, a) for c, y, a in records.values()])) or [()] * 3
    except (TypeError, ValueError) as exc:  # not a triple
        raise PatentFlowError(f"malformed metadata record: {exc}") from None
    _require_strings(chain(records, classes, assignees))
    year, names = _year_column(years), {}
    class_code, class_table = _label_column(_pack(*_token_bytes(classes, names)), names)
    assignee_code, assignee_table = _label_column(_pack(*_token_bytes(assignees, names)), names)
    return MetadataColumns(tuple(records), class_code, year, assignee_code, class_table, assignee_table)


def _number(keys: np.ndarray, last: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the distinct rows of ``keys`` by first appearance, sorting
    ``keys`` in place. Return each row's number (int32), each number's first
    row (or its last, with ``last``), and the distinct rows in number order."""
    rows = len(keys)
    if keys.shape[1] == 1:
        order = np.argsort(keys[:, 0])
        keys.sort(axis=0)
    else:
        order = np.lexsort(keys.T[::-1])
        keys[...] = keys[order]
    head = np.ones(rows, dtype=bool)
    np.not_equal(keys[1:, 0], keys[:-1, 0], out=head[1:])
    for j in range(1, keys.shape[1]):
        head[1:] |= keys[1:, j] != keys[:-1, j]
    runs = np.flatnonzero(head)
    first = np.minimum.reduceat(order, runs)
    by_first = np.argsort(first)
    code = np.empty(len(runs), dtype=np.int32)
    code[by_first] = np.arange(len(runs))
    codes = np.empty(rows, dtype=np.int32)
    codes[order] = np.repeat(code, np.diff(runs, append=rows))
    if last:
        first = np.maximum.reduceat(order, runs)
    return codes, first[by_first], keys[runs[by_first]]


def _accepted_fields(
    stream: Iterable[str] | IO[str], width: int, id_fields: int, counts: dict
) -> Iterator[list[str]]:
    """Yield the tab-separated fields of each accepted line of ``stream``,
    with the ids stripped.

    The first ``id_fields`` fields (one or two) hold ids. A line is blank,
    a comment or malformed, or else accepted. It is malformed when it holds
    undecodable bytes, does not split into ``width`` fields, or has an
    empty id. Once the stream is exhausted, ``counts`` gets the ``lines``,
    ``blank``, ``comments`` and ``malformed`` tallies.
    """
    last_id = id_fields - 1
    lines = blank = comments = malformed = 0
    for raw in stream:
        lines += 1
        line = raw.rstrip("\r\n")
        if not line.isascii() and _undecodable(line):
            malformed += 1
            continue
        if not line.strip():
            blank += 1
            continue
        if line.startswith("#"):
            comments += 1
            continue
        fields = line.split("\t")
        if len(fields) != width:
            malformed += 1
            continue
        fields[0] = fields[0].strip()
        fields[last_id] = fields[last_id].strip()
        if not fields[0] or not fields[last_id]:
            malformed += 1
            continue
        yield fields
    counts.update(lines=lines, blank=blank, comments=comments, malformed=malformed)


def parse_citations_text(
    stream: Iterable[str] | IO[str],
) -> tuple[tuple[list[str], np.ndarray], CitationParseReport]:
    """Read citing/cited id pairs, skipping and counting bad lines. The
    payload is ``intern_pairs`` of the accepted pairs."""
    counts: dict = {}
    ids, edges = intern_pairs(_accepted_fields(stream, 2, 2, counts))
    return (ids, edges), CitationParseReport(edges=len(edges), **counts)


def parse_metadata_text(
    stream: Iterable[str] | IO[str],
) -> tuple[dict[str, tuple[str, int | None, str]], MetadataParseReport]:
    """Read patent metadata records.

    The payload maps each id to its ``(class, year, assignee)`` in record
    order; a repeated id keeps its last record at its first position. A
    year that is missing, non-numeric, or outside [1790, 2100] is stored as
    None and counted as unknown.
    """
    records: dict[str, tuple[str, int | None, str]] = {}
    counts: dict = {}
    accepted = unknown_years = 0
    for parts in _accepted_fields(stream, 4, 1, counts):
        accepted += 1
        year = _parse_year(parts[2])
        if year is None:
            unknown_years += 1
        records[parts[0]] = (parts[1].strip(), year, parts[3].strip())
    report = MetadataParseReport(
        records=len(records), duplicate_ids=accepted - len(records), unknown_years=unknown_years,
        **counts,
    )
    return records, report


def parse_citations(stream: Iterable[str] | IO[str]) -> tuple[list[tuple[str, str]], CitationParseReport]:
    """Read citing/cited id pairs, skipping and counting bad lines."""
    counts: dict[str, int] = {}
    edges = [(citing, cited) for citing, cited in _accepted_fields(stream, 2, 2, counts)]
    return edges, CitationParseReport(edges=len(edges), **counts)


def parse_metadata(stream: Iterable[str] | IO[str]) -> tuple[list[PatentMeta], MetadataParseReport]:
    """Read patent metadata records.

    Duplicate ids keep the last record (at the first record's position).
    A year that is missing, non-numeric, or outside [1790, 2100] is stored
    as unknown and counted.
    """
    records: list[PatentMeta] = []
    position: dict[str, int] = {}
    counts: dict[str, int] = {}
    duplicates = unknown_years = 0
    for parts in _accepted_fields(stream, 4, 1, counts):
        patent_id = parts[0]
        year = _parse_year(parts[2])
        if year is None:
            unknown_years += 1
        meta = PatentMeta(
            patent_id=patent_id,
            primary_class=parts[1].strip(),
            grant_year=year,
            assignee=parts[3].strip(),
        )
        if patent_id in position:
            duplicates += 1
            records[position[patent_id]] = meta
        else:
            position[patent_id] = len(records)
            records.append(meta)
    report = MetadataParseReport(
        records=len(records), duplicate_ids=duplicates, unknown_years=unknown_years, **counts
    )
    return records, report


def assemble_dataset(
    edges: Iterable[tuple[str, str]],
    metas: Iterable[PatentMeta],
    citations_report: CitationParseReport | None = None,
    metadata_report: MetadataParseReport | None = None,
) -> PatentDataset:
    """Join parsed edges and metadata into a dataset.

    Node indices follow first appearance: metadata records in order, then
    ids seen only in edges (these get placeholder metadata and are counted).
    Raises PatentFlowError for a known grant year outside [1, 32767].
    """
    id_to_index: dict[str, int] = {}
    records: list[PatentMeta] = []
    for meta in metas:
        if meta.patent_id in id_to_index:
            # defensive: parse_metadata already deduplicates
            records[id_to_index[meta.patent_id]] = meta
            continue
        id_to_index[meta.patent_id] = len(records)
        records.append(meta)
    ids = [m.patent_id for m in records]

    # one flat list of indices rather than a tuple per edge: no object per
    # edge, and the int64 conversion is one pass over a flat list
    flat_index: list[int] = []
    for citing, cited in edges:
        for pid in (citing, cited):
            idx = id_to_index.get(pid)
            if idx is None:
                idx = len(ids)
                id_to_index[pid] = idx
                ids.append(pid)
            flat_index.append(idx)
    edge_index = np.array(flat_index, dtype=np.int64).reshape(-1, 2)
    del flat_index
    n = len(ids)
    placeholders = n - len(records)

    # "" is the unknown class, and every placeholder's
    class_index: dict[str, int] = {}
    class_code = np.empty(n, dtype=np.int32)
    class_code[: len(records)] = [
        class_index.setdefault(m.primary_class, len(class_index)) for m in records
    ]
    class_code[len(records):] = class_index.setdefault("", len(class_index))
    assignee_index: dict[str, int] = {}
    assignee_code = np.empty(n, dtype=np.int32)
    assignee_code[: len(records)] = [
        assignee_index.setdefault(m.assignee, len(assignee_index)) for m in records
    ]
    assignee_code[len(records):] = assignee_index.setdefault("", len(assignee_index))
    year = np.zeros(n, dtype=np.int16)
    year[: len(records)] = _year_column([m.grant_year for m in records])

    graph = build_graph(edge_index, n)
    report = DatasetBuildReport(
        nodes=n,
        edges_stored=graph.build_report.edges_stored,
        self_loops_dropped=graph.build_report.self_loops_dropped,
        duplicate_edges_dropped=graph.build_report.duplicate_edges_dropped,
        placeholder_nodes=placeholders,
        citations=citations_report,
        metadata=metadata_report,
    )
    return PatentDataset(
        graph=graph,
        index_to_id=tuple(ids),
        class_code=class_code,
        year=year,
        assignee_code=assignee_code,
        classes=tuple(class_index),
        assignees=tuple(assignee_index),
        record_count=len(records),
        build_report=report,
    )



def write_citations(dataset: PatentDataset, path: str | os.PathLike) -> None:
    """Serialize stored edges back to the citations.tsv format."""
    g = dataset.graph
    citing = [pid + "\t" for pid in dataset.index_to_id]
    cited = [pid + "\n" for pid in dataset.index_to_id]
    parts = [""] * (2 * g.edge_count)
    parts[0::2] = [citing[u] for u in g.edge_sources().tolist()]
    parts[1::2] = [cited[v] for v in g.out_indices.tolist()]
    with atomic_write(path) as f:
        f.write("".join(parts))


def write_metadata(dataset: PatentDataset, path: str | os.PathLike) -> None:
    """Serialize metadata back to the patents.tsv format, in index order."""
    rows = zip(dataset.index_to_id, dataset.class_code.tolist(), dataset.year.tolist(),
               dataset.assignee_code.tolist())
    with atomic_write(path) as f:
        f.write("".join(f"{pid}\t{dataset.classes[c]}\t{y or ''}\t{dataset.assignees[a]}\n"
                        for pid, c, y, a in rows))


def label_fits_patents_tsv(label: object) -> bool:
    """True when ``label`` is a string that reads back from patents.tsv as
    written: no tab, line break, surrounding whitespace or undecodable byte."""
    return not (not isinstance(label, str) or label != label.strip()
                or any(c in label for c in "\t\n\r") or _undecodable(label))
