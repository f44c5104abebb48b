"""Parse citation and patent metadata files and assemble datasets.

Input formats (UTF-8, one record per line, ``#`` starts a comment line):

* citations.tsv:  ``citing_id<TAB>cited_id``
* patents.tsv:    ``patent_id<TAB>class<TAB>year<TAB>assignee``

Parsing never aborts on a bad line; anomalies are skipped or repaired and
counted in per-stream reports. A line with bytes that are not valid UTF-8
counts as malformed. A record stores an unknown year as ``None`` and an
unknown class as the empty string; a dataset's columns store them as 0
and -1. Both keep the patent in the graph but drop it from class-level
aggregations.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .atomic import atomic_write
from .errors import PatentFlowError
from .graph import CitationGraph, build_graph, edge_index_array

YEAR_MIN = 1790
YEAR_MAX = 2100
# the int16 year column holds 0 for unknown, so a known year must be positive
_YEAR_COLUMN_MAX = int(np.iinfo(np.int16).max)


@dataclass(frozen=True, slots=True)
class PatentMeta:
    """A node's metadata as ``PatentDataset.meta_of`` returns it. Empty
    class/assignee and None year mean unknown."""

    patent_id: str
    primary_class: str = ""
    grant_year: int | None = None
    assignee: str = ""

    @property
    def class_known(self) -> bool:
        return self.primary_class != ""

    @property
    def year_known(self) -> bool:
        return self.grant_year is not None


@dataclass(frozen=True)
class CitationParseReport:
    lines: int = 0
    edges: int = 0
    blank: int = 0
    comments: int = 0
    malformed: int = 0


@dataclass(frozen=True)
class MetadataParseReport:
    lines: int = 0
    records: int = 0
    blank: int = 0
    comments: int = 0
    malformed: int = 0
    duplicate_ids: int = 0
    unknown_years: int = 0


@dataclass(frozen=True)
class DatasetBuildReport:
    """Counts of everything dropped or repaired on the way to a dataset."""

    nodes: int = 0
    edges_stored: int = 0
    self_loops_dropped: int = 0
    duplicate_edges_dropped: int = 0
    placeholder_nodes: int = 0
    citations: CitationParseReport | None = None
    metadata: MetadataParseReport | None = None

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if d["citations"] is None:
            d.pop("citations")
        if d["metadata"] is None:
            d.pop("metadata")
        return d


@dataclass(frozen=True, eq=False)
class PatentDataset:
    """A citation graph joined to columnar per-node metadata and the ids.

    Node ``i`` has id ``index_to_id[i]``, class ``classes[class_code[i]]``
    (``class_code`` -1 means unknown), grant year ``year[i]`` (0 means
    unknown) and assignee ``assignees[assignee_code[i]]``, the spelling as
    given. Nodes from ``record_count`` on have no metadata record: they are
    the placeholders for ids seen only in citations.
    """

    graph: CitationGraph
    index_to_id: tuple[str, ...]
    class_code: np.ndarray = field(repr=False)
    year: np.ndarray = field(repr=False)
    assignee_code: np.ndarray = field(repr=False)
    classes: tuple[str, ...] = field(repr=False)
    assignees: tuple[str, ...] = field(repr=False)
    record_count: int
    build_report: DatasetBuildReport = field(default_factory=DatasetBuildReport)

    def __post_init__(self) -> None:
        for col in (self.class_code, self.year, self.assignee_code):
            col.flags.writeable = False

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    def index_of(self, patent_id: str) -> int | None:
        """Node index of ``patent_id``, None if absent; a linear scan."""
        try:
            return self.index_to_id.index(patent_id)
        except ValueError:
            return None

    def meta_of(self, i: int) -> PatentMeta:
        """Node ``i``'s metadata as a record."""
        code = int(self.class_code[i])
        return PatentMeta(
            patent_id=self.index_to_id[i],
            primary_class=self.classes[code] if code >= 0 else "",
            grant_year=int(self.year[i]) or None,
            assignee=self.assignees[self.assignee_code[i]],
        )

    def class_mask(self, name: str) -> np.ndarray:
        """True for the nodes whose class is ``name``; all False for "" or
        a class no node has."""
        if name not in self.classes:
            return np.zeros(self.node_count, dtype=bool)
        return self.class_code == self.classes.index(name)


def _undecodable(line: str) -> bool:
    """True when the line holds lone surrogates, which is how bytes that are
    not valid UTF-8 come out of a file opened with ``surrogateescape``."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _accepted_fields(
    stream: Iterable[str] | IO[str], width: int, id_fields: int, counts: dict[str, int]
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


def intern_pairs(pairs: Iterable[Sequence[str]]) -> tuple[list[str], np.ndarray]:
    """The distinct ids of ``pairs`` in first-appearance order, and the pairs
    as an (m, 2) int64 array of indices into that list."""
    index: dict[str, int] = {}
    flat = np.fromiter(
        (index.setdefault(pid, len(index)) for pair in pairs for pid in pair), dtype=np.int64
    )
    return list(index), flat.reshape(-1, 2)


def parse_citations(
    stream: Iterable[str] | IO[str],
) -> tuple[tuple[list[str], np.ndarray], CitationParseReport]:
    """Read citing/cited id pairs, skipping and counting bad lines. The
    payload is ``intern_pairs`` of the accepted pairs."""
    counts: dict[str, int] = {}
    ids, edges = intern_pairs(_accepted_fields(stream, 2, 2, counts))
    return (ids, edges), CitationParseReport(edges=len(edges), **counts)


def _parse_year(text: str) -> int | None:
    text = text.strip()
    if not text:
        return None
    try:
        year = int(text)
    except ValueError:
        return None
    if not YEAR_MIN <= year <= YEAR_MAX:
        return None
    return year


def parse_metadata(
    stream: Iterable[str] | IO[str],
) -> tuple[dict[str, tuple[str, int | None, str]], MetadataParseReport]:
    """Read patent metadata records.

    The payload maps each id to its ``(class, year, assignee)`` in record
    order; a repeated id keeps its last record at its first position. A
    year that is missing, non-numeric, or outside [1790, 2100] is stored as
    None and counted as unknown.
    """
    records: dict[str, tuple[str, int | None, str]] = {}
    counts: dict[str, int] = {}
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


def _year_column(years: list[int | None]) -> np.ndarray:
    """Grant years as int16 with 0 for unknown; a known year must be in
    [1, 32767]."""
    col = np.array([-1 if y is None else y for y in years], dtype=np.int64)
    bad = (col == 0) | (col < -1) | (col > _YEAR_COLUMN_MAX)
    if bad.any():
        raise PatentFlowError(
            f"grant year {int(col[bad][0])} is outside [1, {_YEAR_COLUMN_MAX}]"
        )
    col[col == -1] = 0
    return col.astype(np.int16)


def assemble_dataset(
    citations: tuple[Sequence[str], np.ndarray],
    records: Mapping[str, tuple[str, int | None, str]],
    citations_report: CitationParseReport | None = None,
    metadata_report: MetadataParseReport | None = None,
) -> PatentDataset:
    """Join parsed citations and metadata into a dataset.

    ``citations`` is ``(ids, edges)`` as ``intern_pairs`` returns it, and
    ``records`` maps ids to ``(class, year, assignee)`` as ``parse_metadata``
    returns it. Node indices follow first appearance: the records in order,
    then ids seen only in citations (these get placeholder metadata and are
    counted). Raises MalformedEdgeError for an edge index outside ``ids``,
    and PatentFlowError for edges not shaped (m, 2) or a known grant year
    outside [1, 32767].
    """
    cited_ids, edges = citations
    edges = edge_index_array(edges, len(cited_ids))
    index = {pid: i for i, pid in enumerate(records)}
    # each distinct citation id is looked up once; an unknown one becomes
    # the next placeholder node
    remap = np.fromiter((index.setdefault(pid, len(index)) for pid in cited_ids), np.int64)
    n = len(index)

    # "" is the unknown class, code -1; every other spelling gets the next code
    class_index: dict[str, int] = {"": -1}
    class_code = np.full(n, -1, dtype=np.int32)
    class_code[: len(records)] = [
        class_index.setdefault(cls, len(class_index) - 1) for cls, _, _ in records.values()
    ]
    assignee_index: dict[str, int] = {}
    assignee_code = np.empty(n, dtype=np.int32)
    assignee_code[: len(records)] = [
        assignee_index.setdefault(asg, len(assignee_index)) for _, _, asg in records.values()
    ]
    assignee_code[len(records):] = assignee_index.setdefault("", len(assignee_index))
    year = np.zeros(n, dtype=np.int16)
    year[: len(records)] = _year_column([y for _, y, _ in records.values()])

    graph = build_graph(remap[edges], n)
    report = DatasetBuildReport(
        nodes=n,
        edges_stored=graph.build_report.edges_stored,
        self_loops_dropped=graph.build_report.self_loops_dropped,
        duplicate_edges_dropped=graph.build_report.duplicate_edges_dropped,
        placeholder_nodes=n - len(records),
        citations=citations_report,
        metadata=metadata_report,
    )
    return PatentDataset(
        graph=graph,
        index_to_id=tuple(index),
        class_code=class_code,
        year=year,
        assignee_code=assignee_code,
        classes=tuple(class_index)[1:],
        assignees=tuple(assignee_index),
        record_count=len(records),
        build_report=report,
    )


def load_dataset(citations_path: str | os.PathLike, patents_path: str | os.PathLike) -> PatentDataset:
    """Parse both files and assemble a dataset with a combined build report."""
    # surrogateescape: undecodable bytes reach the parsers, which count
    # their lines as malformed, instead of aborting the read
    with open(citations_path, encoding="utf-8", errors="surrogateescape") as f:
        citations, cit_report = parse_citations(f)
    with open(patents_path, encoding="utf-8", errors="surrogateescape") as f:
        records, meta_report = parse_metadata(f)
    return assemble_dataset(citations, records, cit_report, meta_report)


def write_citations(dataset: PatentDataset, path: str | os.PathLike) -> None:
    """Serialize stored edges back to the citations.tsv format."""
    g = dataset.graph
    ids = dataset.index_to_id
    edges = zip(g.edge_sources().tolist(), g.out_indices.tolist())
    with atomic_write(path) as f:
        f.write("".join(f"{ids[u]}\t{ids[v]}\n" for u, v in edges))


def write_metadata(dataset: PatentDataset, path: str | os.PathLike) -> None:
    """Serialize metadata back to the patents.tsv format, in index order."""
    classes = (*dataset.classes, "")  # class code -1, unknown, reads the last entry
    rows = zip(dataset.index_to_id, dataset.class_code.tolist(), dataset.year.tolist(),
               dataset.assignee_code.tolist())
    with atomic_write(path) as f:
        f.write("".join(
            f"{pid}\t{classes[c]}\t{y or ''}\t{dataset.assignees[a]}\n" for pid, c, y, a in rows
        ))
