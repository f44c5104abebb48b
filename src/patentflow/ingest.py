"""Parse citation and patent metadata files and assemble datasets.

Input formats (UTF-8, one record per line, ``#`` starts a comment line):

* citations.tsv:  ``citing_id<TAB>cited_id``
* patents.tsv:    ``patent_id<TAB>class<TAB>year<TAB>assignee``

``\n``, ``\r\n`` or a lone ``\r`` ends a line, as in a text-mode read.
Parsing never aborts on a bad line; anomalies are skipped or repaired and
counted in per-stream reports. A line with bytes that are not valid UTF-8
counts as malformed. A record stores an unknown year as ``None`` and an
unknown class as the empty string; a dataset's columns store them as 0
and -1. Both keep the patent in the graph but drop it from class-level
aggregations.

The parsers take a file's bytes. Every line of patents.tsv, and every
citation line that is not "simple", is decoded with ``surrogateescape``
and goes through the per-line classifier ``_accepted_fields``, whose rules
define the format. citations.tsv is classified with numpy, about half a MB
of whole lines at a time: a simple line is printable ASCII with one tab,
no space at a field's edge, no leading ``#`` and ids of 1 to 32 bytes. Its
ids are read straight from the buffer and interned by sorting their bytes
packed into integers; the other lines' pairs are merged back at their line
numbers, so the result is the same as reading each line as text.
"""
from __future__ import annotations

import dataclasses
import os
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomic import atomic_write
from .errors import PatentFlowError
from .graph import CitationGraph, build_graph, edge_index_array

YEAR_MIN = 1790
YEAR_MAX = 2100
# the int16 year column holds 0 for unknown, so a known year must be positive
_YEAR_COLUMN_MAX = int(np.iinfo(np.int16).max)
# lines are classified in blocks of about this many bytes of whole lines, so
# that the per-byte and per-line temporaries, and the heap they leave behind
# when freed, stay small
_BLOCK_BYTES = 1 << 19
# a longer id sends its line to the fallback, so that one long id cannot
# widen every packed citation key
_ID_BYTES_MAX = 32
# _LOW_BYTES[k] keeps the k low-order bytes of a uint64
_LOW_BYTES = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)


@dataclass(frozen=True, slots=True)
class PatentMeta:
    """A node's metadata as ``PatentDataset.meta_of`` returns it. Empty
    class/assignee and None year mean unknown."""

    patent_id: str
    primary_class: str = ""
    grant_year: int | None = None
    assignee: str = ""


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

    @classmethod
    def of(
        cls,
        graph: CitationGraph,
        record_count: int,
        citations: CitationParseReport | None = None,
        metadata: MetadataParseReport | None = None,
    ) -> DatasetBuildReport:
        """The report of a dataset over ``graph`` whose first ``record_count``
        nodes have metadata records; the rest are placeholders."""
        r = graph.build_report
        return cls(
            nodes=graph.node_count,
            edges_stored=r.edges_stored,
            self_loops_dropped=r.self_loops_dropped,
            duplicate_edges_dropped=r.duplicate_edges_dropped,
            placeholder_nodes=graph.node_count - record_count,
            citations=citations,
            metadata=metadata,
        )

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
    build_report: DatasetBuildReport

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
    not valid UTF-8 come out of a decode with ``surrogateescape``."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _accepted_fields(
    lines: Iterable[tuple[int, str]], width: int, id_fields: int, counts: dict[str, int]
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(number, fields)`` for each accepted line of ``lines``, given
    as ``(number, text)`` without the newline: its tab-separated fields with
    the ids stripped.

    The first ``id_fields`` fields (one or two) hold ids. A line is blank,
    a comment or malformed, or else accepted. It is malformed when it holds
    undecodable bytes, does not split into ``width`` fields, or has an
    empty id. Each line that is not accepted adds one to ``counts`` under
    ``blank``, ``comments`` or ``malformed``.
    """
    last_id = id_fields - 1
    for number, line in lines:
        if not line.isascii() and _undecodable(line):
            kind = "malformed"
        elif not line.strip():
            kind = "blank"
        elif line.startswith("#"):
            kind = "comments"
        else:
            fields = line.split("\t")
            if len(fields) == width:
                fields[0] = fields[0].strip()
                fields[last_id] = fields[last_id].strip()
                if fields[0] and fields[last_id]:
                    yield number, fields
                    continue
            kind = "malformed"
        counts[kind] = counts.get(kind, 0) + 1


def _universal_newlines(data: bytes) -> bytes:
    """``data`` with ``\\r\\n`` and lone ``\\r`` turned into ``\\n``, the line
    ends of a text-mode read."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _block_bounds(data: bytes) -> Iterator[tuple[int, int]]:
    """``(lo, hi)`` ranges of whole lines that cover ``data``, each about
    ``_BLOCK_BYTES`` long, or one line when that line is longer."""
    lo = 0
    while lo < len(data):
        hi = data.rfind(b"\n", lo, lo + _BLOCK_BYTES) + 1
        if hi <= lo:
            hi = data.find(b"\n", lo + _BLOCK_BYTES) + 1 or len(data)
        yield lo, hi
        lo = hi


def _block_lines(data: bytes, lo: int, hi: int) -> list[str]:
    """The lines of ``data[lo:hi]``, whole lines with ``\\n`` ends, decoded
    with ``surrogateescape``. A newline byte never sits inside a UTF-8
    sequence, so the lines decode as they would one by one."""
    lines = data[lo:hi].decode("utf-8", "surrogateescape").split("\n")
    if data[hi - 1] == 10:
        lines.pop()
    return lines


def _numbered_lines(data: bytes) -> Iterator[tuple[int, str]]:
    """``(number, text)`` for each line of ``data``, which has ``\\n`` line
    ends, decoded a block at a time, so that the lines of the whole file
    never live at once."""
    number = 0
    for lo, hi in _block_bounds(data):
        lines = _block_lines(data, lo, hi)
        yield from enumerate(lines, number)
        number += len(lines)


def _citation_blocks(
    data: bytes,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[str]]]:
    """Classify the lines of citations ``data``, which has ``\\n`` line
    ends, block by block. For each block yield its bytes, the first byte and
    the length of each id of its simple lines (citing then cited, line by
    line), and the numbers and the texts of its other lines, decoded with
    ``surrogateescape``.

    A simple line is accepted by ``_accepted_fields`` with its fields
    unchanged by ``str.strip()``, and its bytes are its characters: it has
    one tab, only printable ASCII besides, no space at either edge of a
    field, no leading ``#``, and ids of 1 to ``_ID_BYTES_MAX`` bytes.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    first_line = 0
    for lo, hi in _block_bounds(data):
        block = buf[lo:hi]
        ends = np.flatnonzero(block == 10)
        if data[hi - 1] != 10:  # the last line of the data has no newline
            ends = np.append(ends, hi - lo)
        starts = np.concatenate(([0], ends[:-1] + 1))
        tabs = np.flatnonzero(block == 9)
        tabs_before_end = np.searchsorted(tabs, ends)
        first_tab = np.concatenate(([0], tabs_before_end[:-1]))
        simple = tabs_before_end - first_tab == 1
        # control bytes other than tab and newline, and every byte of a
        # multi-byte or invalid UTF-8 sequence, make a line not simple (uint8
        # subtraction wraps: b - 32 >= 96 means b < 32 or b >= 128); such a
        # byte never sits on a line end, so its line is the first end after it
        unprintable = (block - np.uint8(32) >= 96) & (block - np.uint8(9) >= 2)
        simple[np.searchsorted(ends, np.flatnonzero(unprintable))] = False
        lines = np.flatnonzero(simple)
        tab = tabs[first_tab[lines]]
        field_lo = np.vstack((starts[lines], tab + 1))
        length = np.vstack((tab, ends[lines])) - field_lo
        # an empty last field may start at the end of the data
        edge = np.minimum(field_lo, len(block) - 1)
        ok = (block[field_lo[0]] != ord("#")) & (
            (block[edge] != ord(" ")) & (block[field_lo + length - 1] != ord(" "))
            & (length > 0) & (length <= _ID_BYTES_MAX)
        ).all(axis=0)
        simple[lines[~ok]] = False
        rest = np.flatnonzero(~simple)
        if 8 * len(rest) > len(ends):
            # one decode of the whole block is cheaper
            decoded = _block_lines(data, lo, hi)
            texts = [decoded[n] for n in rest.tolist()]
        else:
            texts = [
                data[lo + a:lo + b].decode("utf-8", "surrogateescape")
                for a, b in zip(starts[rest].tolist(), ends[rest].tolist())
            ]
        yield block, field_lo[:, ok].T.ravel(), length[:, ok].T.ravel(), first_line + rest, texts
        first_line += len(ends)


def _pack(block: np.ndarray, lo: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The tokens ``block[lo:lo + length]`` as rows of little-endian uint64
    words, zero padded. Simple tokens hold no NUL byte, so equal rows are
    equal tokens, and a row viewed as bytes is its token."""
    words = -(-int(length.max(initial=1)) // 8)
    padded = np.zeros(len(block) + 8 * words, dtype=np.uint8)
    padded[:len(block)] = block
    keys = sliding_window_view(padded, 8 * words)[lo].view("<u8")
    for j in range(words):
        keys[:, j] &= _LOW_BYTES[np.clip(length - 8 * j, 0, 8)]
    return keys


def _sort_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the rows of ``keys`` in place; return the order that sorted
    them, and the start of each run of equal rows."""
    if keys.shape[1] == 1:
        order = np.argsort(keys[:, 0])
        keys.sort(axis=0)
    else:
        order = np.lexsort(keys.T[::-1])
        keys[...] = keys[order]
    head = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:, 0], keys[:-1, 0], out=head[1:])
    for j in range(1, keys.shape[1]):
        head[1:] |= keys[1:, j] != keys[:-1, j]
    return order, np.flatnonzero(head)


def _line_count(data: bytes) -> int:
    """The number of lines of ``data``, which has ``\\n`` line ends; a last
    line without a newline counts."""
    return data.count(b"\n") + (len(data) > 0 and not data.endswith(b"\n"))


def _simple_line_numbers(fallback_numbers: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The line numbers of the simple lines of the given ``ranks`` among
    the simple lines, which are the lines not in ``fallback_numbers``."""
    return ranks + np.searchsorted(
        fallback_numbers - np.arange(len(fallback_numbers)), ranks, side="right"
    )


def _simple_lines_before(fallback_numbers: np.ndarray, numbers: np.ndarray) -> np.ndarray:
    """How many simple lines, the lines not in ``fallback_numbers``, come
    before each of the fallback lines ``numbers``."""
    return numbers - np.searchsorted(fallback_numbers, numbers)


def parse_citations(data: bytes) -> tuple[tuple[list[str], np.ndarray], CitationParseReport]:
    """Read citing/cited id pairs from the bytes of a citations file,
    skipping and counting bad lines.

    The payload is ``(ids, edges)``, as ``intern_pairs`` builds it from the
    accepted pairs: the distinct ids in first-appearance order, and one row
    of indices into ``ids`` per accepted line.
    """
    data = _universal_newlines(data)
    lines = _line_count(data)
    # the simple ids, packed as by _pack; allocated once at its largest size
    # and sliced, since blocks that each left an array behind would fragment
    # the heap
    packed = np.zeros((2 * lines, 1), dtype="<u8")
    rows = 0
    # the fallback lines are streamed: their numbers, the numbers of the
    # accepted ones, and the codes of their ids in fallback_index, which
    # numbers them by first appearance among the fallback ids
    fallback_numbers, accepted_numbers, fallback_codes = array("q"), array("q"), array("q")
    fallback_index: dict[str, int] = {}
    counts: dict[str, int] = {}
    for block, lo, length, numbers, texts in _citation_blocks(data):
        keys = _pack(block, lo, length)
        if keys.shape[1] > packed.shape[1]:
            packed = np.pad(packed, ((0, 0), (0, keys.shape[1] - packed.shape[1])))
        packed[rows:rows + len(keys), :keys.shape[1]] = keys
        rows += len(keys)
        fallback_numbers.frombytes(numbers.astype(np.int64).tobytes())
        for number, (citing, cited) in _accepted_fields(zip(numbers.tolist(), texts), 2, 2, counts):
            accepted_numbers.append(number)
            fallback_codes.append(fallback_index.setdefault(citing, len(fallback_index)))
            fallback_codes.append(fallback_index.setdefault(cited, len(fallback_index)))
    packed = packed[:rows]
    simple = rows // 2
    fallback_numbers = np.frombuffer(fallback_numbers, dtype=np.int64)
    accepted_numbers = np.frombuffer(accepted_numbers, dtype=np.int64)
    fallback_codes = np.frombuffer(fallback_codes, dtype=np.int64)
    # made before the sort's temporaries of the same size: made after them,
    # they would sit in the heap above the temporaries' freed memory and
    # keep the allocator from giving it back
    edges = np.empty((simple + len(accepted_numbers), 2), dtype=np.int64)
    simple_edges = np.empty(2 * simple, dtype=np.int64)

    order, runs = _sort_rows(packed)
    simple_ids = packed[runs].view(f"S{8 * packed.shape[1]}").ravel().astype(str).tolist()
    index = dict(zip(simple_ids, range(len(simple_ids))))
    fallback_to_index = np.fromiter(
        (index.setdefault(pid, len(index)) for pid in fallback_index), np.int64, len(fallback_index)
    )
    # the token in field f of line n sits at 2n + f of the token stream, and
    # the ids are numbered in the order of their first position in it; the
    # sort need not be stable, since a run's first token has its smallest
    # index, and fallback codes count up, so each code first appears where
    # their running maximum reaches it
    first = np.minimum.reduceat(order, runs)
    first_position = np.full(len(index), np.iinfo(np.int64).max)
    first_position[:len(simple_ids)] = 2 * _simple_line_numbers(fallback_numbers, first // 2) + first % 2
    first = np.searchsorted(np.maximum.accumulate(fallback_codes), np.arange(len(fallback_index)))
    first_position[fallback_to_index] = np.minimum(
        first_position[fallback_to_index], 2 * accepted_numbers[first // 2] + first % 2
    )
    by_first = np.argsort(first_position)
    code = np.empty(len(index), dtype=np.int64)
    code[by_first] = np.arange(len(index))
    ids = list(map(list(index).__getitem__, by_first.tolist()))

    # each run's code, at the positions of its tokens
    simple_edges[order] = np.repeat(code[:len(simple_ids)], np.diff(runs, append=len(order)))
    del order, packed
    # the rows hold the simple lines and the accepted fallback lines in
    # line order
    fallback_rows = _simple_lines_before(fallback_numbers, accepted_numbers) + np.arange(
        len(accepted_numbers)
    )
    is_simple = np.ones(len(edges), dtype=bool)
    is_simple[fallback_rows] = False
    edges[is_simple] = simple_edges.reshape(-1, 2)
    edges[fallback_rows] = code[fallback_to_index][fallback_codes].reshape(-1, 2)
    return (ids, edges), CitationParseReport(lines=lines, edges=len(edges), **counts)


def intern_pairs(pairs: Iterable[Sequence[str]]) -> tuple[list[str], np.ndarray]:
    """The distinct ids of ``pairs`` in first-appearance order, and the pairs
    as an (m, 2) int64 array of indices into that list."""
    index: dict[str, int] = {}
    flat = np.fromiter(
        (index.setdefault(pid, len(index)) for pair in pairs for pid in pair), dtype=np.int64
    )
    return list(index), flat.reshape(-1, 2)


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


def parse_metadata(data: bytes) -> tuple[dict[str, tuple[str, int | None, str]], MetadataParseReport]:
    """Read patent metadata records from the bytes of a patents file.

    The payload maps each id to its ``(class, year, assignee)`` in record
    order; a repeated id keeps its last record at its first position. A
    year that is missing, non-numeric, or outside [1790, 2100] is stored as
    None and counted as unknown.
    """
    data = _universal_newlines(data)
    records: dict[str, tuple[str, int | None, str]] = {}
    # the records share one str per class or assignee spelling
    shared: dict[str, str] = {}
    counts: dict[str, int] = {}
    accepted = unknown_years = 0
    for _, parts in _accepted_fields(_numbered_lines(data), 4, 1, counts):
        accepted += 1
        year = _parse_year(parts[2])
        if year is None:
            unknown_years += 1
        cls, assignee = parts[1].strip(), parts[3].strip()
        records[parts[0]] = (shared.setdefault(cls, cls), year, shared.setdefault(assignee, assignee))
    report = MetadataParseReport(
        lines=_line_count(data), records=len(records), duplicate_ids=accepted - len(records),
        unknown_years=unknown_years, **counts,
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
    return PatentDataset(
        graph=graph,
        index_to_id=tuple(index),
        class_code=class_code,
        year=year,
        assignee_code=assignee_code,
        classes=tuple(class_index)[1:],
        assignees=tuple(assignee_index),
        record_count=len(records),
        build_report=DatasetBuildReport.of(graph, len(records), citations_report, metadata_report),
    )


def load_dataset(citations_path: str | os.PathLike, patents_path: str | os.PathLike) -> PatentDataset:
    """Parse both files and assemble a dataset with a combined build report."""
    # each file's bytes live only for their parser's call
    with open(citations_path, "rb") as f:
        citations, cit_report = parse_citations(f.read())
    with open(patents_path, "rb") as f:
        records, meta_report = parse_metadata(f.read())
    return assemble_dataset(citations, records, cit_report, meta_report)


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
    classes = (*dataset.classes, "")  # class code -1, unknown, reads the last entry
    rows = zip(dataset.index_to_id, dataset.class_code.tolist(), dataset.year.tolist(),
               dataset.assignee_code.tolist())
    with atomic_write(path) as f:
        f.write("".join(
            f"{pid}\t{classes[c]}\t{y or ''}\t{dataset.assignees[a]}\n" for pid, c, y, a in rows
        ))
