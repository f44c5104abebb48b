"""Parse citation and patent metadata files and assemble datasets.

Input formats (UTF-8, one record per line, ``#`` starts a comment line):

* citations.tsv:  ``citing_id<TAB>cited_id``
* patents.tsv:    ``patent_id<TAB>class<TAB>year<TAB>assignee``

``\n``, ``\r\n`` or a lone ``\r`` ends a line, as in a text-mode read.
Parsing never aborts on a bad line; anomalies are skipped or repaired and
counted in per-stream reports. A line with bytes that are not valid UTF-8
counts as malformed. A record stores an unknown year as ``None`` and an
unknown class or assignee as the empty string; a dataset stores the year
as 0 and the label as the ``""`` entry of its table. Either keeps the
patent in the graph but drops it from class-level aggregations.

The parsers take a file's bytes. Every line of patents.tsv, and every
citation line that is not "simple", is decoded with ``surrogateescape``
and goes through the per-line classifier ``_accepted_fields``, whose rules
define the format. citations.tsv is classified with numpy, about half a MB
of whole lines at a time: a simple line is printable ASCII with one tab,
no space at a field's edge, no leading ``#`` and ids of 1 to 32 bytes.
Every accepted id, read from the buffer or encoded back from its line, is
packed into integers in line order, and one sort numbers them all by first
appearance, so the result is the same as reading each line as text. Only
an id longer than 32 bytes or holding a NUL byte is numbered by a dict.
"""
from __future__ import annotations

import codecs
import dataclasses
import os
from dataclasses import dataclass, field
from itertools import chain, compress, count
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
# a longer id, or one with a NUL byte, is numbered by a dict, so that one
# long id cannot widen every packed citation key
_ID_BYTES_MAX = 32
# _LOW_BYTES[k] keeps the k low-order bytes of a uint64
_LOW_BYTES = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)


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
        return dataclasses.asdict(self, dict_factory=lambda kv: {k: v for k, v in kv if v is not None})


@dataclass(frozen=True, eq=False)
class PatentDataset:
    """A citation graph joined to columnar per-node metadata and the ids.

    Node ``i`` has id ``index_to_id[i]``, class ``classes[class_code[i]]``,
    grant year ``year[i]`` (0 means unknown) and assignee
    ``assignees[assignee_code[i]]``, each the spelling as given; both tables
    hold ``""``, the unknown label. Nodes from ``record_count`` on have no
    metadata record: they are the placeholders for ids seen only in citations.
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
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    def index_of(self, patent_id: str) -> int | None:
        """Node index of ``patent_id``, None if absent; a linear scan."""
        try:
            return self.index_to_id.index(patent_id)
        except ValueError:
            return None

    def class_mask(self, name: str) -> np.ndarray:
        """True for the nodes whose class is ``name``; all False for "" or
        a class no node has."""
        if not name or name not in self.classes:
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
    data: bytes, counts: dict[str, int]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, Iterator[str]]]:
    """Classify the lines of citations ``data``, which has ``\\n`` line
    ends, block by block, and count each line that is not accepted in
    ``counts``. For each block yield a buffer, the first byte in it and the
    length of each id of the block's accepted lines (citing then cited,
    line by line), and the ids that cannot be packed, in the same order;
    their length is 0.

    A simple line is accepted by ``_accepted_fields`` with its fields
    unchanged by ``str.strip()``, and its bytes are its characters: it has
    one tab, only printable ASCII besides, no space at either edge of a
    field, no leading ``#``, and ids of 1 to ``_ID_BYTES_MAX`` bytes. Its
    ids are read in the block. The other lines are decoded with
    ``surrogateescape`` and go through ``_accepted_fields``; the ids of the
    accepted ones are encoded as UTF-8 after the block.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
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
        # each line's two fields, split at its first tab; a line without one
        # gets a later line's tab or 0, and is not simple
        tab = np.append(tabs, 0)[first_tab]
        field_lo = np.stack((starts, tab + 1), axis=1)
        length = np.stack((tab, ends), axis=1) - field_lo
        # an empty last field may start at the end of the data
        edge = np.minimum(field_lo, len(block) - 1)
        simple &= (block[starts] != ord("#")) & (
            (block[edge] != ord(" ")) & (block[field_lo + length - 1] != ord(" "))
            & (length > 0) & (length <= _ID_BYTES_MAX)
        ).all(axis=1)
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
        numbers, ids = [], []
        for number, fields in _accepted_fields(zip(rest.tolist(), texts), 2, 2, counts):
            numbers.append(number)
            ids += fields
        tail = np.frombuffer("\n".join([*ids, ""]).encode(), dtype=np.uint8)
        tail_ends = np.flatnonzero(tail == 10)
        tail_lo = np.append(0, tail_ends + 1)[:-1]
        tail_length = tail_ends - tail_lo
        unpackable = tail_length > _ID_BYTES_MAX
        unpackable[np.searchsorted(tail_ends, np.flatnonzero(tail == 0))] = True
        tail_length[unpackable] = 0
        field_lo[numbers] = (len(block) + tail_lo).reshape(-1, 2)
        length[numbers] = tail_length.reshape(-1, 2)
        simple[numbers] = True  # now every accepted line
        yield (np.concatenate((block, tail)), field_lo[simple].ravel(), length[simple].ravel(),
               compress(ids, unpackable.tolist()))


def _pack(block: np.ndarray, lo: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The tokens ``block[lo:lo + length]`` as rows of little-endian uint64
    words, zero padded. The tokens hold no NUL byte, so equal rows are equal
    tokens, and a row viewed as bytes is its token."""
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


def parse_citations(data: bytes) -> tuple[tuple[list[str], np.ndarray], CitationParseReport]:
    """Read citing/cited id pairs from the bytes of a citations file,
    skipping and counting bad lines.

    The payload is ``(ids, edges)``, as ``intern_pairs`` builds it from the
    accepted pairs: the distinct ids in first-appearance order, and one row
    of indices into ``ids`` per accepted line.
    """
    data = _universal_newlines(data)
    lines = _line_count(data)
    # every accepted id, packed as by _pack, two rows per accepted line in
    # line order; allocated once at its largest size and sliced, since blocks
    # that each left an array behind would fragment the heap
    packed = np.zeros((2 * lines, 1), dtype="<u8")
    rows = 0
    # an id that cannot be packed gets the next number of ``codes`` where it
    # is first seen (so codes are distinct, not dense) and sorts as the one
    # word code << 8 | 0xFF, whose first byte, 0xFF, starts no UTF-8 id
    unpackable: dict[str, int] = {}
    codes = count()
    counts: dict[str, int] = {}
    for buffer, lo, length, long_ids in _citation_blocks(data, counts):
        keys = _pack(buffer, lo, length)
        long_codes = np.fromiter(map(unpackable.setdefault, long_ids, codes), np.uint64)
        keys[length == 0, 0] = long_codes << 8 | 0xFF
        if keys.shape[1] > packed.shape[1]:
            packed = np.pad(packed, ((0, 0), (0, keys.shape[1] - packed.shape[1])))
        packed[rows:rows + len(keys), :keys.shape[1]] = keys
        rows += len(keys)
    packed = packed[:rows]

    # the tokens are in line order, so each id's first token is the least
    # index among its run's, and the ids are numbered in that order
    order, runs = _sort_rows(packed)
    by_first = np.argsort(np.minimum.reduceat(order, runs))
    code = np.empty(len(runs), dtype=np.int64)
    code[by_first] = np.arange(len(runs))
    edges = np.empty(rows, dtype=np.int64)
    edges[order] = np.repeat(code, np.diff(runs, append=rows))
    keys = packed[runs[by_first]]
    del order, packed
    # the ids in that order are read back from their keys, or by their code
    long = np.flatnonzero(keys[:, 0] & 0xFF == 0xFF)
    name = dict(zip(unpackable.values(), unpackable))
    long_ids = [name[c] for c in (keys[long, 0] >> 8).tolist()]
    keys[long] = 0
    ids = list(map(bytes.decode, keys.view(f"S{8 * keys.shape[1]}").ravel().tolist()))
    for i, pid in zip(long.tolist(), long_ids):
        ids[i] = pid
    return (ids, edges.reshape(-1, 2)), CitationParseReport(lines=lines, edges=rows // 2, **counts)


def _pair(pair: Sequence[str]) -> Sequence[str]:
    if isinstance(pair, (str, bytes)) or len(pair) != 2:
        raise PatentFlowError(f"{pair!r} is not a (citing, cited) pair of ids")
    return pair


def intern_pairs(pairs: Iterable[Sequence[str]]) -> tuple[list[str], np.ndarray]:
    """The distinct ids of ``pairs`` in first-appearance order, and the pairs
    as an (m, 2) int64 array of indices into that list. Raises PatentFlowError
    for a pair that is a str or bytes or not two ids, or an unhashable id."""
    index: dict[str, int] = {}
    try:
        flat = np.fromiter((index.setdefault(pid, len(index)) for pair in map(_pair, pairs)
                            for pid in pair), np.int64)
    except TypeError as exc:  # a pair without a length, or an unhashable id
        raise PatentFlowError(f"malformed (citing, cited) pair: {exc}") from None
    return list(index), flat.reshape(-1, 2)


def _parse_year(text: str) -> int | None:
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        year = int(text)
    except ValueError:  # more digits than int() converts
        return None
    if not YEAR_MIN <= year <= YEAR_MAX:
        return None
    return year


def parse_metadata(data: bytes) -> tuple[dict[str, tuple[str, int | None, str]], MetadataParseReport]:
    """Read patent metadata records from the bytes of a patents file.

    The payload maps each id to its ``(class, year, assignee)`` in record
    order; a repeated id keeps its last record at its first position. A
    year that is missing, not ASCII decimal digits, or outside [1790, 2100]
    is stored as None and counted as unknown.
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
    """Grant years as int16 with 0 for unknown; a known year must be an
    integer, numpy's included but not a bool, in [1, 32767]."""
    for kind in set(map(type, years)) - {type(None)}:
        if issubclass(kind, bool) or not issubclass(kind, (int, np.integer)):
            raise PatentFlowError(f"grant year of type {kind.__name__} is not an integer")
    try:
        col = np.array([-1 if y is None else y for y in years], dtype=np.int64)
    except OverflowError:
        raise PatentFlowError(f"a grant year is outside [1, {_YEAR_COLUMN_MAX}]") from None
    bad = (col == 0) | (col < -1) | (col > _YEAR_COLUMN_MAX)
    if bad.any():
        raise PatentFlowError(
            f"grant year {int(col[bad][0])} is outside [1, {_YEAR_COLUMN_MAX}]"
        )
    col[col == -1] = 0
    return col.astype(np.int16)


def _label_codes(labels: list[str], placeholders: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes of ``labels`` by first appearance, then ``placeholders`` codes of
    "", the unknown label; and the table of labels by code, which holds ""."""
    index: dict[str, int] = {}
    codes = np.array([index.setdefault(label, len(index)) for label in labels], dtype=np.int32)
    unknown = index.setdefault("", len(index))
    return np.pad(codes, (0, placeholders), constant_values=unknown), tuple(index)


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
    and PatentFlowError for edges not integer or not shaped (m, 2), an id,
    class or assignee that is not a str, a record that is not a ``(class,
    year, assignee)`` triple, or a known grant year not an integer or
    outside [1, 32767].
    """
    cited_ids, edges = citations
    edges = edge_index_array(edges, len(cited_ids))
    index = {pid: i for i, pid in enumerate(records)}
    try:
        # each distinct citation id is looked up once; a new one is a placeholder
        remap = np.fromiter((index.setdefault(pid, len(index)) for pid in cited_ids), np.int64)
        placeholders = len(index) - len(records)
        class_code, classes = _label_codes([c for c, _, _ in records.values()], placeholders)
        assignee_code, assignees = _label_codes([a for _, _, a in records.values()], placeholders)
    except (TypeError, ValueError) as exc:  # unhashable, or not a triple
        raise PatentFlowError(f"malformed id or metadata record: {exc}") from None
    for kind in set(map(type, chain(index, classes, assignees))):
        if not issubclass(kind, str):
            raise PatentFlowError(f"an id, class or assignee of type {kind.__name__} is not a string")
    year = np.pad(_year_column([y for _, y, _ in records.values()]), (0, placeholders))

    graph = build_graph(remap[edges], len(index))
    return PatentDataset(
        graph=graph,
        index_to_id=tuple(index),
        class_code=class_code,
        year=year,
        assignee_code=assignee_code,
        classes=classes,
        assignees=assignees,
        record_count=len(records),
        build_report=DatasetBuildReport.of(graph, len(records), citations_report, metadata_report),
    )


def load_dataset(citations_path: str | os.PathLike, patents_path: str | os.PathLike) -> PatentDataset:
    """Parse both files and assemble a dataset with a combined build report."""
    # each file's bytes live only for their parser's call; a UTF-8 byte-order
    # mark is not part of the first line
    with open(citations_path, "rb") as f:
        citations, cit_report = parse_citations(f.read().removeprefix(codecs.BOM_UTF8))
    with open(patents_path, "rb") as f:
        records, meta_report = parse_metadata(f.read().removeprefix(codecs.BOM_UTF8))
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
    rows = zip(dataset.index_to_id, dataset.class_code.tolist(), dataset.year.tolist(),
               dataset.assignee_code.tolist())
    with atomic_write(path) as f:
        f.write("".join(f"{pid}\t{dataset.classes[c]}\t{y or ''}\t{dataset.assignees[a]}\n"
                        for pid, c, y, a in rows))
