"""Parse citation and patent metadata files and assemble datasets.

Input formats (UTF-8, one record per line, ``#`` starts a comment line):

* citations.tsv:  ``citing_id<TAB>cited_id``
* patents.tsv:    ``patent_id<TAB>class<TAB>year<TAB>assignee``

``\n``, ``\r\n`` or a lone ``\r`` ends a line, as in a text-mode read, and a
leading UTF-8 byte-order mark is skipped. Parsing never aborts on a bad
line; anomalies are skipped or repaired and counted in per-stream reports.
A line with bytes that are not valid UTF-8 counts as malformed. An unknown
year is stored as 0, and an unknown class or assignee as the ``""`` entry
of its table: the patent stays in the graph but drops out of class-level
aggregations.

The per-line classifier ``_accepted_fields`` defines the format, but the
parsers classify a file's bytes with numpy, half a MB of lines at a time,
and only lines that are not "simple" go through it. A simple line has one
tab fewer than the file has fields, no other control byte, no leading ``#``
and a printable, non-space ASCII byte at each edge of each non-empty field;
every field has at most 32 bytes, and its ids are not empty. A non-ASCII
byte may sit inside a field when the block is valid UTF-8, and
``str.strip()`` leaves such fields as they are, so they are read as bytes.

Every id, label and year is packed into integers, and one step numbers each
column by first appearance (``_number``): the citation ids, the record ids
(a repeated id keeps its last record at its first position), the years, the
labels of the kept records and, in ``assemble_dataset``, the record ids and
the citation ids together, which joins the files. Only a token longer than
32 bytes or holding a NUL byte is numbered by a dict. The result is that
of reading each line as text.

A line whose first key equals the previous line's cannot hold its first
appearance, so it takes that line's number, as along a run of one citing id
or of one year. The other keys are grouped by one ``np.sort`` of a uint64
word per key when the bits that vary between them, with the bits of a key's
position below them, fit in 64: an ASCII-digit id varies in 4 bits per
byte, so a 7- or 8-digit id needs 28 or 32 of them. Other keys are grouped
by an ``argsort`` or ``lexsort``. On both paths one sort of (position,
group) words ranks the groups.
"""
from __future__ import annotations

import codecs
import dataclasses
import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import PatentFlowError
from .graph import _CHUNK_ROWS, CitationGraph, _compact, _freeze_arrays, build_graph

YEAR_MIN = 1790
YEAR_MAX = 2100
# lines are classified in blocks of about this many bytes of whole lines, so
# that the per-byte and per-line temporaries, and the heap they leave behind
# when freed, stay small
_BLOCK_BYTES = 1 << 19
# a longer token, or one with a NUL byte, is numbered by a dict, so that one
# long token cannot widen every packed key
_TOKEN_BYTES_MAX = 32
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
        return cls(graph.node_count, r.edges_stored, r.self_loops_dropped, r.duplicate_edges_dropped,
                   graph.node_count - record_count, citations, metadata)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self, dict_factory=lambda kv: {k: v for k, v in kv if v is not None})


@dataclass(frozen=True, eq=False)
class MetadataColumns:
    """Metadata records as columns, in record order: record ``i`` has id
    ``ids[i]``, class ``classes[class_code[i]]``, year ``year[i]`` (0 when unknown) and
    assignee ``assignees[assignee_code[i]]``. Ids are distinct; both tables hold ``""``."""

    ids: tuple[str, ...]
    class_code: np.ndarray = field(repr=False)
    year: np.ndarray = field(repr=False)
    assignee_code: np.ndarray = field(repr=False)
    classes: tuple[str, ...] = field(repr=False)
    assignees: tuple[str, ...] = field(repr=False)


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
        _freeze_arrays(*(getattr(self, f.name) for f in dataclasses.fields(self)))

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
    as ``(number, text)`` without the newline: its tab-separated fields,
    stripped. The first ``id_fields`` fields (one or two) hold ids.

    A line is blank, a comment or malformed, or else accepted. It is
    malformed when it holds undecodable bytes, does not split into ``width``
    fields, or has an empty id. Each line that is not accepted adds one to
    ``counts`` under ``blank``, ``comments`` or ``malformed``.
    """
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
                fields = [f.strip() for f in fields]
                if fields[0] and fields[id_fields - 1]:
                    yield number, fields
                    continue
            kind = "malformed"
        counts[kind] = counts.get(kind, 0) + 1


def _universal_newlines(data: bytes) -> bytes:
    """``data`` without a leading UTF-8 byte-order mark and with ``\\r\\n`` and
    lone ``\\r`` turned into ``\\n``, as a text-mode read sees its lines."""
    data = data.removeprefix(codecs.BOM_UTF8)
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


def _token_bytes(tokens: list[str], names: dict[str, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``tokens`` as UTF-8 (a lone surrogate as its three bytes), joined and
    followed by ``_TOKEN_BYTES_MAX`` zero bytes, and the start and length of
    each. A token that cannot be packed is written as 8 bytes: its number in
    ``names`` after the byte 0xFF, which starts no UTF-8 text."""
    joined = "".join(tokens)
    parts = None if joined.isascii() else [t.encode("utf-8", "surrogatepass") for t in tokens]
    data = joined.encode("ascii") if parts is None else b"".join(parts)
    length = np.fromiter(map(len, tokens if parts is None else parts), np.int64, len(tokens))
    long = length > _TOKEN_BYTES_MAX
    nul = np.flatnonzero(np.frombuffer(data, np.uint8) == 0)
    long[np.searchsorted(np.cumsum(length), nul, "right")] = True
    if long.any():
        parts = parts or [t.encode() for t in tokens]
        for i in np.flatnonzero(long).tolist():
            parts[i] = (names.setdefault(tokens[i], len(names)) << 8 | 0xFF).to_bytes(8, "little")
        data, length[long] = b"".join(parts), 8
    return np.frombuffer(data + bytes(_TOKEN_BYTES_MAX), np.uint8), np.cumsum(length) - length, length


def _pack(buffer: np.ndarray, lo: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The tokens ``buffer[lo:lo + length]``, each followed by at least
    ``_TOKEN_BYTES_MAX`` bytes, as rows of little-endian uint64 words, zero
    padded. A token holds no NUL byte or is a number from ``_token_bytes``,
    so equal rows are equal tokens."""
    words = -(-int(length.max(initial=1)) // 8)
    # the words that start at each byte
    keys = np.ndarray((len(buffer) - 8 * words + 1, words), "<u8", buffer, strides=(1, 8))[lo]
    keys &= _LOW_BYTES[np.clip(length[:, None] - 8 * np.arange(words), 0, 8)]
    return keys


def _packed_fields(
    data: bytes, width: int, id_fields: int, counts: dict[str, int]
) -> tuple[list[np.ndarray], dict[str, int]]:
    """The fields of the accepted lines of ``data`` (``\\n`` line ends)
    packed by ``_pack``, as arrays of (line, field, word), one of the first
    ``id_fields`` fields and one of each other field, and the numbers of the
    fields that cannot be packed. Counts the lines, and each that is not
    accepted, in ``counts``.

    A simple line's fields are read as bytes: each has at most
    ``_TOKEN_BYTES_MAX`` of them, and the id fields are not empty. The other
    lines go through ``_accepted_fields``, and the stripped fields of the
    accepted ones are written after the block. No field is read as a value
    here: ``parse_metadata`` reads a year once per distinct spelling.
    """
    # a last line without a newline counts
    lines = counts["lines"] = data.count(b"\n") + (len(data) > 0 and not data.endswith(b"\n"))
    groups = [slice(0, id_fields), *(slice(j, j + 1) for j in range(id_fields, width))]
    # allocated once at their largest size and sliced, since blocks that each
    # left an array behind would fragment the heap
    packed = [np.zeros((lines, g.stop - g.start, 1), dtype="<u8") for g in groups]
    rows = 0
    names: dict[str, int] = {}
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
        simple = (tabs_before_end - first_tab == width - 1) & (block[starts] != ord("#"))
        # control bytes other than tab and newline make a line not simple,
        # and so do bytes from 128 unless the block is valid UTF-8 (uint8
        # subtraction wraps: b - 32 >= 96 means b < 32 or b >= 128); such a
        # byte never sits on a line end, so its line is the first end after it
        bad = np.flatnonzero((block - np.uint8(32) >= 96) & (block - np.uint8(9) >= 2))
        if bad.size:
            try:
                str(memoryview(data)[lo:hi], "utf-8")
                bad = bad[block[bad] < 128]
            except UnicodeDecodeError:
                pass
        simple[np.searchsorted(ends, bad)] = False
        # each line's fields, split at its tabs; a line with fewer tabs gets
        # later lines' tabs or 0, and is not simple
        tabs = np.append(tabs, np.zeros(width - 1, tabs.dtype))
        bounds = [starts - 1, *(tabs[first_tab + j] for j in range(width - 1)), ends]
        for j in range(width):
            n = bounds[j + 1] - bounds[j] - 1
            # an empty last field may start at the end of the data
            edges = block[np.minimum(bounds[j] + 1, len(block) - 1)], block[bounds[j + 1] - 1]
            printable = (edges[0] - np.uint8(33) < 95) & (edges[1] - np.uint8(33) < 95)
            simple &= (n <= _TOKEN_BYTES_MAX) & (printable & (n > 0) if j < id_fields else printable | (n == 0))
        field_lo = np.stack(bounds[:-1], axis=1) + 1
        length = np.stack(bounds[1:], axis=1) - field_lo
        rest = np.flatnonzero(~simple)
        texts = [data[lo + a:lo + b].decode("utf-8", "surrogateescape")
                 for a, b in zip(starts[rest].tolist(), ends[rest].tolist())]
        numbers, tokens = [], []
        for number, fields in _accepted_fields(zip(rest.tolist(), texts), width, id_fields, counts):
            numbers.append(number)
            tokens += fields
        tail, tail_lo, tail_length = _token_bytes(tokens, names)
        field_lo[numbers] = (len(block) + tail_lo).reshape(-1, width)
        length[numbers] = tail_length.reshape(-1, width)
        simple[numbers] = True  # now every accepted line
        field_lo, length = np.compress(simple, field_lo, axis=0), np.compress(simple, length, axis=0)
        buffer = np.concatenate((block, tail))
        for i, g in enumerate(groups):
            keys = _pack(buffer, field_lo[:, g].ravel(), length[:, g].ravel())
            words = keys.shape[1]
            if words > packed[i].shape[2]:
                packed[i] = np.pad(packed[i], ((0, 0), (0, 0), (0, words - packed[i].shape[2])))
            packed[i][rows:rows + len(length), :, :words] = keys.reshape(-1, g.stop - g.start, words)
        rows += len(length)
    return [p[:rows] for p in packed], names


def _number(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the keys of ``packed``, a (line, field, word) array as
    ``_packed_fields`` returns each group, by first appearance in (line,
    field) order, and leave ``packed`` in an unspecified state. Return their
    numbers as (line, field) int32 codes, and the distinct keys in number order.

    A line whose first key is the previous line's takes that line's number.
    The other keys move to the front of the buffer and are grouped by one
    ``np.sort`` of words written over it, which hold their varying bits above
    their position when those fit in 64, or else by an ``argsort`` or
    ``lexsort``. One sort of (first position, group) words ranks the groups.
    """
    lines, fields, width = packed.shape
    if lines * fields > 1 << 32:
        raise PatentFlowError(f"cannot number {lines * fields} keys: a ranking word holds 2**32 positions")
    fresh = np.ones((lines, fields), dtype=bool)
    np.any(packed[1:, 0] != packed[:-1, 0], axis=1, out=fresh[1:, 0])
    keys = _compact(np.ascontiguousarray(packed).reshape(lines * fields, width), fresh.ravel())
    del packed
    rows = len(keys)
    bits = (rows - 1).bit_length()  # of a key position
    varying = np.bitwise_or.reduce(keys, axis=0) ^ np.bitwise_and.reduce(keys, axis=0)
    # (key word, lowest bit, width, bit of the sort word) of each run of varying bits
    spans, end = [], bits
    for j, v in enumerate(varying.tolist()):
        for run in re.finditer("1+", f"{v:b}"[::-1]):  # from the lowest bit
            spans.append((j, run.start(), len(run[0]), end))
            end += len(run[0])
    if end <= 64:
        words = keys.reshape(-1)[:rows]
        constant = keys[0] & ~varying
        # a block of keys at a time, so that the temporaries stay in cache; a
        # block's words only overwrite keys that are already read
        base, buf = np.arange(_CHUNK_ROWS, dtype=np.uint64), np.empty(_CHUNK_ROWS, np.uint64)
        for a in range(0, rows, _CHUNK_ROWS):
            b = min(a + _CHUNK_ROWS, rows)
            word, part = base[:b - a] + np.uint64(a), buf[:b - a]
            for j, lo, n, at in spans:
                np.bitwise_and(keys[a:b, j], np.uint64(((1 << n) - 1) << lo), out=part)
                word |= (np.left_shift if at >= lo else np.right_shift)(part, np.uint64(abs(at - lo)), out=part)
            words[a:b] = word
        words.sort()
        head = np.ones(rows, dtype=bool)
        np.greater_equal(words[1:] ^ words[:-1], np.uint64(1 << bits), out=head[1:])
        runs = np.flatnonzero(head)
        heads = words[runs]
        distinct = np.repeat(constant[None], len(runs), axis=0)
        for j, lo, n, at in spans:
            distinct[:, j] |= (heads >> np.uint64(at) & np.uint64((1 << n) - 1)) << np.uint64(lo)
        order = np.bitwise_and(words, np.uint64((1 << bits) - 1), out=words).view(np.int64)
        del head, heads, words
        first = order[runs]
    else:
        if width == 1:
            order = np.argsort(keys[:, 0])
            keys.sort(axis=0)
        else:
            order = np.lexsort(keys.T[::-1])
            keys[...] = keys[order]
        head = np.ones(rows, dtype=bool)
        np.not_equal(keys[1:, 0], keys[:-1, 0], out=head[1:])
        for j in range(1, width):
            head[1:] |= keys[1:, j] != keys[:-1, j]
        runs = np.flatnonzero(head)
        distinct = keys[runs]
        first = np.minimum.reduceat(order, runs)
    # the positions are distinct and below 2**bits, and there are at most
    # 2**bits <= 2**(64 - bits) groups, so one sort of (position, group) ranks them
    by_first = np.left_shift(first.view(np.uint64), np.uint64(64 - bits))
    by_first |= np.arange(len(runs), dtype=np.uint64)
    by_first.sort()
    by_first = (by_first & np.uint64((1 << (64 - bits)) - 1)).view(np.int64)
    code = np.empty(len(runs), dtype=np.int32)
    code[by_first] = np.arange(len(runs))
    fresh_codes = np.empty(rows, dtype=np.int32)
    fresh_codes[order] = np.repeat(code, np.diff(runs, append=rows))
    # the word path's positions are the key buffer, which goes before the codes are filled
    del keys, order
    codes = np.empty((lines, fields), dtype=np.int32)
    codes[fresh] = fresh_codes
    del fresh_codes
    # a line's first key is that of the last line that starts a run
    last = np.arange(lines)
    last *= fresh[:, 0]
    codes[:, 0] = codes[np.maximum.accumulate(last, out=last), 0]
    return codes, distinct[by_first]


def _unpack(keys: np.ndarray, names: dict[str, int]) -> list[str]:
    """The tokens of ``keys``, rows packed by ``_pack`` or numbered by ``names``."""
    long = np.flatnonzero(keys[:, 0] & 0xFF == 0xFF)
    # a packed token holds no NUL byte, so its nonzero bytes are the token,
    # and a NUL after each separates them
    rows = np.zeros((len(keys), 8 * keys.shape[1] + 1), dtype=np.uint8)
    rows[:, :-1] = keys.view(np.uint8).reshape(len(keys), 8 * keys.shape[1])
    rows[long] = 0
    kept = rows != 0
    kept[:, -1] = True
    tokens = rows[kept].tobytes().decode("utf-8", "surrogatepass").split("\0")[:-1]
    text = list(names)
    for i, code in zip(long.tolist(), (keys[long, 0] >> 8).tolist()):
        tokens[i] = text[code]
    return tokens


def parse_citations(data: bytes) -> tuple[tuple[list[str], np.ndarray], CitationParseReport]:
    """Read citing/cited id pairs from the bytes of a citations file,
    skipping and counting bad lines. The payload is ``(ids, edges)``: the
    distinct ids in first-appearance order, and an (m, 2) int32 array with a
    row of indices into ``ids`` per accepted line.
    """
    counts: dict[str, int] = {}
    groups, names = _packed_fields(_universal_newlines(data), 2, 2, counts)
    edges, keys = _number(groups.pop())
    report = CitationParseReport(edges=len(edges), **counts)
    return (_unpack(keys, names), edges), report


def _parse_year(text: str) -> int | None:
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        year = int(text)
    except ValueError:  # more digits than int() converts
        return None
    return year if YEAR_MIN <= year <= YEAR_MAX else None


def _label_column(keys: np.ndarray, names: dict[str, int]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes of the packed labels ``keys`` by first appearance, and the table
    of labels by code, which ends with "", the unknown label, if it lacks it."""
    codes, table_keys = _number(keys[:, None])
    table = tuple(_unpack(table_keys, names))
    return codes[:, 0], table if "" in table else (*table, "")


def parse_metadata(data: bytes) -> tuple[MetadataColumns, MetadataParseReport]:
    """Read patent metadata records from the bytes of a patents file.

    The payload holds the records as columns, in record order; a repeated id
    keeps its last record at its first position, and the labels are numbered
    after that. A year that is missing, not ASCII decimal digits, or outside
    [1790, 2100] is stored as 0 and counted as unknown; ``_parse_year`` reads
    each distinct spelling once, over every accepted line.
    """
    counts: dict[str, int] = {}
    columns, names = _packed_fields(_universal_newlines(data), 4, 1, counts)
    ids, classes, years, assignees = columns
    codes, id_keys = _number(ids)
    kept = np.zeros(len(id_keys), dtype=np.intp)
    np.maximum.at(kept, codes[:, 0], np.arange(len(codes)))  # each id's last record
    codes, spellings = _number(years)
    year = np.array([_parse_year(s) or 0 for s in _unpack(spellings, names)], dtype=np.int16)[codes[:, 0]]
    class_code, classes = _label_column(classes[kept, 0], names)
    assignee_code, assignees = _label_column(assignees[kept, 0], names)
    records = MetadataColumns(tuple(_unpack(id_keys, names)), class_code, year[kept], assignee_code,
                              classes, assignees)
    report = MetadataParseReport(
        records=len(kept), duplicate_ids=len(ids) - len(kept),
        unknown_years=int(np.count_nonzero(year == 0)), **counts,
    )
    return records, report


def _require_strings(values: Iterable) -> None:
    for kind in set(map(type, values)):
        if not issubclass(kind, str):
            raise PatentFlowError(f"a citation id of type {kind.__name__} is not a string")


def assemble_dataset(
    citations: tuple[Sequence[str], np.ndarray],
    records: MetadataColumns,
    citations_report: CitationParseReport | None = None,
    metadata_report: MetadataParseReport | None = None,
) -> PatentDataset:
    """Join parsed citations and metadata into a dataset.

    ``citations`` is ``(ids, edges)`` as ``parse_citations`` returns it, and
    ``records`` the columns ``parse_metadata`` returns. Node indices follow
    first appearance: the records in order, then ids seen only in citations
    (these get placeholder metadata and are counted). Raises MalformedEdgeError
    for an edge index outside ``ids``, and PatentFlowError for edges not
    integer or not shaped (m, 2), or a citation id that is not a str.
    """
    cited_ids, edges = citations
    _require_strings(cited_ids)
    # the record ids come first and are distinct, so a citation id's number
    # is its record's index, or else the next placeholder's
    names: dict[str, int] = {}
    codes, keys = _number(_pack(*_token_bytes([*records.ids, *cited_ids], names))[:, None])
    count = len(records.ids)
    index_to_id = (*records.ids, *_unpack(keys[count:], names))
    graph = build_graph(edges, len(index_to_id), remap=codes[count:, 0])

    def pad(column: np.ndarray, fill: int = 0) -> np.ndarray:  # with the placeholders' value
        return np.pad(column, (0, len(index_to_id) - count), constant_values=fill)

    return PatentDataset(
        graph=graph,
        index_to_id=index_to_id,
        class_code=pad(records.class_code, records.classes.index("")),
        year=pad(records.year),
        assignee_code=pad(records.assignee_code, records.assignees.index("")),
        classes=records.classes,
        assignees=records.assignees,
        record_count=count,
        build_report=DatasetBuildReport.of(graph, count, citations_report, metadata_report),
    )


def load_dataset(citations_path: str | os.PathLike, patents_path: str | os.PathLike) -> PatentDataset:
    """Parse both files and assemble a dataset with a combined build report."""
    # each file's bytes live only for their parser's call
    with open(citations_path, "rb") as f:
        citations, cit_report = parse_citations(f.read())
    with open(patents_path, "rb") as f:
        records, meta_report = parse_metadata(f.read())
    return assemble_dataset(citations, records, cit_report, meta_report)

