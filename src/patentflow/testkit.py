"""Synthetic data for validating the pipeline.

``generate_synthetic_dataset`` produces a patent-like dataset from a
declarative spec: chronological ids, class/year/assignee marginals drawn
from stated proportions, and citation edges that only point backwards in
time, so generated graphs are acyclic by construction. A crossover can be
planted: citations into a target class are dominated by one source class
before a chosen year and by another from that year on, with a 4:1 count
ratio in each regime. The planted citing patents receive no in-links and
none of the background edges touch target-class patents, which keeps the
planted per-year flows exact under both the citation-count and the
pagerank-sum metric (equal-score leaf citers), including after an
assignee-exclusion pass when a dominant assignee is planted alongside.

``gen`` writes the two TSV files ``synthetic_files`` formats, and
``generate_synthetic_dataset`` reads them back through the parsers, so a
synthetic dataset is built as a loaded one is.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import PatentFlowError
from .graph import MAX_NODE_COUNT
from .ingest import (YEAR_MAX, YEAR_MIN, PatentDataset, assemble_dataset, parse_citations,
                     parse_metadata)
from .pagerank import _is_integer, _is_real

# the largest mean numpy's Poisson sampler accepts
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)

# planted layout per year block: targets first, then citing patents
_TARGETS_PER_YEAR = 4
_MAJOR_CITERS = 8
_MINOR_CITERS = 2
_PLANT_PER_YEAR = _TARGETS_PER_YEAR + _MAJOR_CITERS + _MINOR_CITERS


@dataclass(frozen=True)
class EdgeModel:
    """Background citation behavior.

    Each patent draws a Poisson out-degree; every out-link picks an earlier
    patent either proportionally to citations already received
    (``preferential``), uniformly from the most recent ``recency_window``
    share of history (``recency_bias``), or uniformly from all history.
    """

    out_degree_mean: float = 4.0
    preferential: float = 0.4
    recency_bias: float = 0.2
    recency_window: float = 0.25

    def __post_init__(self) -> None:
        for f in fields(self):
            if not _is_real(getattr(self, f.name)):
                raise PatentFlowError(f"{f.name} must be a number, got {getattr(self, f.name)!r}")
        mean = self.out_degree_mean
        if not 0.0 <= mean <= _POISSON_LAM_MAX:
            raise PatentFlowError(f"out_degree_mean must be in [0, {_POISSON_LAM_MAX:.6g}], got {mean}")
        for name in ("preferential", "recency_bias", "recency_window"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise PatentFlowError(f"{name} must be in [0, 1], got {v}")
        if self.preferential + self.recency_bias > 1.0:
            raise PatentFlowError("preferential + recency_bias must not exceed 1")


@dataclass(frozen=True)
class PlantedCrossover:
    target_class: str
    source_class_a: str
    source_class_b: str
    crossover_year: int

    def __post_init__(self) -> None:
        if not _is_integer(self.crossover_year):
            raise PatentFlowError(f"crossover_year must be an integer, got {self.crossover_year!r}")


@dataclass(frozen=True)
class SyntheticSpec:
    node_count: int
    classes: tuple[tuple[str, float], ...]
    year_range: tuple[int, int]
    assignees: tuple[tuple[str, float], ...]
    edge_model: EdgeModel = field(default_factory=EdgeModel)
    planted_crossover: PlantedCrossover | None = None
    dominant_assignee: str | None = None

    def __post_init__(self) -> None:
        # graph.build_graph takes no more nodes than this
        if not _is_integer(self.node_count) or not 0 <= self.node_count <= MAX_NODE_COUNT:
            raise PatentFlowError(
                f"node_count must be in [0, {MAX_NODE_COUNT}] and an integer, got {self.node_count!r}"
            )
        pc = self.planted_crossover
        labels = [label for pairs in (self.classes, self.assignees) for label, _ in pairs]
        if pc is not None:
            labels += [pc.target_class, pc.source_class_a, pc.source_class_b]
        if not (all(isinstance(label, str) for label in labels) and _read_back(labels)):
            # a label with a line break can spoil the lines of others, so
            # the one to name is found with a parse of each label alone
            label = next(s for s in labels if not (isinstance(s, str) and _read_back([s])))
            raise PatentFlowError(
                f"label {label!r} is not a string, or has a tab, a line break, surrounding "
                "whitespace or bytes that are not UTF-8, which patents.tsv cannot carry"
            )
        for name, pairs in (("classes", self.classes), ("assignees", self.assignees)):
            if not pairs:
                raise PatentFlowError(f"{name} must be non-empty")
            try:
                valid = all(_is_real(p) and math.isfinite(p) and p >= 0 for _, p in pairs)
            except OverflowError:  # a number too large for a float
                valid = False
            if not valid:
                raise PatentFlowError(f"{name} proportions must be finite non-negative numbers")
            total = sum(p for _, p in pairs)
            if abs(total - 1.0) > 1e-9:
                raise PatentFlowError(f"{name} proportions sum to {total}, expected 1")
            labels = [label for label, _ in pairs]
            if len(set(labels)) != len(labels):
                raise PatentFlowError(f"{name} labels must be unique")
        start, end = self.year_range
        # patents.tsv reads a year outside [YEAR_MIN, YEAR_MAX] back as unknown
        if not all(map(_is_integer, self.year_range)) or not YEAR_MIN <= start <= end <= YEAR_MAX:
            raise PatentFlowError(
                f"year_range {self.year_range} must be integers, non-empty and within "
                f"[{YEAR_MIN}, {YEAR_MAX}]"
            )
        if pc is not None:
            if len({pc.target_class, pc.source_class_a, pc.source_class_b}) != 3:
                raise PatentFlowError("planted classes must be three distinct codes")
            # one full year of prior-regime flow is needed before the
            # crossover, and citing patents only start one year in
            if not start + 2 <= pc.crossover_year <= end:
                raise PatentFlowError(
                    f"crossover_year {pc.crossover_year} must lie in "
                    f"[{start + 2}, {end}]"
                )
            n_years = end - start + 1
            if self.node_count < n_years * (_PLANT_PER_YEAR + 6):
                raise PatentFlowError(
                    "node_count too small to plant a crossover across "
                    f"{n_years} years"
                )
        if self.dominant_assignee is not None:
            names = [a for a, _ in self.assignees]
            if self.dominant_assignee not in names:
                raise PatentFlowError(
                    f"dominant_assignee {self.dominant_assignee!r} not in assignees"
                )
            if len(names) < 2:
                raise PatentFlowError("a dominant assignee needs at least one other assignee")


def _read_back(labels: list[str]) -> bool:
    """True when each of ``labels`` reads back unchanged from the class field
    of its own line of one patents.tsv."""
    try:
        data = b"".join(b"%d\t%s\t\t\n" % (i, s.encode("utf-8")) for i, s in enumerate(labels))
    except UnicodeEncodeError:  # a lone surrogate
        return False
    records, _ = parse_metadata(data)
    return [records.classes[c] for c in records.class_code.tolist()] == labels


def _whole_number(name: str, value: object) -> int:
    """A spec's integer field: an integer, or a float without a fraction
    such as ``5000.0``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return value


def _proportion(name: str, value: object) -> float:
    """A spec's proportion: an integer or a float, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} proportions must be numbers, got {value!r}")
    return float(value)


def _label(name: str, value: object) -> str:
    """A spec's class or assignee label: a string, not a number or null."""
    if not isinstance(value, str):
        raise ValueError(f"{name} labels must be strings, got {value!r}")
    return value


def load_spec(path: str | os.PathLike) -> SyntheticSpec:
    """Read a SyntheticSpec from its JSON file form."""
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
        em = EdgeModel(**obj.get("edge_model", {}))
        pc = obj.get("planted_crossover")
        start, end = obj["year_range"]
        return SyntheticSpec(
            node_count=_whole_number("node_count", obj["node_count"]),
            classes=tuple(
                (_label("classes", c), _proportion("classes", p)) for c, p in obj["classes"]
            ),
            year_range=(_whole_number("year_range", start), _whole_number("year_range", end)),
            assignees=tuple(
                (_label("assignees", a), _proportion("assignees", p)) for a, p in obj["assignees"]
            ),
            edge_model=em,
            planted_crossover=PlantedCrossover(
                target_class=_label("planted_crossover", pc["target_class"]),
                source_class_a=_label("planted_crossover", pc["source_class_a"]),
                source_class_b=_label("planted_crossover", pc["source_class_b"]),
                crossover_year=_whole_number("crossover_year", pc["crossover_year"]),
            )
            if pc
            else None,
            dominant_assignee=obj.get("dominant_assignee"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PatentFlowError(f"invalid synthetic spec: {exc}") from exc


def _weighted_pick(rng: np.random.Generator, labels: list[str], probs: list[float]) -> str:
    return labels[int(rng.choice(len(labels), p=probs))]


def synthetic_files(spec: SyntheticSpec, seed: int) -> tuple[bytes, bytes]:
    """The bytes of the citations.tsv and patents.tsv of a deterministic
    synthetic dataset for a given spec and seed: the edges sorted by citing
    then cited index, and one record per patent in index order."""
    if not (_is_integer(seed) and seed >= 0):
        raise PatentFlowError(f"seed must be non-negative and an integer, got {seed!r}")
    n = spec.node_count
    rng = np.random.default_rng(seed)
    start, end = spec.year_range
    n_years = end - start + 1
    bounds = np.linspace(0, n, n_years + 1).astype(np.int64)
    years = np.repeat(np.arange(start, end + 1, dtype=np.int16), np.diff(bounds))

    class_labels = [c for c, _ in spec.classes]
    class_probs = [p for _, p in spec.classes]
    classes = [class_labels[i] for i in rng.choice(len(class_labels), size=n, p=class_probs)]
    asg_labels = [a for a, _ in spec.assignees]
    asg_probs = [p for _, p in spec.assignees]
    assignees = [asg_labels[i] for i in rng.choice(len(asg_labels), size=n, p=asg_probs)]

    edges: list[tuple[int, int]] = []
    reserved = np.zeros(n, dtype=bool)
    pc = spec.planted_crossover
    dominant = spec.dominant_assignee
    if dominant is not None:
        other_labels = [a for a in asg_labels if a != dominant]
        other_probs = [p for a, p in spec.assignees if a != dominant]
        total = sum(other_probs)
        other_probs = [p / total for p in other_probs] if total > 0 else None

        def pick_other() -> str:
            if other_probs is None:
                return other_labels[int(rng.integers(len(other_labels)))]
            return _weighted_pick(rng, other_labels, other_probs)

    if pc is not None:
        owned_targets: list[int] = []   # owned by the dominant assignee
        open_targets: list[int] = []    # everyone else's
        for k in range(n_years):
            year = start + k
            lo = int(bounds[k])
            block = int(bounds[k + 1]) - lo

            n_tgt = min(_TARGETS_PER_YEAR, block)
            new_owned: list[int] = []
            new_open: list[int] = []
            for t in range(n_tgt):
                i = lo + t
                reserved[i] = True
                classes[i] = pc.target_class
                if dominant is not None and t < n_tgt // 2:
                    assignees[i] = dominant
                    new_owned.append(i)
                else:
                    if dominant is not None and assignees[i] == dominant:
                        assignees[i] = pick_other()
                    new_open.append(i)

            if year > start:
                pre = year < pc.crossover_year
                groups = [
                    (pc.source_class_a, _MAJOR_CITERS if pre else _MINOR_CITERS),
                    (pc.source_class_b, _MINOR_CITERS if pre else _MAJOR_CITERS),
                ]
                slot = lo + n_tgt
                for cls, count in groups:
                    for c in range(count):
                        i = slot
                        slot += 1
                        reserved[i] = True
                        classes[i] = cls
                        if dominant is not None and assignees[i] == dominant:
                            assignees[i] = pick_other()
                        # with a dominant assignee, half of each group cites
                        # its patents (and is later excluded with it); the
                        # rest cite only independent patents and survive
                        linked = dominant is not None and c < count // 2
                        pool = owned_targets if linked else open_targets
                        want = 1 + int(rng.integers(0, 2))
                        take = min(want, len(pool))
                        picks = rng.choice(len(pool), size=take, replace=False)
                        for idx in sorted(int(q) for q in picks):
                            edges.append((i, pool[idx]))
            owned_targets.extend(new_owned)
            open_targets.extend(new_open)

    # background citations never point at target-class or reserved patents,
    # so planted flows stay exact
    allowed = np.ones(n, dtype=bool)
    allowed &= ~reserved
    if pc is not None:
        allowed &= np.array([c != pc.target_class for c in classes])
    allowed_idx = np.flatnonzero(allowed)
    count_below = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(allowed, out=count_below[1:])

    em = spec.edge_model
    out_degs = rng.poisson(em.out_degree_mean, size=n)
    pref_pool: list[int] = []
    for i in range(n):
        if reserved[i]:
            continue
        navail = int(count_below[i])
        if navail == 0:
            continue
        k = min(int(out_degs[i]), navail)
        targets_i: list[int] = []
        for _ in range(k):
            r = rng.random()
            if r < em.preferential and pref_pool:
                v = pref_pool[int(rng.integers(len(pref_pool)))]
            elif r < em.preferential + em.recency_bias:
                # a window too narrow to hold one patent picks the latest
                lo = min(int(navail * (1.0 - em.recency_window)), navail - 1)
                v = int(allowed_idx[int(rng.integers(lo, navail))])
            else:
                v = int(allowed_idx[int(rng.integers(navail))])
            if v not in targets_i:
                targets_i.append(v)
        edges.extend((i, v) for v in targets_i)
        pref_pool.extend(targets_i)

    width = len(str(n - 1)) if n > 1 else 1
    ids = [f"{7000000 + i:0{width}d}" for i in range(n)]
    edges.sort()  # by citing then cited index, the order of the out-CSR
    citations = "".join(f"{ids[u]}\t{ids[v]}\n" for u, v in edges)
    patents = "".join(f"{pid}\t{c}\t{y}\t{a}\n"
                      for pid, c, y, a in zip(ids, classes, years.tolist(), assignees))
    return citations.encode(), patents.encode()


def generate_synthetic_dataset(spec: SyntheticSpec, seed: int) -> PatentDataset:
    """Deterministic synthetic PatentDataset for a given spec and seed: what
    the parsers read from the bytes of ``synthetic_files``."""
    citations, patents = synthetic_files(spec, seed)
    return assemble_dataset(parse_citations(citations)[0], parse_metadata(patents)[0])
