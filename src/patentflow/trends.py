"""Class-selective temporal analysis of citation flows.

The central quantity is the per-year inflow into a target class: every
patent outside that class that cites at least one patent inside it
contributes once, bucketed by its own class and grant year. The
contribution is either the citing patent's PageRank score or a plain
count. Patents with an unknown class or year stay in the graph (they
carry rank mass) but never enter these aggregations.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import PatentFlowError
from .graph import _freeze_arrays, induced_subgraph
from .ingest import DatasetBuildReport, PatentDataset
from .pagerank import PageRankResult, _is_integer

METRIC_PAGERANK_SUM = "pagerank-sum"
METRIC_CITATION_COUNT = "citation-count"
_METRICS = (METRIC_PAGERANK_SUM, METRIC_CITATION_COUNT)


def require_name(what: str, name: str) -> None:
    """Raise PatentFlowError when ``name`` is not a str or is empty after ``strip()``."""
    if not isinstance(name, str):
        raise PatentFlowError(f"{what} must be a string, got {name!r}")
    if not name.strip():
        raise PatentFlowError(f"{what} must not be empty, got {name!r}")


def assignee_key(name: str) -> str:
    """The form under which assignee names match: stripped and casefolded."""
    return name.strip().casefold()


@dataclass(frozen=True)
class ClassFlowSeries:
    """Flow into ``target_class`` keyed by (source_class, year).

    Only pairs with at least one qualifying citing patent appear; missing
    pairs mean zero flow. Values are ints for the citation-count metric.
    """

    target_class: str
    metric: str
    entries: Mapping[tuple[str, int], float]

    def flow(self, source_class: str, year: int) -> float:
        return self.entries.get((source_class, year), 0)

    def years(self) -> list[int]:
        return sorted({year for _, year in self.entries})


def _require_scores(dataset: PatentDataset, result: PageRankResult) -> np.ndarray:
    if len(result.scores) != dataset.node_count:
        raise PatentFlowError(
            "score vector length does not match the dataset's node count"
        )
    return result.scores


def _bucket_flows(
    dataset: PatentDataset, citers: np.ndarray, scores: np.ndarray
) -> tuple[list[tuple[str, int]], list[int], list[float]]:
    """Count and score sum of ``citers`` per (class, year) bucket.

    ``citers`` are ascending node indices; those of unknown class or year
    are dropped. ``bincount`` adds in input order, so each sum folds its
    citers' scores in ascending index order, starting from 0.0. The bucket
    arrays hold (largest citer class code + 1) x (citer year span) entries.
    Only buckets with at least one citer are returned, as plain Python values.
    """
    unknown = dataset.classes.index("") if "" in dataset.classes else -1
    citers = citers[(dataset.class_code[citers] != unknown) & (dataset.year[citers] > 0)]
    if citers.size == 0:
        return [], [], []
    years = dataset.year[citers].astype(np.int64)
    first = int(years.min())
    span = int(years.max()) - first + 1
    key = dataset.class_code[citers].astype(np.int64) * span + (years - first)
    counts = np.bincount(key)
    present = np.flatnonzero(counts)
    sums = np.bincount(key, weights=scores[citers])[present]
    classes = dataset.classes
    keys = [(classes[b // span], first + b % span) for b in present.tolist()]
    return keys, counts[present].tolist(), sums.tolist()


def class_inflow_series(
    dataset: PatentDataset,
    result: PageRankResult,
    target_class: str,
    metric: str = METRIC_PAGERANK_SUM,
) -> ClassFlowSeries:
    """Aggregate external-class citations into ``target_class``.

    A citing patent counts once no matter how many target-class patents it
    cites. Citers of the target class itself, and citers with unknown
    class or year, are skipped. Raises PatentFlowError for an empty (or
    all-whitespace) class name.
    """
    if metric not in _METRICS:
        raise PatentFlowError(f"metric must be one of {_METRICS}, got {metric!r}")
    require_name("target class", target_class)
    scores = _require_scores(dataset, result)
    target = dataset.class_mask(target_class)
    citing = dataset.graph.adjacent(target, citing=True) & ~target
    keys, counts, sums = _bucket_flows(dataset, np.flatnonzero(citing), scores)
    values = sums if metric == METRIC_PAGERANK_SUM else counts
    return ClassFlowSeries(
        target_class=target_class, metric=metric, entries=dict(zip(keys, values))
    )


def patent_inflow_breakdown(
    dataset: PatentDataset, result: PageRankResult, patent: int
) -> dict[tuple[str, int], tuple[int, float]]:
    """Citers of one patent, bucketed by their class and year.

    Returns ``(count, pagerank_sum)`` per bucket; citers with unknown
    class or year are skipped. Same-class citers are included here, unlike
    in the class-level series. Raises PatentFlowError for a ``patent`` not an
    integer (numpy's included, a bool not) or out of range.
    """
    if not _is_integer(patent):
        raise PatentFlowError(f"patent index {patent!r} is not an integer")
    if not 0 <= patent < dataset.node_count:
        raise PatentFlowError(f"patent index {patent} out of range")
    scores = _require_scores(dataset, result)
    keys, counts, sums = _bucket_flows(dataset, dataset.graph.in_neighbors(patent), scores)
    return dict(zip(keys, zip(counts, sums)))


def class_ratio(
    series: ClassFlowSeries,
    class_a: str,
    class_b: str,
    year_window: tuple[int, int] | None = None,
) -> dict[int, float]:
    """Per-year ``flow(a) / flow(b)``; years with zero denominator are absent."""
    years = series.years()
    if year_window is not None:
        lo, hi = year_window
        years = [y for y in years if lo <= y <= hi]
    ratios: dict[int, float] = {}
    for y in years:
        denom = series.flow(class_b, y)
        if denom:
            ratios[y] = series.flow(class_a, y) / denom
    return ratios


def crossover_year(series: ClassFlowSeries, class_a: str, class_b: str) -> int | None:
    """First year from which class_b's flow permanently exceeds class_a's.

    Considering the years where either class has an entry (missing entries
    count as zero): the result is one past the last year in which class_a
    held on (flow_a >= flow_b), provided at least one later observed year
    exists and every one of them has flow_b strictly ahead. None when
    class_b never trailed (no prior regime) or still trails at the end.
    """
    years = sorted(
        {y for cls, y in series.entries if cls in (class_a, class_b)}
    )
    if not years:
        return None
    held = [y for y in years if series.flow(class_a, y) >= series.flow(class_b, y)]
    if not held:
        return None
    last_held = held[-1]
    if last_held == years[-1]:
        return None
    return last_held + 1


@dataclass(frozen=True, eq=False)
class ExclusionSet:
    """Nodes removed for an assignee: theirs, their citers, their cited.

    The three int32 node index arrays are disjoint; a node that both cites
    and is cited by the assignee's patents is tagged cites-owned. They are
    read-only, and so is their sorted union ``excluded``, built on first read.
    """

    assignee: str
    owned: np.ndarray
    cites_owned: np.ndarray
    cited_by_owned: np.ndarray

    def __post_init__(self) -> None:
        _freeze_arrays(self.owned, self.cites_owned, self.cited_by_owned)

    @cached_property
    def excluded(self) -> np.ndarray:
        union = np.concatenate((self.owned, self.cites_owned, self.cited_by_owned))
        return _freeze_arrays(np.sort(union))[0]

    def report(self) -> dict:
        return {
            "assignee": self.assignee,
            "owned": int(self.owned.size),
            "cites_owned": int(self.cites_owned.size),
            "cited_by_owned": int(self.cited_by_owned.size),
            "excluded_total": int(self.excluded.size),
        }


def assignee_exclusion_set(dataset: PatentDataset, assignee: str) -> ExclusionSet:
    """Compute the assignee's neighborhood: owned patents plus every
    non-owned patent that cites or is cited by one of them.

    The neighbours are read from the owned patents' rows in both graph
    directions. Names match after ``strip().casefold()``. Raises
    PatentFlowError for an empty (or all-whitespace) name.
    """
    require_name("assignee", assignee)
    key = assignee_key(assignee)
    names = dataset.assignees
    match = np.fromiter((assignee_key(a) == key for a in names), dtype=bool, count=len(names))
    owned = match[dataset.assignee_code]
    cites = dataset.graph.adjacent(owned, citing=True) & ~owned
    cited = dataset.graph.adjacent(owned, citing=False) & ~owned & ~cites
    nodes = (np.flatnonzero(m).astype(np.int32) for m in (owned, cites, cited))
    return ExclusionSet(assignee, *nodes)


def apply_exclusion(
    dataset: PatentDataset, exclusion: ExclusionSet
) -> tuple[PatentDataset, np.ndarray]:
    """Dataset restricted to non-excluded nodes, plus the old-to-new remap.

    Raises PatentFlowError when the exclusion removes every node.
    """
    keep_mask = np.ones(dataset.node_count, dtype=bool)
    keep_mask[exclusion.excluded] = False
    keep = np.flatnonzero(keep_mask)
    if keep.size == 0:
        raise PatentFlowError(
            f"excluding assignee {exclusion.assignee!r} leaves an empty graph"
        )
    sub, remap = induced_subgraph(dataset.graph, keep)
    # placeholders are the index suffix from record_count on, and the
    # remap keeps index order, so they stay a suffix
    record_count = int(np.searchsorted(keep, dataset.record_count))
    reduced = dataclasses.replace(
        dataset,
        graph=sub,
        index_to_id=tuple(map(dataset.index_to_id.__getitem__, keep.tolist())),
        class_code=dataset.class_code[keep],
        year=dataset.year[keep],
        assignee_code=dataset.assignee_code[keep],
        record_count=record_count,
        build_report=DatasetBuildReport.of(sub, record_count),
    )
    return reduced, remap
