"""Per-node metadata code, kept as the oracle for the columnar dataset.

``MetaTupleDataset`` and ``meta_tuple_assemble_dataset`` are the dataset
class and ``assemble_dataset`` as they were when a dataset held one
``PatentMeta`` per node; ``class_inflow_series``, ``patent_inflow_breakdown``,
``assignee_exclusion_set`` and ``apply_exclusion`` are the trends
functions that scanned those records node by node. Their bodies are
unchanged apart from the dataset class's name and the int32 exclusion
arrays, the node index dtype of the graph. The columnar code must
return equal entries (same key and value types, same float bits), equal
exclusion arrays with equal dtypes, and the same reduced datasets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from conftest import PatentMeta
from patentflow.errors import PatentFlowError
from patentflow.graph import CitationGraph, build_graph, induced_subgraph
from patentflow.ingest import (
    CitationParseReport,
    DatasetBuildReport,
    MetadataParseReport,
)
from patentflow.pagerank import PageRankResult
from patentflow.trends import _METRICS, METRIC_PAGERANK_SUM, ClassFlowSeries, ExclusionSet


@dataclass(frozen=True)
class MetaTupleDataset:
    """A citation graph joined to per-node metadata and an id mapping."""

    graph: CitationGraph
    meta: tuple[PatentMeta, ...]
    index_to_id: tuple[str, ...]
    id_to_index: dict[str, int] = field(repr=False)
    build_report: DatasetBuildReport = field(default_factory=DatasetBuildReport)

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    def index_of(self, patent_id: str) -> int | None:
        return self.id_to_index.get(patent_id)


def meta_tuple_assemble_dataset(
    edges: Iterable[tuple[str, str]],
    metas: Iterable[PatentMeta],
    citations_report: CitationParseReport | None = None,
    metadata_report: MetadataParseReport | None = None,
) -> MetaTupleDataset:
    """Join parsed edges and metadata into a dataset.

    Node indices follow first appearance: metadata records in order, then
    ids seen only in edges (these get placeholder metadata and are counted).
    """
    metas = list(metas)
    id_to_index: dict[str, int] = {}
    meta_list: list[PatentMeta] = []
    for meta in metas:
        if meta.patent_id in id_to_index:
            # defensive: parse_metadata already deduplicates
            meta_list[id_to_index[meta.patent_id]] = meta
            continue
        id_to_index[meta.patent_id] = len(meta_list)
        meta_list.append(meta)

    # one flat list of indices rather than a tuple per edge: no object per
    # edge, and the int64 conversion is one pass over a flat list
    flat_index: list[int] = []
    placeholders = 0
    for citing, cited in edges:
        for pid in (citing, cited):
            idx = id_to_index.get(pid)
            if idx is None:
                idx = len(meta_list)
                id_to_index[pid] = idx
                meta_list.append(PatentMeta(patent_id=pid))
                placeholders += 1
            flat_index.append(idx)
    edge_index = np.array(flat_index, dtype=np.int64).reshape(-1, 2)
    del flat_index

    graph = build_graph(edge_index, len(meta_list))
    report = DatasetBuildReport(
        nodes=len(meta_list),
        edges_stored=graph.build_report.edges_stored,
        self_loops_dropped=graph.build_report.self_loops_dropped,
        duplicate_edges_dropped=graph.build_report.duplicate_edges_dropped,
        placeholder_nodes=placeholders,
        citations=citations_report,
        metadata=metadata_report,
    )
    return MetaTupleDataset(
        graph=graph,
        meta=tuple(meta_list),
        index_to_id=tuple(m.patent_id for m in meta_list),
        id_to_index=id_to_index,
        build_report=report,
    )


def _require_scores(dataset: MetaTupleDataset, result: PageRankResult) -> np.ndarray:
    if len(result.scores) != dataset.node_count:
        raise PatentFlowError(
            "score vector length does not match the dataset's node count"
        )
    return result.scores


def class_inflow_series(
    dataset: MetaTupleDataset,
    result: PageRankResult,
    target_class: str,
    metric: str = METRIC_PAGERANK_SUM,
) -> ClassFlowSeries:
    """Aggregate external-class citations into ``target_class``.

    A citing patent counts once no matter how many target-class patents it
    cites. Citers of the target class itself, and citers with unknown
    class or year, are skipped.
    """
    if metric not in _METRICS:
        raise PatentFlowError(f"metric must be one of {_METRICS}, got {metric!r}")
    scores = _require_scores(dataset, result)
    graph = dataset.graph
    citers: set[int] = set()
    for t in range(dataset.node_count):
        if dataset.meta[t].primary_class == target_class:
            citers.update(int(u) for u in graph.in_neighbors(t))

    entries: dict[tuple[str, int], float] = {}
    for u in sorted(citers):
        m = dataset.meta[u]
        if m.primary_class == "" or m.grant_year is None or m.primary_class == target_class:
            continue
        key = (m.primary_class, m.grant_year)
        if metric == METRIC_PAGERANK_SUM:
            entries[key] = entries.get(key, 0.0) + float(scores[u])
        else:
            entries[key] = entries.get(key, 0) + 1
    return ClassFlowSeries(target_class=target_class, metric=metric, entries=entries)


def patent_inflow_breakdown(
    dataset: MetaTupleDataset, result: PageRankResult, patent: int
) -> dict[tuple[str, int], tuple[int, float]]:
    """Citers of one patent, bucketed by their class and year.

    Returns ``(count, pagerank_sum)`` per bucket; citers with unknown
    class or year are skipped. Same-class citers are included here, unlike
    in the class-level series.
    """
    if not 0 <= patent < dataset.node_count:
        raise PatentFlowError(f"patent index {patent} out of range")
    scores = _require_scores(dataset, result)
    out: dict[tuple[str, int], tuple[int, float]] = {}
    for u in dataset.graph.in_neighbors(patent):
        m = dataset.meta[int(u)]
        if m.primary_class == "" or m.grant_year is None:
            continue
        key = (m.primary_class, m.grant_year)
        count, total = out.get(key, (0, 0.0))
        out[key] = (count + 1, total + float(scores[u]))
    return out



def _normalize_assignee(name: str) -> str:
    return name.strip().casefold()


def assignee_exclusion_set(dataset: MetaTupleDataset, assignee: str) -> ExclusionSet:
    """Compute the assignee's neighborhood: owned patents plus every
    non-owned patent that cites or is cited by one of them."""
    key = _normalize_assignee(assignee)
    n = dataset.node_count
    owned_mask = np.fromiter(
        (_normalize_assignee(m.assignee) == key for m in dataset.meta),
        dtype=bool,
        count=n,
    )
    src = dataset.graph.edge_sources()
    dst = dataset.graph.out_indices
    owned_src = owned_mask[src]
    owned_dst = owned_mask[dst]
    cites = np.zeros(n, dtype=bool)
    cites[src[owned_dst & ~owned_src]] = True
    cited = np.zeros(n, dtype=bool)
    cited[dst[owned_src & ~owned_dst]] = True
    return ExclusionSet(
        assignee=assignee,
        owned=np.flatnonzero(owned_mask).astype(np.int32),
        cites_owned=np.flatnonzero(cites).astype(np.int32),
        cited_by_owned=np.flatnonzero(cited & ~cites).astype(np.int32),
    )


def apply_exclusion(
    dataset: MetaTupleDataset, exclusion: ExclusionSet
) -> tuple[MetaTupleDataset, np.ndarray]:
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
    meta = tuple(dataset.meta[int(i)] for i in keep)
    ids = tuple(m.patent_id for m in meta)
    report = DatasetBuildReport(
        nodes=sub.node_count,
        edges_stored=sub.build_report.edges_stored,
        placeholder_nodes=sum(
            1 for m in meta if m.primary_class == "" and m.grant_year is None and not m.assignee
        ),
    )
    reduced = MetaTupleDataset(
        graph=sub,
        meta=meta,
        index_to_id=ids,
        id_to_index={pid: i for i, pid in enumerate(ids)},
        build_report=report,
    )
    return reduced, remap


