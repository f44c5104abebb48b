"""Reference implementation and synthetic data for validating the pipeline.

``dense_pagerank`` materializes the full transition matrix and runs plain
matrix-vector power iteration; it shares no accumulation code with the
sparse engine and exists purely as an independent cross-check.

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
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import PatentFlowError
from .graph import CitationGraph, build_graph
from .ingest import YEAR_MAX, YEAR_MIN, PatentDataset, _undecodable, assemble_dataset
from .pagerank import DANGLING_UNIFORM_OTHERS, PageRankParams

DENSE_NODE_LIMIT = 2000
# the largest mean numpy's Poisson sampler accepts
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)

# planted layout per year block: targets first, then citing patents
_TARGETS_PER_YEAR = 4
_MAJOR_CITERS = 8
_MINOR_CITERS = 2
_PLANT_PER_YEAR = _TARGETS_PER_YEAR + _MAJOR_CITERS + _MINOR_CITERS


def dense_pagerank(graph: CitationGraph, params: PageRankParams) -> np.ndarray:
    """Fixed point via explicit dense transition matrix.

    Iterates to one tenth of ``params.epsilon`` and raises if that cannot
    be reached; an unconverged oracle would be worthless. Limited to
    graphs of up to 2000 nodes because the full N*N matrix is built.
    """
    n = graph.node_count
    if n == 0:
        raise PatentFlowError("dense_pagerank requires a non-empty graph")
    if n > DENSE_NODE_LIMIT:
        raise PatentFlowError(
            f"dense_pagerank is limited to {DENSE_NODE_LIMIT} nodes, got {n}"
        )
    exclude_self = params.dangling_mode == DANGLING_UNIFORM_OTHERS and n > 1
    m = np.zeros((n, n))
    for j in range(n):
        outs = graph.out_neighbors(j)
        if outs.size:
            m[outs, j] = 1.0 / outs.size
        elif exclude_self:
            m[:, j] = 1.0 / (n - 1)
            m[j, j] = 0.0
        else:
            m[:, j] = 1.0 / n

    teleport = (1.0 - params.damping) / n
    tol = params.epsilon / 10.0
    p = np.full(n, 1.0 / n)
    for _ in range(max(10 * params.max_iterations, 1000)):
        nxt = teleport + params.damping * (m @ p)
        if np.abs(nxt - p).sum() < tol:
            return nxt
        p = nxt
    raise PatentFlowError("dense reference iteration did not reach tolerance")


def random_graph(node_count: int, edge_count: int, seed: int) -> CitationGraph:
    """Seeded random directed graph for oracle comparisons.

    From two nodes on, about a tenth of the nodes are barred from citing
    anything, so the dangling redistribution path is always hit.
    """
    rng = np.random.default_rng(seed)
    if node_count >= 2:
        k = max(1, node_count // 10)
        silent = rng.choice(node_count, size=k, replace=False)
        mask = np.ones(node_count, dtype=bool)
        mask[silent] = False
        sources = np.flatnonzero(mask)
    else:
        sources = np.arange(node_count)
    src = sources[rng.integers(0, sources.size, size=edge_count)]
    dst = rng.integers(0, node_count, size=edge_count)
    return build_graph(np.column_stack((src, dst)), node_count)


def random_citation_edges(node_count: int, edge_count: int, seed: int) -> np.ndarray:
    """Large-scale citation-shaped edge sample (vectorized, index pairs).

    Every patent cites a strictly earlier one, with a quadratic skew toward
    old patents so in-degrees get the usual heavy tail. Patents that never
    appear as citers are dangling.
    """
    rng = np.random.default_rng(seed)
    citing = rng.integers(1, node_count, size=edge_count)
    u = rng.random(edge_count)
    cited = np.minimum((citing * u * u).astype(np.int64), citing - 1)
    return np.column_stack((citing, cited))


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
        if self.node_count < 0:
            raise PatentFlowError("node_count must be non-negative")
        for name, pairs in (("classes", self.classes), ("assignees", self.assignees)):
            if not pairs:
                raise PatentFlowError(f"{name} must be non-empty")
            total = sum(p for _, p in pairs)
            if abs(total - 1.0) > 1e-9:
                raise PatentFlowError(f"{name} proportions sum to {total}, expected 1")
            if not all(math.isfinite(p) and p >= 0 for _, p in pairs):
                raise PatentFlowError(f"{name} proportions must be finite and non-negative")
            labels = [label for label, _ in pairs]
            if len(set(labels)) != len(labels):
                raise PatentFlowError(f"{name} labels must be unique")
        start, end = self.year_range
        # patents.tsv reads a year outside [YEAR_MIN, YEAR_MAX] back as unknown
        if not YEAR_MIN <= start <= end <= YEAR_MAX:
            raise PatentFlowError(
                f"year_range {self.year_range} must be non-empty and within "
                f"[{YEAR_MIN}, {YEAR_MAX}]"
            )
        pc = self.planted_crossover
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
        labels = [label for pairs in (self.classes, self.assignees) for label, _ in pairs]
        if pc is not None:
            labels += [pc.target_class, pc.source_class_a, pc.source_class_b]
        for label in labels:
            # each label must read back from patents.tsv as written
            if label != label.strip() or any(c in label for c in "\t\n\r") or _undecodable(label):
                raise PatentFlowError(
                    f"label {label!r} has a tab, a line break, surrounding whitespace "
                    "or bytes that are not UTF-8, which patents.tsv cannot carry"
                )


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
            node_count=int(obj["node_count"]),
            classes=tuple((str(c), float(p)) for c, p in obj["classes"]),
            year_range=(int(start), int(end)),
            assignees=tuple((str(a), float(p)) for a, p in obj["assignees"]),
            edge_model=em,
            planted_crossover=PlantedCrossover(
                target_class=str(pc["target_class"]),
                source_class_a=str(pc["source_class_a"]),
                source_class_b=str(pc["source_class_b"]),
                crossover_year=int(pc["crossover_year"]),
            )
            if pc
            else None,
            dominant_assignee=obj.get("dominant_assignee"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PatentFlowError(f"invalid synthetic spec: {exc}") from exc


def _weighted_pick(rng: np.random.Generator, labels: list[str], probs: list[float]) -> str:
    return labels[int(rng.choice(len(labels), p=probs))]


def generate_synthetic_dataset(spec: SyntheticSpec, seed: int) -> PatentDataset:
    """Deterministic synthetic PatentDataset for a given spec and seed."""
    if seed < 0:
        raise PatentFlowError(f"seed must be non-negative, got {seed}")
    n = spec.node_count
    rng = np.random.default_rng(seed)
    start, end = spec.year_range
    n_years = end - start + 1
    bounds = np.linspace(0, n, n_years + 1).astype(np.int64)
    years = np.repeat(np.arange(start, end + 1), np.diff(bounds)).tolist()

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
    return assemble_dataset((ids, edges), dict(zip(ids, zip(classes, years, assignees))))
