"""Span tracing from outside the program.

``Tracer.install`` replaces module attributes that callers look up at call
time (``patentflow.cli.load_dataset``, ``patentflow.ingest.build_graph``, ...)
with wrappers that record one span per call: name, start, end, parent span
and a few counters read off the arguments and the result. Spans stay in
memory until the run ends. ``uninstall`` puts the original functions back,
so traced and untraced units of work can alternate in one process.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    phase: str
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        # children run one after another on this thread, so their
        # durations never overlap and their sum is the covered time
        return self.duration - self.child_time

    def to_json(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "parent": self.parent, "phase": self.phase,
            "start": self.start, "end": self.end, "counters": self.counters,
        }


def _graph_counters(args, kwargs, graph) -> dict:
    r = graph.build_report
    return {
        "edges_input": r.edges_input,
        "edges_stored": r.edges_stored,
        "csr_bytes": int(graph.out_indptr.nbytes + graph.out_indices.nbytes
                         + graph.in_indptr.nbytes + graph.in_indices.nbytes),
    }


def _pagerank_counters(args, kwargs, result) -> dict:
    graph = args[0]
    return {
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "index_bytes": int(graph.in_indices.nbytes),
    }


# span name -> (module attributes through which the workloads and the
# program reach the function, counter function, whether to sample resident
# memory around the call)
TARGETS = {
    "cli.main": (("cli.main",), None, False),
    "ingest.load_dataset": (("cli.load_dataset", "ingest.load_dataset"), None, True),
    "ingest.parse_citations": (("ingest.parse_citations",),
                               lambda a, k, r: {"lines": r[1].lines, "malformed": r[1].malformed}, False),
    "ingest.parse_metadata": (("ingest.parse_metadata",),
                              lambda a, k, r: {"lines": r[1].lines, "malformed": r[1].malformed}, False),
    "ingest.assemble_dataset": (("ingest.assemble_dataset",),
                                lambda a, k, r: {"placeholder_nodes": r.build_report.placeholder_nodes},
                                False),
    "graph.build_graph": (("ingest.build_graph", "graph.build_graph"), _graph_counters, True),
    "graph.induced_subgraph": (("trends.induced_subgraph",), None, False),
    "pagerank.pagerank": (("cli.pagerank", "pagerank.pagerank"), _pagerank_counters, False),
    "pagerank.write_scores_tsv": (("cli.write_scores_tsv",), None, False),
    "reports.top_table": (("cli.top_table",), None, False),
    "reports.render_rank_table": (("cli.render_rank_table",), None, False),
    "reports.write_rank_csv": (("cli.write_rank_csv",), None, False),
    "trends.class_inflow_series": (("trends.class_inflow_series",), None, False),
    "trends.assignee_exclusion_set": (
        ("trends.assignee_exclusion_set",),
        lambda a, k, r: {"excluded": int(r.owned.size + r.cites_owned.size + r.cited_by_owned.size)},
        False,
    ),
    "trends.apply_exclusion": (("trends.apply_exclusion",), None, False),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counters, sample_rss: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent.sid if parent else None, self.phase, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            rss0 = rss_bytes() if sample_rss else 0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
            if sample_rss:
                span.counters["rss_growth_bytes"] = rss_bytes() - rss0
            if counters is not None:
                span.counters.update(counters(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target attribute of the patentflow modules."""
        wrappers = {}
        for name, (attrs, counters, sample_rss) in TARGETS.items():
            for attr in attrs:
                module_name, fn_name = attr.split(".")
                # by module path: the package namespace rebinds some
                # submodule names (``patentflow.pagerank``) to functions
                module = importlib.import_module(f"patentflow.{module_name}")
                fn = getattr(module, fn_name)
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, name, counters, sample_rss)
                self._saved.append((module, fn_name, fn))
                setattr(module, fn_name, wrappers[fn])

    def uninstall(self) -> None:
        for module, fn_name, fn in reversed(self._saved):
            setattr(module, fn_name, fn)
        self._saved.clear()
