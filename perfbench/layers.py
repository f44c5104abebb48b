"""Per-layer metrics derived from the spans of one traced run.

Spans are grouped by phase: ``setup`` (once per run) and one phase per
traced unit of work. Each layer quantity is summed within a phase; a
metric is the setup phase's amount plus the median over traced units, so
it reads as "what one set-up plus one unit of work spend in this layer".
Memory and CSR sizes are high-water marks and take the larger of the two.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

# (name, unit) in the order printed; BENCHMARK.json lists the same under per_layer.
LAYER_METRICS = (
    ("ingest.parse_citations_s", "s"),
    ("ingest.parse_metadata_s", "s"),
    ("ingest.assemble_self_s", "s"),
    ("ingest.lines_per_s", "1/s"),
    ("ingest.rss_growth_mb", "MB"),
    ("ingest.malformed_lines", "count"),
    ("ingest.placeholder_nodes", "count"),
    ("graph.build_graph_s", "s"),
    ("graph.build_graph_calls", "count"),
    ("graph.rss_growth_mb", "MB"),
    ("graph.induced_subgraph_self_s", "s"),
    ("graph.edge_keep_ratio", "ratio"),
    ("graph.csr_bytes", "B"),
    ("pagerank.pagerank_s", "s"),
    ("pagerank.iterations", "count"),
    ("pagerank.s_per_iteration", "s"),
    ("pagerank.edge_updates_per_s", "1/s"),
    ("pagerank.bytes_per_iteration_computed", "B"),
    ("pagerank.converged_ratio", "ratio"),
    ("pagerank.write_scores_tsv_s", "s"),
    ("reports.top_table_s", "s"),
    ("reports.render_write_s", "s"),
    ("trends.class_inflow_series_s", "s"),
    ("trends.assignee_exclusion_set_s", "s"),
    ("trends.apply_exclusion_self_s", "s"),
    ("trends.excluded_nodes", "count"),
    ("cli.main_self_s", "s"),
    ("cli.startup_s", "s"),
    ("trace.overhead_s", "s"),
)

_MB = 1024.0 * 1024.0
# high-water quantities: combined by max, not summed, across phases
_PEAK_KEYS = ("csr_bytes", "ingest_rss", "graph_rss")


def kernel_bytes_per_iteration(nodes: int, edges: int, index_bytes: int) -> int:
    """Bytes one PageRank iteration must move, computed from array sizes.

    The in-link index array is read once; one float64 per edge is gathered
    from the source vector, written and read back for the per-node sums;
    six float64 node vectors (current, out-share, product, inflow, next,
    difference) are touched once each. Cache effects are not modelled.
    """
    return index_bytes + 3 * 8 * edges + 6 * 8 * nodes


def _phase_sums(spans) -> dict:
    s = defaultdict(float)
    for span in spans:
        c = span.counters
        s["t." + span.name] += span.duration
        s["self." + span.name] += span.self_time
        if span.name in ("ingest.parse_citations", "ingest.parse_metadata"):
            s["lines"] += c["lines"]
            s["malformed"] += c["malformed"]
        elif span.name == "ingest.assemble_dataset":
            s["placeholders"] += c["placeholder_nodes"]
        elif span.name == "ingest.load_dataset":
            s["ingest_rss"] = max(s["ingest_rss"], c["rss_growth_bytes"])
        elif span.name == "graph.build_graph":
            s["builds"] += 1
            s["edges_input"] += c["edges_input"]
            s["edges_stored"] += c["edges_stored"]
            s["csr_bytes"] = max(s["csr_bytes"], c["csr_bytes"])
            s["graph_rss"] = max(s["graph_rss"], c["rss_growth_bytes"])
        elif span.name == "pagerank.pagerank":
            s["pr_calls"] += 1
            s["pr_converged"] += c["converged"]
            s["iterations"] += c["iterations"]
            s["edge_updates"] += c["iterations"] * c["edges"]
            s["kernel_bytes"] += c["iterations"] * kernel_bytes_per_iteration(
                c["nodes"], c["edges"], c["index_bytes"])
        elif span.name == "trends.assignee_exclusion_set":
            s["excluded"] += c["excluded"]
    return s


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, unit_phases: list[str], overhead_s: float, startup_s: float) -> dict:
    by_phase = defaultdict(list)
    for span in spans:
        by_phase[span.phase].append(span)
    setup = _phase_sums(by_phase["setup"])
    units = [_phase_sums(by_phase[p]) for p in unit_phases]
    keys = set(setup).union(*units)
    s = {}
    for k in keys:
        unit = statistics.median(u.get(k, 0.0) for u in units)
        s[k] = max(setup.get(k, 0.0), unit) if k in _PEAK_KEYS else setup.get(k, 0.0) + unit

    def g(key: str) -> float:
        return s.get(key, 0.0)

    parse_s = g("t.ingest.parse_citations") + g("t.ingest.parse_metadata")
    pr_s = g("t.pagerank.pagerank")
    values = {
        "ingest.parse_citations_s": g("t.ingest.parse_citations"),
        "ingest.parse_metadata_s": g("t.ingest.parse_metadata"),
        "ingest.assemble_self_s": g("self.ingest.assemble_dataset"),
        "ingest.lines_per_s": _ratio(g("lines"), parse_s),
        "ingest.rss_growth_mb": g("ingest_rss") / _MB,
        "ingest.malformed_lines": int(g("malformed")),
        "ingest.placeholder_nodes": int(g("placeholders")),
        "graph.build_graph_s": g("t.graph.build_graph"),
        "graph.build_graph_calls": int(g("builds")),
        "graph.rss_growth_mb": g("graph_rss") / _MB,
        "graph.induced_subgraph_self_s": g("self.graph.induced_subgraph"),
        "graph.edge_keep_ratio": _ratio(g("edges_stored"), g("edges_input")),
        "graph.csr_bytes": int(g("csr_bytes")),
        "pagerank.pagerank_s": pr_s,
        "pagerank.iterations": int(g("iterations")),
        "pagerank.s_per_iteration": _ratio(pr_s, g("iterations")),
        "pagerank.edge_updates_per_s": _ratio(g("edge_updates"), pr_s),
        "pagerank.bytes_per_iteration_computed": _ratio(g("kernel_bytes"), g("iterations")),
        "pagerank.converged_ratio": _ratio(g("pr_converged"), g("pr_calls")),
        "pagerank.write_scores_tsv_s": g("t.pagerank.write_scores_tsv"),
        "reports.top_table_s": g("t.reports.top_table"),
        "reports.render_write_s": g("t.reports.render_rank_table") + g("t.reports.write_rank_csv"),
        "trends.class_inflow_series_s": g("t.trends.class_inflow_series"),
        "trends.assignee_exclusion_set_s": g("t.trends.assignee_exclusion_set"),
        "trends.apply_exclusion_self_s": g("self.trends.apply_exclusion"),
        "trends.excluded_nodes": int(g("excluded")),
        "cli.main_self_s": g("self.cli.main"),
        "cli.startup_s": startup_s,
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
