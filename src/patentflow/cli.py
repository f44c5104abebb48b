"""Command-line pipeline: ingest, rank, sweep, and flow reports.

Every run prints the dataset build report as JSON on stderr and writes its
outputs into the --out directory. Output files are byte-deterministic for
identical inputs and flags; timing information therefore goes to stderr
only. Exit codes: 0 success, 1 domain or I/O error, 2 usage error.

Settings resolve as flags, then PATENTFLOW_* environment variables, then
built-in defaults.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from pathlib import Path

from .atomic import atomic_write
from .errors import PatentFlowError
from .ingest import PatentDataset, load_dataset, write_citations, write_metadata
from .pagerank import (
    DANGLING_UNIFORM_ALL,
    DANGLING_UNIFORM_OTHERS,
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERATIONS,
    PageRankParams,
    pagerank,
    write_scores_tsv,
)
from .reports import render_rank_table, top_table, write_rank_csv
from .testkit import generate_synthetic_dataset, load_spec
from .trends import (
    METRIC_CITATION_COUNT,
    METRIC_PAGERANK_SUM,
    apply_exclusion,
    assignee_exclusion_set,
    class_inflow_series,
    patent_inflow_breakdown,
    require_name,
    write_flow_csv,
)

ENV_PREFIX = "PATENTFLOW_"
DEFAULT_SWEEP_DAMPINGS = (0.01, 0.15, 0.50, 0.85, 0.99)
DEFAULT_DAMPING = 0.50
DEFAULT_TOP = 20


def _env_or(args_value, env_name: str, cast, default):
    if args_value is not None:
        return args_value
    raw = os.environ.get(ENV_PREFIX + env_name)
    if raw:
        try:
            return cast(raw)
        except ValueError as exc:
            raise PatentFlowError(f"bad {ENV_PREFIX}{env_name}={raw!r}: {exc}") from exc
    return default


def _parse_damping_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise PatentFlowError(f"bad damping list {text!r}: {exc}") from exc
    if not values:
        raise PatentFlowError(f"damping list {text!r} is empty")
    # each value names its own scores_d{d:g}.tsv, so a repeat would overwrite one
    if len(set(values)) < len(values) or len({f"{d:g}" for d in values}) < len(values):
        raise PatentFlowError(
            f"damping list {text!r} repeats a value or has values with the same "
            "scores_d<value>.tsv file name"
        )
    return values


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", text)


def _out_dir(args) -> Path:
    out = Path(_env_or(args.out, "OUT", str, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _params_from(args, damping: float) -> PageRankParams:
    return PageRankParams(
        damping=damping,
        epsilon=_env_or(args.epsilon, "EPSILON", float, DEFAULT_EPSILON),
        max_iterations=_env_or(args.max_iters, "MAX_ITERS", int, DEFAULT_MAX_ITERATIONS),
        dangling_mode=_env_or(args.dangling_mode, "DANGLING_MODE", str, DANGLING_UNIFORM_ALL),
    )


def _load(args) -> PatentDataset:
    dataset = load_dataset(args.citations, args.patents)
    print(json.dumps(dataset.build_report.to_json_dict(), sort_keys=True), file=sys.stderr)
    return dataset


def _write_summary(path: Path, payload: dict) -> None:
    with atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _result_summary(result) -> dict:
    return {
        "damping": result.params.damping,
        "epsilon": result.params.epsilon,
        "max_iterations": result.params.max_iterations,
        "dangling_mode": result.params.dangling_mode,
        "iterations": result.iterations,
        "final_delta": result.final_delta,
        "converged": result.converged,
    }


def _cmd_rank(args) -> int:
    damping = _env_or(args.damping, "DAMPING", float, DEFAULT_DAMPING)
    params = _params_from(args, damping)
    top = _env_or(args.top, "TOP", int, DEFAULT_TOP)
    if top < 0:
        raise PatentFlowError(f"top must be non-negative, got {top}")
    dataset = _load(args)
    result = pagerank(dataset.graph, params)
    out = _out_dir(args)

    write_scores_tsv(dataset.index_to_id, result.scores, out / f"scores_d{damping:g}.tsv")
    table = top_table(dataset, [result], top, damping)
    with atomic_write(out / "rank_table.txt") as f:
        f.write(render_rank_table(table))
    write_rank_csv(table, out / "rank_table.csv")
    _write_summary(
        out / "summary.json",
        {
            "command": "rank",
            "nodes": dataset.node_count,
            "edges": dataset.graph.edge_count,
            **_result_summary(result),
        },
    )
    return 0


def _cmd_sweep(args) -> int:
    raw = _env_or(args.damping_list, "DAMPING_LIST", str, None)
    dampings = DEFAULT_SWEEP_DAMPINGS if raw is None else _parse_damping_list(raw)
    params_list = [_params_from(args, d) for d in dampings]
    dataset = _load(args)
    results = [pagerank(dataset.graph, params) for params in params_list]
    out = _out_dir(args)
    for result in results:
        d = result.params.damping
        write_scores_tsv(dataset.index_to_id, result.scores, out / f"scores_d{d:g}.tsv")
    _write_summary(
        out / "sweep_summary.json",
        {
            "command": "sweep",
            "nodes": dataset.node_count,
            "edges": dataset.graph.edge_count,
            "runs": [_result_summary(r) for r in results],
        },
    )
    return 0


def _flow_metrics(args) -> list[str]:
    if args.metric is not None:
        return [args.metric]
    return [METRIC_CITATION_COUNT, METRIC_PAGERANK_SUM]


def _cmd_flow(args) -> int:
    """``flow``, and ``exclude-flow`` on the dataset without the assignee's neighborhood."""
    require_name("target class", args.target_class)
    if args.command == "exclude-flow":
        require_name("assignee", args.exclude_assignee)
    params = _params_from(args, _env_or(args.damping, "DAMPING", float, DEFAULT_DAMPING))
    dataset = _load(args)
    target = args.target_class
    summary = {"command": args.command, "target_class": target}
    exclusion = None
    if args.command == "exclude-flow":
        exclusion = assignee_exclusion_set(dataset, args.exclude_assignee)
        dataset, _ = apply_exclusion(dataset, exclusion)
        summary["excluded_assignee"] = args.exclude_assignee
        summary["excluded_nodes"] = int(exclusion.excluded.size)
    result = pagerank(dataset.graph, params)
    series_list = [class_inflow_series(dataset, result, target, m) for m in _flow_metrics(args)]
    out = _out_dir(args)
    write_flow_csv(series_list, out / f"flow_{_safe_name(target)}.csv")
    target_patents = int(dataset.class_mask(target).sum())
    if target_patents == 0:
        print(f"warning: no patent has class {target!r}; series is empty", file=sys.stderr)
    if exclusion is not None:
        _write_summary(out / "exclusion_report.json", exclusion.report())
    else:
        summary["target_class_patents"] = target_patents
    _write_summary(
        out / "summary.json",
        {
            **summary,
            "metrics": [s.metric for s in series_list],
            "nodes": dataset.node_count,
            "edges": dataset.graph.edge_count,
            **_result_summary(result),
        },
    )
    return 0


def _cmd_patent(args) -> int:
    damping = _env_or(args.damping, "DAMPING", float, DEFAULT_DAMPING)
    params = _params_from(args, damping)
    dataset = _load(args)
    idx = dataset.index_of(args.patent_id)
    if idx is None:
        raise PatentFlowError(f"patent id {args.patent_id!r} not in dataset")
    result = pagerank(dataset.graph, params)
    breakdown = patent_inflow_breakdown(dataset, result, idx)
    meta = dataset.meta_of(idx)
    payload = {
        "patent_id": meta.patent_id,
        "class": meta.primary_class,
        "year": meta.grant_year,
        "assignee": meta.assignee,
        "in_degree": dataset.graph.in_degree(idx),
        "out_degree": dataset.graph.out_degree(idx),
        "damping": damping,
        "score": float(result.scores[idx]),
        "breakdown": [
            {
                "source_class": cls,
                "year": year,
                "count": count,
                "pagerank_sum": total,
            }
            for (cls, year), (count, total) in sorted(breakdown.items())
        ],
    }
    out = _out_dir(args)
    _write_summary(out / f"patent_{_safe_name(args.patent_id)}.json", payload)
    return 0


def _cmd_gen(args) -> int:
    spec = load_spec(args.spec)
    dataset = generate_synthetic_dataset(spec, seed=args.seed)
    print(json.dumps(dataset.build_report.to_json_dict(), sort_keys=True), file=sys.stderr)
    out = _out_dir(args)
    write_citations(dataset, out / "citations.tsv")
    write_metadata(dataset, out / "patents.tsv")
    return 0


def _add_common(parser: argparse.ArgumentParser, dataset: bool = True) -> None:
    if dataset:
        parser.add_argument("--citations", required=True, help="citations.tsv path")
        parser.add_argument("--patents", required=True, help="patents.tsv path")
        parser.add_argument("--epsilon", type=float, default=None,
                            help=f"convergence threshold (default {DEFAULT_EPSILON:g})")
        parser.add_argument("--max-iters", type=int, default=None,
                            help=f"iteration cap (default {DEFAULT_MAX_ITERATIONS})")
        parser.add_argument("--dangling-mode", default=None,
                            choices=[DANGLING_UNIFORM_ALL, DANGLING_UNIFORM_OTHERS])
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; has no effect on results or speed")
    parser.add_argument("--out", default=None, help="output directory (default .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patentflow",
        description="PageRank and class-level citation trend reports for patent networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="single damping value: score TSV plus top-N table")
    _add_common(p)
    p.add_argument("--damping", type=float, default=None)
    p.add_argument("--top", type=int, default=None)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("sweep", help="one run per damping value plus iteration summary")
    _add_common(p)
    p.add_argument("--damping-list", default=None,
                   help="comma-separated damping values (default "
                        + ",".join(f"{d:g}" for d in DEFAULT_SWEEP_DAMPINGS) + ")")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("flow", help="per-class per-year citation inflow into a target class")
    _add_common(p)
    p.add_argument("--target-class", required=True)
    p.add_argument("--damping", type=float, default=None)
    p.add_argument("--metric", default=None,
                   choices=[METRIC_PAGERANK_SUM, METRIC_CITATION_COUNT],
                   help="restrict to one metric (default: both)")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("exclude-flow",
                       help="flow recomputed with an assignee's neighborhood removed")
    _add_common(p)
    p.add_argument("--target-class", required=True)
    p.add_argument("--exclude-assignee", required=True)
    p.add_argument("--damping", type=float, default=None)
    p.add_argument("--metric", default=None,
                   choices=[METRIC_PAGERANK_SUM, METRIC_CITATION_COUNT])
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("patent", help="citation breakdown for one patent as JSON")
    _add_common(p)
    p.add_argument("patent_id")
    p.add_argument("--damping", type=float, default=None)
    p.set_defaults(func=_cmd_patent)

    p = sub.add_parser("gen", help="generate a synthetic dataset from a JSON spec")
    _add_common(p, dataset=False)
    p.add_argument("--spec", required=True, help="synthetic spec JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except PatentFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.command}: done in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
