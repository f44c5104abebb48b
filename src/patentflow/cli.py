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
import functools
import json
import os
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .atomic import atomic_write
from .errors import PatentFlowError
from .ingest import PatentDataset, assemble_dataset, load_dataset, parse_citations, parse_metadata
from .pagerank import (
    DANGLING_UNIFORM_ALL,
    DANGLING_UNIFORM_OTHERS,
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERATIONS,
    PageRankParams,
    pagerank,
)
from .reports import render_rank_table, top_table, write_flow_csv, write_rank_csv, write_scores_tsv
from .testkit import load_spec, synthetic_files
from .trends import (
    METRIC_CITATION_COUNT,
    METRIC_PAGERANK_SUM,
    apply_exclusion,
    assignee_exclusion_set,
    class_inflow_series,
    patent_inflow_breakdown,
    require_name,
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


def _params_from(args, damping: float | None = None) -> PageRankParams:
    """PageRank settings; without ``damping``, --damping or PATENTFLOW_DAMPING or the default."""
    if damping is None:
        damping = _env_or(args.damping, "DAMPING", float, DEFAULT_DAMPING)
    return PageRankParams(
        damping=damping,
        epsilon=_env_or(args.epsilon, "EPSILON", float, DEFAULT_EPSILON),
        max_iterations=_env_or(args.max_iters, "MAX_ITERS", int, DEFAULT_MAX_ITERATIONS),
        dangling_mode=_env_or(args.dangling_mode, "DANGLING_MODE", str, DANGLING_UNIFORM_ALL),
    )


def _reported(dataset: PatentDataset) -> PatentDataset:
    """Print the dataset's build report as one JSON line on stderr."""
    print(json.dumps(dataset.build_report.to_json_dict(), sort_keys=True), file=sys.stderr)
    return dataset


def _load(args) -> PatentDataset:
    return _reported(load_dataset(args.citations, args.patents))


def _write_summary(path: Path, payload: dict) -> None:
    with atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _summary(args, dataset: PatentDataset, **fields) -> dict:
    """A summary.json payload: the command and the dataset's size, then ``fields``."""
    return {"command": args.command, "nodes": dataset.node_count,
            "edges": dataset.graph.edge_count, **fields}


def _result_summary(result) -> dict:
    return {
        **asdict(result.params),
        "iterations": result.iterations,
        "final_delta": result.final_delta,
        "converged": result.converged,
    }


def _scores(args, params_list: list[PageRankParams]):
    """Load the dataset, run PageRank once per params and write each scores_d<d>.tsv."""
    dataset = _load(args)
    results = [pagerank(dataset.graph, params, cpus=args.threads) for params in params_list]
    out = _out_dir(args)
    for r in results:
        write_scores_tsv(dataset.index_to_id, r.scores, out / f"scores_d{r.params.damping:g}.tsv")
    return dataset, results, out


def _cmd_rank(args) -> int:
    params = _params_from(args)
    top = _env_or(args.top, "TOP", int, DEFAULT_TOP)
    if top < 0:
        raise PatentFlowError(f"top must be non-negative, got {top}")
    dataset, [result], out = _scores(args, [params])
    table = top_table(dataset, [result], top, params.damping)
    with atomic_write(out / "rank_table.txt") as f:
        f.write(render_rank_table(table))
    write_rank_csv(table, out / "rank_table.csv")
    _write_summary(out / "summary.json", _summary(args, dataset, **_result_summary(result)))
    return 0


def _cmd_sweep(args) -> int:
    raw = _env_or(args.damping_list, "DAMPING_LIST", str, None)
    dampings = DEFAULT_SWEEP_DAMPINGS if raw is None else _parse_damping_list(raw)
    dataset, results, out = _scores(args, [_params_from(args, d) for d in dampings])
    runs = [_result_summary(r) for r in results]
    _write_summary(out / "sweep_summary.json", _summary(args, dataset, runs=runs))
    return 0


def _cmd_flow(args) -> int:
    """``flow``, and ``exclude-flow`` on the dataset without the assignee's neighborhood."""
    require_name("target class", args.target_class)
    if args.command == "exclude-flow":
        require_name("assignee", args.exclude_assignee)
    params = _params_from(args)
    dataset = _load(args)
    target = args.target_class
    summary = {"target_class": target}
    exclusion = None
    if args.command == "exclude-flow":
        exclusion = assignee_exclusion_set(dataset, args.exclude_assignee)
        dataset, _ = apply_exclusion(dataset, exclusion)
        summary["excluded_assignee"] = args.exclude_assignee
        summary["excluded_nodes"] = int(exclusion.excluded.size)
    result = pagerank(dataset.graph, params, cpus=args.threads)
    metrics = [args.metric] if args.metric else [METRIC_CITATION_COUNT, METRIC_PAGERANK_SUM]
    series_list = [class_inflow_series(dataset, result, target, m) for m in metrics]
    out = _out_dir(args)
    write_flow_csv(series_list, out / f"flow_{_safe_name(target)}.csv")
    target_patents = int(dataset.class_mask(target).sum())
    if target_patents == 0:
        print(f"warning: no patent has class {target!r}; series is empty", file=sys.stderr)
    if exclusion is not None:
        _write_summary(out / "exclusion_report.json", exclusion.report())
    else:
        summary["target_class_patents"] = target_patents
    summary.update(metrics=[s.metric for s in series_list], **_result_summary(result))
    _write_summary(out / "summary.json", _summary(args, dataset, **summary))
    return 0


def _cmd_patent(args) -> int:
    params = _params_from(args)
    dataset = _load(args)
    idx = dataset.index_of(args.patent_id)
    if idx is None:
        raise PatentFlowError(f"patent id {args.patent_id!r} not in dataset")
    result = pagerank(dataset.graph, params, cpus=args.threads)
    breakdown = patent_inflow_breakdown(dataset, result, idx)
    payload = {
        "patent_id": args.patent_id,
        "class": dataset.classes[dataset.class_code[idx]],
        "year": int(dataset.year[idx]) or None,
        "assignee": dataset.assignees[dataset.assignee_code[idx]],
        "in_degree": int(dataset.graph.in_degrees[idx]),
        "out_degree": int(dataset.graph.out_degrees[idx]),
        "damping": params.damping,
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
    citations, patents = synthetic_files(load_spec(args.spec), seed=args.seed)
    _reported(assemble_dataset(parse_citations(citations)[0], parse_metadata(patents)[0]))
    out = _out_dir(args)
    for name, data in (("citations.tsv", citations), ("patents.tsv", patents)):
        with atomic_write(out / name) as f:
            f.buffer.write(data)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patentflow",
        description="PageRank and class-level citation trend reports for patent networks",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags must be spelled in full: a prefix of one is a usage error
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    # one parent parser per flag group; each command lists the groups it takes
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None,
                        help="run PageRank on at most this many CPUs, at least 1 (default: every "
                             "CPU the process may use); results are the same for every value")
    common.add_argument("--out", default=None, help="output directory (default .)")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--citations", required=True, help="citations.tsv path")
    data.add_argument("--patents", required=True, help="patents.tsv path")
    data.add_argument("--epsilon", type=float, default=None,
                      help=f"convergence threshold (default {DEFAULT_EPSILON:g})")
    data.add_argument("--max-iters", type=int, default=None,
                      help=f"iteration cap (default {DEFAULT_MAX_ITERATIONS})")
    data.add_argument("--dangling-mode", default=None,
                      choices=[DANGLING_UNIFORM_ALL, DANGLING_UNIFORM_OTHERS])
    damping = argparse.ArgumentParser(add_help=False)
    damping.add_argument("--damping", type=float, default=None)
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--target-class", required=True)
    target.add_argument("--metric", default=None,
                        choices=[METRIC_PAGERANK_SUM, METRIC_CITATION_COUNT],
                        help="restrict to one metric (default: both)")

    p = add_parser("rank", parents=[data, common, damping],
                   help="single damping value: score TSV plus top-N table")
    p.add_argument("--top", type=int, default=None)
    p.set_defaults(func=_cmd_rank)

    p = add_parser("sweep", parents=[data, common],
                   help="one run per damping value plus iteration summary")
    p.add_argument("--damping-list", default=None,
                   help="comma-separated damping values (default "
                        + ",".join(f"{d:g}" for d in DEFAULT_SWEEP_DAMPINGS) + ")")
    p.set_defaults(func=_cmd_sweep)

    p = add_parser("flow", parents=[data, common, target, damping],
                   help="per-class per-year citation inflow into a target class")
    p.set_defaults(func=_cmd_flow)

    p = add_parser("exclude-flow", parents=[data, common, target, damping],
                   help="flow recomputed with an assignee's neighborhood removed")
    p.add_argument("--exclude-assignee", required=True)
    p.set_defaults(func=_cmd_flow)

    p = add_parser("patent", parents=[data, common, damping],
                   help="citation breakdown for one patent as JSON")
    p.add_argument("patent_id")
    p.set_defaults(func=_cmd_patent)

    p = add_parser("gen", parents=[common],
                   help="generate a synthetic dataset from a JSON spec")
    p.add_argument("--spec", required=True, help="synthetic spec JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        args.threads = _env_or(args.threads, "THREADS", int, None)
        if args.threads is not None and args.threads < 1:
            raise PatentFlowError(f"threads must be >= 1, got {args.threads}")
        code = args.func(args)
    except (PatentFlowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.command}: done in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
