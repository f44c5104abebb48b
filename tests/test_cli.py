import importlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from patentflow import PatentFlowError, load_spec
from patentflow import graph as graph_module
from patentflow.cli import _parse_damping_list, main

SPEC = {
    "node_count": 600,
    "classes": [["347", 0.2], ["400", 0.2], ["358", 0.2], ["435", 0.4]],
    "year_range": [1998, 2007],
    "assignees": [["canoncorp", 0.3], ["alpha", 0.4], ["beta", 0.3]],
    "edge_model": {"out_degree_mean": 3.0},
    "planted_crossover": {
        "target_class": "347",
        "source_class_a": "400",
        "source_class_b": "358",
        "crossover_year": 2003,
    },
    "dominant_assignee": "canoncorp",
}


@pytest.fixture
def data_dir(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    out = tmp_path / "data"
    code = main(["gen", "--spec", str(spec_path), "--seed", "7", "--out", str(out)])
    assert code == 0
    return out


def _dataset_args(data_dir):
    return [
        "--citations", str(data_dir / "citations.tsv"),
        "--patents", str(data_dir / "patents.tsv"),
    ]


def test_gen_outputs(data_dir):
    assert (data_dir / "citations.tsv").exists()
    assert (data_dir / "patents.tsv").exists()
    assert len((data_dir / "patents.tsv").read_text().splitlines()) == 600


def test_rank_command(data_dir, tmp_path, capsys):
    out = tmp_path / "rank"
    code = main(["rank", *_dataset_args(data_dir), "--damping", "0.5",
                 "--top", "20", "--out", str(out)])
    assert code == 0
    assert (out / "scores_d0.5.tsv").exists()
    assert (out / "rank_table.txt").exists()
    assert (out / "rank_table.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "rank"
    assert summary["converged"] is True
    assert summary["damping"] == 0.5
    assert "wall" not in " ".join(summary)
    # build report lands on stderr as one JSON line
    err_lines = capsys.readouterr().err.strip().splitlines()
    report = json.loads(err_lines[0])
    assert report["nodes"] == 600
    lines = (out / "scores_d0.5.tsv").read_text().splitlines()
    assert len(lines) == 600


def test_sweep_default_five_values(data_dir, tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", *_dataset_args(data_dir), "--out", str(out)])
    assert code == 0
    for d in ("0.01", "0.15", "0.5", "0.85", "0.99"):
        assert (out / f"scores_d{d}.tsv").exists()
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert [run["damping"] for run in summary["runs"]] == [0.01, 0.15, 0.5, 0.85, 0.99]
    iters = [run["iterations"] for run in summary["runs"]]
    assert iters == sorted(iters)


class _InCsrBuilt(Exception):
    pass


def test_rank_sweep_and_gen_never_build_the_in_csr(tmp_path, monkeypatch):
    def refuse(graph):
        raise _InCsrBuilt

    monkeypatch.setattr(graph_module, "_transpose", refuse)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["gen", "--spec", str(spec_path), "--seed", "7", "--out", str(data)]) == 0
    assert main(["rank", *_dataset_args(data), "--out", str(tmp_path / "rank")]) == 0
    assert main(["sweep", *_dataset_args(data), "--damping-list", "0.15,0.85",
                 "--out", str(tmp_path / "sweep")]) == 0
    # the patched builder is the one a citing-side query reads
    with pytest.raises(_InCsrBuilt):
        main(["flow", *_dataset_args(data), "--target-class", "347", "--out", str(tmp_path / "flow")])


def test_flow_command_both_metrics(data_dir, tmp_path):
    out = tmp_path / "flow"
    code = main(["flow", *_dataset_args(data_dir), "--target-class", "347",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "flow_347.csv").read_text().splitlines()
    assert lines[0] == "target_class,source_class,year,metric,value"
    metrics = {line.split(",")[3] for line in lines[1:]}
    assert metrics == {"citation-count", "pagerank-sum"}


def test_flow_single_metric(data_dir, tmp_path):
    out = tmp_path / "flow1"
    code = main(["flow", *_dataset_args(data_dir), "--target-class", "347",
                 "--metric", "citation-count", "--out", str(out)])
    assert code == 0
    lines = (out / "flow_347.csv").read_text().splitlines()
    metrics = {line.split(",")[3] for line in lines[1:]}
    assert metrics == {"citation-count"}


def test_flow_unknown_class_warns(data_dir, tmp_path, capsys):
    out = tmp_path / "flow_none"
    code = main(["flow", *_dataset_args(data_dir), "--target-class", "000",
                 "--out", str(out)])
    assert code == 0
    assert "no patent has class" in capsys.readouterr().err
    assert len((out / "flow_000.csv").read_text().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["flow", "--target-class", ""],
    ["flow", "--target-class", "  "],
    ["exclude-flow", "--target-class", "", "--exclude-assignee", "canoncorp"],
    ["exclude-flow", "--target-class", "347", "--exclude-assignee", " "],
])
def test_empty_names_rejected(data_dir, tmp_path, capsys, argv):
    out = tmp_path / "empty"
    code = main([argv[0], *_dataset_args(data_dir), *argv[1:], "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "must not be empty" in err
    # rejected before loading: no build-report JSON line
    assert not any(line.startswith("{") for line in err.splitlines())
    assert not out.exists()


def test_exclude_flow_empty_target_warns(tmp_path, capsys):
    # y is cited by the excluded assignee's c, so no class-347 patent is left
    (tmp_path / "c.tsv").write_text("c\ty\nw\tz\n", encoding="utf-8")
    (tmp_path / "p.tsv").write_text(
        "c\t100\t1995\tcanon\ny\t347\t1990\tglobex\n"
        "w\t200\t2001\tinitech\nz\t200\t1990\tinitech\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(["exclude-flow", "--citations", str(tmp_path / "c.tsv"),
                 "--patents", str(tmp_path / "p.tsv"), "--target-class", "347",
                 "--exclude-assignee", "canon", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert json.loads(err[0])["nodes"] == 4
    assert err[1] == "warning: no patent has class '347'; series is empty"
    assert len((out / "flow_347.csv").read_text().splitlines()) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert "target_class_patents" not in summary
    assert summary["nodes"] == 2


def test_exclude_flow_command(data_dir, tmp_path):
    out = tmp_path / "exflow"
    code = main(["exclude-flow", *_dataset_args(data_dir), "--target-class", "347",
                 "--exclude-assignee", "canoncorp", "--out", str(out)])
    assert code == 0
    assert (out / "flow_347.csv").exists()
    report = json.loads((out / "exclusion_report.json").read_text())
    assert report["assignee"] == "canoncorp"
    assert report["excluded_total"] == (
        report["owned"] + report["cites_owned"] + report["cited_by_owned"]
    )
    summary = json.loads((out / "summary.json").read_text())
    assert summary["nodes"] == 600 - report["excluded_total"]


def test_patent_command(data_dir, tmp_path):
    # pick a patent id with citations from the generated metadata
    first_id = (data_dir / "patents.tsv").read_text().splitlines()[0].split("\t")[0]
    out = tmp_path / "patent"
    code = main(["patent", *_dataset_args(data_dir), first_id, "--out", str(out)])
    assert code == 0
    payload = json.loads((out / f"patent_{first_id}.json").read_text())
    assert payload["patent_id"] == first_id
    assert payload["score"] > 0
    assert isinstance(payload["breakdown"], list)


@pytest.fixture
def unknown_meta_args(tmp_path):
    """A record a with empty class, year and assignee, placeholders b and c
    (seen only in citations) and a full record d."""
    (tmp_path / "c.tsv").write_text("a\tb\nc\ta\nd\ta\n", encoding="utf-8")
    (tmp_path / "p.tsv").write_text("a\t\t\t\nd\t347\t1999\tacme\n", encoding="utf-8")
    return ["--citations", str(tmp_path / "c.tsv"), "--patents", str(tmp_path / "p.tsv")]


def test_patent_payload_of_unknown_and_known_metadata(unknown_meta_args, tmp_path):
    out = tmp_path / "patent"
    for pid in ("a", "b", "d"):
        assert main(["patent", *unknown_meta_args, pid, "--out", str(out)]) == 0
    fields = ("patent_id", "class", "year", "assignee", "in_degree", "out_degree", "damping")
    payloads = {
        pid: {k: v for k, v in json.loads((out / f"patent_{pid}.json").read_text()).items()
              if k in fields}
        for pid in ("a", "b", "d")
    }
    assert payloads == {
        "a": {"patent_id": "a", "class": "", "year": None, "assignee": "",
              "in_degree": 2, "out_degree": 1, "damping": 0.5},
        "b": {"patent_id": "b", "class": "", "year": None, "assignee": "",
              "in_degree": 1, "out_degree": 0, "damping": 0.5},
        "d": {"patent_id": "d", "class": "347", "year": 1999, "assignee": "acme",
              "in_degree": 0, "out_degree": 1, "damping": 0.5},
    }


def test_rank_table_marks_unknown_class(unknown_meta_args, tmp_path):
    out = tmp_path / "rank"
    assert main(["rank", *unknown_meta_args, "--top", "4", "--out", str(out)]) == 0
    text_rows = (out / "rank_table.txt").read_text().splitlines()[1:]
    assert {row.split()[1]: row.split()[2] for row in text_rows} == {
        "a": "?", "b": "?", "c": "?", "d": "347",
    }
    csv_rows = (out / "rank_table.csv").read_text().splitlines()[1:]
    assert {row.split(",")[1]: row.split(",")[2] for row in csv_rows} == {
        "a": "", "b": "", "c": "", "d": "347",
    }


def test_patent_unknown_id_domain_error(data_dir, tmp_path, capsys):
    code = main(["patent", *_dataset_args(data_dir), "doesnotexist",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_error(tmp_path, capsys):
    code = main(["rank", "--citations", str(tmp_path / "no.tsv"),
                 "--patents", str(tmp_path / "no2.tsv"), "--out", str(tmp_path)])
    assert code == 1


def _no_build_report(err: str) -> bool:
    """True when stderr holds no build-report JSON line: nothing was loaded."""
    return not any(line.startswith("{") for line in err.splitlines())


def test_bad_damping_domain_error(data_dir, tmp_path, capsys):
    code = main(["rank", *_dataset_args(data_dir), "--damping", "1.5",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert _no_build_report(capsys.readouterr().err)


@pytest.mark.parametrize("argv, env", [
    (["rank", "--epsilon", "0"], {}),
    (["rank"], {"PATENTFLOW_DANGLING_MODE": "bogus"}),
    (["rank"], {"PATENTFLOW_TOP": "many"}),
    (["sweep", "--damping-list", "0.5,1.5"], {}),
    (["sweep", "--max-iters", "0"], {}),
    (["flow", "--target-class", "347", "--damping", "-0.1"], {}),
    (["exclude-flow", "--target-class", "347", "--exclude-assignee", "canoncorp",
      "--epsilon", "-1"], {}),
    (["patent", "7000001", "--max-iters", "0"], {}),
    (["rank", "--top", "-3"], {}),
    (["rank"], {"PATENTFLOW_TOP": "-1"}),
    (["rank", "--epsilon", "inf"], {}),
    (["sweep", "--epsilon", "inf"], {}),
    (["sweep"], {"PATENTFLOW_EPSILON": "Infinity"}),
    (["rank", "--threads", "0"], {}),
    (["sweep"], {"PATENTFLOW_THREADS": "0"}),
    (["flow", "--target-class", "347", "--threads", "-2"], {}),
    (["patent", "7000001"], {"PATENTFLOW_THREADS": "two"}),
])
def test_bad_settings_rejected_before_loading(data_dir, tmp_path, monkeypatch, capsys,
                                             argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    assert main([argv[0], *_dataset_args(data_dir), *argv[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: " in err
    assert _no_build_report(err)
    assert not out.exists()


@pytest.mark.parametrize("threads, env, groups", [("1", None, 1), ("2", None, 2), (None, "2", 2)])
def test_threads_cap_the_groups_of_a_second_call(data_dir, tmp_path, monkeypatch, threads, env, groups):
    # a sweep's second damping on runs the graph's tiles, here 10 of 64
    # targets, on three usable CPUs: --threads 1 runs them on the calling
    # thread alone, and --threads 2, or PATENTFLOW_THREADS=2, on two
    pagerank_module = importlib.import_module("patentflow.pagerank")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(pagerank_module, "_SPLIT_EDGES", 10)
    monkeypatch.setattr(pagerank_module, "_TILE_NODES", 64)
    if env:
        monkeypatch.setenv("PATENTFLOW_THREADS", env)
    runs, matvec = set(), pagerank_module._coo_matvec
    monkeypatch.setattr(pagerank_module, "_coo_matvec", lambda *args: runs.add(
        (threading.get_ident(), threading.active_count())) or matvec(*args))
    before = threading.active_count()
    out = tmp_path / "out"
    argv = ["sweep", *_dataset_args(data_dir), "--damping-list", "0.5,0.85", "--out", str(out)]
    assert main([*argv, *(["--threads", threads] if threads else [])]) == 0
    assert len({ident for ident, _ in runs}) == groups
    if groups == 1:
        assert runs == {(threading.get_ident(), before)}  # no thread started
    assert main([*argv[:-1], str(tmp_path / "one"), "--threads", "1"]) == 0
    for name in ("scores_d0.5.tsv", "scores_d0.85.tsv", "sweep_summary.json"):
        assert (out / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--citations", "c.tsv"])  # missing --patents
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--citations", "a", "--patents", "b",
              "--target-class", "1", "--metric", "bogus"])
    assert exc.value.code == 2
    # gen runs no PageRank, so it takes no PageRank settings
    for flag, value in (("--epsilon", "1e-3"), ("--max-iters", "5"),
                        ("--dangling-mode", "uniform-others")):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--spec", "spec.json", flag, value])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--damping", "0.5"],  # a prefix of sweep's --damping-list
    ["rank", "--damp", "0.15"],  # a prefix of rank's --damping
])
def test_flag_prefixes_are_usage_errors(data_dir, tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *_dataset_args(data_dir), *argv[1:], "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_env_defaults_and_flag_precedence(data_dir, tmp_path, monkeypatch):
    out_env = tmp_path / "env"
    monkeypatch.setenv("PATENTFLOW_EPSILON", "1e-4")
    monkeypatch.setenv("PATENTFLOW_DAMPING", "0.15")
    code = main(["rank", *_dataset_args(data_dir), "--out", str(out_env)])
    assert code == 0
    summary = json.loads((out_env / "summary.json").read_text())
    assert summary["epsilon"] == 1e-4
    assert summary["damping"] == 0.15

    out_flag = tmp_path / "flag"
    code = main(["rank", *_dataset_args(data_dir), "--damping", "0.85",
                 "--epsilon", "1e-8", "--out", str(out_flag)])
    assert code == 0
    summary = json.loads((out_flag / "summary.json").read_text())
    assert summary["epsilon"] == 1e-8
    assert summary["damping"] == 0.85


def test_module_invocation_subprocess(data_dir, tmp_path):
    out = tmp_path / "subproc"
    # pytest's pythonpath setting reaches only its own process, so the child
    # gets the checkout's src ahead of any PYTHONPATH it inherits
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "patentflow", "rank", *_dataset_args(data_dir),
         "--damping", "0.5", "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()
    report = json.loads(proc.stderr.strip().splitlines()[0])
    assert report["nodes"] == 600


def test_plain_pytest_imports_the_package_from_src():
    """A fresh checkout's ``pytest`` finds the package without PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "tests/test_graph.py"],
        cwd=Path(__file__).resolve().parents[1], env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_non_utf8_input_counted_not_fatal(tmp_path, capsys):
    citations = tmp_path / "c.tsv"
    citations.write_bytes(b"1\t2\n3\t\xff4\n")
    patents = tmp_path / "p.tsv"
    patents.write_bytes(b"1\t100\t2000\tac\xfeme\n2\t100\t2001\tacme\n")
    code = main(["rank", "--citations", str(citations), "--patents", str(patents),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads(capsys.readouterr().err.splitlines()[0])
    assert (report["citations"]["edges"], report["citations"]["malformed"]) == (1, 1)
    assert (report["metadata"]["records"], report["metadata"]["malformed"]) == (1, 1)


def _spec_with(**changes) -> bytes:
    return json.dumps({**SPEC, **changes}).encode()


_INVALID = "error: invalid synthetic spec: "


@pytest.mark.parametrize(
    "content",
    [b'{"node_count": 5', b'{"node_count": "\xff"}', b"[1, 2]",
     _spec_with(year_range=[2000]), _spec_with(year_range=[])],
    ids=["truncated-json", "non-utf8", "top-level-list", "year-range-one", "year-range-empty"],
)
def test_gen_bad_spec_is_domain_error(tmp_path, capsys, content):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(content)
    code = main(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error: invalid synthetic spec" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "content, argv, message",
    [
        (_spec_with(classes=[["347", 0.2], ["400", 0.2], ["358", 0.2], ["435", float("nan")]]),
         [], "error: classes proportions must be finite"),
        (_spec_with(), ["--seed", "-1"], "error: seed must be non-negative"),
        (_spec_with(edge_model={"out_degree_mean": float("nan")}), [],
         "error: out_degree_mean must be in"),
        (_spec_with(edge_model={"out_degree_mean": float("inf")}), [],
         "error: out_degree_mean must be in"),
        (_spec_with(edge_model={"out_degree_mean": 1e300}), [],
         "error: out_degree_mean must be in"),
        (_spec_with(edge_model={"out_degree_mean": -1.0}), [],
         "error: out_degree_mean must be in"),
        (_spec_with(year_range=[1700, 1705]), [], "error: year_range"),
        (_spec_with(year_range=[2095, 2104]), [], "error: year_range"),
        (_spec_with(node_count=5000.7), [], f"{_INVALID}node_count must be a whole number"),
        (_spec_with(node_count=True), [], f"{_INVALID}node_count must be a whole number"),
        (_spec_with(node_count="600"), [], f"{_INVALID}node_count must be a whole number"),
        (_spec_with(year_range=[1995.9, 2010.2]), [], f"{_INVALID}year_range must be a whole number"),
        (_spec_with(year_range=[1998, False]), [], f"{_INVALID}year_range must be a whole number"),
        (_spec_with(planted_crossover={**SPEC["planted_crossover"], "crossover_year": 2004.9}),
         [], f"{_INVALID}crossover_year must be a whole number"),
        (_spec_with(planted_crossover={**SPEC["planted_crossover"], "crossover_year": "2003"}),
         [], f"{_INVALID}crossover_year must be a whole number"),
        (_spec_with(classes=[["347", True]]), [], f"{_INVALID}classes proportions must be numbers"),
        (_spec_with(assignees=[["canoncorp", "0.3"], ["alpha", 0.4], ["beta", 0.3]]), [],
         f"{_INVALID}assignees proportions must be numbers"),
        (_spec_with(classes=[["347", 10**400]]), [], _INVALID),
        (_spec_with(edge_model={"out_degree_mean": True, "preferential": True,
                                "recency_bias": False, "recency_window": True}), [],
         "error: out_degree_mean must be a number, got True"),
        (_spec_with(edge_model={"out_degree_mean": "3"}), [],
         "error: out_degree_mean must be a number, got '3'"),
        (_spec_with(classes=[[True, 0.5], ["400", 0.5]]), [],
         f"{_INVALID}classes labels must be strings, got True"),
        (_spec_with(assignees=[[None, 0.5], ["alpha", 0.5]]), [],
         f"{_INVALID}assignees labels must be strings, got None"),
        (_spec_with(classes=[[347, 0.2], ["400", 0.2], ["358", 0.2], ["435", 0.4]]), [],
         f"{_INVALID}classes labels must be strings, got 347"),
        (_spec_with(planted_crossover={**SPEC["planted_crossover"], "source_class_b": 1}), [],
         f"{_INVALID}planted_crossover labels must be strings, got 1"),
        (_spec_with(node_count=10**20), [], "error: node_count must be in [0, 2147483647]"),
        (_spec_with(node_count=4_000_000_000), [], "error: node_count must be in [0, 2147483647]"),
    ],
    ids=["nan-proportion", "negative-seed", "nan-out-degree", "infinite-out-degree",
         "huge-out-degree", "negative-out-degree", "years-before-1790", "years-after-2100",
         "fractional-node-count", "bool-node-count", "string-node-count", "fractional-years",
         "bool-year", "fractional-crossover-year", "string-crossover-year", "bool-proportion",
         "string-proportion", "huge-integer-proportion", "bool-edge-model", "string-out-degree",
         "bool-class-label", "null-assignee-label", "number-class-label", "number-planted-label",
         "node-count-over-int64", "node-count-over-graph-limit"],
)
def test_gen_bad_value_is_domain_error(tmp_path, capsys, content, argv, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(content)
    code = main(["gen", "--spec", str(spec_path), *argv, "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out").exists()


def test_spec_whole_floats_read_as_integers(tmp_path):
    (tmp_path / "int.json").write_bytes(_spec_with())
    (tmp_path / "float.json").write_bytes(_spec_with(
        node_count=600.0, year_range=[1998.0, 2007.0],
        planted_crossover={**SPEC["planted_crossover"], "crossover_year": 2003.0},
    ))
    spec = load_spec(tmp_path / "float.json")
    assert spec == load_spec(tmp_path / "int.json")
    values = (spec.node_count, *spec.year_range, spec.planted_crossover.crossover_year)
    assert all(type(v) is int for v in values)


@pytest.mark.parametrize(
    "field, label",
    [
        (("classes", 3), "a\tb"),
        (("assignees", 1), "x\ny"),
        (("assignees", 2), "beta\r"),
        (("classes", 0), " 347 "),
        (("classes", 1), "\ud800"),
        (("planted_crossover", "source_class_a"), "4\r00"),
        (("planted_crossover", "target_class"), "347\x1c"),
    ],
    ids=["class-tab", "assignee-newline", "assignee-cr", "class-padded", "class-surrogate",
         "planted-cr", "planted-padded"],
)
def test_gen_rejects_labels_patents_tsv_cannot_carry(tmp_path, capsys, field, label):
    spec = json.loads(json.dumps(SPEC))
    table, key = field
    if table == "planted_crossover":
        spec[table][key] = label
    else:
        spec[table][key][0] = label
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with pytest.raises(PatentFlowError, match="label"):
        load_spec(spec_path)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen", "--spec", str(spec_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("values", ["0.5,0.5,0.1500001,0.15", "0.15,0.1500001", "0,-0"])
def test_sweep_colliding_damping_values_rejected(data_dir, tmp_path, monkeypatch, capsys,
                                                 values):
    out_flag = tmp_path / "flag"
    code = main(["sweep", *_dataset_args(data_dir), "--damping-list", values,
                 "--out", str(out_flag)])
    assert code == 1
    assert not out_flag.exists()
    monkeypatch.setenv("PATENTFLOW_DAMPING_LIST", values)
    out_env = tmp_path / "env"
    assert main(["sweep", *_dataset_args(data_dir), "--out", str(out_env)]) == 1
    assert not out_env.exists()
    err = capsys.readouterr().err
    assert err.count("error: damping list") == 2
    assert _no_build_report(err)


@pytest.mark.parametrize(
    "text, message",
    [
        ("0.5,abc", "bad damping list '0.5,abc': could not convert string to float: 'abc'"),
        ("", "damping list '' is empty"),
        (" , ,", "damping list ' , ,' is empty"),
    ],
    ids=["not-a-number", "empty", "only-commas"],
)
def test_damping_list_errors(text, message):
    with pytest.raises(PatentFlowError, match=f"^{re.escape(message)}$"):
        _parse_damping_list(text)


# each command's --flags, with True for the required ones
_FLAGS = {"--threads": False, "--out": False}
_DATASET_FLAGS = {**_FLAGS, "--citations": True, "--patents": True, "--epsilon": False,
                  "--max-iters": False, "--dangling-mode": False}
_FLOW_FLAGS = {**_DATASET_FLAGS, "--damping": False, "--target-class": True, "--metric": False}
SUBCOMMAND_FLAGS = {
    "rank": {**_DATASET_FLAGS, "--damping": False, "--top": False},
    "sweep": {**_DATASET_FLAGS, "--damping-list": False},
    "flow": _FLOW_FLAGS,
    "exclude-flow": {**_FLOW_FLAGS, "--exclude-assignee": True},
    "patent": {**_DATASET_FLAGS, "--damping": False},
    "gen": {**_FLAGS, "--spec": True, "--seed": False},
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_subcommand_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    # the usage line shows an optional flag as "[--flag ...]", a required one bare
    flags = {flag: not bracket for bracket, flag in re.findall(r"(\[?)(--[a-z][a-z-]*)", usage)}
    assert flags == SUBCOMMAND_FLAGS[command]
