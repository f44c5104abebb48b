import ast
import dataclasses
import importlib
import inspect
import re
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import patentflow

# the package exports what the CLI commands and the library pipeline run;
# a new export is added here on purpose
PUBLIC_NAMES = {
    "CitationGraph", "ClassFlowSeries", "DatasetBuildReport", "EdgeModel", "ExclusionSet",
    "GraphBuildReport", "MalformedEdgeError", "PageRankParams", "PageRankResult",
    "PatentDataset", "PatentFlowError", "PlantedCrossover", "RankRow", "RankTable",
    "SyntheticSpec", "apply_exclusion", "assemble_dataset",
    "assignee_exclusion_set", "build_graph", "class_inflow_series", "class_ratio",
    "crossover_year", "generate_synthetic_dataset", "induced_subgraph",
    "load_dataset", "load_spec", "pagerank", "parse_citations",
    "parse_metadata", "patent_inflow_breakdown", "render_rank_table", "top_table",
    "write_flow_csv", "write_rank_csv", "write_scores_tsv",
}


def test_public_names():
    assert len(patentflow.__all__) == len(set(patentflow.__all__))
    assert set(patentflow.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(patentflow, name) is not None


def test_pagerank_takes_graph_params_and_a_keyword_cpu_cap():
    # the cap changes only how many threads run the product, never a result,
    # so it is a keyword of the call and not a field of PageRankParams
    parameters = inspect.signature(patentflow.pagerank).parameters
    assert list(parameters) == ["graph", "params", "cpus"]
    assert parameters["cpus"].kind is inspect.Parameter.KEYWORD_ONLY and parameters["cpus"].default is None


def test_no_unused_imports():
    """Every name a module imports is used in it, so a deletion leaves no
    import behind."""
    for path in sorted(Path(patentflow.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} imports unused {sorted(imported - used)}"


def test_only_reports_and_cli_write_files():
    """Only ``reports.py`` and ``cli.py`` import ``atomic_write``, and the
    PageRank kernel and the flow analysis import neither ``csv`` nor
    ``atomic``, so no output-file writer moves back into them."""
    writers = set()
    for path in sorted(Path(patentflow.__file__).parent.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[-1] for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.update(a.name for a in node.names)
                imported.add((node.module or "").split(".")[-1])
        if "atomic_write" in imported:
            writers.add(path.name)
        if path.name in ("pagerank.py", "trends.py"):
            writing = sorted(imported & {"csv", "atomic"})
            assert not writing, f"{path.name} imports {writing}"
    assert writers == {"cli.py", "reports.py"}


def test_every_third_party_import_is_a_declared_dependency():
    """The modules the package imports, less the standard library and
    itself, are exactly the distributions ``pyproject.toml`` declares."""
    tomllib = pytest.importorskip("tomllib")
    package = Path(patentflow.__file__).parent
    imported = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"patentflow"}
    project = tomllib.loads((package.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project["dependencies"]}
    assert third_party == declared


def test_only_ingest_imports_its_private_names():
    """No other module imports an underscore name from ``.ingest``, so a
    dataset is built only through the public parsers and ``assemble_dataset``."""
    for path in sorted(Path(patentflow.__file__).parent.glob("*.py")):
        if path.name == "ingest.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
                    (1, "ingest"), (0, "patentflow.ingest")):
                private = sorted(a.name for a in node.names if a.name.startswith("_"))
                assert not private, f"{path.name} imports {private} from .ingest"


def test_trends_reads_no_csr_array():
    """``trends.py`` reads every neighbourhood through ``CitationGraph``
    methods, so a second row-gather idiom cannot come back unnoticed."""
    tree = ast.parse((Path(patentflow.__file__).parent / "trends.py").read_text(encoding="utf-8"))
    csr = {"in_indices", "out_indices", "in_indptr", "out_indptr"}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} & csr
    assert not read, f"trends.py reads the CSR arrays {sorted(read)}"


def _top_level_names(statement: ast.stmt) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_no_unused_private_definitions():
    """Every top-level ``_name`` a module defines is read somewhere in the
    package outside its own definition, so a deletion leaves no helper or
    constant behind."""
    statements = [s for path in sorted(Path(patentflow.__file__).parent.glob("*.py"))
                  for s in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [{node.id for node in ast.walk(s) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
             | {node.attr for node in ast.walk(s) if isinstance(node, ast.Attribute)} for s in statements]
    defined = {name: i for i, s in enumerate(statements) for name in _top_level_names(s)
               if name.startswith("_") and not name.startswith("__")}
    unused = sorted(name for name, i in defined.items()
                    if not any(name in r for j, r in enumerate(reads) if j != i))
    assert len(defined) > 50
    assert not unused, f"private names defined but never read: {unused}"


def _package_modules():
    for path in sorted(Path(patentflow.__file__).parent.glob("*.py")):
        if path.stem != "__main__":
            yield path, importlib.import_module(f"patentflow.{path.stem}")


def test_dataclasses_holding_arrays_compare_by_identity():
    """Field-wise ``==`` on an array field asks numpy for the truth value of
    an array, so such a dataclass must keep ``object``'s ``==`` and hash."""
    holders = set()
    for _, module in _package_modules():
        for cls in vars(module).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                hints = typing.get_type_hints(cls)
                if any(hints[f.name] is np.ndarray for f in dataclasses.fields(cls)):
                    holders.add(cls.__name__)
                    assert cls.__eq__ is object.__eq__, cls.__name__
                    assert cls.__hash__ is object.__hash__, cls.__name__
    assert {"CitationGraph", "ExclusionSet", "MetadataColumns", "PageRankResult",
            "PatentDataset"} <= holders


def test_no_class_gets_setattr_or_delattr_patched_in():
    """``__setattr__`` and ``__delattr__`` are defined in a class body, if
    anywhere, never assigned onto a class afterwards."""
    hooks = {"__setattr__", "__delattr__"}
    for path, _ in _package_modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
            patched = {t.attr for t in targets if isinstance(t, ast.Attribute)} & hooks
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "setattr" and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)):
                patched |= {node.args[1].value} & hooks
            assert not patched, f"{path.name} line {node.lineno} assigns {sorted(patched)} to a class"
