import ast
import inspect
from pathlib import Path

import patentflow

# the package exports what the CLI commands and the library pipeline run;
# a new export is added here on purpose
PUBLIC_NAMES = {
    "CitationGraph", "ClassFlowSeries", "DatasetBuildReport", "EdgeModel", "ExclusionSet",
    "GraphBuildReport", "MalformedEdgeError", "PageRankParams", "PageRankResult",
    "PatentDataset", "PatentFlowError", "PlantedCrossover", "RankRow", "RankTable",
    "SyntheticSpec", "apply_exclusion", "assemble_dataset",
    "assignee_exclusion_set", "build_graph", "class_inflow_series", "class_ratio",
    "convergence_delta", "crossover_year", "generate_synthetic_dataset", "induced_subgraph",
    "load_dataset", "load_spec", "pagerank", "parse_citations",
    "parse_metadata", "patent_inflow_breakdown", "render_rank_table", "top_table",
    "write_citations", "write_flow_csv", "write_metadata", "write_rank_csv",
    "write_scores_tsv",
}


def test_public_names():
    assert len(patentflow.__all__) == len(set(patentflow.__all__))
    assert set(patentflow.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(patentflow, name) is not None


def test_pagerank_takes_graph_and_params_only():
    assert list(inspect.signature(patentflow.pagerank).parameters) == ["graph", "params"]


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
