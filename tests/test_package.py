import inspect

import patentflow

# the package exports what the CLI commands and the library pipeline run;
# a new export is added here on purpose
PUBLIC_NAMES = {
    "CitationGraph", "ClassFlowSeries", "DatasetBuildReport", "EdgeModel", "ExclusionSet",
    "GraphBuildReport", "MalformedEdgeError", "PageRankParams", "PageRankResult",
    "PatentDataset", "PatentFlowError", "PatentMeta", "PlantedCrossover", "RankRow",
    "RankTable", "SyntheticSpec", "apply_exclusion", "assemble_dataset",
    "assignee_exclusion_set", "build_graph", "class_inflow_series", "class_ratio",
    "convergence_delta", "crossover_year", "generate_synthetic_dataset", "induced_subgraph",
    "intern_pairs", "load_dataset", "load_spec", "pagerank", "parse_citations",
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
