"""PageRank and temporal class-flow analysis for patent citation networks."""

from .errors import MalformedEdgeError, PatentFlowError
from .graph import CitationGraph, GraphBuildReport, build_graph, induced_subgraph
from .ingest import (
    DatasetBuildReport,
    PatentDataset,
    assemble_dataset,
    load_dataset,
    parse_citations,
    parse_metadata,
)
from .pagerank import PageRankParams, PageRankResult, pagerank
from .reports import (RankRow, RankTable, render_rank_table, top_table, write_flow_csv,
                      write_rank_csv, write_scores_tsv)
from .testkit import (
    EdgeModel,
    PlantedCrossover,
    SyntheticSpec,
    generate_synthetic_dataset,
    load_spec,
)
from .trends import (
    ClassFlowSeries,
    ExclusionSet,
    apply_exclusion,
    assignee_exclusion_set,
    class_inflow_series,
    class_ratio,
    crossover_year,
    patent_inflow_breakdown,
)

__version__ = "0.1.0"

__all__ = [
    "CitationGraph",
    "ClassFlowSeries",
    "DatasetBuildReport",
    "EdgeModel",
    "ExclusionSet",
    "GraphBuildReport",
    "MalformedEdgeError",
    "PageRankParams",
    "PageRankResult",
    "PatentDataset",
    "PatentFlowError",
    "PlantedCrossover",
    "RankRow",
    "RankTable",
    "SyntheticSpec",
    "apply_exclusion",
    "assemble_dataset",
    "assignee_exclusion_set",
    "build_graph",
    "class_inflow_series",
    "class_ratio",
    "crossover_year",
    "generate_synthetic_dataset",
    "induced_subgraph",
    "load_dataset",
    "load_spec",
    "pagerank",
    "parse_citations",
    "parse_metadata",
    "patent_inflow_breakdown",
    "render_rank_table",
    "top_table",
    "write_flow_csv",
    "write_rank_csv",
    "write_scores_tsv",
]
