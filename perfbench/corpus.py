"""Seeded input generators owned by the benchmark.

Nothing here imports patentflow: a change to the program must never change
the inputs it is measured on. Two shapes are produced:

* ``make_corpus``: a patents.tsv / citations.tsv pair in the README's
  UTF-8 format, with a planted mix of the anomalies real corpora carry
  (cited-only ids, duplicate and self-citing lines, malformed, blank and
  comment lines, missing or out-of-range years, assignee spellings that
  differ only in case and surrounding whitespace). Every planted count is
  returned so the program's parse and build reports can be checked exactly.
* ``make_edges``: an in-memory citation-shaped index-pair array in which
  every patent cites a strictly earlier one, skewed quadratically towards
  old patents (the shape of acceptance criterion 9).

Sizes and the class / assignee size spectra are fixed; the seed only moves
which patent gets what, so every seed costs the program about the same.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

YEAR_FIRST = 1976
YEAR_LAST = 2015
# Year fields the program must store as unknown: missing, out of
# [1790, 2100] on either side, or not a number.
BAD_YEARS = ("", "0", "1700", "2999", "n/a")
ASSIGNEE_SUFFIXES = ("Corp", "Inc", "Ltd", "GmbH", "Société Anonyme", "K.K.")


@dataclass(frozen=True)
class CorpusSize:
    patents: int
    citation_lines: int
    placeholders: int
    classes: int
    assignees: int
    # size ranks of the assignees queried by the analyst workload
    exclusion_ranks: tuple[int, ...]


FULL = CorpusSize(
    patents=200_000,
    citation_lines=2_000_000,
    placeholders=10_000,
    classes=60,
    assignees=2_000,
    exclusion_ranks=(0, 12, 150, 1_500),
)
TINY = CorpusSize(
    patents=2_000,
    citation_lines=20_000,
    placeholders=100,
    classes=8,
    assignees=40,
    exclusion_ranks=(0, 20),
)
SIZES = {"full": FULL, "tiny": TINY}
# (nodes, edges) of the in-memory edge array
EDGE_SIZES = {"full": (1_000_000, 10_000_000), "tiny": (10_000, 100_000)}


@dataclass
class Corpus:
    """Ground truth for one generated corpus, in the generator's own indexing.

    Node ``i < patents`` is the i-th record of patents.tsv; nodes from
    ``patents`` on are cited-only ids (placeholders). ``citing``/``cited``
    hold every valid citation line, duplicates and self-loops included.
    """

    ids: np.ndarray            # int64 numeric id per node, as written
    class_code: np.ndarray     # int32 index into ``classes``, -1 unknown
    year: np.ndarray           # int32 grant year, 0 unknown
    assignee_code: np.ndarray  # int32 index into ``assignees``, -1 none
    classes: list[str]
    assignees: list[str]       # canonical spellings
    citing: np.ndarray
    cited: np.ndarray
    exclusion_queries: list[str]
    planted: dict = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return int(self.ids.size)

    @property
    def class_names(self) -> np.ndarray:
        """Class string per node, '' when unknown."""
        table = np.array(self.classes + [""], dtype=object)
        return table[self.class_code]


def _zipf_draw(rng: np.random.Generator, count: int, size: int, power: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** power
    return rng.choice(count, size=size, p=weights / weights.sum()).astype(np.int32)


def _cited_earlier(rng: np.random.Generator, citing: np.ndarray) -> np.ndarray:
    u = rng.random(citing.size)
    return np.minimum((citing * u * u).astype(np.int64), citing - 1)


def make_edges(node_count: int, edge_count: int, seed: int) -> np.ndarray:
    """(edge_count, 2) int64 citing/cited index pairs, citation-shaped."""
    rng = np.random.default_rng([seed, 2])
    citing = rng.integers(1, node_count, size=edge_count, dtype=np.int64)
    return np.column_stack((citing, _cited_earlier(rng, citing)))


def make_corpus(size: CorpusSize, seed: int) -> Corpus:
    rng = np.random.default_rng([seed, 1])
    n, p = size.patents, size.placeholders

    # Chronological numeric ids; cited-only ids are older, below all of them.
    ids = np.empty(n + p, dtype=np.int64)
    ids[:n] = 4_000_000 + np.cumsum(rng.integers(1, 6, size=n))
    ids[n:] = 3_000_000 + np.sort(rng.choice(900_000, size=p, replace=False))

    year = np.zeros(n + p, dtype=np.int32)
    year[:n] = YEAR_FIRST + (np.arange(n) * (YEAR_LAST - YEAR_FIRST + 1)) // n
    bad_year = rng.random(n) < 0.01
    year[:n][bad_year] = 0

    class_codes = [str(c) for c in rng.choice(np.arange(100, 1000), size=size.classes, replace=False)]
    class_code = np.full(n + p, -1, dtype=np.int32)
    class_code[:n] = _zipf_draw(rng, size.classes, n, 0.8)
    class_code[:n][rng.random(n) < 0.005] = -1

    name_order = rng.permutation(size.assignees)
    assignees = [
        f"Org{int(k):04d} {ASSIGNEE_SUFFIXES[int(k) % len(ASSIGNEE_SUFFIXES)]}" for k in name_order
    ]
    assignee_code = np.full(n + p, -1, dtype=np.int32)
    has_assignee = rng.random(n) < 0.7
    assignee_code[:n][has_assignee] = _zipf_draw(rng, size.assignees, int(has_assignee.sum()), 1.0)

    # Citation lines: background citations to earlier patents, citations of
    # cited-only ids (each used at least once), exact repeats, self-loops.
    m = size.citation_lines
    n_ph_edges = max(p, int(m * 0.03))
    n_dup = int(m * 0.01)
    n_loops = int(m * 0.0005)
    n_base = m - n_ph_edges - n_dup - n_loops
    base_citing = rng.integers(1, n, size=n_base, dtype=np.int64)
    base_cited = _cited_earlier(rng, base_citing)
    ph_citing = rng.integers(0, n, size=n_ph_edges, dtype=np.int64)
    ph_cited = n + np.concatenate((rng.permutation(p), rng.integers(0, p, size=n_ph_edges - p)))
    pick = rng.integers(0, n_base, size=n_dup)
    loops = rng.integers(0, n, size=n_loops, dtype=np.int64)
    citing = np.concatenate((base_citing, ph_citing, base_citing[pick], loops))
    cited = np.concatenate((base_cited, ph_cited, base_cited[pick], loops))
    order = np.argsort(citing, kind="stable")
    citing, cited = citing[order], cited[order]

    queries = []
    for r in size.exclusion_ranks:
        name = assignees[r]
        queries.append(name.upper() if len(queries) % 2 else f"  {name.lower()} ")

    planted = {
        "patents": n,
        "placeholder_nodes": p,
        "citation_lines": m,
        "repeated_lines": n_dup,
        "self_loop_lines": n_loops,
        "unknown_years": int(bad_year.sum()),
        "unknown_classes": int((class_code[:n] < 0).sum()),
    }
    return Corpus(ids, class_code, year, assignee_code, class_codes, assignees,
                  citing, cited, queries, planted)


def _mixed(rng: np.random.Generator, lines: list[str], anomalies: list[str]) -> list[str]:
    """Valid lines in order with anomaly lines dropped in at random slots."""
    total = len(lines) + len(anomalies)
    slots = np.zeros(total, dtype=bool)
    slots[rng.choice(total, size=len(anomalies), replace=False)] = True
    out = np.empty(total, dtype=object)
    out[slots] = anomalies
    out[~slots] = lines
    return out.tolist()


def _anomaly_lines(rng: np.random.Generator, count: int, malformed) -> tuple[list[str], dict]:
    """A quarter comments, a quarter blank, half malformed (via ``malformed(k)``)."""
    n_comment = count // 4
    n_blank = count // 4
    n_bad = count - n_comment - n_blank
    lines = [f"# exported batch {k}" for k in range(n_comment)]
    lines += ["" if k % 2 else "   " for k in range(n_blank)]
    lines += [malformed(k) for k in range(n_bad)]
    rng.shuffle(lines)
    return lines, {"comments": n_comment, "blank": n_blank, "malformed": n_bad}


def _assignee_spelling(name: str, variant: int) -> str:
    if variant == 1:
        return name.upper()
    if variant == 2:
        return name.lower()
    if variant == 3:
        return f"  {name} "
    return name


def write_corpus(corpus: Corpus, directory: str, seed: int) -> dict:
    """Write citations.tsv and patents.tsv; return the expected reports and file facts."""
    rng = np.random.default_rng([seed, 3])
    n = corpus.planted["patents"]

    ids = corpus.ids.tolist()
    cit_lines = [f"{ids[a]}\t{ids[b]}" for a, b in zip(corpus.citing.tolist(), corpus.cited.tolist())]
    cit_bad_forms = ("x{k}", "\tx{k}", "x{k}\t ", "x{k}\ty{k}\tz")
    cit_anomalies, cit_counts = _anomaly_lines(
        rng, max(4, len(cit_lines) // 1000), lambda k: cit_bad_forms[k % 4].format(k=k)
    )
    cit_all = _mixed(rng, cit_lines, cit_anomalies)

    classes = corpus.class_names[:n].tolist()
    years = corpus.year[:n].tolist()
    bad_years = rng.integers(0, len(BAD_YEARS), size=n).tolist()
    variants = rng.choice(4, size=n, p=[0.85, 0.05, 0.05, 0.05]).tolist()
    codes = corpus.assignee_code[:n].tolist()
    names = corpus.assignees
    meta_lines = [
        f"{ids[i]}\t{classes[i]}\t{years[i] if years[i] else BAD_YEARS[bad_years[i]]}\t"
        f"{_assignee_spelling(names[codes[i]], variants[i]) if codes[i] >= 0 else ''}"
        for i in range(n)
    ]
    meta_bad_forms = ("x{k}\t100\t1990", "x{k}\t100\t1990\tA\tB", "\t100\t1990\tOrg", "x{k}")
    meta_anomalies, meta_counts = _anomaly_lines(
        rng, max(4, n // 1000), lambda k: meta_bad_forms[k % 4].format(k=k)
    )
    meta_all = _mixed(rng, meta_lines, meta_anomalies)

    files = {}
    for name, lines in (("citations.tsv", cit_all), ("patents.tsv", meta_all)):
        path = os.path.join(directory, name)
        data = ("\n".join(lines) + "\n").encode("utf-8")
        with open(path, "wb") as f:
            f.write(data)
        files[name] = {"path": path, "bytes": len(data), "lines": len(lines)}

    expected = {
        "citations": {"lines": len(cit_all), "edges": len(cit_lines), **cit_counts},
        "metadata": {
            "lines": len(meta_all),
            "records": n,
            "duplicate_ids": 0,
            "unknown_years": corpus.planted["unknown_years"],
            **meta_counts,
        },
        "placeholder_nodes": corpus.planted["placeholder_nodes"],
        "nodes": corpus.node_count,
    }
    return {"expected": expected, "files": files}
