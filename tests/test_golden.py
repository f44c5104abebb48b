"""Byte-level regression guard for the six CLI commands.

Every output file of ``rank``, ``sweep``, ``flow``, ``exclude-flow``,
``patent`` and ``gen`` on the acceptance SPEC_5000 dataset (seed 42) is
hashed and compared with digests recorded before the single-path PageRank
kernel and the mask-based exclusion/subgraph code replaced their
predecessors. The stderr build-report line is compared the same way.
The digests of the files that carry PageRank results (the ``rank`` and
``sweep`` score files, ``rank_table.csv``, and the ``final_delta`` of the
``rank``, ``sweep`` and ``flow`` summaries) were re-recorded when the push
kernel, one ``bincount`` over the out-CSR per step, replaced the gather
and ``reduceat`` pull step; its sums differ in the last digits.
Refactors that must not change any output keep these digests; a change
that alters an output on purpose records new ones, printed in this layout
by ``PYTHONPATH=src:tests python tests/test_golden.py``.
"""
import hashlib
import importlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

from patentflow.cli import main
from test_acceptance import SPEC_5000

GOLDEN = {
    "exclude-flow/<stderr build report>":
        "ca581c462d199e8b9e6397460c2e9e5b9029ce9b519a80cb1a5ea92f8de97c90",
    "exclude-flow/exclusion_report.json":
        "1d0057b0048434fece454f12aeebcdd9ab6adf947790e58b6df56ebc6d4dba9d",
    "exclude-flow/flow_347.csv":
        "04c3203c87863cc5defc0df86064602b24e8fec75bab447025d7835bb37b6ee9",
    "exclude-flow/summary.json":
        "a03a40a8c5dc5e665fb81bd5ea7d73db308d557e12ec76dc3445bfea983054ea",
    "flow/<stderr build report>":
        "ca581c462d199e8b9e6397460c2e9e5b9029ce9b519a80cb1a5ea92f8de97c90",
    "flow/flow_347.csv":
        "9618f8be044cf792708124226ae54c52105076cf54430d85b844166fb299808a",
    "flow/summary.json":
        "9bf0d0b86c2d0a858e8a961988d62c20ab1e137229b6598267ba16868734f3fc",
    "gen/<stderr build report>":
        "76031fe3c0bd2c26568f431ab262e643b23047082ca264ba55042c78baecd324",
    "gen/citations.tsv":
        "d53fb36f8b926c021eb663abadcede5607522c0a0ffb26550e369c63e6098dc4",
    "gen/patents.tsv":
        "e58b2fbd6ba3218e0659cee367502e8c74d74b5f00ad5204b8d25479c132f68d",
    "patent/<stderr build report>":
        "ca581c462d199e8b9e6397460c2e9e5b9029ce9b519a80cb1a5ea92f8de97c90",
    "patent/patent_7000000.json":
        "f0a4a0b9df7824a3ecb2cbf64bc5a6d6137ea74be9baa76611c0fb259814ddb9",
    "rank/<stderr build report>":
        "ca581c462d199e8b9e6397460c2e9e5b9029ce9b519a80cb1a5ea92f8de97c90",
    "rank/rank_table.csv":
        "fb6b9d29c5e0fcf76f1b72b90e68dee91a35edfbd235465a11cce5fbbef5f524",
    "rank/rank_table.txt":
        "d2236225e3b1849c1ca43ce3fc91e6ce42e39c0e6ac070ffab4c5d0408a3a4a1",
    "rank/scores_d0.5.tsv":
        "212badbed2813face2f2b426b6f40e485f4e618c1a0664de96e3a3fab375147d",
    "rank/summary.json":
        "0eea6fde96df06adea6d8495ed972b7f5632ddc27b852258879164df9ee8f47b",
    "sweep/<stderr build report>":
        "ca581c462d199e8b9e6397460c2e9e5b9029ce9b519a80cb1a5ea92f8de97c90",
    "sweep/scores_d0.01.tsv":
        "0aacecd9985050d771dd9212f654143c09e7017c13d90ab2d8c22b91ef213872",
    "sweep/scores_d0.15.tsv":
        "0d0666d9f71a269876fb71825209d5abd13176b53696b69158b72b55a7e30893",
    "sweep/scores_d0.5.tsv":
        "212badbed2813face2f2b426b6f40e485f4e618c1a0664de96e3a3fab375147d",
    "sweep/scores_d0.85.tsv":
        "8afc5da6a744be23f19127733d111b91900d3612bc501b8cf3722953cf37a2a8",
    "sweep/scores_d0.99.tsv":
        "93e49de0f4e581409253a07642ecc7fac5f73650b390a8e4182a05a9ec2297eb",
    "sweep/sweep_summary.json":
        "c826757d8d995070769db717284c38f07944cc33c6dad647a48466c02593ae38",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _commands(data: Path, spec: Path, patent_id: str) -> dict[str, list[str]]:
    base = ["--citations", str(data / "citations.tsv"), "--patents", str(data / "patents.tsv")]
    return {
        "rank": ["rank", *base, "--damping", "0.5", "--top", "20"],
        "sweep": ["sweep", *base],
        "flow": ["flow", *base, "--target-class", "347"],
        "exclude-flow": ["exclude-flow", *base, "--target-class", "347",
                         "--exclude-assignee", "canoncorp"],
        "patent": ["patent", *base, patent_id],
        "gen": ["gen", "--spec", str(spec), "--seed", "42"],
    }


def _digests(root: Path, threads: int, capsys) -> dict[str, str]:
    """sha256 of every output file and of each command's stderr build report."""
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC_5000), encoding="utf-8")
    data = root / "data"
    assert main(["gen", "--spec", str(spec), "--seed", "42", "--out", str(data)]) == 0
    capsys.readouterr()
    patent_id = (data / "patents.tsv").read_text().splitlines()[0].split("\t")[0]
    digests = {}
    for name, argv in _commands(data, spec, patent_id).items():
        out = root / f"{name}_t{threads}"
        assert main([*argv, "--threads", str(threads), "--out", str(out)]) == 0
        digests[f"{name}/<stderr build report>"] = _sha(
            capsys.readouterr().err.splitlines()[0].encode()
        )
        for path in sorted(out.rglob("*")):
            if path.is_file():
                digests[f"{name}/{path.relative_to(out)}"] = _sha(path.read_bytes())
    return digests


@pytest.mark.parametrize("threads", [1, 7])
def test_cli_outputs_match_recorded_digests(tmp_path, capsys, threads):
    assert _digests(tmp_path, threads, capsys) == GOLDEN


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_cli_outputs_match_recorded_digests_at_part_count(tmp_path, capsys, monkeypatch, parts):
    # both of PageRank's paths on any host: a graph's first call whole, and
    # from each sweep's second damping on its tiles, of 256 targets so that
    # the 5,000-node corpus has 20, as one group, or two or three run by
    # threads
    pagerank_module = importlib.import_module("patentflow.pagerank")
    monkeypatch.setattr(pagerank_module, "_part_count", lambda graph, cpus: parts)
    monkeypatch.setattr(pagerank_module, "_TILE_NODES", 256)
    assert _digests(tmp_path, 1, capsys) == GOLDEN


class _StderrCapture:
    """Stands in for pytest's ``capsys`` when the module runs as a script."""

    def __init__(self) -> None:
        self.stream = io.StringIO()

    def readouterr(self) -> SimpleNamespace:
        err = self.stream.getvalue()
        self.stream.seek(0)
        self.stream.truncate()
        return SimpleNamespace(err=err)


if __name__ == "__main__":
    # PYTHONPATH=src:tests python tests/test_golden.py
    # prints the current digests in GOLDEN's layout, ready to diff or paste
    capture = _StderrCapture()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), \
            redirect_stderr(capture.stream):
        current = _digests(Path(tmp), 1, capture)
    sys.stdout.write("GOLDEN = {\n" + "".join(
        f'    "{name}":\n        "{digest}",\n' for name, digest in sorted(current.items())
    ) + "}\n")
