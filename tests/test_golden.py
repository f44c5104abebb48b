"""Byte-level regression guard for the six CLI commands.

Every output file of ``rank``, ``sweep``, ``flow``, ``exclude-flow``,
``patent`` and ``gen`` on the acceptance SPEC_5000 dataset (seed 42) is
hashed and compared with digests recorded before the single-path PageRank
kernel and the mask-based exclusion/subgraph code replaced their
predecessors. The stderr build-report line is compared the same way.
Refactors that must not change any output keep these digests; a change
that alters an output on purpose records new ones from ``_digests``.
"""
import hashlib
import json
from pathlib import Path

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
        "097cafa0fbec875082c3b094c7ae832f350f714c74f20e7709a0222a035fb0b6",
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
        "133e9d97ee18d86353727d9c560717182efde5402a0bbcacdef45b9686acf66f",
    "rank/rank_table.txt":
        "d2236225e3b1849c1ca43ce3fc91e6ce42e39c0e6ac070ffab4c5d0408a3a4a1",
    "rank/scores_d0.5.tsv":
        "eee2ab6c610cebffd0b63f3fe00662145fbd353bbe03d474a121bc7732c83aa0",
    "rank/summary.json":
        "183b1a4d5299e001f69b7494543b8313ef6afc3529b2ac8ee95dc64323c8b809",
    "sweep/<stderr build report>":
        "ca581c462d199e8b9e6397460c2e9e5b9029ce9b519a80cb1a5ea92f8de97c90",
    "sweep/scores_d0.01.tsv":
        "63e86c0fd3b17aebb3d310ef9decc43d07a3edee2d566017f19e3b0b8893f83e",
    "sweep/scores_d0.15.tsv":
        "1489da7bf3151814e3aaa016cac255bfcfb5aa38f1f8e734990e3525251d4068",
    "sweep/scores_d0.5.tsv":
        "eee2ab6c610cebffd0b63f3fe00662145fbd353bbe03d474a121bc7732c83aa0",
    "sweep/scores_d0.85.tsv":
        "b0f731190365d225894375ad46217618d4c0dcbdbd9790e625f52fdd0fa17baf",
    "sweep/scores_d0.99.tsv":
        "3cb893855bf72a244c00e5ad625a420daf65a8b74fec5f24bb06c678f7f8d36a",
    "sweep/sweep_summary.json":
        "695a23e7468bde9f1a3ed3b1ebf5d2d684811b4897eb8d98d49dcdb931d8da93",
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
