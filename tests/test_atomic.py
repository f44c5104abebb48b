"""Output files are replaced whole or left as they were."""
import numpy as np
import pytest

from patentflow import write_scores_tsv
from patentflow.atomic import atomic_write


def test_complete_write_replaces_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with atomic_write(path) as f:
        f.write("new\n")
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_error_mid_file_keeps_previous_file_and_removes_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as f:
            f.write("partial\n")
            f.flush()
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failing_writer_leaves_previous_scores_intact(tmp_path):
    path = tmp_path / "scores.tsv"
    write_scores_tsv(["a", "b"], np.array([0.25, 0.75]), path)
    before = path.read_bytes()
    # the second score cannot be formatted, inside the atomic write
    with pytest.raises(ValueError):
        write_scores_tsv(["a", "b"], [0.5, "not a score"], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["scores.tsv"]


def test_no_newline_translation(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_write(path) as f:
        f.write("a\nb\r\n")
    assert path.read_bytes() == b"a\nb\r\n"
