"""Output files that appear whole or not at all."""
from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Iterator


@contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator[IO[str]]:
    """Write UTF-8 text to ``path`` through a temp file in the same directory.

    The temp file replaces ``path`` only after the block completes, so an
    interrupted run never leaves a truncated file, and an error raised in
    the block leaves any previous file at ``path`` untouched and removes the
    temp file. Lines are written as given: no newline translation.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
