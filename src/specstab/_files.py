"""Output files, each created new."""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO


def create(path) -> BinaryIO:
    """`path` opened for writing as a new binary file.  An old entry there is
    unlinked first, so a rerun neither truncates an old file in place nor
    writes through a link."""
    path = Path(path)
    path.unlink(missing_ok=True)
    return path.open("xb")
