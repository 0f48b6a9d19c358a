"""SDPA sparse format (.dat-s) writer and reader.

The encoded problem is the standard SDPA feasibility form: find x with
X = sum_k x_k F_k - F0 >= 0 blockwise, objective identically zero.  Values
are written with 17 significant digits; negative block sizes mark diagonal
blocks, per the published format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._files import create
from .errors import IoFailure


@dataclass
class SdpaProblem:
    """In-memory block-sparse SDP: entries[k] maps (block, i, j) -> value.

    k = 0 is the constant matrix F0; k = 1..m_dim index the decision
    variables.  Indices i <= j are 1-based within each block.
    """

    m_dim: int
    block_sizes: list[int]
    entries: dict[int, dict[tuple[int, int, int], float]] = field(default_factory=dict)

    def add(self, k: int, block: int, i: int, j: int, value: float):
        if value == 0.0:
            return
        if i > j:
            i, j = j, i
        mat = self.entries.setdefault(k, {})
        mat[(block, i, j)] = mat.get((block, i, j), 0.0) + value

    def write(self, path):
        """Write the problem to `path` as a new file (_files.create): an old
        entry there is unlinked, never truncated in place or written through."""
        lines = [f"{self.m_dim}", f"{len(self.block_sizes)}",
                 " ".join(str(s) for s in self.block_sizes),
                 " ".join("0" for _ in range(self.m_dim))]
        for k in sorted(self.entries):
            for (block, i, j), v in sorted(self.entries[k].items()):
                if v != 0.0:
                    lines.append(f"{k} {block} {i} {j} {v:.17g}")
        try:
            with create(path) as fh:
                fh.write(("\n".join(lines) + "\n").encode())
        except OSError as exc:
            raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_sdpa(path) -> SdpaProblem:
    """Parse a .dat-s file written by SdpaProblem.write (comments tolerated);
    IoFailure naming the file, and the line, if it cannot be parsed."""
    try:
        with open(path) as fh:
            raw = [ln.strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    rows = [(number, ln) for number, ln in enumerate(raw, 1)
            if ln and not ln.startswith(("*", '"'))]
    if len(rows) < 4:
        raise IoFailure(f"{path}: {len(rows)} of the 4 header rows (m, block count, "
                        f"block sizes, objective) before the end at line {len(raw)}")

    def parsed(index: int, convert, what: str):
        number, ln = rows[index]
        try:
            return convert(ln)
        except ValueError:
            raise IoFailure(f"{path}, line {number}: {what}, got {ln!r}") from None

    m_dim = parsed(0, int, "m must be an integer")
    n_block = parsed(1, int, "the block count must be an integer")
    sizes = parsed(2, lambda ln: [int(tok) for tok in ln.replace(",", " ").replace("{", " ")
                                  .replace("}", " ").replace("(", " ").replace(")", " ").split()],
                   "block sizes must be integers")
    if len(sizes) != n_block:
        raise IoFailure(f"{path}, line {rows[2][0]}: block size row has {len(sizes)} entries, "
                        f"expected {n_block}")
    objective = parsed(3, lambda ln: [float(tok) for tok in ln.replace(",", " ").split()],
                       "objective entries must be numbers")
    if len(objective) != m_dim:
        raise IoFailure(f"{path}, line {rows[3][0]}: objective row has {len(objective)} "
                        f"entries, expected {m_dim}")
    prob = SdpaProblem(m_dim=m_dim, block_sizes=sizes)
    for index in range(4, len(rows)):
        k, block, i, j, v = parsed(index, _entry, "an entry must be 'k block i j value'")
        prob.add(k, block, i, j, v)
    return prob


def _entry(line: str) -> tuple[int, int, int, int, float]:
    fields = line.split()
    if len(fields) != 5:
        raise ValueError(line)
    k, block, i, j, v = fields
    return int(k), int(block), int(i), int(j), float(v)
