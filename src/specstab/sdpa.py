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
    """Parse a .dat-s file written by SdpaProblem.write (comments tolerated)."""
    try:
        with open(path) as fh:
            raw = [ln.strip() for ln in fh]
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    rows = [ln for ln in raw if ln and not ln.startswith(("*", '"'))]
    m_dim = int(rows[0])
    n_block = int(rows[1])
    sizes = [int(tok) for tok in rows[2].replace(",", " ").replace("{", " ")
             .replace("}", " ").replace("(", " ").replace(")", " ").split()]
    if len(sizes) != n_block:
        raise IoFailure(f"block size row has {len(sizes)} entries, expected {n_block}")
    objective = [float(tok) for tok in rows[3].replace(",", " ").split()]
    if len(objective) != m_dim:
        raise IoFailure(f"objective row has {len(objective)} entries, expected {m_dim}")
    prob = SdpaProblem(m_dim=m_dim, block_sizes=sizes)
    for ln in rows[4:]:
        k, block, i, j, v = ln.split()
        prob.add(int(k), int(block), int(i), int(j), float(v))
    return prob
