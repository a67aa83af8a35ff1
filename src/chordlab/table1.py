"""Reference table of sl2 values, projected values, and signed cycle
counts for seven benchmark graphs, embedded as data so recomputed runs
are diffable cell by cell.

Two cells of row 7 (the complete graph on six vertices) are published
with the wrong sign: the signed 6-cycle count there is -8, not 8, and
the projected value is -16c^3+284c^2-295c.  Three independent routes
agree on this (direct signed cycle enumeration, the Hamiltonian DP, and
the orientation-free projected-indicator identity), and an exhaustive
scan of all 902 order-6 diagram classes shows no diagram attains the
published pair.  Those cells are reported as "sign-misprint" when the
computed value is exactly the negation of the published one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import SimpleGraph, realize_diagram
from .invariants import r_k, sl2_projected_batch
from .polynomials import IntPolynomial
from .sl2 import sl2_recursive


@dataclass(frozen=True)
class TableRow:
    index: int
    k: int
    edges: tuple[tuple[int, int], ...]
    vertices: int
    sl2_coeffs: tuple[int, ...]
    projected_coeffs: tuple[int, ...]
    rk: int
    sign_misprints: frozenset[str] = frozenset()


ROWS = (
    TableRow(1, 2, ((0, 1), (0, 2), (1, 2), (2, 3)), 4, (0, -2, 5, -4, 1), (0, -2), 0),
    TableRow(2, 2, ((0, 1), (1, 2), (2, 3), (3, 0)), 4, (0, -4, 8, -4, 1), (0, -4, 2), 1),
    TableRow(
        3, 2, ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)), 4, (0, -5, 10, -5, 1), (0, -5, 2), 1
    ),
    TableRow(
        4,
        2,
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
        4,
        (0, -7, 13, -6, 1),
        (0, -7, 2),
        1,
    ),
    TableRow(
        5,
        3,
        ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
        6,
        (0, -8, 18, -18, 15, -6, 1),
        (0, -8, 3, 2),
        1,
    ),
    TableRow(
        6,
        3,
        ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 4), (3, 5)),
        6,
        (0, -27, 66, -57, 28, -8, 1),
        (0, -27, 20),
        0,
    ),
    TableRow(
        7,
        3,
        tuple((i, j) for i in range(6) for j in range(i + 1, 6)),
        6,
        (0, -295, 657, -430, 115, -15, 1),
        (0, 295, -284, 16),
        8,
        frozenset({"projected", "rk"}),
    ),
)


@dataclass(frozen=True)
class Cell:
    name: str
    computed: str
    published: str
    status: str  # "ok" | "sign-misprint" | "MISMATCH"


@dataclass(frozen=True)
class RowResult:
    index: int
    k: int
    diagram: str
    cells: tuple[Cell, ...]


def _cell(name: str, computed, published, misprinted: bool) -> Cell:
    if computed == published:
        status = "ok"
    elif misprinted and computed == -published:
        status = "sign-misprint"
    else:
        status = "MISMATCH"
    return Cell(name=name, computed=str(computed), published=str(published), status=status)


def recompute() -> list[RowResult]:
    """Recompute every row from a realizing diagram found by graph search."""
    diagrams = []
    for row in ROWS:
        d = realize_diagram(SimpleGraph.from_edges(row.vertices, row.edges))
        if d is None:
            raise RuntimeError(f"no realizing diagram for table row {row.index}")
        diagrams.append(d)
    results = []
    for row, d, projected in zip(ROWS, diagrams, sl2_projected_batch(diagrams)):
        cells = (
            _cell(
                "sl2",
                sl2_recursive(d),
                IntPolynomial(row.sl2_coeffs),
                "sl2" in row.sign_misprints,
            ),
            _cell(
                "projected",
                projected,
                IntPolynomial(row.projected_coeffs),
                "projected" in row.sign_misprints,
            ),
            _cell("rk", r_k(d, row.k), row.rk, "rk" in row.sign_misprints),
        )
        results.append(
            RowResult(index=row.index, k=row.k, diagram=str(d), cells=cells)
        )
    return results
