"""Domino tilings as height functions: bijection, counting, sampling.

A tiling of a simply connected set of unit squares corresponds to an
integer height function on the region's vertices: walking an edge changes
the auxiliary height psi by +-3 when the edge crosses a domino and +-1
otherwise, with the sign forced by psi = parity label mod 4.  The reduced
height phi = (psi - label)/4 is exactly a finite-energy configuration of
the domino potential, which hands sampling to the exact CFTP machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    InconsistentCycle,
    Infeasible,
    NegativeCycle,
    NotAHeightFunction,
    RegionTooLarge,
    Untileable,
)
from .heights import HeightConfig
from .lattice import Vertex, add, neighbors
from .potential import domino_potential, parity_label
from .rng import RngStream

Square = tuple[int, int]  # lower-left corner
Domino = frozenset


@dataclass(frozen=True)
class DominoMatching:
    """A perfect matching of the region's squares by adjacent pairs."""

    region: frozenset[Square]
    dominoes: frozenset[Domino]

    def __post_init__(self):
        covered: set[Square] = set()
        for d in self.dominoes:
            a, b = sorted(d)
            if (b[0] - a[0], b[1] - a[1]) not in ((1, 0), (0, 1)):
                raise ValueError(f"domino {sorted(d)} is not an adjacent pair")
            if not d <= self.region:
                raise ValueError(f"domino {sorted(d)} leaves the region")
            if covered & d:
                raise ValueError(f"square covered twice in {sorted(d)}")
            covered |= d
        if covered != set(self.region):
            raise ValueError("matching does not cover the region")


def square_corners(s: Square) -> tuple[Vertex, Vertex, Vertex, Vertex]:
    return (s, (s[0] + 1, s[1]), (s[0], s[1] + 1), (s[0] + 1, s[1] + 1))


def region_vertices(region: Iterable[Square]) -> frozenset[Vertex]:
    out: set[Vertex] = set()
    for s in region:
        out.update(square_corners(s))
    return frozenset(out)


def _edge_squares(x: Vertex, y: Vertex) -> tuple[Square, Square]:
    """The two squares separated by the lattice edge between x and y."""
    if y == (x[0] + 1, x[1]):  # horizontal edge: squares below and above
        return ((x[0], x[1] - 1), (x[0], x[1]))
    if y == (x[0], x[1] + 1):  # vertical edge: squares left and right
        return ((x[0] - 1, x[1]), (x[0], x[1]))
    raise ValueError(f"{x}, {y} not an ordered adjacent pair")


def _psi_step(x: Vertex, y: Vertex, crosses: bool) -> int:
    """psi(y) - psi(x): congruent to the label difference mod 4, size 1 or 3."""
    d = (parity_label(y) - parity_label(x)) % 4
    if d not in (1, 3):
        raise NotAHeightFunction(f"{x} and {y} are not lattice neighbors")
    return d if (d == 3) == crosses else d - 4


def _psi_walk(verts, crossing, error) -> dict[Vertex, int]:
    """Heights (psi - label) / 4 from a walk over the edges between verts,
    with psi equal to the parity label at the smallest vertex.

    ``crossing(s1, s2)`` tells whether the edge between squares s1 and s2
    crosses a domino, or None to skip the edge; ``error(v)`` is raised when
    the increments fail to close at v.
    """
    pin = min(verts)
    psi = {pin: parity_label(pin)}
    stack = [pin]
    while stack:
        x = stack.pop()
        for y in neighbors(x):
            if y not in verts:
                continue
            a, b = (x, y) if x < y else (y, x)
            crosses = crossing(*_edge_squares(a, b))
            if crosses is None:
                continue
            step = _psi_step(a, b, crosses)
            val = psi[x] + step if x == a else psi[x] - step
            if y in psi:
                if psi[y] != val:
                    raise error(y)
            else:
                psi[y] = val
                stack.append(y)
    return {v: (p - parity_label(v)) // 4 for v, p in psi.items()}


def matching_to_height(matching: DominoMatching) -> HeightConfig:
    """Height function of a tiling, pinned so psi equals the parity label
    at the smallest boundary vertex."""
    region = matching.region
    verts = region_vertices(region)

    def crossing(s1, s2):
        return s1 in region and s2 in region and Domino((s1, s2)) in matching.dominoes

    values = _psi_walk(verts, crossing, lambda v: InconsistentCycle(f"increments fail to close at {v}"))
    return HeightConfig(values, reference=min(verts))


def _squares_from_vertices(verts: frozenset[Vertex]) -> frozenset[Square]:
    # simply connected regions have no holes, so a square belongs to the
    # region exactly when all four corners are vertices
    return frozenset(
        s for s in verts if all(c in verts for c in square_corners(s))
    )


def height_to_matching(config, region: Iterable[Square] | None = None) -> DominoMatching:
    """The unique matching whose height function is the given config."""
    values = config.values if isinstance(config, HeightConfig) else dict(config)
    verts = frozenset(values)
    region = _squares_from_vertices(verts) if region is None else frozenset(region)
    psi = {v: 4 * values[v] + parity_label(v) for v in verts}
    dominoes: set[Domino] = set()
    for x in verts:
        for y in neighbors(x):
            if y not in verts or not x < y:
                continue
            s1, s2 = _edge_squares(x, y)
            both_in = s1 in region and s2 in region
            step = abs(psi[y] - psi[x])
            if step not in (1, 3) or (step == 3 and not both_in):
                raise NotAHeightFunction(f"increment {psi[y] - psi[x]} on edge {x},{y}")
            if step == 3:
                dominoes.add(Domino((s1, s2)))
    try:
        return DominoMatching(region=region, dominoes=frozenset(dominoes))
    except ValueError as exc:
        raise NotAHeightFunction(str(exc)) from exc


# ---------------------------------------------------------------------------
# Counting


BRUTE_FORCE_LIMIT = 36


def count_tilings_bruteforce(region: Iterable[Square]) -> int:
    """Exhaustive backtracking count; the oracle for everything else."""
    squares = frozenset(region)
    if len(squares) > BRUTE_FORCE_LIMIT:
        raise RegionTooLarge(f"{len(squares)} squares exceeds {BRUTE_FORCE_LIMIT}")

    def rec(uncovered: frozenset) -> int:
        if not uncovered:
            return 1
        s = min(uncovered)
        total = 0
        for t in ((s[0] + 1, s[1]), (s[0], s[1] + 1)):
            if t in uncovered:
                total += rec(uncovered - {s, t})
        return total

    return rec(squares)


def count_tilings_kasteleyn(region: Iterable[Square]) -> int:
    """|det| of the Kasteleyn-signed bipartite adjacency, exact integers.

    Gauge: horizontal edges carry +1, vertical edges (-1)^column, which
    puts an odd number of minus signs around every unit face.  The sign is
    computed as 1 - 2 * (column mod 2), an integer for negative columns too.
    """
    squares = sorted(region)
    black = [s for s in squares if (s[0] + s[1]) % 2 == 0]
    white = [s for s in squares if (s[0] + s[1]) % 2 == 1]
    if len(black) != len(white):
        return 0
    widx = {s: j for j, s in enumerate(white)}
    n = len(black)
    mat = [[0] * n for _ in range(n)]
    for i, s in enumerate(black):
        for t, sign in (
            ((s[0] + 1, s[1]), 1),
            ((s[0] - 1, s[1]), 1),
            ((s[0], s[1] + 1), 1 - 2 * (s[0] % 2)),
            ((s[0], s[1] - 1), 1 - 2 * (s[0] % 2)),
        ):
            j = widx.get(t)
            if j is not None:
                mat[i][j] = sign
    return abs(_bareiss_determinant(mat))


def _bareiss_determinant(mat) -> int:
    """Fraction-free integer determinant (Bareiss elimination)."""
    m = [row[:] for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Boundary heights and uniform sampling


def boundary_heights(region: Iterable[Square]) -> dict[Vertex, int]:
    """Heights forced on the region's boundary vertices by its shape.

    No boundary edge crosses a domino, so the psi walk along the boundary
    is determined; failure to close means no tiling exists.
    """
    squares = frozenset(region)
    verts = region_vertices(squares)
    boundary = {
        v
        for v in verts
        if any(s not in squares for s in _touching_squares(v))
    }

    def crossing(s1, s2):  # interior edges: crossing status unknown here
        return None if s1 in squares and s2 in squares else False

    return _psi_walk(boundary, crossing, lambda v: Untileable("boundary heights do not close"))


def _touching_squares(v: Vertex):
    return (
        (v[0], v[1]),
        (v[0] - 1, v[1]),
        (v[0], v[1] - 1),
        (v[0] - 1, v[1] - 1),
    )


def uniform_tiling_sample(region: Iterable[Square], rng: RngStream) -> DominoMatching:
    """An exactly uniform tiling via CFTP on the domino potential."""
    from .sampler import cftp_sample  # deferred to avoid an import cycle

    squares = frozenset(region)
    if len(squares) % 2:
        raise Untileable("odd number of squares")
    pot = domino_potential()
    fixed = boundary_heights(squares)
    interior = sorted(region_vertices(squares) - set(fixed))
    if not interior:
        values = dict(fixed)
        return height_to_matching(values, squares)
    try:
        config = cftp_sample(pot, interior, fixed, rng)
    except (Infeasible, NegativeCycle) as exc:
        raise Untileable(f"region admits no tiling: {exc}") from exc
    return height_to_matching(config, squares)


# ---------------------------------------------------------------------------
# Symmetric differences


def symmetric_difference_cycles(t1: DominoMatching, t2: DominoMatching):
    """Height difference and the alternating cycles of the two tilings.

    Returns (phi_diff, cycles): phi_diff maps vertices to phi2 - phi1;
    cycles are closed square sequences alternating between the matchings.
    """
    if t1.region != t2.region:
        raise ValueError("tilings must share a region")
    phi1 = matching_to_height(t1)
    phi2 = matching_to_height(t2)
    diff = {v: phi2.values[v] - phi1.values[v] for v in phi1.values}
    sym = t1.dominoes ^ t2.dominoes
    partner: dict[Square, list[Square]] = {}
    for d in sym:
        a, b = sorted(d)
        partner.setdefault(a, []).append(b)
        partner.setdefault(b, []).append(a)
    for s, ps in partner.items():
        if len(ps) != 2:
            raise InconsistentCycle(f"square {s} has {len(ps)} partners in the symmetric difference")
    cycles = []
    seen: set[Square] = set()
    for start in sorted(partner):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        prev, cur = None, start
        while True:
            nxt = [p for p in partner[cur] if p != prev]
            step = nxt[0]
            if step == start:
                break
            cycle.append(step)
            seen.add(step)
            prev, cur = cur, step
        cycles.append(cycle)
    return diff, cycles


def reverse_cycle(t1: DominoMatching, t2: DominoMatching, cycle) -> tuple[DominoMatching, DominoMatching]:
    """Swap which alternating edges of one cycle belong to each tiling."""
    cyc_dominoes = set()
    k = len(cycle)
    for i in range(k):
        d = Domino((cycle[i], cycle[(i + 1) % k]))
        cyc_dominoes.add(d)
    in1 = cyc_dominoes & t1.dominoes
    in2 = cyc_dominoes & t2.dominoes
    new1 = (t1.dominoes - in1) | in2
    new2 = (t2.dominoes - in2) | in1
    return (
        DominoMatching(t1.region, frozenset(new1)),
        DominoMatching(t2.region, frozenset(new2)),
    )
