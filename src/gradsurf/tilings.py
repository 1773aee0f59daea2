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
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import (
    InconsistentCycle,
    Infeasible,
    NegativeCycle,
    NotAHeightFunction,
    NotSimplyConnected,
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
    """Exhaustive count; the oracle for everything else.  The least
    uncovered square pairs with its right or its upper neighbour, and the
    count of each remaining set is memoized within the call.  A set met is
    fixed by its least square and by which squares of the next column are
    covered, so a 6x6 box with a notch (3,364 tilings) meets a few hundred
    sets where plain backtracking walks every tiling.  ``tests/oracles.py``
    keeps the unmemoized backtracking."""
    squares = frozenset(region)
    if len(squares) > BRUTE_FORCE_LIMIT:
        raise RegionTooLarge(f"{len(squares)} squares exceeds {BRUTE_FORCE_LIMIT}")

    @lru_cache(maxsize=None)
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
    """|det K| of the Kasteleyn-signed bipartite adjacency K, exact.

    Gauge: horizontal edges carry +1, vertical edges (-1)^column, which
    puts an odd number of minus signs around every unit face.  The sign is
    computed as 1 - 2 * (column mod 2), an integer for negative columns too.
    A hole H of 2k boundary edges encloses |H| + k - 1 unit faces (Pick),
    so the gauge fails on it exactly when |H| is odd; each such hole then
    negates the vertical pairs a ray from it to the outer face crosses
    (``_odd_hole_rays``), which flips every other face an even number of
    times.

    Rows (black squares) and columns (white squares) are each ordered
    along the longer side of the bounding box, so K is banded: every
    nonzero lies within b of the diagonal, b about half the short side.
    Each row of K has at most four entries +-1, so for n black squares
    |det K| <= 2^n (Hadamard).  The determinant is taken modulo primes
    below 2^31 whose product exceeds 2^(n+1) by banded elimination
    (``_banded_det_residues``) and rebuilt from its symmetric residue by
    the Chinese remainder theorem: O(n b^2) word operations per prime.
    """
    squares = frozenset(region)
    if not squares:
        return 1
    xs, ys = [s[0] for s in squares], [s[1] for s in squares]
    if max(xs) - min(xs) >= max(ys) - min(ys):
        ordered = sorted(squares)
    else:
        ordered = sorted(squares, key=lambda s: (s[1], s[0]))
    black = [s for s in ordered if (s[0] + s[1]) % 2 == 0]
    white = [s for s in ordered if (s[0] + s[1]) % 2 == 1]
    if len(black) != len(white):
        return 0
    widx = {s: j for j, s in enumerate(white)}
    rays = _odd_hole_rays(squares)
    entries = []
    for i, s in enumerate(black):
        for t, sign in (
            ((s[0] + 1, s[1]), 1),
            ((s[0] - 1, s[1]), 1),
            ((s[0], s[1] + 1), _vertical_sign(s[0], s[1], rays)),
            ((s[0], s[1] - 1), _vertical_sign(s[0], s[1] - 1, rays)),
        ):
            j = widx.get(t)
            if j is not None:
                entries.append((i, j, sign))
    b = max((abs(i - j) for i, j, _ in entries), default=0)
    band = np.zeros((len(black), 2 * b + 1), dtype=np.int8)
    for i, j, sign in entries:
        band[i, j - i + b] = sign
    primes = _word_primes(len(black) + 1)
    return abs(_symmetric_crt(_banded_det_residues(band, primes), primes))


def _vertical_sign(x: int, y: int, rays: dict[int, list[int]]) -> int:
    """Sign of the pair (x, y)-(x, y + 1): the column gauge, negated once
    per odd-hole ray along row y that starts left of x."""
    return (1 - 2 * (x % 2)) * (-1) ** sum(x_h < x for x_h in rays.get(y, ()))


def _holes(squares: frozenset[Square]) -> list[list[Square]]:
    """The holes of a region: 8-connected sets of missing squares inside
    its bounding box that do not reach the box's border."""
    if not squares:
        return []
    xs, ys = [s[0] for s in squares], [s[1] for s in squares]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    missing = {(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)} - squares
    holes = []
    while missing:
        hole = [missing.pop()]
        for x, y in hole:  # grows while it is walked
            for t in [(x + dx, y + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]:
                if t in missing:
                    missing.remove(t)
                    hole.append(t)
        if all(x0 < x < x1 and y0 < y < y1 for x, y in hole):
            holes.append(hole)
    return holes


def _odd_hole_rays(squares: frozenset[Square]) -> dict[int, list[int]]:
    """Row y -> columns x_h of the odd holes whose least square is
    (x_h, y): the ray from such a hole crosses the vertical pairs
    (x, y)-(x, y + 1) with x > x_h."""
    rays: dict[int, list[int]] = {}
    for hole in _holes(squares):
        if len(hole) % 2:
            x, y = min(hole)
            rays.setdefault(y, []).append(x)
    return rays


def _banded_det_residues(band: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """det A mod p for each prime p (int64 array, each p < 2^31), where
    band[i, j - i + b] = A[i, j] holds the entries with |i - j| <= b.

    Gaussian elimination with partial pivoting, all primes at once, on a
    window of rows k..k+b and columns k..k+2b: only those rows can hold a
    nonzero in column k, and row swaps widen the upper band to at most 2b.
    Entries stay in [0, p), so every product stays below 2^62.
    """
    n, width = band.shape
    b = width // 2
    p2, p3 = primes[:, None], primes[:, None, None]
    lanes = np.arange(len(primes))
    win = np.zeros((len(primes), b + 1, width), dtype=np.int64)
    for i in range(min(b + 1, n)):
        win[:, i, : b + i + 1] = band[i, b - i :] % p2
    det = np.ones(len(primes), dtype=np.int64)
    for k in range(n):
        pivot_row = np.argmax(win[:, :, 0] != 0, axis=1)
        swapped = pivot_row != 0
        if swapped.any():
            top = win[:, 0].copy()
            win[:, 0] = win[lanes, pivot_row]
            win[lanes, pivot_row] = top
            det = np.where(swapped, primes - det, det)
        pivot = win[:, 0, 0]
        det = det * pivot % primes
        inverse = np.array([pow(a, -1, p) if a else 0 for a, p in zip(pivot.tolist(), primes.tolist())], dtype=np.int64)
        # the update reaches only as far as some prime's pivot row does
        reach = width - int(np.argmax(win[:, 0, ::-1].any(axis=0)))
        rest = win[:, 1:, :reach]
        update = win[:, 1:, :1] * inverse[:, None, None] % p3 * win[:, :1, :reach]
        np.remainder(np.subtract(rest, update, out=update), p3, out=rest)
        # slide to rows k+1..k+b+1 and columns k+1..k+2b+1
        win[:, :-1, :-1] = win[:, 1:, 1:]
        win[:, :-1, -1] = 0
        win[:, -1] = band[k + b + 1] % p2 if k + b + 1 < n else 0
    return det % primes


@lru_cache(maxsize=None)
def _prime_pool(size: int) -> tuple[int, ...]:
    """The ``size`` largest primes below 2^31, largest first."""
    pool: list[int] = []
    m = 2**31 - 1
    while len(pool) < size:
        if _is_prime(m):
            pool.append(m)
        m -= 2
    return tuple(pool)


def _is_prime(m: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for odd 7 < m < 3215031751."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _word_primes(bits: int) -> np.ndarray:
    """The largest bits // 30 + 1 primes below 2^31, largest first: each
    exceeds 2^30, so their product exceeds 2^bits.  Drawn from a pool
    memoised in power-of-two sizes."""
    count = bits // 30 + 1
    return np.array(_prime_pool(1 << (count - 1).bit_length())[:count], dtype=np.int64)


def _symmetric_crt(residues: np.ndarray, primes: np.ndarray) -> int:
    """The integer x with |x| < (product of primes) / 2 and x = r mod p for
    each residue r and prime p."""
    x, m = 0, 1
    for r, p in zip(residues.tolist(), primes.tolist()):
        x += m * ((r - x) * pow(m, -1, p) % p)
        m *= p
    return x - m if 2 * x > m else x


# ---------------------------------------------------------------------------
# Boundary heights and uniform sampling


def boundary_heights(region: Iterable[Square]) -> dict[Vertex, int]:
    """Heights forced on the region's boundary vertices by its shape.

    No boundary edge crosses a domino, so the psi walk along the boundary
    is determined; failure to close means no tiling exists.  On a region
    with holes the walk ties each hole's boundary to the outer one, which
    its tilings do not force, so ``uniform_tiling_sample`` refuses those.
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
    """An exactly uniform tiling via CFTP on the domino potential:
    ``uniform_tiling_samples`` with the one stream ``rng``."""
    return uniform_tiling_samples(region, [rng])[0]


def uniform_tiling_samples(region: Iterable[Square], streams) -> list[DominoMatching]:
    """One exactly uniform tiling per stream, via batched CFTP
    (``cftp_samples``) on the domino potential, for simply connected
    regions (``NotSimplyConnected`` otherwise)."""
    from .sampler import cftp_samples  # deferred to avoid an import cycle

    squares = frozenset(region)
    if len(squares) % 2:
        raise Untileable("odd number of squares")
    pot, fixed, interior = _tiling_setup(squares)
    try:
        configs = cftp_samples(pot, interior, fixed, streams)
    except (Infeasible, NegativeCycle) as exc:
        raise Untileable(f"region admits no tiling: {exc}") from exc
    return [height_to_matching(config, squares) for config in configs]


@lru_cache(maxsize=16)
def _tiling_setup(squares: frozenset):
    """(domino potential, boundary heights, sorted interior vertices) of a
    region, kept for the region's next samples: the potential holds the
    region's plan, height windows and conditional table.  Every sample gets
    the same objects, so none may change them."""
    holes = _holes(squares)
    if holes:
        raise NotSimplyConnected(len(holes))
    fixed = boundary_heights(squares)
    return domino_potential(), fixed, sorted(region_vertices(squares) - set(fixed))


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
