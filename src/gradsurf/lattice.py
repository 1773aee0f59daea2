"""Square-lattice plumbing: vertices, canonical edges, periodicity, slopes.

Vertices are integer pairs ``(i, j)``.  A lattice edge is stored in the
canonical form ``(base, axis)`` where ``axis`` is 0 for e1=(1,0) and 1 for
e2=(0,1); the base vertex always precedes ``base + e_axis`` in the
lexicographic order, which fixes the orientation convention for edge
potentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ConfigParse

Vertex = tuple[int, int]
Edge = tuple[Vertex, int]  # (base, axis)

E1: Vertex = (1, 0)
E2: Vertex = (0, 1)
AXIS_VECTORS: tuple[Vertex, Vertex] = (E1, E2)


def add(v: Vertex, w: Vertex) -> Vertex:
    return (v[0] + w[0], v[1] + w[1])


def sub(v: Vertex, w: Vertex) -> Vertex:
    return (v[0] - w[0], v[1] - w[1])


def neighbors(v: Vertex) -> tuple[Vertex, Vertex, Vertex, Vertex]:
    return ((v[0] + 1, v[1]), (v[0] - 1, v[1]), (v[0], v[1] + 1), (v[0], v[1] - 1))


def edge_head(edge: Edge) -> Vertex:
    base, axis = edge
    return add(base, AXIS_VECTORS[axis])


def dot(u: tuple, v: Vertex):
    return u[0] * v[0] + u[1] * v[1]


# ---------------------------------------------------------------------------
# Sublattice periodicity


def _det2(m) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


@dataclass(frozen=True)
class Sublattice:
    """A full-rank sublattice of Z^2 in lower-triangular Hermite form.

    Columns (a, c) and (0, b) generate the lattice; the fundamental domain
    is [0, a) x [0, b) with index a * b.
    """

    a: int
    b: int
    c: int

    @staticmethod
    def from_matrix(period) -> "Sublattice":
        """Hermite-reduce a 2x2 integer matrix whose columns generate L."""
        if _det2(period) == 0:
            raise ValueError("period matrix must be full rank")
        c1 = [period[0][0], period[1][0]]
        c2 = [period[0][1], period[1][1]]
        # zero the top entry of the second column via the extended gcd
        r, s = c1[0], c2[0]
        g = math.gcd(r, s)
        if g == 0:
            raise ValueError("period matrix must be full rank")
        u, v = _bezout(r, s)
        new1 = [u * c1[0] + v * c2[0], u * c1[1] + v * c2[1]]
        new2 = [(-s // g) * c1[0] + (r // g) * c2[0], (-s // g) * c1[1] + (r // g) * c2[1]]
        a, c = new1
        zero, b = new2
        if zero != 0:
            raise ConfigParse(f"period matrix {period} did not reduce to Hermite form")
        if a < 0:
            a, c = -a, -c
        if b < 0:
            b = -b
        return Sublattice(a=a, b=b, c=c % b)

    @property
    def index(self) -> int:
        return self.a * self.b

    def reduce(self, v: Vertex) -> Vertex:
        """Canonical representative of v modulo the sublattice."""
        k1 = v[0] // self.a
        x, y = v[0] - k1 * self.a, v[1] - k1 * self.c
        k2 = y // self.b
        return (x, y - k2 * self.b)

    def fundamental_domain(self) -> list[Vertex]:
        return [(i, j) for i in range(self.a) for j in range(self.b)]

    def cell(self, i, j):
        """Position of the class of (i, j) in ``fundamental_domain()``, x * b
        + y for ``reduce((i, j))`` = (x, y); i and j may be integer arrays."""
        row = i // self.a
        return (i - row * self.a) * self.b + (j - row * self.c) % self.b

    def contains(self, v: Vertex) -> bool:
        return self.reduce(v) == (0, 0)

    def matrix(self) -> list[list[int]]:
        return [[self.a, 0], [self.c, self.b]]


def _bezout(r: int, s: int) -> tuple[int, int]:
    """u, v with u*r + v*s = gcd(r, s)."""
    old_r, cur_r = r, s
    old_u, cur_u = 1, 0
    old_v, cur_v = 0, 1
    while cur_r:
        q = old_r // cur_r
        old_r, cur_r = cur_r, old_r - q * cur_r
        old_u, cur_u = cur_u, old_u - q * cur_u
        old_v, cur_v = cur_v, old_v - q * cur_v
    if old_r < 0:
        old_u, old_v = -old_u, -old_v
    return old_u, old_v


# ---------------------------------------------------------------------------
# Finite regions


def box_region(width: int, height: int, origin: Vertex = (0, 0)) -> frozenset[Vertex]:
    """Vertices of a width x height box with the given lower-left corner."""
    return frozenset(
        (origin[0] + i, origin[1] + j) for i in range(width) for j in range(height)
    )


def outer_boundary(region: Iterable[Vertex]) -> frozenset[Vertex]:
    region = set(region)
    out = set()
    for v in region:
        for w in neighbors(v):
            if w not in region:
                out.add(w)
    return frozenset(out)


def edges_within(region: Iterable[Vertex]) -> list[Edge]:
    """Canonical edges with both endpoints in the region, sorted."""
    region = set(region)
    out = []
    for v in region:
        for axis in (0, 1):
            if add(v, AXIS_VECTORS[axis]) in region:
                out.append((v, axis))
    out.sort()
    return out


def edges_meeting(region: Iterable[Vertex]) -> list[Edge]:
    """Canonical edges with at least one endpoint in the region, sorted."""
    region = set(region)
    out = set()
    for v in region:
        for axis in (0, 1):
            out.add((v, axis))
            out.add((sub(v, AXIS_VECTORS[axis]), axis))
    return sorted(out)


def checkerboard_order(sites) -> list[Vertex]:
    """Even sublattice first, then odd; deterministic within each color."""
    return sorted(sites, key=lambda v: ((v[0] + v[1]) % 2, v))


# ---------------------------------------------------------------------------
# Slopes


def floor_frac(q: Fraction | int) -> int:
    """Exact floor of a rational."""
    if isinstance(q, int):
        return q
    return q.numerator // q.denominator


def round_slope(u, n: int) -> tuple[Fraction, Fraction]:
    """Replace u with floor(u*n)/n componentwise (exact rationals)."""
    out = []
    for comp in u:
        comp = Fraction(comp).limit_denominator(10**12) if isinstance(comp, float) else Fraction(comp)
        out.append(Fraction(floor_frac(comp * n), n))
    return (out[0], out[1])
