"""Residual-energy coupling of two surfaces and cluster-swapping updates.

A triplet couples two height configurations with a nonnegative residual
energy per edge; the total energy t(e) = V-energy of both surfaces plus
the residual is the conserved quantity of every swap.  An edge is
swappable when its residual covers the energy deficit of exchanging the
two surfaces at one endpoint; the components of the unswappable graph are
the open clusters, on which the surfaces may be exchanged wholesale with
the residual adjusted so t is untouched.

Residuals are kept as exact rationals (floats convert losslessly), which
makes swap involutions and energy conservation bitwise identities.

``swappable_set`` and ``shifted_analysis`` classify edges in one array
pass per shift level (``_SwapArrays``) and label the open clusters by
union-find, each numbered by its least vertex.  On discrete Lipschitz
potentials with integer heights each swap deficit is computed once: it
reads only the edge class, the two surfaces' increments and their offset
at the base, so it is memoized on the potential under that key
(``_DeficitTable``) together with the least float at or above it.  A residual that is an exact float (every Exp(1) draw) is
swappable exactly when it reaches that float; other residuals, such as
those a swap leaves, are compared with the exact rational.  So the
classification is the exact one.  ``shifted_analysis`` builds clusters
only at the shift c; at the other levels the proxies are empty exactly
when no window-boundary site has the matching sign, since the sign is
constant on open clusters, and only edges joining opposite signs need
classifying to check that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Mapping

import numpy as np

from .errors import InfiniteEnergy, MixedClusterSign, NegativeResidual
from .heights import HeightConfig
from .lattice import AXIS_VECTORS, Edge, Vertex, add, edges_within, neighbors
from .potential import INF, PeriodicPotential


def _to_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass
class Triplet:
    """Two height configs on a common support plus per-edge residuals."""

    phi1: HeightConfig
    phi2: HeightConfig
    residual: dict[Edge, Fraction]

    def __post_init__(self):
        if set(self.phi1.values) != set(self.phi2.values):
            raise ValueError("coupled configs must share their support")
        self.residual = {e: _to_fraction(r) for e, r in self.residual.items()}
        for e, r in self.residual.items():
            if r < 0:
                raise NegativeResidual(f"residual {r} on edge {e}")

    @staticmethod
    def build(phi1: HeightConfig, phi2: HeightConfig, rng=None, residual=None) -> "Triplet":
        """Couple two configs, drawing Exp(1) residuals when none are given."""
        edges = edges_within(phi1.values.keys())
        if residual is None:
            draws = rng.standard_exponential(len(edges))
            residual = {e: _to_fraction(float(r)) for e, r in zip(edges, draws)}
        else:
            residual = {e: _to_fraction(residual.get(e, 0)) for e in edges}
        return Triplet(phi1.copy(), phi2.copy(), residual)

    def edges(self) -> list[Edge]:
        return sorted(self.residual)

    def copy(self) -> "Triplet":
        return Triplet(self.phi1.copy(), self.phi2.copy(), dict(self.residual))


def _pair_energy(pot, phi1, phi2, edge) -> Fraction | float:
    """V-energy of both surfaces on the edge; +inf absorbs."""
    base, axis = edge
    head = add(base, AXIS_VECTORS[axis])
    v = pot.edge_potential(edge)
    e1 = v(phi1[head] - phi1[base])
    e2 = v(phi2[head] - phi2[base])
    if e1 == INF or e2 == INF:
        return INF
    return _to_fraction(e1) + _to_fraction(e2)


def _swapped_energy(pot, phi1, phi2, edge) -> Fraction | float:
    """V-energy after exchanging the surfaces at the edge's base only."""
    base, axis = edge
    head = add(base, AXIS_VECTORS[axis])
    v = pot.edge_potential(edge)
    e1 = v(phi1[head] - phi2[base])
    e2 = v(phi2[head] - phi1[base])
    if e1 == INF or e2 == INF:
        return INF
    return _to_fraction(e1) + _to_fraction(e2)


def total_energy(pot: PeriodicPotential, triplet: Triplet) -> dict[Edge, Fraction | float]:
    """t(e) = potential energy of both surfaces plus the residual, per edge."""
    out = {}
    p1, p2 = triplet.phi1.values, triplet.phi2.values
    for e, r in triplet.residual.items():
        pe = _pair_energy(pot, p1, p2, e)
        out[e] = INF if pe == INF else pe + r
    return out


# ---------------------------------------------------------------------------
# The (xi, zeta, t) coordinate change


@dataclass
class DerivedCoords:
    """Ordered-pair heights, sign field, and total energies.

    ``residual`` is carried alongside ``total`` so the inverse map is exact;
    the invariant total = pair-energy + residual holds by construction.
    """

    xi: dict[Vertex, tuple]
    zeta: dict[Vertex, int]
    total: dict[Edge, Fraction | float]
    residual: dict[Edge, Fraction]
    reference: Vertex

    @staticmethod
    def from_total(pot, xi, zeta, total, reference) -> "DerivedCoords":
        """Reconstruct residuals from totals; rejects undershooting totals."""
        phi1, phi2 = _split(xi, zeta)
        residual = {}
        for e, t in total.items():
            pe = _pair_energy(pot, phi1, phi2, e)
            if pe == INF:
                raise InfiniteEnergy(f"inadmissible pair on edge {e}")
            r = _to_fraction(t) - pe
            if r < 0:
                raise NegativeResidual(f"total energy undershoots potential on {e}")
            residual[e] = r
        return DerivedCoords(dict(xi), dict(zeta), dict(total), residual, reference)


def _split(xi, zeta):
    phi1, phi2 = {}, {}
    for v, (lo, hi) in xi.items():
        if zeta[v] > 0:
            phi1[v], phi2[v] = hi, lo
        else:
            phi1[v], phi2[v] = lo, hi
    return phi1, phi2


def to_derived(pot: PeriodicPotential, triplet: Triplet) -> DerivedCoords:
    """The injective coordinate change (phi1, phi2, r) -> (xi, zeta, t)."""
    xi, zeta = {}, {}
    p1, p2 = triplet.phi1.values, triplet.phi2.values
    for v in p1:
        a, b = p1[v], p2[v]
        xi[v] = (min(a, b), max(a, b))
        zeta[v] = 1 if a > b else (-1 if a < b else 0)
    total = total_energy(pot, triplet)
    return DerivedCoords(xi, zeta, total, dict(triplet.residual), triplet.phi1.reference)


def from_derived(pot: PeriodicPotential, coords: DerivedCoords) -> Triplet:
    """Exact inverse of to_derived."""
    phi1, phi2 = _split(coords.xi, coords.zeta)
    ref = coords.reference
    return Triplet(
        HeightConfig(phi1, reference=ref),
        HeightConfig(phi2, reference=ref),
        dict(coords.residual),
    )


# ---------------------------------------------------------------------------
# Coupling constants and swappability


def edge_coupling_constant(pot: PeriodicPotential, xi, edge: Edge):
    """Ising coupling of the sign field: aligned minus crossed energy, <= 0."""
    if isinstance(xi, DerivedCoords):
        xi = xi.xi
    base, axis = edge
    head = add(base, AXIS_VECTORS[axis])
    v = pot.edge_potential(edge)
    x1, x2 = xi[base]
    y1, y2 = xi[head]
    aligned = v(y1 - x1) + v(y2 - x2)
    if aligned == INF:
        raise InfiniteEnergy(f"aligned energy infinite on edge {edge}")
    crossed = v(y1 - x2) + v(y2 - x1)
    if crossed == INF:
        return -INF
    return aligned - crossed


def swap_deficit(pot, triplet: Triplet, edge: Edge):
    """Extra energy needed to exchange the surfaces at one endpoint."""
    return _deficit(pot, triplet.phi1.values, triplet.phi2.values, edge)


def _deficit(pot, p1, p2, edge):
    cur = _pair_energy(pot, p1, p2, edge)
    if cur == INF:
        raise InfiniteEnergy(f"inadmissible pair on edge {edge}")
    other = _swapped_energy(pot, p1, p2, edge)
    if other == INF:
        return INF
    return other - cur


@dataclass
class Cluster:
    vertices: frozenset[Vertex]
    zeta: int
    inside_window: bool
    touches_boundary: bool

    @property
    def anchor(self) -> Vertex:
        return min(self.vertices)


@dataclass
class SwappableSet:
    """Closed (swappable) edges and the open clusters of their complement."""

    closed_edges: frozenset[Edge]
    clusters: list[Cluster]
    labels: dict[Vertex, int]

    def cluster_of(self, x: Vertex) -> Cluster:
        return self.clusters[self.labels[x]]


def swappable_set(
    pot: PeriodicPotential,
    triplet: Triplet,
    window: Iterable[Vertex] | None = None,
) -> SwappableSet:
    """Classify edges by swappability and label the open clusters.

    A cluster is ``inside_window`` when every vertex lies in the window and
    ``touches_boundary`` when it meets a window vertex with a lattice
    neighbor outside the window.
    """
    window = set(triplet.phi1.values) if window is None else set(window)
    return _SwapArrays(pot, triplet, window).swappable(0)


class _SwapArrays:
    """A triplet as arrays, built once and classified at any shift c of
    phi1.  Vertices are indexed in sorted order and edges whose head lies
    in the support keep residual order; dangling edges are always closed.
    Integer heights and shifts on a potential with a ``_DeficitTable`` read
    their deficits from it; other triplets call ``_deficit`` per edge.
    """

    def __init__(self, pot, triplet: Triplet, window):
        self.pot = pot
        p1, p2 = self.p1, self.p2 = triplet.phi1.values, triplet.phi2.values
        self.verts = sorted(p1)
        index = {v: k for k, v in enumerate(self.verts)}
        inner = {v for v in window if any(w not in window for w in neighbors(v))}
        self.in_window = np.array([v in window for v in self.verts], dtype=bool)
        self.inner = np.array([v in inner for v in self.verts], dtype=bool)
        self.edges, self.dangling, base, head, residual = [], [], [], [], []
        for e, r in triplet.residual.items():
            h = add(e[0], AXIS_VECTORS[e[1]])
            if h not in index:
                self.dangling.append(e)
                continue
            self.edges.append(e)
            base.append(index[e[0]])
            head.append(index[h])
            residual.append(r)
        self.base = np.array(base, dtype=np.int64)
        self.head = np.array(head, dtype=np.int64)
        self.residual = residual
        floats = [_exact_float(r) for r in residual]
        self.inexact = np.array([f is None for f in floats], dtype=bool)
        self.r = np.array([math.nan if f is None else f for f in floats])
        self.table = None
        if set(map(type, p1.values())) | set(map(type, p2.values())) == {int}:
            self.table = _deficit_table(pot)
        if self.table is not None:
            t = self.table
            h1 = np.array([p1[v] for v in self.verts], dtype=np.int64)
            h2 = np.array([p2[v] for v in self.verts], dtype=np.int64)
            self.diff = h1 - h2
            self.cls = np.array([t.class_id[pot.edge_class(e)] for e in self.edges], dtype=np.int64)
            self.i1 = h1[self.head] - h1[self.base] - t.lo
            self.i2 = h2[self.head] - h2[self.base] - t.lo
            self.offset = h2[self.base] - h1[self.base]  # delta at shift 0
            inside = (self.i1 >= 0) & (self.i1 < t.width) & (self.i2 >= 0) & (self.i2 < t.width)
            row = self.cls * t.width
            finite = np.take(t.finite, row + self.i1, mode="clip") & np.take(t.finite, row + self.i2, mode="clip")
            self.pair_ok = inside & finite

    def _check_pairs(self, idx) -> None:
        """Raise InfiniteEnergy for the first edge of idx (integer heights)
        on which either surface has infinite energy; shifts change neither."""
        bad = ~self.pair_ok[idx]
        if bad.any():
            raise InfiniteEnergy(f"inadmissible pair on edge {self.edges[idx[np.argmax(bad)]]}")

    def _shift(self, c):
        """c as an int when the array path applies at that shift, else None."""
        if self.table is not None and isinstance(c, (int, Fraction)) and c.denominator == 1:
            return int(c)
        return None

    def _zeta(self, c) -> np.ndarray:
        k = self._shift(c)
        if k is not None:
            return np.sign(self.diff + k)
        p1 = self.p1
        zeta = []
        for v in self.verts:
            a, b = p1[v] + c, self.p2[v]
            zeta.append(1 if a > b else (-1 if a < b else 0))
        return np.array(zeta, dtype=np.int64)

    def _closed(self, c, idx) -> np.ndarray:
        """Closed mask over the candidate edges idx (both endpoints differ)."""
        k = self._shift(c)
        if k is None:
            p1 = self.p1 if c == 0 else {v: h + c for v, h in self.p1.items()}
            out = []
            for j in idx.tolist():
                d = _deficit(self.pot, p1, self.p2, self.edges[j])
                out.append(d != INF and self.residual[j] >= d)
            return np.array(out, dtype=bool)
        self._check_pairs(idx)
        t = self.table
        delta = self.offset[idx] - k + t.width - 1
        reach = (delta >= 0) & (delta < 2 * t.width - 1)  # else a swapped increment leaves the support
        flat = ((self.cls[idx] * t.width + self.i1[idx]) * t.width + self.i2[idx]) * (2 * t.width - 1) + delta
        ceiling = np.take(t.ceiling, flat, mode="clip")  # read only where reach
        missing = reach & np.isnan(ceiling)
        if missing.any():
            fresh, first = np.unique(flat[missing], return_index=True)
            for f, j in zip(fresh.tolist(), idx[missing][first].tolist()):
                base, head = self.edges[j][0], self.verts[self.head[j]]
                i1, i2 = int(self.i1[j]) + t.lo, int(self.i2[j]) + t.lo
                gap = int(self.offset[j]) - k
                d = _deficit(self.pot, {base: 0, head: i1}, {base: gap, head: gap + i2}, self.edges[j])
                t.ceiling[f], t.exact[f] = _float_ceiling(d), d
            ceiling = np.take(t.ceiling, flat, mode="clip")
        ceiling = np.where(reach, ceiling, INF)
        closed = self.r[idx] >= ceiling
        for j in np.flatnonzero(self.inexact[idx]).tolist():
            d = t.exact[int(flat[j])] if reach[j] else INF
            closed[j] = d != INF and self.residual[idx[j]] >= d
        return closed

    def _candidates(self, zeta) -> np.ndarray:
        return np.flatnonzero((zeta[self.base] != 0) & (zeta[self.head] != 0))

    def swappable(self, c) -> SwappableSet:
        """The swappable set of (phi1 + c, phi2, r)."""
        zeta = self._zeta(c)
        idx = self._candidates(zeta)
        is_open = np.zeros(len(self.edges), dtype=bool)
        is_open[idx[~self._closed(c, idx)]] = True
        a, b = self.base[is_open], self.head[is_open]
        roots = _components(len(self.verts), a, b)
        mixed = zeta[a] != zeta[b]
        if mixed.any():
            anchor = int(roots[a[mixed]].min())
            signs = sorted(set(zeta[roots == anchor].tolist()))
            raise MixedClusterSign(f"open cluster at {self.verts[anchor]} has zeta values {signs}")
        anchors = np.flatnonzero(roots == np.arange(len(roots)))
        label = (np.cumsum(roots == np.arange(len(roots))) - 1)[roots]
        size = np.bincount(label, minlength=len(anchors))
        inside = np.bincount(label[self.in_window], minlength=len(anchors)) == size
        touches = np.bincount(label[self.inner], minlength=len(anchors)) > 0
        labels = label.tolist()
        members = [[] for _ in anchors]
        for v, k in zip(self.verts, labels):
            members[k].append(v)
        clusters = [
            Cluster(vertices=frozenset(m), zeta=z, inside_window=i, touches_boundary=t)
            for m, z, i, t in zip(members, zeta[anchors].tolist(), inside.tolist(), touches.tolist())
        ]
        closed = frozenset(self.dangling) | frozenset(compress(self.edges, (~is_open).tolist()))
        return SwappableSet(closed, clusters, dict(zip(self.verts, labels)))

    def proxies_empty(self, c) -> tuple[bool, bool]:
        """Whether the T+ and T- proxies of shift c are empty.  Open
        clusters have one sign, so a proxy is empty exactly when no window
        boundary site has its sign; only edges joining opposite signs can
        break that, and those are classified (the whole swappable set is
        built, to raise MixedClusterSign, when one is open)."""
        zeta = self._zeta(c)
        idx = self._candidates(zeta)
        if self._shift(c) is not None:  # check every candidate pair, classify fewer
            self._check_pairs(idx)
            idx = idx[zeta[self.base[idx]] != zeta[self.head[idx]]]
        closed = self._closed(c, idx)
        if not closed[zeta[self.base[idx]] != zeta[self.head[idx]]].all():
            self.swappable(c)
        boundary = zeta[self.inner]
        return not (boundary < 0).any(), not (boundary > 0).any()


def _exact_float(r):
    """The rational r as a float when that is exact, else None: a power-of-
    two denominator of at most 2^1074 and a numerator below 2^53 in
    magnitude (larger integers fall back to exact comparison)."""
    num, den = r.numerator, r.denominator
    if den & (den - 1) or den.bit_length() > 1075 or abs(num) >= 1 << 53:
        return None
    return num / den


def _float_ceiling(d) -> float:
    """The least float >= the exact deficit d (inf stays inf)."""
    f = float(d)
    return math.nextafter(f, math.inf) if f < d else f


class _DeficitTable:
    """Swap deficits of a discrete Lipschitz potential, each computed once
    by ``_deficit``.  A deficit depends only on the edge class c, the two
    surfaces' increments i1, i2 along the edge and the offset delta of
    phi2 over phi1 at its base.  Increments lie in [lo, lo + width); a
    swapped increment i1 - delta or i2 + delta leaves that range, and the
    deficit is infinite, unless |delta| < width.  ``ceiling`` holds, at
    ((c * width + i1 - lo) * width + i2 - lo) * (2 width - 1) + delta +
    width - 1, the least float at or above the exact deficit (NaN until
    computed), and ``exact`` the exact deficit; ``finite[c * width + i -
    lo]`` says whether class c has finite energy at increment i.
    """

    def __init__(self, pot, lo: int, width: int):
        classes = sorted(pot.class_potentials)
        self.class_id = {c: k for k, c in enumerate(classes)}
        self.lo, self.width = lo, width
        self.finite = np.array([pot.class_potentials[c](lo + i) < INF for c in classes for i in range(width)])
        self.ceiling = np.full(len(classes) * width * width * (2 * width - 1), math.nan)
        self.exact = {}


_TABLE_LIMIT = 1 << 20  # entries of one deficit table (8 MB)


def _deficit_table(pot) -> _DeficitTable | None:
    """The potential's deficit table; None unless it is discrete Lipschitz
    with at most _TABLE_LIMIT entries (such swaps use ``_deficit`` per edge)."""
    memo = pot._memo("_swap_deficits")
    if "table" not in memo:
        memo["table"] = None
        if pot.discrete and pot.is_lipschitz():
            supports = [p.support() for p in pot.class_potentials.values()]
            lo = min(int(b[0]) for b in supports)
            width = max(int(b[1]) for b in supports) - lo + 1
            if len(supports) * width**2 * (2 * width - 1) <= _TABLE_LIMIT:
                memo["table"] = _DeficitTable(pot, lo, width)
    return memo["table"]


def _components(size: int, a, b) -> np.ndarray:
    """Least vertex index of every vertex's component in the graph on
    range(size) with edges (a[k], b[k]).  Union-find in array passes: each
    round hooks the larger root of every edge whose roots differ onto the
    smaller one, then jumps pointers until each vertex points at its root.
    Roots only decrease, so the root of a component is its least vertex.
    """
    root = np.arange(size)
    while a.size:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            break
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return root


# ---------------------------------------------------------------------------
# Swaps


def _apply_swap(pot, triplet: Triplet, swap_vertices: frozenset[Vertex]) -> Triplet:
    """Exchange the surfaces on the given vertices, preserving t per edge."""
    out = triplet.copy()
    p1, p2 = out.phi1.values, out.phi2.values
    for v in swap_vertices:
        p1[v], p2[v] = p2[v], p1[v]
    for e in out.residual:
        base, axis = e
        head = add(base, AXIS_VECTORS[axis])
        if head not in p1:
            continue
        affected = (base in swap_vertices) != (head in swap_vertices)
        if not affected:
            continue
        old = _pair_energy(pot, triplet.phi1.values, triplet.phi2.values, e)
        new = _pair_energy(pot, p1, p2, e)
        if new == INF:
            raise NegativeResidual(f"swap made edge {e} inadmissible")
        out.residual[e] = triplet.residual[e] + (old - new)
        if out.residual[e] < 0:
            raise NegativeResidual(f"swap pushed residual below zero on {e}")
    return out


def cluster_swap_at(
    pot: PeriodicPotential,
    triplet: Triplet,
    window: Iterable[Vertex] | None,
    x: Vertex,
) -> Triplet:
    """Swap the open cluster containing x when it lies inside the window.

    An involution: the closed-edge set depends only on the totals, which
    are preserved, so applying the map twice restores every field exactly.
    """
    ss = swappable_set(pot, triplet, window)
    cluster = ss.cluster_of(x)
    if not cluster.inside_window or cluster.zeta == 0:
        return triplet.copy()
    return _apply_swap(pot, triplet, cluster.vertices)


def swendsen_wang_update(
    pot: PeriodicPotential,
    triplet: Triplet,
    window: Iterable[Vertex] | None,
    rng,
) -> Triplet:
    """One cluster-swapping sweep preserving the product Gibbs law.

    Residuals are redrawn as independent Exp(1), the swappable set is
    recomputed, and an independent fair coin decides whether each open
    cluster inside the window exchanges the two surfaces; residuals absorb
    the difference so every total energy is untouched.
    """
    out = triplet.copy()
    edges = out.edges()
    draws = rng.standard_exponential(len(edges))
    out.residual = {e: _to_fraction(float(r)) for e, r in zip(edges, draws)}
    ss = swappable_set(pot, out, window)
    eligible = sorted(
        (c for c in ss.clusters if c.inside_window), key=lambda c: c.anchor
    )
    coins = rng.random(len(eligible))
    to_swap: set[Vertex] = set()
    for c, coin in zip(eligible, coins):
        if coin < 0.5 and c.zeta != 0:
            to_swap |= c.vertices
    if to_swap:
        out = _apply_swap(pot, out, frozenset(to_swap))
    return out


# ---------------------------------------------------------------------------
# Shifted analysis and crossing-bound estimators


@dataclass
class ShiftedAnalysis:
    shift: Fraction | int
    swappable: SwappableSet  # of the shifted triplet (phi1 + shift, phi2, r)
    t_plus: frozenset[Vertex]
    t_minus: frozenset[Vertex]
    b_plus: int | float
    b_minus: int | float
    window_size: int


def shifted_analysis(
    pot: PeriodicPotential,
    triplet: Triplet,
    c,
    window: Iterable[Vertex] | None = None,
) -> ShiftedAnalysis:
    """Swappability of (phi1 + c, phi2, r) and finite-window T+/T- proxies.

    Boundary-touching open clusters stand in for infinite ones.  The
    crossing-bound estimates scan every level between the observed height
    differences: b_plus is the least shift emptying the plus proxy, b_minus
    the greatest emptying the minus proxy.
    """
    window = set(triplet.phi1.values) if window is None else set(window)
    arrays = _SwapArrays(pot, triplet, window)
    ss = arrays.swappable(c)
    t_plus, t_minus = set(), set()
    for cl in ss.clusters:
        if not cl.touches_boundary or cl.zeta == 0:
            continue
        # zeta of (phi1 + c, phi2) is +1 when phi1 + c > phi2
        if cl.zeta < 0:
            t_plus |= cl.vertices
        else:
            t_minus |= cl.vertices
    t_plus, t_minus = frozenset(t_plus), frozenset(t_minus)
    empty = {c: (not t_plus, not t_minus)}  # per shift level, one array pass

    def proxies_empty(level):
        if level not in empty:
            empty[level] = arrays.proxies_empty(level)
        return empty[level]

    diffs = [
        triplet.phi2.values[v] - triplet.phi1.values[v] for v in sorted(window)
    ]
    candidates = _scan_levels(diffs, pot.discrete)
    b_plus = None
    for cand in candidates:  # t_plus proxy is decreasing in the shift
        if proxies_empty(cand)[0]:
            b_plus = cand
            break
    b_minus = None
    for cand in reversed(candidates):
        if proxies_empty(cand)[1]:
            b_minus = cand
            break
    return ShiftedAnalysis(
        shift=c,
        swappable=ss,
        t_plus=t_plus,
        t_minus=t_minus,
        b_plus=b_plus if b_plus is not None else INF,
        b_minus=b_minus if b_minus is not None else -INF,
        window_size=len(window),
    )


def _scan_levels(diffs, discrete: bool):
    if discrete:
        return list(range(int(min(diffs)) - 1, int(max(diffs)) + 2))
    return sorted(set(diffs))


# ---------------------------------------------------------------------------
# Synchronized domination coupling


def coin_merge_coupling(
    pot: PeriodicPotential,
    triplet: Triplet,
    window: Iterable[Vertex],
    rng,
) -> tuple[HeightConfig, HeightConfig]:
    """Re-randomize every open cluster inside the window with a fair coin
    that sets both surfaces to the cluster's lower or upper values together.

    Each marginal already assigned its cluster sign by an independent fair
    coin, so the merge leaves both marginals untouched while forcing
    equality on interior clusters.
    """
    window = set(window)
    ss = swappable_set(pot, triplet, window=window)
    trip = triplet.copy()
    eligible = sorted(
        (c for c in ss.clusters if c.inside_window), key=lambda c: c.anchor
    )
    coins = rng.random(len(eligible))
    p1, p2 = trip.phi1.values, trip.phi2.values
    for cl, coin in zip(eligible, coins):
        if cl.zeta == 0:
            continue
        for v in cl.vertices:
            lo, hi = min(p1[v], p2[v]), max(p1[v], p2[v])
            pick = lo if coin < 0.5 else hi
            p1[v] = pick
            p2[v] = pick
    return trip.phi1, trip.phi2


def synchronized_domination_coupling(
    pot: PeriodicPotential,
    region: Iterable[Vertex],
    boundary1: Mapping[Vertex, int],
    boundary2: Mapping[Vertex, int],
    rng_stream,
) -> tuple[HeightConfig, HeightConfig]:
    """Coupled Gibbs samples that are ordered whenever the boundaries are.

    Draws an independent exact pair from the two kernels, couples them with
    fresh residuals, and applies the coin merge on clusters inside the
    region.
    """
    from .sampler import cftp_sample  # local import avoids a cycle at load time

    region = sorted(region)
    phi1 = cftp_sample(pot, region, boundary1, rng_stream.substream(1))
    phi2 = cftp_sample(pot, region, boundary2, rng_stream.substream(2))
    trip = Triplet.build(phi1, phi2, rng=rng_stream.substream(3).at(0))
    return coin_merge_coupling(pot, trip, region, rng_stream.substream(4).at(0))
