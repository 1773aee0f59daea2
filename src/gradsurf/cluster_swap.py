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

On discrete potentials with integer heights, ``swappable_set`` computes
each swap deficit once: the deficit reads only the differences among the
edge's four heights, so it is memoized on the potential under the edge
class and the four heights minus their minimum, and lives as long as the
potential.  The entry is the exact rational ``swap_deficit`` returned for
the first edge with that key, so the classification does not change.
``shifted_analysis`` builds the swappable set of each shift level once; the
shift c and both crossing-bound scans share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

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
    p1, p2 = triplet.phi1.values, triplet.phi2.values
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
    support = set(triplet.phi1.values)
    window = support if window is None else set(window)
    inner_boundary = {
        v for v in window if any(w not in window for w in neighbors(v))
    }
    closed = set()
    open_adj: dict[Vertex, list[Vertex]] = {v: [] for v in support}
    p1, p2 = triplet.phi1.values, triplet.phi2.values
    deficits = None
    if pot.discrete and set(map(type, p1.values())) | set(map(type, p2.values())) == {int}:
        deficits = pot._memo("_swap_deficits")
    for e, r in triplet.residual.items():
        base, axis = e
        head = add(base, AXIS_VECTORS[axis])
        if head not in support:
            closed.add(e)  # dangling edges cannot swap an endpoint pair
            continue
        if p1[base] == p2[base] or p1[head] == p2[head]:
            closed.add(e)
            continue
        if deficits is None:
            d = swap_deficit(pot, triplet, e)
        else:
            hs = (p1[base], p1[head], p2[base], p2[head])
            m = min(hs)
            key = (pot.edge_class(e), hs[0] - m, hs[1] - m, hs[2] - m, hs[3] - m)
            d = deficits.get(key)
            if d is None:
                d = deficits[key] = swap_deficit(pot, triplet, e)
        if d != INF and r >= d:
            closed.add(e)
        else:
            open_adj[base].append(head)
            open_adj[head].append(base)
    labels: dict[Vertex, int] = {}
    clusters: list[Cluster] = []
    for v in sorted(support):
        if v in labels:
            continue
        comp = [v]
        labels[v] = len(clusters)
        stack = [v]
        while stack:
            w = stack.pop()
            for nb in open_adj[w]:
                if nb not in labels:
                    labels[nb] = len(clusters)
                    comp.append(nb)
                    stack.append(nb)
        comp_set = frozenset(comp)
        z = _cluster_zeta(p1, p2, comp_set)
        clusters.append(
            Cluster(
                vertices=comp_set,
                zeta=z,
                inside_window=comp_set <= window,
                touches_boundary=bool(comp_set & inner_boundary),
            )
        )
    return SwappableSet(frozenset(closed), clusters, labels)


def _cluster_zeta(p1, p2, comp) -> int:
    signs = set()
    for v in comp:
        a, b = p1[v], p2[v]
        signs.add(1 if a > b else (-1 if a < b else 0))
    if len(signs) != 1:
        raise MixedClusterSign(f"open cluster at {min(comp)} has zeta values {sorted(signs)}")
    return signs.pop()


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


def _shifted_triplet(triplet: Triplet, c) -> Triplet:
    phi1 = triplet.phi1.copy()
    phi1.values = {v: h + c for v, h in phi1.values.items()}
    return Triplet(phi1, triplet.phi2.copy(), dict(triplet.residual))


def _proxies(pot, triplet, c, window):
    shifted = _shifted_triplet(triplet, c)
    ss = swappable_set(pot, shifted, window)
    t_plus, t_minus = set(), set()
    for cl in ss.clusters:
        if not cl.touches_boundary or cl.zeta == 0:
            continue
        # zeta of (phi1 + c, phi2) is +1 when phi1 + c > phi2
        if cl.zeta < 0:
            t_plus |= cl.vertices
        else:
            t_minus |= cl.vertices
    return ss, frozenset(t_plus), frozenset(t_minus)


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
    ss, t_plus, t_minus = _proxies(pot, triplet, c, window)
    empty = {c: (not t_plus, not t_minus)}  # per shift level, built once

    def proxies_empty(level):
        if level not in empty:
            _, tp, tm = _proxies(pot, triplet, level, window)
            empty[level] = (not tp, not tm)
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
