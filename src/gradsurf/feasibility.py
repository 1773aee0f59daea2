"""Feasibility of height data: increment bounds, shortest paths, polytopes.

An edge whose potential is finite exactly on [lo, hi] constrains the
increment phi(head) - phi(base) to that interval.  Shortest-path distances
in the induced arc-weighted digraph decide which partial height functions
extend to finite-energy configurations and which slopes are achievable on
tori; one relaxation kernel over in-arc arrays (``_InArcs``) computes them
all.  A ``FeasibilityGraph`` is a pair of such arrays, its arcs and their
reversal, and the plans of regions and tori are feasibility graphs.  The
same kernel, relaxing the fundamental torus at one slope at a time, is the
separation oracle of the cutting planes that give the allowed-slope
polytope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import Infeasible, NegativeCycle, StateSpaceTooLarge
from .heights import HeightConfig, TorusInfo
from .lattice import (
    AXIS_VECTORS,
    Edge,
    Vertex,
    add,
    checkerboard_order,
    dot,
    neighbors,
    round_slope,
    sub,
)
from .potential import INF, PeriodicPotential

Arc = tuple[Vertex, Vertex]

_BATCH_ENTRIES = 1 << 16  # arc entries a batched relaxation reads per round


@dataclass(frozen=True)
class IncrementBounds:
    """Directed bounds for one edge: up = d(base, head), down = d(head, base)."""

    up: float
    down: float


def increment_bounds(pot: PeriodicPotential, edge: Edge) -> IncrementBounds:
    """Endpoints of the finite-support interval of the edge's potential.

    ``up`` is the largest allowed increment along the edge, ``down`` minus
    the smallest; either may be +inf.
    """
    lo, hi = pot.edge_potential(edge).support()
    return IncrementBounds(up=hi, down=-lo)


# ---------------------------------------------------------------------------
# Arc-weighted digraphs and the relaxation kernel


class _InArcs:
    """A digraph as in-arc arrays: row v of ``src`` and ``w`` holds the
    tails and weights of the arcs into ``sites[v]``, padded with tail N,
    whose entry is held at +inf.  ``index`` maps each vertex to its row.
    Every distance, extension and feasibility answer relaxes one of these."""

    def __init__(self, sites, index, src, w):
        self.sites, self.index, self.src, self.w = sites, index, src, w

    def seeded(self, partial: Mapping[Vertex, float]):
        """(entries, pins, heights): N + 1 entries, +inf except the partial
        heights at their pins; raises ValueError naming a pin that is not a
        vertex."""
        for v in partial:
            if v not in self.index:
                raise ValueError(f"{v} is not a vertex of the graph")
        pins = np.array([self.index[v] for v in partial], dtype=np.int64)
        heights = np.array([float(h) for h in partial.values()])
        dist = np.full(len(self.sites) + 1, INF)
        dist[pins] = heights
        return dist, pins, heights

    def relax(self, dist):
        """Lower ``dist`` along every arc at once, one round per vertex,
        and return the tail that last lowered each vertex (-1 for none).
        ``dist`` is N + 1 entries or S rows of them, relaxed side by side,
        each as if alone.  Raises NegativeCycle when a vertex of the first
        such row is still lowered in the last round: its tails lead back to
        a negative cycle."""
        size, width = self.src.shape
        flat, src, tails, first = dist, self.src, self.src.ravel(), np.arange(0, size * width, width)
        if dist.ndim == 2:  # row r reads its tails' entries from r (N + 1) on
            flat = dist.reshape(-1)  # a view: the rows relax in place
            src = src + np.arange(0, dist.size, size + 1)[:, None, None]
            tails = np.tile(tails, len(dist))
            first = np.arange(0, tails.size, width).reshape(len(dist), size)
        tail, head, lowered = np.full(first.shape, -1), dist[..., :-1], np.zeros(first.shape, dtype=bool)
        for _ in range(size):
            reach = flat[src]
            reach += self.w
            arc = reach.argmin(axis=-1) + first  # flat index of each row's best arc
            reach = reach.ravel()[arc]
            lowered = reach < head
            if not lowered.any():
                break
            np.copyto(tail, tails[arc], where=lowered)
            np.minimum(head, reach, out=head)
        if lowered.any():
            r, v = divmod(int(lowered.argmax()), size)  # the first lowered row's first lowered vertex
            raise NegativeCycle(*self._cycle(tail.reshape(-1, size)[r].tolist(), v))
        return tail

    def _cycle(self, tail, v):
        """(closed vertex list from its least vertex, total weight) of the
        tail cycle that v leads to; v's tails reach it within N steps.
        Integral weights print as integers."""
        for _ in range(len(self.sites)):
            v = tail[v]
        cycle = [v]
        while tail[cycle[-1]] != v:
            cycle.append(tail[cycle[-1]])
        cycle.reverse()  # tails run against the arcs
        k = cycle.index(min(cycle, key=self.sites.__getitem__))
        cycle = cycle[k:] + cycle[:k + 1]
        weight = 0.0
        for a, b in zip(cycle, cycle[1:]):
            weight += float(self.w[b][self.src[b] == a].min())
        return [self.sites[k] for k in cycle], int(weight) if weight.is_integer() else weight

    def negative_cycle(self):
        """A witness negative cycle (vertex list, weight) or None: the
        relaxation with every entry seeded at 0."""
        dist = np.zeros(len(self.sites) + 1, dtype=self.w.dtype)
        dist[-1] = INF
        try:
            self.relax(dist)
        except NegativeCycle as exc:
            return exc.witness, exc.weight
        return None

    def distance_matrix(self, sources) -> np.ndarray:
        """D(source, v) as an (S, N) array: one relaxation per chunk of
        sources, at most ``_BATCH_ENTRIES`` arc entries a round, row k seeded
        0 at source k; raises NegativeCycle for a cycle a source reaches."""
        self.seeded(dict.fromkeys(sources, 0.0))  # ValueError for a source that is not a vertex
        pins = [self.index[v] for v in sources]
        table = np.full((len(pins), len(self.sites) + 1), INF)
        table[np.arange(len(pins)), pins] = 0.0
        step = max(1, _BATCH_ENTRIES // self.src.size)
        for lo in range(0, len(pins), step):
            self.relax(table[lo:lo + step])  # contiguous rows, relaxed in place
        return table[:, :-1]

    def extend(self, partial: Mapping[Vertex, float]):
        """Per row, min over pinned x of phi(x) + D(x, v), from one
        relaxation seeded with the pins.

        Raises NegativeCycle for a negative cycle the pins reach, then
        Infeasible((x, y)) for the least lowered pin y and the root x of its
        tails, so D(x, y) < phi(y) - phi(x), then Infeasible(v) for the
        least vertex no pin reaches."""
        dist, pins, heights = self.seeded(partial)
        tail = self.relax(dist)
        lowered = pins[dist[pins] < heights].tolist()
        if lowered:
            y = x = min(lowered, key=self.sites.__getitem__)
            while tail[x] >= 0:
                x = tail[x]
            raise Infeasible((self.sites[x], self.sites[y]))
        unreached = np.flatnonzero(dist[:-1] == INF).tolist()
        if unreached:
            raise Infeasible(min(self.sites[k] for k in unreached))
        return dist[:-1]


class FeasibilityGraph:
    """Directed increment-bound graph as a pair of in-arc tables
    (``_InArcs``), built once: ``forward`` holds the arcs and ``reverse``
    the arcs flipped, so each query relaxes a table it already has."""

    def __init__(self, vertices: list[Vertex], forward: _InArcs, reverse: _InArcs):
        self.vertices, self.forward, self.reverse = vertices, forward, reverse

    @staticmethod
    def from_arcs(
        arcs: Mapping[Arc, float], vertices: Iterable[Vertex] | None = None
    ) -> "FeasibilityGraph":
        """Graph on the given vertices (default: the arc endpoints); each
        row lists its tails in sorted order."""
        if vertices is None:
            vertices = {v for arc in arcs for v in arc}
        vertices = sorted(vertices)
        index = {v: k for k, v in enumerate(vertices)}
        into: list[list[tuple[int, float]]] = [[] for _ in vertices]
        outof: list[list[tuple[int, float]]] = [[] for _ in vertices]
        for (x, y), w in sorted(arcs.items()):
            into[index[y]].append((index[x], w))
            outof[index[x]].append((index[y], w))
        tables = []
        for rows in (into, outof):
            size, width = len(rows), max(1, max(map(len, rows), default=0))
            src, weights = np.full((size, width), size), np.zeros((size, width))
            for v, row in enumerate(rows):
                for k, (x, w) in enumerate(row):
                    src[v, k], weights[v, k] = x, w
            tables.append(_InArcs(vertices, index, src, weights))
        return FeasibilityGraph(vertices, *tables)

    @staticmethod
    def from_potential(pot: PeriodicPotential, region: Iterable[Vertex]) -> "FeasibilityGraph":
        """The potential's plan of the region (``_region_plan``): arcs for
        every edge with both endpoints in the region, every region vertex
        kept."""
        return _region_plan(pot, sorted(region), {})

    def reversed(self) -> "FeasibilityGraph":
        """Every arc flipped, so distances_from(x) gives D(., x)."""
        return FeasibilityGraph(self.vertices, self.reverse, self.forward)

    def distances_from(self, source: Vertex) -> dict[Vertex, float]:
        """D(source, .); raises NegativeCycle for a cycle the source reaches."""
        return dict(zip(self.vertices, self.forward.distance_matrix([source])[0].tolist()))

    def distance_matrix(self, sources) -> np.ndarray:
        """``_InArcs.distance_matrix``; first raises the graph's NegativeCycle."""
        if (cycle := self.negative_cycle()) is not None:
            raise NegativeCycle(*cycle)
        return self.forward.distance_matrix(sources)

    def negative_cycle(self):
        """A witness negative cycle (vertex list, weight) or None."""
        return self.forward.negative_cycle()

    def extensions(self, partial: Mapping[Vertex, float]):
        """Maximal and minimal extension heights of the partial heights:
        the extension step on the forward arcs, then on the reversed ones
        with the heights negated, so it raises what ``extend_boundary`` and
        then ``extend_boundary_min`` raise."""
        top = self.forward.extend(partial)
        bot = self.reverse.extend({v: 0.0 - h for v, h in partial.items()})
        return dict(zip(self.vertices, top.tolist())), dict(zip(self.vertices, np.subtract(0.0, bot).tolist()))


def shortest_distances(graph: FeasibilityGraph, sources: Iterable[Vertex]) -> dict[Vertex, dict[Vertex, float]]:
    """D(source, .) for each source; raises NegativeCycle with a witness."""
    sources = list(sources)
    return {s: dict(zip(graph.vertices, row)) for s, row in zip(sources, graph.distance_matrix(sources).tolist())}


def distances_csv(sources, targets, table: np.ndarray) -> list[str]:
    """CSV rows of a distance matrix, a row per source and a column per
    target, in the order given."""
    rows = ["source_x,source_y,target_x,target_y,distance"]
    labels = [f",{t[0]},{t[1]}," for t in targets]
    for s, row in zip(sources, table.tolist()):
        lead = f"{s[0]},{s[1]}"
        rows += [lead + label + d for label, d in zip(labels, map(str, row))]
    return rows


# ---------------------------------------------------------------------------
# Boundary extension


def extend_boundary(graph: FeasibilityGraph, partial: Mapping[Vertex, float]) -> HeightConfig:
    """Pointwise-maximal finite-energy extension, min over pinned x of
    phi(x) + D(x, v), from one relaxation seeded with the pins.

    Raises NegativeCycle for a negative cycle the pins reach, then
    Infeasible((x, y)) when D(x, y) < phi(y) - phi(x) for pinned x, y, then
    Infeasible(v) for a vertex no pin reaches, and ValueError for a pin
    that is not a vertex."""
    if not partial:
        raise ValueError("partial assignment must be nonempty")
    dist = graph.forward.extend(partial)
    return HeightConfig(dict(zip(graph.vertices, dist.tolist())), reference=min(partial))


def extend_boundary_min(graph: FeasibilityGraph, partial: Mapping[Vertex, float]) -> HeightConfig:
    """Pointwise-minimal extension, max over pinned x of phi(x) - D(v, x):
    the negated maximal extension of the reversed graph with negated pins.
    Error witnesses refer to the reversed graph."""
    top = extend_boundary(graph.reversed(), {x: 0.0 - h for x, h in partial.items()})
    return HeightConfig({v: 0.0 - h for v, h in top.values.items()}, reference=top.reference)


# ---------------------------------------------------------------------------
# Torus slope feasibility


def _torus_side_fits(pot: PeriodicPotential, n: int) -> bool:
    """Whether n is a positive multiple of the period on both axes, as the
    side of every torus must be."""
    lat = pot.lattice
    return n >= 1 and lat.contains((n, 0)) and lat.contains((0, n))


def torus_info(pot: PeriodicPotential, n: int, slope) -> TorusInfo:
    """Validate torus side and round the slope for the discrete domain."""
    if not _torus_side_fits(pot, n):
        raise ValueError(f"torus side {n} is not a positive multiple of the period")
    if pot.discrete:
        u = round_slope(slope, n)
    else:
        u = (
            Fraction(slope[0]).limit_denominator(10**9),
            Fraction(slope[1]).limit_denominator(10**9),
        )
    return TorusInfo(n=n, slope=u)


def torus_slope_feasible(pot: PeriodicPotential, n: int, slope) -> bool:
    """True iff slope-class configurations of finite energy exist on T_n:
    the plan has no negative cycle."""
    return _torus_plan(pot, torus_info(pot, n, slope)).negative_cycle() is None


# ---------------------------------------------------------------------------
# Allowed-slope polytope


@dataclass(frozen=True)
class Halfspace:
    normal: tuple[int, int]
    offset: Fraction | float
    cycle: tuple[Vertex, ...]

    def holds(self, u, strict: bool = False) -> bool:
        s = self.normal[0] * u[0] + self.normal[1] * u[1]
        if isinstance(self.offset, Fraction):  # discrete mode: exact rationals
            return s < self.offset if strict else s <= self.offset
        tol = 1e-9
        return s < self.offset - tol if strict else s <= self.offset + tol


@dataclass(frozen=True)
class SlopePolytope:
    """Intersection of halfspaces (u, s_i) <= d_i from torus cycles."""

    halfspaces: tuple[Halfspace, ...]
    feasible: bool = True  # False when no slope is allowed

    def contains(self, u, strict: bool = False) -> bool:
        if not self.feasible:
            return False
        return all(h.holds(u, strict) for h in self.halfspaces)

    def canonical(self) -> tuple[tuple[int, int, Fraction | float], ...]:
        return tuple(sorted((h.normal[0], h.normal[1], h.offset) for h in self.halfspaces))

    def csv_rows(self) -> list[str]:
        rows = ["n1,n2,offset,cycle"]
        for h in sorted(self.halfspaces, key=lambda h: h.normal):
            cyc = " ".join(f"({v[0]} {v[1]})" for v in h.cycle)
            rows.append(f"{h.normal[0]},{h.normal[1]},{h.offset},{cyc}")
        return rows


def _fundamental_torus_steps(pot: PeriodicPotential):
    """Steps of Z^2 / L as in-arc arrays with exact weights, and the
    displacement of each slot: edge (v, axis) steps v -> v + e_axis at the
    top of its support and back at minus the bottom, where finite."""
    lat = pot.lattice
    sites = sorted(lat.fundamental_domain())
    index = {v: k for k, v in enumerate(sites)}
    into: list[list] = [[] for _ in sites]
    for v in sites:
        for axis in (0, 1):
            e = AXIS_VECTORS[axis]
            head = lat.cell(v[0] + e[0], v[1] + e[1])
            lo, hi = pot.edge_potential((v, axis)).support()
            for tail, row, disp, w in ((index[v], head, e, hi), (head, index[v], (-e[0], -e[1]), -lo)):
                if w < INF:
                    into[row].append((tail, disp, Fraction(w)))
    size, width = len(sites), max(1, max(map(len, into)))
    src = np.full((size, width), size)
    weights = np.full((size, width), Fraction(0), dtype=object)
    disps = np.zeros((size, width, 2), dtype=object)
    for v, arcs in enumerate(into):
        for k, (tail, disp, w) in enumerate(arcs):
            src[v, k], disps[v, k], weights[v, k] = tail, disp, w
    return _InArcs(sites, index, src, weights), disps


def _integer_weights(steps: _InArcs, disps):
    """The function u -> q (w - u.disp) of a rational slope u, as Python
    ints, for the exact step weights w and their displacements, q the
    least common multiple of the weights' and u's denominators.  The
    weights are put over their common denominator L once, as integers W,
    so a slope costs (q / L) W - (q u1) dx - (q u2) dy in integers."""
    scale = math.lcm(*(w.denominator for w in steps.w.flat))
    whole = np.frompyfunc(lambda w: w.numerator * (scale // w.denominator), 1, 1)(steps.w)
    dx, dy = disps[..., 0], disps[..., 1]

    def at_slope(u):
        q = math.lcm(scale, u[0].denominator, u[1].denominator)
        return q // scale * whole - q // u[0].denominator * u[0].numerator * dx - q // u[1].denominator * u[1].numerator * dy

    return at_slope


def allowed_slope_polytope(pot: PeriodicPotential) -> SlopePolytope:
    """The slopes u at which the fundamental-torus steps, weighted
    w - u.disp, have no negative cycle, by cutting planes from a box that
    strictly holds every vertex.  At each unconfirmed vertex of the polygon
    the kernel relaxes the weights, scaled to integers; its witness cycle C
    (cheapest parallel steps) cuts the vertex off by (disp(C)/g).u <= w(C)/g,
    and a vertex without one is confirmed.  A negative cycle of displacement
    (0, 0), or a polygon cut empty, leaves no slope."""
    steps, disps = _fundamental_torus_steps(pot)
    at_slope = _integer_weights(steps, disps)
    bound = 2 * len(steps.sites) ** 2 * max(map(abs, steps.w.ravel())) + 1
    cuts = {(normal, bound): Halfspace(normal, bound, ()) for normal in ((1, 0), (-1, 0), (0, 1), (0, -1))}
    confirmed: set = set()
    while not confirmed.issuperset(corners := _vertices(list(cuts.values()))):
        for u in [c for c in corners if c not in confirmed]:
            scaled = at_slope(u)
            found = _InArcs(steps.sites, steps.index, steps.src, scaled).negative_cycle()
            if found is None:
                confirmed.add(u)
                continue
            disp, weight, path = np.zeros(2, dtype=object), Fraction(0), found[0]
            for x, y in zip(path, path[1:]):
                row = steps.index[y]
                k = min(np.flatnonzero(steps.src[row] == steps.index[x]), key=scaled[row].__getitem__)
                disp, weight = disp + disps[row, k], weight + steps.w[row, k]
            g = math.gcd(*disp)
            if g == 0:
                return SlopePolytope(halfspaces=(), feasible=False)
            normal = (disp[0] // g, disp[1] // g)
            cuts.setdefault((normal, weight / g), Halfspace(normal, weight / g, tuple(path)))
    if not corners:
        return SlopePolytope(halfspaces=(), feasible=False)
    kept = _prune_redundant([h for h in cuts.values() if h.cycle])
    if not pot.discrete:
        kept = [Halfspace(h.normal, float(h.offset), h.cycle) for h in kept]
    return SlopePolytope(halfspaces=tuple(sorted(kept, key=lambda h: h.normal)))


def _prune_redundant(halfspaces: list[Halfspace]) -> list[Halfspace]:
    """Drop, in order, each halfspace the ones still kept imply (exact 2D
    reasoning); fewer others never imply a kept one."""
    kept = list(halfspaces)
    for h in halfspaces:
        others = [o for o in kept if o is not h]
        m = _max_objective(others, h.normal)
        if m is not None and m <= h.offset:
            kept = others
    return kept


def _vertices(halfspaces: list[Halfspace]) -> list[tuple[Fraction, Fraction]]:
    """The sorted vertices of the intersection, exact: the meeting points of
    two boundary lines that satisfy every halfspace.  Offsets scaled by
    their common denominator L to integers d put lines 1 and 2 meeting at
    (x, y) / (L det), det > 0, inside n.u <= d / L iff n.(x, y) <= d det."""
    scale = math.lcm(*(h.offset.denominator for h in halfspaces))
    lines = [(*h.normal, h.offset.numerator * (scale // h.offset.denominator)) for h in halfspaces]
    points = set()
    for (a1, b1, d1), (a2, b2, d2) in itertools.combinations(lines, 2):
        det = a1 * b2 - b1 * a2
        if det == 0:
            continue
        x, y = d1 * b2 - d2 * b1, a1 * d2 - a2 * d1
        if det < 0:
            x, y, det = -x, -y, -det
        if all(a * x + b * y <= d * det for a, b, d in lines):
            points.add((Fraction(x, det * scale), Fraction(y, det * scale)))
    return sorted(points)


def _max_objective(halfspaces: list[Halfspace], objective: tuple[int, int]):
    """Exact max of objective . u over the intersection; None means +inf."""
    if not halfspaces:
        return None
    n = objective
    # unbounded iff a recession direction d has N d <= 0 and n . d > 0
    candidates = [n, (-n[0], -n[1])]
    for h in halfspaces:
        a, b = h.normal
        candidates += [(-b, a), (b, -a), (-a, -b)]
    for d in candidates:
        if dot(n, d) > 0 and all(dot(h.normal, d) <= 0 for h in halfspaces):
            return None
    best = max((dot(n, p) for p in _vertices(halfspaces)), default=None)
    if best is None:
        # no vertex: a single active constraint line; optimum on its boundary
        for h in halfspaces:
            a, b = h.normal
            # maximize n . u on the line a ux + b uy = offset if n || normal
            if a * n[1] == b * n[0] and (a * n[0] + b * n[1]) > 0:
                scale = Fraction(n[0], a) if a else Fraction(n[1], b)
                val = h.offset * scale
                if best is None or val < best:
                    best = val
    return best


# ---------------------------------------------------------------------------
# Site energies


def _neighbor_slots(x, keys, torus: TorusInfo | None):
    """(neighbor key, holonomy shift, edge, orientation) per neighbor of x.

    Orientation +1 means x is the edge base and the neighbor's effective
    height is its height plus the shift; orientation -1 means x is the head
    and the shift is subtracted.  Only neighbors in ``keys`` count.  On the
    2-torus the same neighbor sits on both sides through distinct parallel
    edges, and both are counted.
    """
    slots = []
    h = torus.holonomy() if torus is not None else None
    for axis in (0, 1):
        raw = add(x, AXIS_VECTORS[axis])
        key = torus.wrap(raw) if torus is not None else raw
        if key in keys and key != x:  # self-loops contribute a constant
            delta = h[axis] if (torus is not None and key != raw) else 0
            slots.append((key, delta, (x, axis), +1))
        raw = sub(x, AXIS_VECTORS[axis])
        key = torus.wrap(raw) if torus is not None else raw
        if key in keys and key != x:
            delta = h[axis] if (torus is not None and key != raw) else 0
            slots.append((key, delta, (key, axis), -1))
    return slots


def _neighbor_terms(pot, values, x, torus: TorusInfo | None):
    """(edge potential, effective neighbor height, orientation) per neighbor
    in ``values``: the energy term at height a is V(h - a) for orientation
    +1 and V(a - h) for -1."""
    return [
        (pot.edge_potential(edge), values[key] + delta if orient > 0 else values[key] - delta, orient)
        for key, delta, edge, orient in _neighbor_slots(x, values, torus)
    ]


def _local_energy(terms, a) -> float:
    """Energy of the terms' edges with the site at height a."""
    total = 0.0
    for pot, h, orient in terms:
        e = pot(h - a) if orient > 0 else pot(a - h)
        if e == INF:
            return INF
        total += e
    return total


def _torus_energy(pot, config) -> float:
    """Energy of all 2 n^2 edges of a torus config."""
    total = 0.0
    for v in config.values:
        for axis in (0, 1):
            total += pot.edge_energy((v, axis), config.increment(v, axis))
    return total


def _energy_table(pot):
    """(lo, table) of a discrete Lipschitz potential, built once per
    potential: table[axis, r, 1 + k - lo] is the energy of the edge class
    (axis, r-th fundamental-domain vertex) at increment k, for k from the
    least to the greatest increment bound, with a +inf entry at each end,
    so a lookup clipped to the table gives +inf outside every support."""
    memo = pot._memo("_energy_table")
    if "table" not in memo:
        pots = [[pot.class_potentials[(axis, r)] for r in pot.lattice.fundamental_domain()] for axis in (0, 1)]
        lo = min(int(p.support()[0]) for row in pots for p in row)
        hi = max(int(p.support()[1]) for row in pots for p in row)
        memo["table"] = lo, np.array([[[INF] + [p(k) for k in range(lo, hi + 1)] + [INF] for p in row] for row in pots])
    return memo["table"]


# ---------------------------------------------------------------------------
# Exact enumeration and ground states


def _value_windows(pot, plan, pins, keys):
    """Per-key height ranges [ceil(min ext), floor(max ext)] of the pinned
    heights on the plan (``FeasibilityGraph.extensions``); every
    finite-energy config lies within them.  Memoized in ``plan.windows``
    under the sorted pins, so the keys must be the same on every call for a
    plan."""
    key = tuple(sorted(pins.items()))
    if key not in plan.windows:
        if not (pot.discrete and pot.is_lipschitz()):
            raise StateSpaceTooLarge("exact methods need a discrete Lipschitz potential")
        top, bot = plan.extensions(pins)
        plan.windows[key] = {v: range(math.ceil(bot[v]), math.floor(top[v]) + 1) for v in keys}
    return plan.windows[key]


def enumerate_region_configs(pot, region, boundary, node_budget: int = 10_000_000):
    """Yield (values, energy) over all finite-energy interior configs.

    ``values`` maps interior vertices to heights; the energy sums every edge
    meeting the region, with boundary heights fixed.
    """
    region = sorted(region)
    boundary = dict(boundary)
    windows = _region_windows(pot, region, boundary)
    order = _propagation_order(region, set(boundary))
    yield from _search(pot, None, order, boundary, 0.0, windows, node_budget)


def _propagation_order(region, anchors):
    """Order interior vertices so each touches an earlier or boundary vertex."""
    remaining = set(region)
    order = []
    frontier = set(anchors)
    while remaining:
        nxt = sorted(
            v for v in remaining if any(w in frontier for w in neighbors(v))
        )
        if not nxt:  # disconnected piece; take the smallest vertex
            nxt = [min(remaining)]
        v = nxt[0]
        order.append(v)
        remaining.remove(v)
        frontier.add(v)
    return order


def _search(pot, torus, order, known, energy, windows, node_budget, best=None):
    """Yield ({v: height for v in order}, energy) over every assignment of
    the order's sites with finite energy, given the heights in ``known``
    and the base energy; the energy adds the edges from each site to the
    known and earlier sites.

    An iterative depth-first search, so the order may be of any length.
    Each node tries every height of its site's window, one node of the
    budget each, and raises StateSpaceTooLarge once the budget is spent.
    Heights are tried in window order, so leaves come in ascending
    lexicographic order of their heights along the order.  With ``best``,
    a one-element list holding a cutoff, heights are tried cheapest first
    and a branch whose energy reaches the cutoff is cut: branch-and-bound,
    with the caller lowering the cutoff at each leaf.  Partial energies
    never decrease, as normalized edge potentials are nonnegative.
    """
    depth = len(order)
    seen = set(known)
    slots = []  # per depth: (edge potential, neighbor, shift, orientation)
    for v in order:
        slots.append([(pot.edge_potential(edge), key, delta, orient) for key, delta, edge, orient in _neighbor_slots(v, seen, torus)])
        seen.add(v)
    values = dict(known)
    energies = [energy] * (depth + 1)
    pending = [None] * depth  # per depth: the untried (site energy, height) pairs, last first
    cutoff = [INF] if best is None else best
    budget = node_budget
    d = 0
    while d >= 0:
        if d == depth:
            yield {v: values[v] for v in order}, energies[d]
            d -= 1
            continue
        todo = pending[d]
        if todo is None:
            window = windows[order[d]]
            budget -= len(window)
            if budget < 0:
                raise StateSpaceTooLarge(f"exact search exhausted its node budget {node_budget}")
            terms = [(p, values[key] + delta if orient > 0 else values[key] - delta, orient) for p, key, delta, orient in slots[d]]
            e = energies[d]
            todo = pending[d] = [(de, a) for a in window if e + (de := _local_energy(terms, a)) < cutoff[0]]
            if best is None:
                todo.reverse()
            else:
                todo.sort(reverse=True)
        if todo and energies[d] + todo[-1][0] < cutoff[0]:
            de, a = todo.pop()
            values[order[d]] = a
            energies[d + 1] = energies[d] + de
            d += 1
        else:
            pending[d] = None
            d -= 1


def _wave_schedule(plan, order):
    """The order's positions grouped into waves, as (positions, sites,
    neighbors, shifts, sig) arrays per wave of a Plan.
    A position's wave is one more than the highest wave among earlier
    positions at the same site or a neighbor, so no two sites of a wave are
    neighbors and updating wave by wave equals updating in order: even tori
    take 2 waves.  Raises KeyError for a vertex the plan cannot sweep."""
    sites = [plan.index[v] for v in order]
    latest = [-1] * len(plan.sites)
    nbrs = plan.nbr.tolist()
    wave = []
    for k in sites:
        a, b, c, d = nbrs[k]
        if min(a, b, c, d) < 0:
            raise KeyError(plan.sites[k])
        latest[k] = w = 1 + max(latest[k], latest[a], latest[b], latest[c], latest[d])
        wave.append(w)
    by_wave = np.argsort(wave, kind="stable")
    sites = np.array(sites, dtype=np.int64)[by_wave]
    ends = np.cumsum(np.bincount(wave)).tolist() if wave else []
    return tuple(
        (by_wave[lo:hi], sites[lo:hi], plan.nbr[sites[lo:hi]], plan.shift[sites[lo:hi]], plan.sig[sites[lo:hi]])
        for lo, hi in zip([0] + ends[:-1], ends)
    )


class Plan(FeasibilityGraph):
    """A torus slope class, or a region with its boundary vertices, as
    arrays: built once per potential by ``_torus_plan`` or ``_region_plan``
    and shared by height windows, torus feasibility, chain starts, heat-bath
    sweeps, CFTP, region enumeration and the distance tables of
    ``FeasibilityGraph.from_potential``.

    The builders give ``sites`` (the vertex of each index, also the graph's
    ``vertices``), the free sites (those a sweep updates) and, per site in
    the slot order of ``_neighbor_slots`` (+e1, -e1, +e2, -e2), ``nbr``, the
    neighbor index or -1 for none, and ``shift``, the holonomy shift added
    to the neighbor's height.  The rest is derived the same way for both:
    ``sig``, the index of each site modulo the period lattice in its
    fundamental domain, which fixes the edge class of every slot;
    ``forward`` and ``reverse``, the in-arc tables (``_InArcs``) of the
    increment-bound arcs and of the reversed arcs, whose row v lists the
    neighbors of v as tails in slot order, a missing neighbor as the
    padding tail N; parallel arcs of the 2-torus and the
    self-loops of the 1-torus stay separate, which changes no distance.
    ``order`` is the checkerboard order of the free sites and ``waves`` its
    wave schedule (``_wave_schedule``), None when a free site lacks a
    neighbor; a chain with several rows repeats it for each row
    (``sampler._copied_waves``).  ``windows`` maps sorted pins to the height
    windows of ``_value_windows``; ``start`` is filled by ``_torus_start``.
    """

    def __init__(self, pot: PeriodicPotential, sites, nbr, shift, free):
        self.sites, self.nbr, self.shift = sites, nbr, shift
        self.index = {v: k for k, v in enumerate(sites)}
        lat = pot.lattice
        i, j = np.array(sites, dtype=np.int64).reshape(-1, 2).T
        self.sig = lat.cell(i, j)
        bounds = np.array([[pot.class_potentials[(axis, d)].support() for d in lat.fundamental_domain()] for axis in (0, 1)], dtype=float)
        ends = bounds[[0, 0, 1, 1], np.stack([self.sig, lat.cell(i - 1, j), self.sig, lat.cell(i, j - 1)], axis=1)]
        # phi(neighbor) + shift - phi(v) lies in [low, high]: the class's
        # support on the +e slots, its negation on the -e slots
        plus = np.array([True, False, True, False])
        low = np.where(plus, ends[..., 0], -ends[..., 1])
        high = np.where(plus, ends[..., 1], -ends[..., 0])
        size = len(sites)
        src = np.where(nbr < 0, size, nbr)
        forward, reverse = (_InArcs(sites, self.index, src, w) for w in (shift - low, high - shift))
        super().__init__(sites, forward, reverse)
        self.order = tuple(checkerboard_order(free))
        try:
            self.waves = _wave_schedule(self, self.order)
        except KeyError:
            self.waves = None
        self.windows = {}
        self.start = None


def _torus_plan(pot: PeriodicPotential, info: TorusInfo) -> Plan:
    """The potential's plan of the torus and slope class of ``info``.
    Vertex (i, j) has index i * n + j, so ``sites`` is sorted and the
    reference x0 = (0, 0), the one site that is not free, is index 0."""
    plans = pot._memo("_torus_plans")
    key = (info.n, info.slope)
    if key not in plans:
        n, h = info.n, info.holonomy()
        i, j = np.divmod(np.arange(n * n, dtype=np.int64), n)
        nbr = np.stack([(i + 1) % n * n + j, (i - 1) % n * n + j, i * n + (j + 1) % n, i * n + (j - 1) % n], axis=1)
        # the +e_axis neighbor wraps at coordinate n - 1, the -e_axis one at 0
        shift = np.stack([(i == n - 1) * h[0], (i == 0) * -h[0], (j == n - 1) * h[1], (j == 0) * -h[1]], axis=1)
        sites = [(a, b) for a in range(n) for b in range(n)]
        plans[key] = Plan(pot, sites, nbr, shift, sites[1:])
    return plans[key]


def _region_plan(pot: PeriodicPotential, region, boundary) -> Plan:
    """The potential's plan of the sorted region and the boundary vertices;
    boundaries that differ only in their heights share it.  ``sites`` lists
    the region, then the boundary vertices outside it, and the region is
    free.  Region rows list their neighbors in region | boundary, boundary
    rows only their region neighbors: an edge joining two boundary vertices
    has a fixed energy, so it vetoes nothing."""
    plans = pot._memo("_region_plans")
    key = (tuple(region), tuple(sorted(boundary)))
    if key not in plans:
        inside = set(region)
        sites = list(region) + [v for v in key[1] if v not in inside]
        index = {v: k for k, v in enumerate(sites)}
        rows = [[index.get(w, -1) if v in inside or w in inside else -1 for w in neighbors(v)] for v in sites]
        nbr = np.array(rows, dtype=np.int64).reshape(-1, 4)
        plans[key] = Plan(pot, sites, nbr, np.zeros_like(nbr), region)
    return plans[key]


def _region_windows(pot, region, boundary):
    """``_value_windows`` of the sorted region under the boundary heights
    on its plan."""
    return _value_windows(pot, _region_plan(pot, region, boundary), boundary, region)


def _torus_frame(pot, n: int, slope):
    """The slope class on the n-torus, pinned at the origin x0 = (0, 0).

    Returns (info, windows, order, base_energy): per-vertex height ranges
    [-D(v, x0), D(x0, v)] holding every finite-energy config, the other
    vertices in sorted order, and the energy of the x0 self-loops, which
    only exist at n = 1.  The windows come from the plan's relaxation.
    Raises Infeasible for an empty class (x0 reaches every negative cycle,
    as all arcs of a Lipschitz torus are finite).
    """
    info = torus_info(pot, n, slope)
    plan = _torus_plan(pot, info)
    x0 = (0, 0)
    try:
        windows = _value_windows(pot, plan, {x0: 0}, plan.sites)
    except (Infeasible, NegativeCycle):
        raise Infeasible(f"slope {slope} on the {n}-torus") from None
    h = info.holonomy()
    base_energy = 0.0
    for axis in (0, 1):
        if info.wrap(add(x0, AXIS_VECTORS[axis])) == x0:
            base_energy += pot.edge_energy((x0, axis), h[axis])
    return info, windows, plan.sites[1:], base_energy


def enumerate_torus_configs(pot, n: int, slope, node_budget: int = 10_000_000):
    """Yield (values, energy) over the slope homology class on the n-torus.

    ``values`` maps fundamental-domain vertices to heights pinned at the
    origin; the energy sums all 2 n^2 torus edges.
    """
    info, windows, order, base_energy = _torus_frame(pot, n, slope)
    if base_energy == INF:
        return
    for values, energy in _search(pot, info, order, {(0, 0): 0}, base_energy, windows, node_budget):
        yield {(0, 0): 0, **values}, energy


def ground_state_energy(pot: PeriodicPotential, n: int, slope, node_budget: int = 10_000_000):
    """Exact chi(u) = min energy over the slope class, with one minimizer:
    ``_search`` with a cutoff lowered to the energy of each leaf, so the
    last leaf is a minimizer."""
    info, windows, order, base_energy = _torus_frame(pot, n, slope)
    best, witness = [INF], None
    if base_energy < INF:
        for witness, energy in _search(pot, info, order, {(0, 0): 0}, base_energy, windows, node_budget, best):
            best[0] = energy
    if witness is None:
        raise Infeasible(f"slope {slope} on the {n}-torus")
    return best[0], HeightConfig({(0, 0): 0, **witness}, reference=(0, 0), torus=info)
