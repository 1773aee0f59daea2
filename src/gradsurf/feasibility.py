"""Feasibility of height data: increment bounds, shortest paths, polytopes.

An edge whose potential is finite exactly on [lo, hi] constrains the
increment phi(head) - phi(base) to that interval.  Shortest-path distances
in the induced arc-weighted digraph decide which partial height functions
extend to finite-energy configurations and which slopes are achievable on
tori; enumerating torus cycles yields the allowed-slope polytope.
"""

from __future__ import annotations

import itertools
import math
import sys
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
    edge_head,
    edges_meeting,
    edges_within,
    neighbors,
    round_slope,
    sub,
)
from .potential import INF, PeriodicPotential

Arc = tuple[Vertex, Vertex]


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
# Arc-weighted digraphs and Bellman-Ford


@dataclass
class FeasibilityGraph:
    """Directed increment-bound graph."""

    vertices: list[Vertex]
    adjacency: dict[Vertex, list[tuple[Vertex, float]]]

    @staticmethod
    def from_arcs(
        arcs: Mapping[Arc, float], vertices: Iterable[Vertex] | None = None
    ) -> "FeasibilityGraph":
        """Graph on the given vertices (default: the arc endpoints)."""
        if vertices is None:
            vertices = {v for arc in arcs for v in arc}
        vertices = sorted(vertices)
        adjacency: dict[Vertex, list[tuple[Vertex, float]]] = {v: [] for v in vertices}
        for (x, y), w in sorted(arcs.items()):
            adjacency[x].append((y, w))
        return FeasibilityGraph(vertices, adjacency)

    @staticmethod
    def from_potential(pot: PeriodicPotential, region: Iterable[Vertex]) -> "FeasibilityGraph":
        """Arcs for every edge with both endpoints in the region."""
        return FeasibilityGraph.from_arcs(_edge_arcs(pot, edges_within(region)))

    @staticmethod
    def from_torus(pot: PeriodicPotential, n: int, slope) -> "FeasibilityGraph":
        """Arcs on the n-torus for the homology class of the given slope.

        Wrap edges absorb the holonomy shift n*u'_i, so distances refer to
        the quasi-periodic lift phi(v + n e_i) = phi(v) + n u'_i.
        """
        info = torus_info(pot, n, slope)
        h = info.holonomy()
        vertices = [(i, j) for i in range(n) for j in range(n)]
        arcs: dict[Arc, float] = {}
        for x in vertices:
            for axis in (0, 1):
                lo, hi = pot.edge_potential((x, axis)).support()
                raw_head = add(x, AXIS_VECTORS[axis])
                head = info.wrap(raw_head)
                delta = h[axis] if raw_head != head else 0
                up = hi - delta
                down = delta - lo
                # parallel arcs can coincide on small tori; keep the tighter bound
                a1, a2 = (x, head), (head, x)
                arcs[a1] = min(arcs.get(a1, INF), up)
                arcs[a2] = min(arcs.get(a2, INF), down)
        return FeasibilityGraph.from_arcs(arcs, vertices)

    def reversed(self) -> "FeasibilityGraph":
        """Every arc flipped, so distances_from(x) gives D(., x)."""
        radj: dict[Vertex, list[tuple[Vertex, float]]] = {v: [] for v in self.vertices}
        for x, outs in self.adjacency.items():
            for y, w in outs:
                radj[y].append((x, w))
        return FeasibilityGraph(self.vertices, radj)

    def extensions(self, partial: Mapping[Vertex, float]):
        """Maximal and minimal extension heights of the partial heights."""
        return extend_boundary(self, partial).values, extend_boundary_min(self, partial).values

    def distances_from(self, source: Vertex) -> dict[Vertex, float]:
        dist, _, cycle = _bellman_ford(self.vertices, self.adjacency, {source: 0.0})
        if cycle is not None:
            raise NegativeCycle(*cycle)
        return dist

    def negative_cycle(self):
        """A witness negative cycle (vertex list, weight) or None."""
        init = {v: 0 for v in self.vertices}  # virtual super-source
        _, _, cycle = _bellman_ford(self.vertices, self.adjacency, init)
        return cycle


def _edge_arcs(pot: PeriodicPotential, edges: Iterable[Edge]) -> dict[Arc, float]:
    """Up and down increment bounds of each edge as a pair of arcs."""
    arcs: dict[Arc, float] = {}
    for edge in edges:
        base, axis = edge
        head = add(base, AXIS_VECTORS[axis])
        b = increment_bounds(pot, edge)
        arcs[(base, head)] = b.up
        arcs[(head, base)] = b.down
    return arcs


def _region_graph(pot: PeriodicPotential, region, boundary) -> FeasibilityGraph:
    """Graph of a region with fixed boundary heights.

    Vertices are region | boundary; arcs come from the edges meeting the
    region.  An edge joining two boundary vertices has a fixed energy and is
    left out, so it cannot veto the interior.
    """
    universe = set(region) | set(boundary)
    edges = [e for e in edges_meeting(region) if e[0] in universe and edge_head(e) in universe]
    return FeasibilityGraph.from_arcs(_edge_arcs(pot, edges), universe)


def _bellman_ford(vertices, adjacency, init):
    """Relaxation from the initialized vertices.

    Returns (dist, pred, cycle) where cycle is (canonical vertex list
    closing on its start, total weight) when a negative cycle is reachable,
    else None.
    """
    dist = {v: INF for v in vertices}
    pred: dict[Vertex, Vertex | None] = {v: None for v in vertices}
    for v, d in init.items():
        dist[v] = d
    n = len(vertices)
    for rounds in range(n):
        changed = False
        for x in vertices:
            dx = dist[x]
            if dx == INF:
                continue
            for y, w in adjacency[x]:
                if w == INF:
                    continue
                cand = dx + w
                if cand < dist[y]:
                    dist[y] = cand
                    pred[y] = x
                    changed = True
        if not changed:
            return dist, pred, None
    # a relaxation on round n witnesses a negative cycle; trace it via pred
    for x in vertices:
        if dist[x] == INF:
            continue
        for y, w in adjacency[x]:
            if w != INF and dist[x] + w < dist[y]:
                pred[y] = x
                return dist, pred, _trace_cycle(pred, y, adjacency, n)
    return dist, pred, None


def _trace_cycle(pred, start, adjacency, n):
    # walk back n steps to guarantee landing on the cycle itself
    v = start
    for _ in range(n):
        v = pred[v]
    cycle = [v]
    w = pred[v]
    while w != v:
        cycle.append(w)
        w = pred[w]
    cycle.reverse()  # pred-walk runs against arc direction
    # canonicalize: start at the lexicographically smallest vertex
    k = cycle.index(min(cycle))
    cycle = cycle[k:] + cycle[:k]
    cycle.append(cycle[0])
    weight = 0
    for a, b in zip(cycle, cycle[1:]):
        weight += min(w for y, w in adjacency[a] if y == b)
    return cycle, weight


def shortest_distances(graph: FeasibilityGraph, sources: Iterable[Vertex]) -> dict[Vertex, dict[Vertex, float]]:
    """D(source, .) for each source; raises NegativeCycle with a witness."""
    cycle = graph.negative_cycle()
    if cycle is not None:
        raise NegativeCycle(*cycle)
    return {s: graph.distances_from(s) for s in sources}


def distances_csv(distances: dict) -> list[str]:
    """CSV rows for a distance table from shortest_distances."""
    rows = ["source_x,source_y,target_x,target_y,distance"]
    for s in sorted(distances):
        for t in sorted(distances[s]):
            rows.append(f"{s[0]},{s[1]},{t[0]},{t[1]},{distances[s][t]}")
    return rows


# ---------------------------------------------------------------------------
# Boundary extension


def extend_boundary(graph: FeasibilityGraph, partial: Mapping[Vertex, float]) -> HeightConfig:
    """Pointwise-maximal finite-energy extension, min over pinned x of
    phi(x) + D(x, v), from one Bellman-Ford pass seeded with the pins.

    Raises NegativeCycle for a negative cycle the pins reach, then
    Infeasible((x, y)) when D(x, y) < phi(y) - phi(x) for pinned x, y, then
    Infeasible(v) for a vertex no pin reaches."""
    if not partial:
        raise ValueError("partial assignment must be nonempty")
    seed = {x: float(partial[x]) for x in partial}
    dist, pred, cycle = _bellman_ford(graph.vertices, graph.adjacency, seed)
    if cycle is not None:
        raise NegativeCycle(*cycle)
    for y in sorted(partial):
        if dist[y] < seed[y]:
            x = pred[y]  # the pred chain starts at a pin the pass never lowered
            while pred[x] is not None:
                x = pred[x]
            raise Infeasible((x, y))
    for v in graph.vertices:
        if dist[v] == INF:
            raise Infeasible(v)
    return HeightConfig(dist, reference=min(partial))


def extend_boundary_min(graph: FeasibilityGraph, partial: Mapping[Vertex, float]) -> HeightConfig:
    """Pointwise-minimal extension, max over pinned x of phi(x) - D(v, x):
    the negated maximal extension of the reversed graph with negated pins.
    Error witnesses refer to the reversed graph."""
    top = extend_boundary(graph.reversed(), {x: 0.0 - h for x, h in partial.items()})
    return HeightConfig({v: 0.0 - h for v, h in top.values.items()}, reference=top.reference)


# ---------------------------------------------------------------------------
# Torus slope feasibility


def torus_info(pot: PeriodicPotential, n: int, slope) -> TorusInfo:
    """Validate torus side and round the slope for the discrete domain."""
    lat = pot.lattice
    if lat.reduce((n, 0)) != (0, 0) or lat.reduce((0, n)) != (0, 0):
        raise ValueError(f"torus side {n} is not a multiple of the period")
    if pot.discrete:
        u = round_slope(slope, n)
    else:
        u = (
            Fraction(slope[0]).limit_denominator(10**9),
            Fraction(slope[1]).limit_denominator(10**9),
        )
    return TorusInfo(n=n, slope=u)


def torus_slope_feasible(pot: PeriodicPotential, n: int, slope) -> bool:
    """True iff slope-class configurations of finite energy exist on T_n."""
    graph = FeasibilityGraph.from_torus(pot, n, slope)
    return graph.negative_cycle() is None


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
    feasible: bool = True  # False when a null-homotopic negative cycle exists
    truncated: bool = False  # a cycle at the enumeration length bound was binding

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
    """Per-vertex directed steps on Z^2 / L with exact weights."""
    lat = pot.lattice
    verts = sorted(lat.fundamental_domain())
    steps: dict[Vertex, list[tuple[Vertex, Vertex, object]]] = {v: [] for v in verts}
    exact = pot.discrete
    for v in verts:
        for axis in (0, 1):
            e = AXIS_VECTORS[axis]
            lo, hi = pot.edge_potential((v, axis)).support()
            back = sub(v, e)
            lo2, hi2 = pot.edge_potential((lat.reduce(back), axis)).support()
            for disp, w in (((e), hi), ((-e[0], -e[1]), -lo2)):
                if w == INF:
                    continue
                if exact:
                    w = Fraction(w) if w == int(w) else Fraction(w).limit_denominator(10**9)
                steps[v].append((lat.reduce(add(v, disp)), disp, w))
    return verts, steps


def allowed_slope_polytope(pot: PeriodicPotential, cycle_length_bound: int | None = None) -> SlopePolytope:
    """Polytope of slopes from non-self-intersecting fundamental-torus cycles.

    Cycles up to the length bound are enumerated; larger bounds can only
    shrink the polytope, and ``truncated`` flags a binding cycle at the
    bound exactly.
    """
    lat = pot.lattice
    if cycle_length_bound is None:
        cycle_length_bound = 4 * lat.diameter()
    verts, steps = _fundamental_torus_steps(pot)
    best: dict[tuple[int, int], tuple[object, tuple[Vertex, ...], int]] = {}
    feasible = True
    witness_path: list[Vertex] = []

    def record(disp: Vertex, weight, path: tuple[Vertex, ...], length: int):
        nonlocal feasible
        if disp == (0, 0):
            if weight < 0:
                feasible = False
            return
        g = math.gcd(abs(disp[0]), abs(disp[1]))
        normal = (disp[0] // g, disp[1] // g)
        offset = weight / g if not isinstance(weight, Fraction) else weight / g
        cur = best.get(normal)
        if cur is None or offset < cur[0]:
            best[normal] = (offset, path, length)

    def dfs(start: Vertex, v: Vertex, disp: Vertex, weight, path: tuple[Vertex, ...], visited: frozenset):
        if len(path) > cycle_length_bound:
            return
        for nxt, step_disp, w in steps[v]:
            nd = add(disp, step_disp)
            nw = weight + w
            if nxt == start:
                record(nd, nw, path, len(path))
            if len(path) < cycle_length_bound and nxt not in visited and nxt > start:
                dfs(start, nxt, nd, nw, path + (nxt,), visited | {nxt})

    for start in verts:
        dfs(start, start, (0, 0), Fraction(0) if pot.discrete else 0.0, (start,), frozenset([start]))

    halfspaces = [
        Halfspace(normal=n, offset=off, cycle=path + (path[0],))
        for n, (off, path, _) in sorted(best.items())
    ]
    kept = _prune_redundant(halfspaces)
    truncated = any(
        best[h.normal][2] == cycle_length_bound for h in kept if h.normal in best
    )
    return SlopePolytope(halfspaces=tuple(kept), feasible=feasible, truncated=truncated)


def _prune_redundant(halfspaces: list[Halfspace]) -> list[Halfspace]:
    """Drop halfspaces implied by the others (exact 2D reasoning)."""
    kept = list(halfspaces)
    changed = True
    while changed:
        changed = False
        for i, h in enumerate(kept):
            others = kept[:i] + kept[i + 1 :]
            m = _max_objective([o for o in others], h.normal)
            if m is not None and m <= h.offset:
                kept.pop(i)
                changed = True
                break
    return kept


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
    best = None
    for h1, h2 in itertools.combinations(halfspaces, 2):
        det = h1.normal[0] * h2.normal[1] - h1.normal[1] * h2.normal[0]
        if det == 0:
            continue
        ux = Fraction(h1.offset * h2.normal[1] - h2.offset * h1.normal[1], det)
        uy = Fraction(h1.normal[0] * h2.offset - h2.normal[0] * h1.offset, det)
        if all(dot(h.normal, (ux, uy)) <= h.offset for h in halfspaces):
            val = dot(n, (ux, uy))
            if best is None or val > best:
                best = val
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


# ---------------------------------------------------------------------------
# Exact enumeration and ground states


def _value_windows(pot, graph, partial, keys):
    """Per-key height ranges [ceil(min ext), floor(max ext)] of the partial
    heights on the graph (a FeasibilityGraph or a TorusPlan); every
    finite-energy config lies within them."""
    if not (pot.discrete and pot.is_lipschitz()):
        raise StateSpaceTooLarge("exact methods need a discrete Lipschitz potential")
    top, bot = graph.extensions(partial)
    return {v: range(math.ceil(bot[v]), math.floor(top[v]) + 1) for v in keys}


def enumerate_region_configs(pot, region, boundary, node_budget: int = 10_000_000):
    """Yield (values, energy) over all finite-energy interior configs.

    ``values`` maps interior vertices to heights; the energy sums every edge
    meeting the region, with boundary heights fixed.
    """
    region = sorted(region)
    boundary = dict(boundary)
    windows = _value_windows(pot, _region_graph(pot, region, boundary), boundary, region)
    order = _propagation_order(region, set(boundary))
    yield from _search(pot, None, order, order, dict(boundary), 0.0, windows, node_budget)


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


def _search(pot, torus, order, keys, known, energy, windows, node_budget):
    """_dfs from the first site of the order.  The search recurses once per
    site; an order too deep for the interpreter's recursion limit raises
    StateSpaceTooLarge naming the depth needed."""
    try:
        yield from _dfs(pot, torus, order, keys, 0, known, energy, windows, [node_budget])
    except RecursionError:
        raise StateSpaceTooLarge(
            f"enumeration needs recursion depth {len(order)}, "
            f"beyond the interpreter limit {sys.getrecursionlimit()}"
        ) from None


def _dfs(pot, torus, order, keys, idx, known, energy, windows, budget):
    """Yield ({k: height for k in keys}, energy) over every assignment of
    order[idx:] with finite energy, given the heights in ``known``."""
    if idx == len(order):
        yield {k: known[k] for k in keys}, energy
        return
    v = order[idx]
    terms = _neighbor_terms(pot, known, v, torus)
    for a in windows[v]:
        budget[0] -= 1
        if budget[0] < 0:
            raise StateSpaceTooLarge("enumeration node budget exhausted")
        de = _local_energy(terms, a)
        if de == INF:
            continue
        known[v] = a
        yield from _dfs(pot, torus, order, keys, idx + 1, known, energy + de, windows, budget)
        del known[v]


class TorusPlan:
    """The slope class on the n-torus as arrays, built once per potential, n
    and slope (``_torus_plan``) and shared by the torus frame, chain starts
    and heat-bath sweeps.

    Vertex (i, j) has index i * n + j, so ``sites`` is sorted and the
    reference x0 = (0, 0) is index 0.  Per vertex, in the slot order of
    ``_neighbor_slots`` (+e1, -e1, +e2, -e2), ``nbr`` holds the wrapped
    neighbor indices and ``shift`` the signed holonomy shifts added to their
    heights; ``sig`` is the index of the vertex modulo the period lattice
    in its fundamental domain.  When n is a multiple of the period
    (``periodic``, as ``torus_info`` requires), that index fixes the edge
    class of every slot.  Row v of ``arc_src``/``arc_w`` holds the tails
    and weights of the four increment-bound arcs into vertex v, and row
    N + v those into v in the reversed graph (the arcs out of v); parallel
    arcs of the 2-torus and the self-loops of the 1-torus stay separate,
    which changes no distance.  ``order`` is the checkerboard order of the
    free sites (all but x0) and ``waves`` its wave schedule
    (``wave_schedule``).  ``windows`` and ``start`` are filled by their
    first users.
    """

    def __init__(self, pot: PeriodicPotential, info: TorusInfo):
        n = info.n
        self.info, self.n = info, n
        self.sites = [(i, j) for i in range(n) for j in range(n)]
        self.index = {v: k for k, v in enumerate(self.sites)}
        i, j = np.divmod(np.arange(n * n, dtype=np.int64), n)
        self.nbr = np.stack([(i + 1) % n * n + j, (i - 1) % n * n + j, i * n + (j + 1) % n, i * n + (j - 1) % n], axis=1)
        h = info.holonomy()
        # the +e_axis neighbor wraps at coordinate n - 1, the -e_axis one at 0
        self.shift = np.stack([(i == n - 1) * h[0], (i == 0) * -h[0], (j == n - 1) * h[1], (j == 0) * -h[1]], axis=1)
        # each vertex's base modulo the period lattice, as an index into its
        # fundamental domain
        lat = pot.lattice
        self.periodic = lat.reduce((n, 0)) == (0, 0) == lat.reduce((0, n))
        domain = lat.fundamental_domain()
        row = i // lat.a
        self.sig = (i - row * lat.a) * lat.b + (j - row * lat.c) % lat.b
        bounds = np.array([[pot.class_potentials[(axis, d)].support() for d in domain] for axis in (0, 1)], dtype=float)
        lo, hi = bounds[:, self.sig, 0].T, bounds[:, self.sig, 1].T
        # arc x -> x + e_axis bounds the increment by hi - shift, the reverse
        # arc bounds its negation by shift - lo
        up = hi - self.shift[:, 0::2]
        down = self.shift[:, 0::2] - lo
        minus = self.nbr[:, 1::2]
        into = np.stack([up[minus[:, 0], 0], down[:, 0], up[minus[:, 1], 1], down[:, 1]], axis=1)
        out_of = np.stack([up[:, 0], down[minus[:, 0], 0], up[:, 1], down[minus[:, 1], 1]], axis=1)
        self.arc_src = np.concatenate([self.nbr[:, [1, 0, 3, 2]], self.nbr + n * n])
        self.arc_w = np.concatenate([into, out_of])
        self.order = tuple(checkerboard_order(self.sites[1:]))
        self.waves = self.wave_schedule(self.order)
        self.windows = None
        self.start = None

    def wave_schedule(self, order):
        """The order's positions grouped into waves, as (positions, sites,
        neighbors, shifts, sig) arrays per wave.  A position's wave is one
        more than the highest wave among earlier positions at the same site
        or a neighbor, so no two sites of a wave are neighbors and updating
        wave by wave equals updating in order: even tori take 2 waves.
        Raises KeyError for a vertex not on the torus."""
        sites = [self.index[v] for v in order]
        latest = [-1] * len(self.sites)
        nbrs = self.nbr.tolist()
        wave = []
        for k in sites:
            a, b, c, d = nbrs[k]
            latest[k] = w = 1 + max(latest[k], latest[a], latest[b], latest[c], latest[d])
            wave.append(w)
        by_wave = np.argsort(wave, kind="stable")
        sites = np.array(sites, dtype=np.int64)[by_wave]
        ends = np.cumsum(np.bincount(wave)).tolist() if wave else []
        return tuple(
            (by_wave[lo:hi], sites[lo:hi], self.nbr[sites[lo:hi]], self.shift[sites[lo:hi]], self.sig[sites[lo:hi]])
            for lo, hi in zip([0] + ends[:-1], ends)
        )

    def extensions(self, partial: Mapping[Vertex, float]):
        """Maximal and minimal extension heights of the partial heights, by
        relaxing all arcs of both directions at once in numpy; raises
        Infeasible when the relaxation still changes after one round per
        vertex (a negative cycle) or lowers a pinned height."""
        size = len(self.sites)
        pins = [self.index[v] for v in partial]
        heights = [float(h) for h in partial.values()]
        pins = np.array(pins + [k + size for k in pins], dtype=np.int64)
        heights = np.array(heights + [0.0 - h for h in heights])
        dist = np.full(2 * size, INF)
        dist[pins] = heights
        for _ in range(size):
            reach = (dist[self.arc_src] + self.arc_w).min(axis=1)
            if not (reach < dist).any():
                if (dist[pins] < heights).any():
                    raise Infeasible("the pinned heights violate an increment bound")
                top, bot = dist[:size].tolist(), np.subtract(0.0, dist[size:]).tolist()
                return dict(zip(self.sites, top)), dict(zip(self.sites, bot))
            dist = np.minimum(dist, reach)
        raise Infeasible(f"relaxation still changing after {size} rounds")


def _torus_plan(pot: PeriodicPotential, info: TorusInfo) -> TorusPlan:
    """The potential's plan of the torus and slope class of ``info``."""
    plans = pot._memo("_torus_plans")
    key = (info.n, info.slope)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = TorusPlan(pot, info)
    return plan


def _torus_frame(pot, n: int, slope):
    """The slope class on the n-torus, pinned at the origin x0 = (0, 0).

    Returns (info, windows, order, base_energy): per-vertex height ranges
    [-D(v, x0), D(x0, v)] holding every finite-energy config, the other
    vertices in sorted order, and the energy of the x0 self-loops, which
    only exist at n = 1.  The windows come from the plan's relaxation and
    are computed once per plan.  Raises Infeasible for an empty class (x0
    reaches every negative cycle, as all arcs of a Lipschitz torus are
    finite).
    """
    info = torus_info(pot, n, slope)
    plan = _torus_plan(pot, info)
    x0 = (0, 0)
    if plan.windows is None:
        try:
            plan.windows = _value_windows(pot, plan, {x0: 0}, plan.sites)
        except Infeasible:
            raise Infeasible(f"slope {slope} on the {n}-torus") from None
    h = info.holonomy()
    base_energy = 0.0
    for axis in (0, 1):
        if info.wrap(add(x0, AXIS_VECTORS[axis])) == x0:
            base_energy += pot.edge_energy((x0, axis), h[axis])
    return info, plan.windows, plan.sites[1:], base_energy


def enumerate_torus_configs(pot, n: int, slope, node_budget: int = 10_000_000):
    """Yield (values, energy) over the slope homology class on the n-torus.

    ``values`` maps fundamental-domain vertices to heights pinned at the
    origin; the energy sums all 2 n^2 torus edges.
    """
    info, windows, order, base_energy = _torus_frame(pot, n, slope)
    if base_energy == INF:
        return
    keys = [(0, 0)] + order
    known = {(0, 0): 0}
    yield from _search(pot, info, order, keys, known, base_energy, windows, node_budget)


def ground_state_energy(pot: PeriodicPotential, n: int, slope, node_budget: int = 10_000_000):
    """Exact chi(u) = min energy over the slope class, with one minimizer.

    Branch-and-bound: partial energies are monotone because normalized edge
    potentials are nonnegative, so any partial sum at or above the best
    known total can be cut; candidate heights are tried greedily.  The
    search recurses once per site; a torus too deep for the interpreter's
    recursion limit raises StateSpaceTooLarge naming the depth needed.
    """
    info, windows, order, base_energy = _torus_frame(pot, n, slope)
    x0 = (0, 0)
    known = {x0: 0}
    best = [INF, None]
    budget = [node_budget]

    def search(idx, energy):
        if idx == len(order):
            if energy < best[0]:
                best[0] = energy
                best[1] = dict(known)
            return
        v = order[idx]
        terms = _neighbor_terms(pot, known, v, info)
        candidates = []
        for a in windows[v]:
            budget[0] -= 1
            if budget[0] < 0:
                raise StateSpaceTooLarge("ground-state node budget exhausted")
            de = _local_energy(terms, a)
            if de < INF and energy + de < best[0]:
                candidates.append((de, a))
        candidates.sort()
        for de, a in candidates:
            if energy + de >= best[0]:
                break
            known[v] = a
            search(idx + 1, energy + de)
            del known[v]

    try:
        search(0, base_energy)
    except RecursionError:
        raise StateSpaceTooLarge(
            f"ground-state search needs recursion depth {len(order)}, "
            f"beyond the interpreter limit {sys.getrecursionlimit()}"
        ) from None
    if best[1] is None:
        raise Infeasible(f"slope {slope} on the {n}-torus")
    return best[0], HeightConfig(best[1], reference=x0, torus=info)
