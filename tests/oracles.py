"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive: exhaustive path enumeration,
backtracking over configurations, recurrence counting.  These never call
the implementation paths they are used to check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

INF = math.inf


def all_simple_path_distances(vertices, arcs):
    """D(x, y) by enumerating every simple path, for graphs of <= 9 vertices.

    ``arcs`` maps (x, y) -> weight.  Returns dict (x, y) -> min path weight,
    or None if some simple cycle is negative (distances undefined).
    """
    vertices = list(vertices)
    out_arcs = {}
    for (x, y), w in arcs.items():
        out_arcs.setdefault(x, []).append((y, w))
    # reject graphs with a negative simple cycle
    for start in vertices:
        stack = [(start, 0.0, {start})]
        while stack:
            v, wsum, seen = stack.pop()
            for y, w in out_arcs.get(v, []):
                if w == INF:
                    continue
                if y == start and wsum + w < 0:
                    return None
                if y not in seen and y != start:
                    stack.append((y, wsum + w, seen | {y}))
    dist = {}
    for x in vertices:
        best = {v: INF for v in vertices}
        best[x] = 0.0
        stack = [(x, 0.0, {x})]
        while stack:
            v, wsum, seen = stack.pop()
            for y, w in out_arcs.get(v, []):
                if w == INF or y in seen:
                    continue
                nw = wsum + w
                if nw < best[y]:
                    best[y] = nw
                stack.append((y, nw, seen | {y}))
        for y in vertices:
            dist[(x, y)] = best[y]
    return dist


def backtrack_tiling_count(squares):
    """Exhaustive matching count by plain backtracking over the square set:
    ``tilings.count_tilings_bruteforce``'s recurrence without its memo."""
    sq = frozenset(squares)

    def rec(uncovered):
        if not uncovered:
            return 1
        s = min(uncovered)
        total = 0
        for d in ((1, 0), (0, 1)):
            t = (s[0] + d[0], s[1] + d[1])
            if t in uncovered:
                total += rec(uncovered - {s, t})
        return total

    return rec(sq)


def enumerate_tilings(squares):
    """All perfect matchings of the square set, by backtracking."""
    sq = frozenset(squares)
    out = []

    def rec(uncovered, chosen):
        if not uncovered:
            out.append(frozenset(chosen))
            return
        s = min(uncovered)
        for d in ((1, 0), (0, 1)):
            t = (s[0] + d[0], s[1] + d[1])
            if t in uncovered:
                chosen.append(frozenset((s, t)))
                rec(uncovered - {s, t}, chosen)
                chosen.pop()

    rec(sq, [])
    return out


def fibonacci_tiling_count(n):
    """Number of domino tilings of a 2 x n strip (Fibonacci recurrence)."""
    if n <= 0:
        return 1
    a, b = 1, 1  # counts for widths 0 and 1
    for _ in range(n - 1):
        a, b = b, a + b
    return b


def bareiss_determinant(mat) -> int:
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


def count_tilings_bareiss(squares):
    """|det| of the dense Kasteleyn matrix by Bareiss: rows and columns are
    the black and white squares in plain sorted order, with the library's
    signs (column gauge and odd-hole rays).  0 for unequal colour classes."""
    from gradsurf.tilings import _odd_hole_rays, _vertical_sign

    squares = sorted(squares)
    black = [s for s in squares if (s[0] + s[1]) % 2 == 0]
    white = [s for s in squares if (s[0] + s[1]) % 2 == 1]
    if len(black) != len(white):
        return 0
    widx = {s: j for j, s in enumerate(white)}
    rays = _odd_hole_rays(frozenset(squares))
    mat = [[0] * len(black) for _ in black]
    for i, (x, y) in enumerate(black):
        for t, sign in (
            ((x + 1, y), 1),
            ((x - 1, y), 1),
            ((x, y + 1), _vertical_sign(x, y, rays)),
            ((x, y - 1), _vertical_sign(x, y - 1, rays)),
        ):
            if t in widx:
                mat[i][widx[t]] = sign
    return abs(bareiss_determinant(mat))


def temperley_fisher_log_count(m, n):
    """log of the number of domino tilings of an m x n box, from the
    Kasteleyn / Temperley-Fisher product over j <= ceil(m/2), k <= ceil(n/2)
    of 4cos^2(pi j/(m+1)) + 4cos^2(pi k/(n+1)), in floats."""
    return math.fsum(
        math.log(4 * math.cos(math.pi * j / (m + 1)) ** 2 + 4 * math.cos(math.pi * k / (n + 1)) ** 2)
        for j in range(1, (m + 1) // 2 + 1)
        for k in range(1, (n + 1) // 2 + 1)
    )


def transfer_matrix_strip_count(width, height):
    """Domino tilings of a (width x height)-square rectangle, column DP.

    State: bitmask of cells in the next column already covered by
    horizontal dominoes protruding out of the current column.
    """
    if (width * height) % 2:
        return 0

    def fills(occupied):
        res = []

        def rec(i, protrude):
            while i < width and (occupied >> i) & 1:
                i += 1
            if i == width:
                res.append(protrude)
                return
            rec(i + 1, protrude | (1 << i))  # horizontal domino to the right
            if i + 1 < width and not ((occupied >> (i + 1)) & 1):
                rec(i + 2, protrude)  # vertical domino inside the column

        rec(0, 0)
        return res

    state = {0: 1}
    for _ in range(height):
        new = {}
        for occ, cnt in state.items():
            for pro in fills(occ):
                new[pro] = new.get(pro, 0) + cnt
        state = new
    return state.get(0, 0)


def _support_width(pot):
    width = 0
    for p in pot.class_potentials.values():
        lo, hi = p.support()
        if lo == -INF or hi == INF:
            raise ValueError("oracle needs Lipschitz supports")
        width = max(width, int(max(abs(lo), abs(hi))))
    return width


def _vertex_windows(pot, region, boundary):
    """Per-vertex height windows wide enough to cover all feasible configs."""
    width = _support_width(pot)
    lo_b, hi_b = min(boundary.values()), max(boundary.values())
    windows = {}
    for v in region:
        dist = min(abs(v[0] - b[0]) + abs(v[1] - b[1]) for b in boundary)
        windows[v] = range(lo_b - width * dist, hi_b + width * dist + 1)
    return windows


def enumerate_feasible_configs(pot, region, boundary):
    """All finite-energy interior configs with their meeting-edge energies."""
    region = sorted(region)
    windows = _vertex_windows(pot, region, boundary)
    universe = dict(boundary)
    out = []
    for combo in itertools.product(*(windows[v] for v in region)):
        for v, h in zip(region, combo):
            universe[v] = h
        energy = _meeting_energy(pot, region, universe)
        if energy < INF:
            out.append((dict(zip(region, combo)), energy))
    return out


def exact_gibbs_distribution(pot, region, boundary):
    """Exact Gibbs weights over interior configs by direct enumeration."""
    configs = enumerate_feasible_configs(pot, region, boundary)
    states = [c for c, _ in configs]
    weights = [math.exp(-e) for _, e in configs]
    total = sum(weights)
    return states, [w / total for w in weights]


def torus_class_enumerate(pot, n, holonomy, window=4):
    """Independent torus-class enumeration with explicit wrap bookkeeping.

    Iterates heights on the fundamental domain (pinned at the origin) over
    a +-window box and checks all 2 n^2 edges directly.  Returns a list of
    (values, energy).
    """
    h1, h2 = holonomy
    verts = [(i, j) for i in range(n) for j in range(n)]
    free = [v for v in verts if v != (0, 0)]
    out = []
    for combo in itertools.product(range(-window, window + 1), repeat=len(free)):
        values = {(0, 0): 0}
        values.update(dict(zip(free, combo)))
        energy = 0.0
        ok = True
        for i, j in verts:
            for axis, (di, dj, hol) in enumerate(((1, 0, h1), (0, 1, h2))):
                ti, tj = i + di, j + dj
                shift = 0
                if ti >= n:
                    ti -= n
                    shift += hol
                if tj >= n:
                    tj -= n
                    shift += hol
                inc = values[(ti, tj)] + shift - values[(i, j)]
                e = pot.edge_energy(((i, j), axis), inc)
                if e == INF:
                    ok = False
                    break
                energy += e
            if not ok:
                break
        if ok:
            out.append((values, energy))
    return out


def _meeting_energy(pot, region, universe):
    """Energy of all edges with at least one endpoint in the region."""
    total = 0.0
    seen = set()
    for v in region:
        for axis in (0, 1):
            step = (1, 0) if axis == 0 else (0, 1)
            for base in (v, (v[0] - step[0], v[1] - step[1])):
                edge = (base, axis)
                if edge in seen:
                    continue
                head = (base[0] + step[0], base[1] + step[1])
                if base in universe and head in universe:
                    seen.add(edge)
                    e = pot.edge_energy(edge, universe[head] - universe[base])
                    if e == INF:
                        return INF
                    total += e
    return total


def transfer_matrix_log_z_loops(pot, n, slope):
    """Reference transfer matrix: the same column states as the library's
    log-space kernel, summed in linear space with explicit Python loops.

    Shares only ``_torus_frame`` (slope rounding, typed errors and the
    anchor windows) with the library.  A sum whose terms all underflow
    returns -inf, so it is exact only away from stiff potentials.
    """
    from gradsurf.errors import Infeasible
    from gradsurf.feasibility import _torus_frame

    try:
        info, windows, _, _ = _torus_frame(pot, n, slope)
    except Infeasible:
        return -INF
    h = info.holonomy()
    anchor_window = {c: windows[(c, 0)] for c in range(n)}

    def column_profiles(c):
        """Profiles d[0..n-1] with d[0] = 0 whose vertical edges are finite."""

        def profile_energy(prof):
            total = 0.0
            for j in range(n - 1):
                total += pot.edge_energy(((c, j), 1), prof[j + 1] - prof[j])
            return total

        out = []

        def rec(prefix):
            j = len(prefix)
            if j == n:
                # wrap edge (c, n-1) -> (c, 0): increment h2 - prefix[-1]
                e = pot.edge_energy(((c, n - 1), 1), h[1] - prefix[-1])
                if e < INF:
                    out.append((tuple(prefix), profile_energy(prefix) + e))
                return
            if j == 0:
                rec((0,))
                return
            lo, hi = pot.edge_potential(((c, j - 1), 1)).support()
            for inc in range(int(lo), int(hi) + 1):
                rec(prefix + (prefix[-1] + inc,))

        rec(())
        return out

    profiles = {c: column_profiles(c) for c in range(n)}

    def hor_weight(c, prof_a, anchor_a, prof_b, anchor_b, wrap):
        total = 0.0
        hol = h[0] if wrap else 0
        for j in range(n):
            inc = (anchor_b + prof_b[j] + hol) - (anchor_a + prof_a[j])
            e = pot.edge_energy(((c, j), 0), inc)
            if e == INF:
                return INF
            total += e
        return total

    z = 0.0
    for prof0, e0 in profiles[0]:
        # states: (profile, anchor); anchor of column 0 pinned to 0
        layer = {(prof0, 0): math.exp(-e0)}
        for c in range(1, n):
            nxt: dict = {}
            for (pa, aa), w in layer.items():
                for pb, eb in profiles[c]:
                    for ab in anchor_window[c]:
                        he = hor_weight(c - 1, pa, aa, pb, ab, wrap=False)
                        if he == INF:
                            continue
                        key = (pb, ab)
                        nxt[key] = nxt.get(key, 0.0) + w * math.exp(-(eb + he))
            layer = nxt
        # close the loop back to column 0 with the holonomy wrap
        for (pa, aa), w in layer.items():
            he = hor_weight(n - 1, pa, aa, prof0, 0, wrap=True)
            if he < INF:
                z += w * math.exp(-he)
    return math.log(z) if z > 0 else -INF


def torus_arcs(pot, n, slope):
    """The slope class on the n-torus as (vertices, arcs) of a dict graph:
    the reference for the torus plan's arcs.

    Wrap edges absorb the holonomy shift n*u'_i, so distances refer to
    the quasi-periodic lift phi(v + n e_i) = phi(v) + n u'_i.  Parallel
    arcs of small tori keep the tighter bound.
    """
    from gradsurf.feasibility import torus_info
    from gradsurf.lattice import AXIS_VECTORS, add

    info = torus_info(pot, n, slope)
    h = info.holonomy()
    vertices = [(i, j) for i in range(n) for j in range(n)]
    arcs = {}
    for x in vertices:
        for axis in (0, 1):
            lo, hi = pot.edge_potential((x, axis)).support()
            raw_head = add(x, AXIS_VECTORS[axis])
            head = info.wrap(raw_head)
            delta = h[axis] if raw_head != head else 0
            a1, a2 = (x, head), (head, x)
            arcs[a1] = min(arcs.get(a1, INF), hi - delta)
            arcs[a2] = min(arcs.get(a2, INF), delta - lo)
    return vertices, arcs


def bellman_ford(vertices, arcs, init):
    """Gauss-Seidel Bellman-Ford over dict adjacency lists built from the
    arcs, each list sorted by head, relaxing the vertices in list order,
    from the initialized vertices.

    Returns (dist, pred, cycle) where cycle is (vertex list closing on its
    least vertex, total weight) when a negative cycle is reachable, else
    None.
    """
    adjacency = {v: [] for v in vertices}
    for (x, y), w in sorted(arcs.items()):
        adjacency[x].append((y, w))
    dist = {v: INF for v in vertices}
    pred = {v: None for v in vertices}
    for v, d in init.items():
        dist[v] = d
    n = len(vertices)
    for _ in range(n):
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
    # walk back n steps to land on the cycle itself
    v = start
    for _ in range(n):
        v = pred[v]
    cycle = [v]
    w = pred[v]
    while w != v:
        cycle.append(w)
        w = pred[w]
    cycle.reverse()  # the pred walk runs against the arcs
    k = cycle.index(min(cycle))
    cycle = cycle[k:] + cycle[:k]
    cycle.append(cycle[0])
    weight = 0
    for a, b in zip(cycle, cycle[1:]):
        weight += min(w for y, w in adjacency[a] if y == b)
    return cycle, weight


def graph_negative_cycle(vertices, arcs):
    """A witness negative cycle (vertex list, weight) of the dict graph or
    None, from Bellman-Ford with every vertex seeded at 0."""
    return bellman_ford(vertices, arcs, dict.fromkeys(vertices, 0))[2]


def bellman_ford_distances(vertices, arcs, sources):
    """D(x, y) for each source x, keyed (x, y) as all_simple_path_distances
    gives them, from dict Bellman-Ford per source; None when a source
    reaches a negative cycle."""
    out = {}
    for x in sources:
        dist, _, cycle = bellman_ford(vertices, arcs, {x: 0.0})
        if cycle is not None:
            return None
        out.update(((x, y), d) for y, d in dist.items())
    return out


def graph_extend_boundary(vertices, arcs, partial):
    """Maximal extension values of the pins from one seeded Bellman-Ford
    pass; raises NegativeCycle, then Infeasible((x, y)) for the first
    lowered pin y and the root x of its pred chain, then Infeasible(v) for
    the first vertex no pin reaches."""
    from gradsurf.errors import Infeasible, NegativeCycle

    seed = {x: float(h) for x, h in partial.items()}
    dist, pred, cycle = bellman_ford(vertices, arcs, seed)
    if cycle is not None:
        raise NegativeCycle(*cycle)
    for y in sorted(partial):
        if dist[y] < seed[y]:
            x = pred[y]  # the pred chain starts at a pin the pass never lowered
            while pred[x] is not None:
                x = pred[x]
            raise Infeasible((x, y))
    for v in vertices:
        if dist[v] == INF:
            raise Infeasible(v)
    return dist


def graph_extend_boundary_min(vertices, arcs, partial):
    """Minimal extension values: the negated maximal extension of the
    reversed arcs with negated pins."""
    reversed_arcs = {(y, x): w for (x, y), w in arcs.items()}
    top = graph_extend_boundary(vertices, reversed_arcs, {x: 0.0 - h for x, h in partial.items()})
    return {v: 0.0 - h for v, h in top.items()}


def edge_arcs(pot, edges):
    """Up and down increment bounds of each edge as a pair of arcs: base to
    head at the top of its support, head to base at minus the bottom."""
    from gradsurf.feasibility import increment_bounds
    from gradsurf.lattice import edge_head

    arcs = {}
    for edge in edges:
        b = increment_bounds(pot, edge)
        arcs[(edge[0], edge_head(edge))] = b.up
        arcs[(edge_head(edge), edge[0])] = b.down
    return arcs


def region_arcs(pot, region, boundary):
    """(sorted vertices, arcs) of a region with fixed boundary heights:
    vertices region | boundary, arcs from the edges meeting the region.  An
    edge joining two boundary vertices has a fixed energy and is left out."""
    from gradsurf.lattice import edge_head, edges_meeting

    universe = set(region) | set(boundary)
    edges = [e for e in edges_meeting(region) if e[0] in universe and edge_head(e) in universe]
    return sorted(universe), edge_arcs(pot, edges)


def graph_windows(vertices, arcs, pins, keys):
    """Height windows [ceil(min ext), floor(max ext)] per key from the dict
    Bellman-Ford extensions of the graph, which raise their typed errors."""
    top = graph_extend_boundary(vertices, arcs, pins)
    bot = graph_extend_boundary_min(vertices, arcs, pins)
    return {v: range(math.ceil(bot[v]), math.floor(top[v]) + 1) for v in keys}


def cycle_polytope(pot, cycle_length_bound=None):
    """Allowed-slope polytope from every simple fundamental-torus cycle of
    at most ``cycle_length_bound`` steps (default: all of them, one step
    per vertex of Z^2 / L), by depth-first search from each cycle's least
    vertex: the halfspace (disp/g).u <= w/g of the cheapest cycle per
    primitive normal, pruned.  ``feasible`` is False only for a negative
    cycle of displacement (0, 0); an empty intersection keeps it True.
    Exponential in the bound."""
    from fractions import Fraction

    from gradsurf.feasibility import Halfspace, SlopePolytope, _prune_redundant

    lat = pot.lattice
    verts = sorted(lat.fundamental_domain())
    bound = len(verts) if cycle_length_bound is None else cycle_length_bound
    steps = {v: [] for v in verts}
    for v in verts:
        for axis, e in ((0, (1, 0)), (1, (0, 1))):
            lo, hi = pot.edge_potential((v, axis)).support()
            lo2 = pot.edge_potential((lat.reduce((v[0] - e[0], v[1] - e[1])), axis)).support()[0]
            for disp, w in ((e, hi), ((-e[0], -e[1]), -lo2)):
                if w < INF:
                    head = lat.reduce((v[0] + disp[0], v[1] + disp[1]))
                    steps[v].append((head, disp, Fraction(w) if pot.discrete else w))
    best = {}
    feasible = True

    def dfs(start, v, disp, weight, path):
        nonlocal feasible
        for nxt, step, w in steps[v]:
            nd, nw = (disp[0] + step[0], disp[1] + step[1]), weight + w
            if nxt == start:
                if nd == (0, 0):
                    feasible = feasible and nw >= 0
                else:
                    g = math.gcd(*nd)
                    normal = (nd[0] // g, nd[1] // g)
                    if normal not in best or nw / g < best[normal][0]:
                        best[normal] = (nw / g, path + (start,))
            elif len(path) < bound and nxt > start and nxt not in path:
                dfs(start, nxt, nd, nw, path + (nxt,))

    for start in verts:
        dfs(start, start, (0, 0), Fraction(0) if pot.discrete else 0.0, (start,))
    halfspaces = [Halfspace(normal, off, cycle) for normal, (off, cycle) in sorted(best.items())]
    return SlopePolytope(halfspaces=tuple(_prune_redundant(halfspaces)), feasible=feasible)


def fraction_vertices(halfspaces):
    """The sorted vertices of the intersection of halfspaces n.u <= offset
    with rational offsets: each meeting point of two boundary lines, solved
    in Fractions, kept when every halfspace holds at it."""
    from fractions import Fraction

    points = set()
    for h1, h2 in itertools.combinations(halfspaces, 2):
        (a1, b1), (a2, b2) = h1.normal, h2.normal
        det = a1 * b2 - b1 * a2
        if det == 0:
            continue
        ux = Fraction(h1.offset * b2 - h2.offset * b1, det)
        uy = Fraction(a1 * h2.offset - a2 * h1.offset, det)
        if all(h.normal[0] * ux + h.normal[1] * uy <= h.offset for h in halfspaces):
            points.add((ux, uy))
    return sorted(points)


def at_rows(streams, counters, size):
    """The reference of ``rng.block``: row k is
    ``streams[k].at(counters[k]).random(size)``, one numpy generator per row."""
    rows = [stream.at(counter).random(size) for stream, counter in zip(streams, counters)]
    return np.array(rows, dtype=np.float64).reshape(len(rows), size)


def ti_energy_integral_loop(pot, n, slope, budget, rng, batches=32):
    """The reference of ``observables._ti_energy_integral``: the chains of
    the beta nodes one after the other, each a one-copy chain under its
    rescaled potential, with one ``at`` generator per sweep, counters
    0, 1, ... across all chains, and each energy from ``_torus_energy``."""
    from gradsurf.feasibility import _torus_energy
    from gradsurf.observables import _chebyshev_grid, _scale_potential
    from gradsurf.sampler import _Chain, _torus_start

    grid = _chebyshev_grid()
    burn = max(8, budget // 4)
    per_batch = max(1, budget // batches)
    start, order = _torus_start(pot, n, slope)
    counters = itertools.count()
    means, errs = [], []
    for beta in grid:
        chain = _Chain(pot, start, order=order, copies=[_scale_potential(pot, beta)])
        for _ in range(burn):
            chain.sweep([rng.at(next(counters)).random(len(order))])
        batch_means = []
        for _ in range(batches):
            acc = 0.0
            for _ in range(per_batch):
                chain.sweep([rng.at(next(counters)).random(len(order))])
                acc += _torus_energy(pot, chain.config())
            batch_means.append(acc / per_batch)
        means.append(float(np.mean(batch_means)))
        errs.append(float(np.std(batch_means, ddof=1) / math.sqrt(batches)))
    integral = 0.0
    var = 0.0
    for i in range(len(grid) - 1):
        w = 0.5 * (grid[i + 1] - grid[i])
        integral += w * (means[i] + means[i + 1])
        var += (w * errs[i]) ** 2 + (w * errs[i + 1]) ** 2
    return integral, math.sqrt(var)
