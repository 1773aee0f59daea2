import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from gradsurf import feasibility
from gradsurf.errors import GradsurfError, Infeasible, NegativeCycle, StateSpaceTooLarge
from gradsurf.feasibility import (
    FeasibilityGraph,
    Halfspace,
    allowed_slope_polytope,
    enumerate_region_configs,
    enumerate_torus_configs,
    extend_boundary,
    extend_boundary_min,
    ground_state_energy,
    increment_bounds,
    shortest_distances,
    torus_slope_feasible,
)
from gradsurf.lattice import Sublattice, box_region, neighbors, outer_boundary
from gradsurf.observables import log_partition_exact
from gradsurf.potential import (
    INF,
    PeriodicPotential,
    QuadraticPotential,
    TablePotential,
    domino_potential,
    hamiltonian_interior,
    sos_abs_potential,
)
from gradsurf.sampler import _torus_start
from gradsurf.tilings import boundary_heights, region_vertices

from oracles import (
    all_simple_path_distances,
    bellman_ford_distances,
    cycle_polytope,
    enumerate_feasible_configs,
    fraction_vertices,
    graph_negative_cycle,
    graph_windows,
    region_arcs,
    torus_arcs,
    torus_class_enumerate,
)

F = Fraction


def test_increment_bounds_domino(domino):
    # parity 0 -> 1 edge: support {-1, 0}
    b = increment_bounds(domino, ((0, 0), 1))
    assert (b.up, b.down) == (0, 1)


def test_increment_bounds_quadratic(gaussian):
    b = increment_bounds(gaussian, ((0, 0), 0))
    assert (b.up, b.down) == (INF, INF)


def test_increment_bounds_interval():
    table = TablePotential.from_dict({k: 0.0 for k in range(-2, 4)})
    pot = PeriodicPotential.isotropic("int", table)
    b = increment_bounds(pot, ((5, 5), 0))
    assert (b.up, b.down) == (3, 2)


def test_shortest_distances_symmetric_ring():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    ring = list(zip(verts, verts[1:] + verts[:1]))
    arcs = {}
    for x, y in ring:
        arcs[(x, y)] = 1.0
        arcs[(y, x)] = 1.0
    g = FeasibilityGraph.from_arcs(arcs)
    dists = shortest_distances(g, verts)
    for v in verts:
        assert dists[v][v] == 0
    assert dists[(0, 0)][(1, 1)] == 2


def test_negative_cycle_forced_ring():
    # each arc around the ring forces increment exactly +1
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    ring = list(zip(verts, verts[1:] + verts[:1]))
    arcs = {}
    for x, y in ring:
        arcs[(x, y)] = 1.0
        arcs[(y, x)] = -1.0
    g = FeasibilityGraph.from_arcs(arcs)
    with pytest.raises(NegativeCycle) as exc:
        shortest_distances(g, verts)
    assert exc.value.weight == -4
    wit = exc.value.witness
    assert wit[0] == wit[-1] == min(wit)
    # the witness itself must verify: sum of arc weights is negative
    total = sum(arcs[(a, b)] for a, b in zip(wit, wit[1:]))
    assert total == -4


def test_pin_or_source_outside_the_graph_raises_value_error(sos_trunc1):
    g = FeasibilityGraph.from_potential(sos_trunc1, box_region(2, 2))
    runs = [
        lambda: extend_boundary(g, {(5, 5): 0}),
        lambda: extend_boundary_min(g, {(0, 0): 0, (5, 5): 0}),
        lambda: g.distances_from((5, 5)),
        lambda: g.distance_matrix([(0, 0), (5, 5), (0, 0)]),
        lambda: shortest_distances(g, [(0, 0), (5, 5)]),
    ]
    for run in runs:
        with pytest.raises(ValueError, match=r"\(5, 5\) is not a vertex"):
            run()


def test_from_potential_keeps_isolated_vertices(domino):
    # a region vertex joined to no other inside the region is still a
    # vertex, and the graph is the potential's one plan of the region
    region = [(0, 0), (3, 3)]
    g = FeasibilityGraph.from_potential(domino, region)
    assert shortest_distances(g, region) == {x: {y: 0.0 if x == y else INF for y in region} for x in region}
    assert FeasibilityGraph.from_potential(domino, region[::-1]) is g


def test_distances_match_path_enumeration_random_graphs():
    rng = random.Random(123)
    verts = [(i, 0) for i in range(3)] + [(i, 1) for i in range(3)]
    for trial in range(60):
        arcs = {}
        for x, y in itertools.permutations(verts, 2):
            if abs(x[0] - y[0]) + abs(x[1] - y[1]) == 1 and rng.random() < 0.8:
                arcs[(x, y)] = rng.randint(-2, 6)
        oracle = all_simple_path_distances(verts, arcs)
        g = FeasibilityGraph.from_arcs(arcs, verts)
        if oracle is None:
            with pytest.raises(NegativeCycle):
                shortest_distances(g, verts)
        else:
            dists = shortest_distances(g, verts)
            for x in verts:
                for y in verts:
                    assert dists[x][y] == oracle[(x, y)]


def _random_region_arcs(rng, side, weight):
    """Most vertices of a side x side box and, each with probability 0.7,
    the arcs between grid neighbours at weight(); one vertex keeps no arc."""
    verts = [v for v in sorted(box_region(side, side)) if rng.random() < 0.85] or [(0, 0)]
    alone = rng.choice(verts)
    kept = set(verts) - {alone}
    arcs = {(x, y): weight() for x in sorted(kept) for y in neighbors(x) if y in kept and rng.random() < 0.7}
    return verts, arcs


@pytest.mark.parametrize("kind", ["int", "float"])
def test_distance_matrix_equals_per_source_bellman_ford(kind):
    # every entry of the batched table equals the dict Bellman-Ford
    # distance exactly: +inf for unreachable pairs and isolated vertices,
    # and a repeated source repeats its row; a graph with a negative cycle
    # raises the one witness of the all-zero relaxation
    rng = random.Random(f"distance-matrix-{kind}")
    weight = (lambda: rng.randint(-1, 6)) if kind == "int" else (lambda: rng.randint(-3, 22) / 10)
    tables = cycles = 0
    for _ in range(60):
        verts, arcs = _random_region_arcs(rng, rng.randint(1, 6), weight)
        g = FeasibilityGraph.from_arcs(arcs, verts)
        sources = [rng.choice(verts) for _ in range(rng.randint(1, 2 * len(verts)))]
        if graph_negative_cycle(verts, arcs) is not None:
            with pytest.raises(NegativeCycle) as exc:
                g.distance_matrix(sources)
            assert (exc.value.witness, exc.value.weight) == g.negative_cycle()
            cycles += 1
            continue
        oracle = bellman_ford_distances(verts, arcs, sorted(set(sources)))
        table = g.distance_matrix(sources)
        assert table.shape == (len(sources), len(verts))
        assert table.tolist() == [[oracle[(s, v)] for v in verts] for s in sources]
        assert shortest_distances(g, sources) == {s: {v: oracle[(s, v)] for v in verts} for s in sources}
        tables += 1
    assert tables >= 20 and cycles >= 5


def test_distance_matrix_in_chunks_matches_bellman_ford_on_a_30x30_box(monkeypatch):
    # 900 sources of a 30 x 30 box relax in several chunks of rows; sampled
    # rows equal the dict Bellman-Ford distances exactly
    rng = random.Random(30)
    verts = sorted(box_region(30, 30))
    inside = set(verts)
    arcs = {(x, y): rng.randint(0, 12) / 10 for x in verts for y in neighbors(x) if y in inside}
    g = FeasibilityGraph.from_arcs(arcs, verts)
    shapes = []
    relax = feasibility._InArcs.relax
    monkeypatch.setattr(feasibility._InArcs, "relax", lambda self, dist: shapes.append(dist.shape) or relax(self, dist))
    table = g.distance_matrix(verts)
    assert shapes[0] == (901,)  # the negative-cycle check, then the chunks
    assert len(shapes) > 2 and sum(rows for rows, _ in shapes[1:]) == 900
    sample = sorted(rng.sample(range(900), 4))
    oracle = bellman_ford_distances(verts, arcs, [verts[k] for k in sample])
    for k in sample:
        assert table[k].tolist() == [oracle[(verts[k], v)] for v in verts]


def test_batched_rows_raise_the_witness_of_their_own_relaxation():
    # (0, 0) reaches the negative cycle (1, 0) -> (2, 0) -> (2, 1) -> (1, 1)
    # -> (1, 0), (10, 0) a shifted copy of it and (5, 5) no cycle: a batch
    # raises the witness that the one-row relaxation of its first source
    # that reaches a cycle raises, and (5, 5)'s row alone relaxes
    arcs = {((5, 5), (6, 5)): 1.0}
    for dx in (0, 10):
        ring = [(1 + dx, 0), (2 + dx, 0), (2 + dx, 1), (1 + dx, 1)]
        arcs[((dx, 0), ring[0])] = 2.0
        arcs.update({(x, y): -0.5 for x, y in zip(ring, ring[1:] + ring[:1])})
    g = FeasibilityGraph.from_arcs(arcs)
    witness = {}
    for x in ((0, 0), (10, 0)):
        with pytest.raises(NegativeCycle) as alone:
            g.forward.relax(g.forward.seeded({x: 0.0})[0])
        witness[x] = (alone.value.witness, alone.value.weight)
    assert witness[(0, 0)] == ([(1, 0), (2, 0), (2, 1), (1, 1), (1, 0)], -2)
    assert witness[(10, 0)] == ([(11, 0), (12, 0), (12, 1), (11, 1), (11, 0)], -2)
    for sources, first in (
        ([(0, 0)], (0, 0)),
        ([(5, 5), (0, 0), (10, 0)], (0, 0)),
        ([(5, 5), (10, 0), (5, 5), (0, 0)], (10, 0)),
        ([(10, 0), (5, 5)], (10, 0)),
    ):
        with pytest.raises(NegativeCycle) as exc:
            g.forward.distance_matrix(sources)
        assert (exc.value.witness, exc.value.weight) == witness[first]
    assert g.distances_from((5, 5)) == {v: {(5, 5): 0.0, (6, 5): 1.0}.get(v, INF) for v in g.vertices}
    assert g.negative_cycle() == graph_negative_cycle(g.vertices, arcs) == witness[(0, 0)]


def test_distance_triangle_inequality(domino):
    region = box_region(4, 4)
    g = FeasibilityGraph.from_potential(domino, region)
    verts = sorted(region)
    dists = shortest_distances(g, verts)
    for x, y, z in itertools.product(verts[:6], repeat=3):
        assert dists[x][z] <= dists[x][y] + dists[y][z] + 1e-12


def test_extend_single_vertex(sos_trunc1):
    region = box_region(3, 3)
    g = FeasibilityGraph.from_potential(sos_trunc1, region)
    ext = extend_boundary(g, {(0, 0): 5})
    d = shortest_distances(g, [(0, 0)])[(0, 0)]
    for v in region:
        assert ext.values[v] == 5 + d[v]


def test_extend_infeasible_pair(sos_trunc1):
    region = box_region(3, 1)
    g = FeasibilityGraph.from_potential(sos_trunc1, region)
    # D((0,0),(2,0)) = 2, so a required rise of 3 must fail
    with pytest.raises(Infeasible) as exc:
        extend_boundary(g, {(0, 0): 0, (2, 0): 3})
    assert set(exc.value.detail) == {(0, 0), (2, 0)}


def test_extension_dominates_all_extensions(sos_trunc1):
    # maximality against brute force on a 3x3 block with pinned boundary
    interior = box_region(2, 2, origin=(1, 1))
    boundary = {v: 0 for v in outer_boundary(interior)}
    universe = set(interior) | set(boundary)
    g = FeasibilityGraph.from_potential(sos_trunc1, universe)
    top = extend_boundary(g, boundary)
    bot = extend_boundary_min(g, boundary)
    feasible = enumerate_feasible_configs(sos_trunc1, interior, boundary)
    assert feasible
    for config, _ in feasible:
        for v, h in config.items():
            assert bot.values[v] <= h <= top.values[v]
    # the extensions themselves are finite-energy configs
    assert hamiltonian_interior(sos_trunc1, universe, top.values) < INF
    assert hamiltonian_interior(sos_trunc1, universe, bot.values) < INF
    # and are attained pointwise by some brute-forced extension
    for v in interior:
        assert any(c[v] == top.values[v] for c, _ in feasible)
        assert any(c[v] == bot.values[v] for c, _ in feasible)


def test_domino_extension_from_real_tiling(domino):
    # boundary heights of the 2x2-square region tiled by horizontal dominoes
    boundary = {
        (0, 0): 0, (1, 0): -1, (2, 0): 0,
        (0, 1): 0, (2, 1): 0,
        (0, 2): 0, (1, 2): -1, (2, 2): 0,
    }
    interior = {(1, 1)}
    g = FeasibilityGraph.from_potential(domino, set(boundary) | interior)
    top = extend_boundary(g, boundary)
    feasible = enumerate_feasible_configs(domino, interior, boundary)
    assert len(feasible) == 2  # the two tilings of the 2x2 region
    assert top.values[(1, 1)] == max(c[(1, 1)] for c, _ in feasible)


def test_torus_slope_feasible_domino(domino):
    assert torus_slope_feasible(domino, 4, (F(0), F(0)))
    assert not torus_slope_feasible(domino, 10, (F(3, 5), F(0)))
    # boundary slope on an even torus is still feasible (brick wall)
    assert torus_slope_feasible(domino, 4, (F(1, 2), F(0)))


def test_torus_feasibility_vs_enumeration_small(domino):
    # exhaustively confirm a feasible class is nonempty on the 4-torus
    configs = list(enumerate_torus_configs(domino, 4, (F(1, 2), F(0))))
    assert configs  # brick-wall class is nonempty
    assert all(e == 0 for _, e in configs)


def test_domino_polytope(domino):
    poly = allowed_slope_polytope(domino)
    assert poly.feasible
    expected = {
        (1, 1, F(1, 2)),
        (1, -1, F(1, 2)),
        (-1, 1, F(1, 2)),
        (-1, -1, F(1, 2)),
    }
    assert set(poly.canonical()) == expected


def test_quadratic_polytope_whole_plane(gaussian):
    poly = allowed_slope_polytope(gaussian)
    assert poly.feasible
    assert poly.halfspaces == ()


def test_box_polytope(sos_trunc1):
    poly = allowed_slope_polytope(sos_trunc1)
    expected = {(1, 0, F(1)), (-1, 0, F(1)), (0, 1, F(1)), (0, -1, F(1))}
    assert set(poly.canonical()) == expected


def _random_lipschitz_potential(rng):
    """Random 2-periodic potential with small integer supports."""
    from gradsurf.lattice import Sublattice

    lat = Sublattice(2, 2, 0)
    classes = {}
    for axis in (0, 1):
        for base in lat.fundamental_domain():
            lo = rng.randint(-2, 0)
            hi = rng.randint(lo, lo + rng.randint(0, 2))
            classes[(axis, base)] = TablePotential.from_dict(
                {k: float(rng.randint(0, 2)) for k in range(lo, hi + 1)}
            )
    return PeriodicPotential.build("int", lat, classes)


def test_polytope_equals_torus_feasibility_random_potentials():
    # contains(u) (weak) must coincide with torus feasibility whenever n*u
    # is integral, including boundary slopes
    rng = random.Random(20240810)
    tested = 0
    for trial in range(12):
        pot = _random_lipschitz_potential(rng)
        poly = allowed_slope_polytope(pot)
        for _ in range(24):
            n = rng.choice([2, 4, 6])
            u = (F(rng.randint(-2 * n, 2 * n), n), F(rng.randint(-2 * n, 2 * n), n))
            feasible = torus_slope_feasible(pot, n, u)
            assert feasible == poly.contains(u), (trial, u, n)
            tested += 1
    assert tested == 288


def _random_sheared_table(rng):
    """Random table on a lattice with periods <= 3, sheared when b > 1,
    with integer supports in [-2, 2]."""
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    lat = Sublattice(a, b, rng.randrange(b))
    classes = {}
    for axis in (0, 1):
        for base in lat.fundamental_domain():
            lo = rng.randint(-2, 0)
            hi = rng.randint(lo, 2)
            classes[(axis, base)] = TablePotential.from_dict({k: float(rng.randint(0, 2)) for k in range(lo, hi + 1)})
    return PeriodicPotential.build("int", lat, classes)


def _exact_corners(halfspaces):
    """Corners of the halfspaces' intersection with the box |u_i| <= 3, by
    brute force over pairs of boundary lines; empty when they share no
    point in the box."""
    rows = [((1, 0), 3), ((-1, 0), 3), ((0, 1), 3), ((0, -1), 3)] + [(h.normal, h.offset) for h in halfspaces]
    corners = set()
    for (n1, d1), (n2, d2) in itertools.combinations(rows, 2):
        det = n1[0] * n2[1] - n1[1] * n2[0]
        if det:
            u = (F(d1 * n2[1] - d2 * n1[1], det), F(n1[0] * d2 - n2[0] * d1, det))
            if all(n[0] * u[0] + n[1] * u[1] <= d for n, d in rows):
                corners.add(u)
    return sorted(corners)


def test_polytope_equals_cycle_enumeration(domino, sos, sos_trunc1, sos_trunc2, gaussian, nonconvex):
    # the cutting-plane polytope against every simple cycle: the same
    # halfspaces where the polytope is full-dimensional; otherwise the same
    # weak and strict membership on a 1/12 grid around it and at its
    # corners, and feasible exactly when the halfspaces share a point
    from test_periodicity import _column_striped_potential, _contradictory_potential

    rng = random.Random(20240810)
    tables = [domino, sos, sos_trunc1, sos_trunc2, gaussian, nonconvex, _column_striped_potential(), _contradictory_potential()]
    tables += [_random_lipschitz_potential(rng) for _ in range(12)]
    rng = random.Random(11)
    tables += [_random_sheared_table(rng) for _ in range(200)]
    kinds = {"full": 0, "lower": 0, "empty": 0}
    for k, pot in enumerate(tables):
        new, ref = allowed_slope_polytope(pot), cycle_polytope(pot)
        corners = _exact_corners(ref.halfspaces) if ref.feasible else []
        assert new.feasible == bool(corners), k
        if not corners:
            kinds["empty"] += 1
            continue
        centre = (sum(u[0] for u in corners) / len(corners), sum(u[1] for u in corners) / len(corners))
        if ref.contains(centre, strict=True):
            kinds["full"] += 1
            assert new.canonical() == ref.canonical(), k
            continue
        kinds["lower"] += 1
        lo = [math.floor(12 * min(u[i] for u in corners)) - 3 for i in (0, 1)]
        hi = [math.ceil(12 * max(u[i] for u in corners)) + 3 for i in (0, 1)]
        grid = [(F(i, 12), F(j, 12)) for i in range(lo[0], hi[0] + 1) for j in range(lo[1], hi[1] + 1)]
        for u in grid + corners:
            assert new.contains(u) == ref.contains(u), (k, u)
            assert new.contains(u, strict=True) == ref.contains(u, strict=True), (k, u)
    assert min(kinds.values()) >= 30, kinds


def test_polytope_matches_torus_feasibility_at_period_8():
    # on a torus whose side is the period, slope feasibility asks the same
    # graph as the polytope: weak membership is torus feasibility on the
    # whole n = 8 grid
    rng = random.Random(8)
    lat = Sublattice(8, 8, 0)
    classes = {}
    for axis in (0, 1):
        for base in lat.fundamental_domain():
            lo, hi = rng.randint(-2, 0), rng.randint(0, 2)
            classes[(axis, base)] = TablePotential.from_dict({k: float(abs(k)) for k in range(lo, hi + 1)})
    pot = PeriodicPotential.build("int", lat, classes)
    poly = allowed_slope_polytope(pot)
    assert poly.feasible and len(poly.halfspaces) >= 4
    inside = 0
    for i in range(-16, 17):
        for j in range(-16, 17):
            u = (F(i, 8), F(j, 8))
            assert poly.contains(u) == torus_slope_feasible(pot, 8, u), u
            inside += poly.contains(u)
    assert 0 < inside < 33 * 33


def test_integer_vertices_equal_fraction_vertices():
    # random halfspace sets with repeated, parallel and opposite lines, so
    # some intersections are empty, segments or single points, and offsets
    # that are integers, small fractions or exact binary fractions
    rng = random.Random(24)
    normals = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    offsets = [lambda: rng.randint(-5, 5), lambda: F(rng.randint(-12, 12), rng.randint(1, 6)), lambda: F(rng.randint(-30, 30) / 10)]
    shapes = collections.Counter()
    for _ in range(600):
        hs = [Halfspace(rng.choice(normals), rng.choice(offsets)(), ()) for _ in range(rng.randint(0, 6))]
        for h in rng.sample(hs, min(len(hs), rng.randint(0, 2))):
            a, b = h.normal
            hs.append(rng.choice([h, Halfspace(h.normal, h.offset + rng.randint(-2, 2), ()), Halfspace((-a, -b), -h.offset + rng.choice([-1, 0, 0, 1]), ())]))
        rng.shuffle(hs)
        points = feasibility._vertices(hs)
        assert points == fraction_vertices(hs)
        shapes[min(len(points), 3)] += 1
    assert all(shapes[k] > 20 for k in range(4))
    x_is_1 = [Halfspace((1, 0), F(1), ()), Halfspace((-1, 0), F(-1), ())]
    for hs, points in (
        (x_is_1 + [Halfspace((0, 1), 2, ()), Halfspace((0, -1), -2, ())], [(1, 2)]),
        (x_is_1 + [Halfspace((0, 1), 2, ()), Halfspace((0, -1), 0, ()), Halfspace((0, 1), 2, ())], [(1, 0), (1, 2)]),
        ([Halfspace((1, 0), 0, ()), Halfspace((-1, 0), -1, ()), Halfspace((0, 1), 1, ()), Halfspace((0, -1), 1, ())], []),
        ([Halfspace((1, 1), F(1, 3), ()), Halfspace((1, -1), F(1, 7), ()), Halfspace((-1, 0), F(1), ())], [(-1, F(-8, 7)), (-1, F(4, 3)), (F(5, 21), F(2, 21))]),
    ):
        assert feasibility._vertices(hs) == fraction_vertices(hs) == points


def test_polytope_soundness_domino(domino):
    poly = allowed_slope_polytope(domino)
    rng = random.Random(31)
    inside = outside = 0
    while inside < 50 or outside < 50:
        n = rng.choice([4, 6, 8, 10])
        u = (F(rng.randint(-n, n), 2 * n), F(rng.randint(-n, n), 2 * n))
        if poly.contains(u, strict=True) and inside < 50:
            assert torus_slope_feasible(domino, 2 * n, u)
            inside += 1
        elif not poly.contains(u) and outside < 50:
            assert not torus_slope_feasible(domino, 2 * n, u)
            outside += 1


def test_ground_state_domino_slope0(domino):
    chi, witness = ground_state_energy(domino, 2, (F(0), F(0)))
    assert chi == 0
    assert witness.torus.holonomy() == (0, 0)


def test_ground_state_flat_sos(sos_trunc2):
    chi, witness = ground_state_energy(sos_trunc2, 2, (F(0), F(0)))
    assert chi == 0
    assert set(witness.values.values()) == {0}


def test_ground_state_tilted_sos(sos_trunc2):
    # oracle: enumerate the class and minimize directly
    chi, witness = ground_state_energy(sos_trunc2, 2, (F(1, 2), F(0)))
    energies = [e for _, e in enumerate_torus_configs(sos_trunc2, 2, (F(1, 2), F(0)))]
    assert chi == min(energies)
    # slope 1/2 over a 2-torus climbs by 1 per fundamental cycle: energy >= 1 per row
    assert chi == 2


def test_ground_state_infeasible(domino, sos_trunc1):
    with pytest.raises(Infeasible):
        ground_state_energy(domino, 4, (F(3, 4), F(0)))
    # on the 1-torus the holonomy 2 exceeds the increment bound
    with pytest.raises(Infeasible):
        ground_state_energy(sos_trunc1, 1, (2, 0))
    with pytest.raises(Infeasible):
        list(enumerate_torus_configs(sos_trunc1, 1, (2, 0)))


def test_ground_state_deep_torus_raises_typed_error(domino):
    # the search keeps its own stack: the 1023 sites of the side-32 torus
    # need no recursion, and only the node budget stops the search
    chi, witness = ground_state_energy(domino, 32, (F(0), F(0)))
    assert chi == 0
    assert feasibility._torus_energy(domino, witness) == 0
    assert witness.torus.holonomy() == (0, 0)
    with pytest.raises(StateSpaceTooLarge, match="node budget 1000$"):
        ground_state_energy(domino, 32, (F(0), F(0)), node_budget=1000)


def test_enumeration_deep_torus_raises_typed_error(domino):
    # the enumeration runs on the same stack: it reaches its first leaf on
    # the side-32 torus, and the node budget bounds the full sum
    assert next(enumerate_torus_configs(domino, 32, (F(0), F(0))))[1] == 0
    with pytest.raises(StateSpaceTooLarge, match="node budget 10000"):
        log_partition_exact(domino, torus=32, slope=(0, 0), node_budget=10_000)
    with pytest.raises(StateSpaceTooLarge, match="node budget 1000$"):
        next(enumerate_torus_configs(domino, 32, (F(0), F(0)), node_budget=1000))


@pytest.mark.parametrize("slope, chi", [((0, 0), 0), ((1, 0), 1), ((1, 1), 2)])
def test_exact_search_on_the_one_torus(sos_trunc1, slope, chi):
    # the 1-torus has an empty search order: its one config is the pinned
    # origin, whose two self-loops climb by the holonomy
    energy, witness = ground_state_energy(sos_trunc1, 1, slope)
    assert (energy, witness.values) == (chi, {(0, 0): 0})
    assert list(enumerate_torus_configs(sos_trunc1, 1, slope)) == [({(0, 0): 0}, chi)]
    assert log_partition_exact(sos_trunc1, torus=1, slope=slope) == -chi


def test_node_budget_counts_the_heights_tried(domino, sos_trunc1, sos_trunc2):
    # one node per height tried: each search succeeds on a budget of
    # exactly the heights it tries and raises one node below
    box = box_region(3, 3)
    boundary = {v: v[0] // 2 for v in outer_boundary(box)}
    runs = [
        (lambda budget: list(enumerate_torus_configs(domino, 4, (F(0), F(0)), budget)), 1470),
        (lambda budget: ground_state_energy(sos_trunc2, 4, (F(1, 2), F(0)), budget), 75536),
        (lambda budget: list(enumerate_region_configs(sos_trunc1, box, boundary, budget)), 1848),
    ]
    for run, nodes in runs:
        run(nodes)
        with pytest.raises(StateSpaceTooLarge, match=f"node budget {nodes - 1}$"):
            run(nodes - 1)


def test_chi_convex_along_segment(sos_trunc2):
    # midpoint convexity with exact arithmetic on the 4-torus
    def chi(u):
        val, _ = ground_state_energy(sos_trunc2, 4, u)
        return val

    lo = chi((F(0), F(0)))
    mid = chi((F(1, 4), F(0)))
    hi = chi((F(1, 2), F(0)))
    assert 2 * mid <= lo + hi
    assert lo <= mid <= hi


def _random_periodic_potential(rng):
    """Random 2Z^2-periodic table classes: half-integer energies on
    supports of two or three consecutive increments inside [-1, 2]."""
    lat = Sublattice(2, 2, 0)
    classes = {}
    for axis in (0, 1):
        for base in lat.fundamental_domain():
            lo = rng.randint(-1, 0)
            hi = rng.randint(lo + 1, lo + 2)
            classes[(axis, base)] = TablePotential.from_dict(
                {k: 0.5 * rng.randint(0, 3) for k in range(lo, hi + 1)}
            )
    return PeriodicPotential.build("int", lat, classes)


def _configs(pairs):
    return sorted((tuple(sorted(values.items())), energy) for values, energy in pairs)


def test_torus_enumeration_and_ground_state_vs_oracle_random_potentials():
    # anisotropic classes exercise every orientation of the shared site
    # energy kernel, including the doubled parallel edges of the 2-torus
    rng = random.Random(4242)
    nonempty = 0
    for _ in range(8):
        pot = _random_periodic_potential(rng)
        for holonomy in ((0, 0), (1, 0), (0, 1), (-1, 1)):
            slope = (F(holonomy[0], 2), F(holonomy[1], 2))
            oracle = _configs(torus_class_enumerate(pot, 2, holonomy))
            if not oracle:
                with pytest.raises(Infeasible):
                    list(enumerate_torus_configs(pot, 2, slope))
                with pytest.raises(Infeasible):
                    ground_state_energy(pot, 2, slope)
                with pytest.raises(Infeasible):
                    _torus_start(pot, 2, slope)
                continue
            nonempty += 1
            pairs = list(enumerate_torus_configs(pot, 2, slope))
            assert _configs(pairs) == oracle
            # leaves come in lexicographic order along the search order
            heights = [tuple(values.values()) for values, _ in pairs]
            assert heights == sorted(heights)
            chi, witness = ground_state_energy(pot, 2, slope)
            assert chi == min(e for _, e in oracle)
            assert (tuple(witness.sorted_items()), chi) in oracle
            # the chain start (window midpoints) is a member of the class
            start, _ = _torus_start(pot, 2, slope)
            assert tuple(start.sorted_items()) in {c for c, _ in oracle}
    assert nonempty >= 16


def test_region_enumeration_vs_oracle_random_potentials():
    # random levels on the boundary, plus the flat boundary, which every
    # drawn support admits; edges between boundary vertices stay out of
    # both the energy and the feasibility windows
    rng = random.Random(4243)
    interior = box_region(2, 2)
    ring = sorted(outer_boundary(interior))
    nonempty = 0
    for _ in range(96):
        pot = _random_periodic_potential(rng)
        levels = {v: rng.randint(-1, 1) for v in ring}
        for boundary in (levels, dict.fromkeys(ring, 0)):
            oracle = _configs(enumerate_feasible_configs(pot, interior, boundary))
            try:
                pairs = list(enumerate_region_configs(pot, interior, boundary))
            except (Infeasible, NegativeCycle):
                pairs = []
            assert _configs(pairs) == oracle
            # leaves come in lexicographic order along the search order
            heights = [tuple(values.values()) for values, _ in pairs]
            assert heights == sorted(heights)
            nonempty += bool(oracle)
    assert nonempty >= 96 + 16


def _reachable(verts, arcs, sources):
    reach, stack = set(sources), list(sources)
    while stack:
        x = stack.pop()
        for (a, b), w in arcs.items():
            if a == x and w < INF and b not in reach:
                reach.add(b)
                stack.append(b)
    return reach


def _check_max_extension(run, verts, arcs, pins, distances=all_simple_path_distances):
    """run() must give the maximal extension of ``pins`` on ``arcs`` or the
    error a single seeded pass owes: NegativeCycle for a cycle the pins
    reach, then Infeasible((x, y)) with D(x, y) < phi(y) - phi(x), then
    Infeasible(v) for an unreached v.  D comes from ``distances(vertices,
    arcs)`` of the part the pins reach.  Returns the outcome's name."""
    reach = _reachable(verts, arcs, pins)
    inner = {a: w for a, w in arcs.items() if a[0] in reach and a[1] in reach}
    dist = distances(sorted(reach), inner)
    if dist is None:
        with pytest.raises(NegativeCycle) as exc:
            run()
        wit = exc.value.witness
        assert wit[0] == wit[-1]
        assert sum(arcs[(a, b)] for a, b in zip(wit, wit[1:])) == exc.value.weight < 0
        return "cycle"
    if any(dist[(x, y)] < pins[y] - pins[x] for x in pins for y in pins):
        with pytest.raises(Infeasible) as exc:
            run()
        x, y = exc.value.detail
        assert x in pins and y in pins
        assert dist[(x, y)] < pins[y] - pins[x]
        return "pair"
    if reach != set(verts):
        with pytest.raises(Infeasible) as exc:
            run()
        assert exc.value.detail in set(verts) - reach
        return "unreached"
    assert run() == {v: min(pins[x] + dist[(x, v)] for x in pins) for v in verts}
    return "values"


def test_extension_pass_matches_path_enumeration_random_graphs():
    # one seeded Bellman-Ford pass per direction against every simple path;
    # the minimal extension is the negated maximal one of the reversed arcs
    # with negated pins, so max_x phi(x) - D(v, x) is checked in that frame
    rng = random.Random(321)
    verts = [(i, 0) for i in range(3)] + [(i, 1) for i in range(3)]
    outcomes = {}
    for trial in range(300):
        arcs = {}
        for x, y in itertools.permutations(verts, 2):
            if abs(x[0] - y[0]) + abs(x[1] - y[1]) == 1 and rng.random() < 0.8:
                arcs[(x, y)] = rng.randint(-2, 6)
        g = FeasibilityGraph.from_arcs(arcs, verts)
        pins = {x: rng.randint(-3, 3) for x in rng.sample(verts, rng.randint(1, 3))}
        top = _check_max_extension(lambda: extend_boundary(g, pins).values, verts, arcs, pins)
        bot = _check_max_extension(
            lambda: {v: -h for v, h in extend_boundary_min(g, pins).values.items()},
            verts,
            {(y, x): w for (x, y), w in arcs.items()},
            {x: -h for x, h in pins.items()},
        )
        for outcome in (top, bot):
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert min(outcomes.get(k, 0) for k in ("cycle", "pair", "unreached", "values")) >= 20, outcomes


def _error(run):
    """The GradsurfError run() raises, or None."""
    try:
        run()
    except GradsurfError as exc:
        return exc
    return None


def _random_skewed_potential(rng):
    """Random 2Z^2-periodic tables on supports of one or two consecutive
    increments inside [-2, 2], so a plaquette can close a negative cycle."""
    lat = Sublattice(2, 2, 0)
    classes = {}
    for axis in (0, 1):
        for base in lat.fundamental_domain():
            lo = rng.randint(-2, 1)
            classes[(axis, base)] = TablePotential.from_dict({k: 0.5 * rng.randint(0, 3) for k in range(lo, lo + rng.randint(1, 2))})
    return PeriodicPotential.build("int", lat, classes)


def test_region_windows_equal_dict_extensions():
    # the plan windows and the public extensions on the region_arcs graph
    # against the dict Bellman-Ford reference: the same windows, or an error
    # of the reference's kind whose witness keeps the contract of
    # _check_max_extension in the direction that fails first
    rng = random.Random(909)
    cases = []
    for k in range(80):
        pot = (_random_periodic_potential, _random_skewed_potential)[k % 2](rng)
        region = sorted(box_region(rng.randint(1, 4), rng.randint(1, 4), origin=(rng.randint(-2, 1), rng.randint(-2, 1))))
        level, tilt = rng.randint(-2, 2), rng.choice((0, 0, 1))
        boundary = {v: level + tilt * (v[0] // 2) + (rng.random() < 0.2) * rng.randint(-2, 2) for v in outer_boundary(region)}
        cases.append((pot, region, boundary))
    # a second box beyond the reach of every pin
    for pot, region, boundary in cases[:4]:
        far = box_region(2, 2, origin=(max(region)[0] + 3, 0))
        cases.append((pot, sorted({*region, *far}), boundary))
    holed = {(i, j) for i in range(6) for j in range(6)} - {(2, 2), (2, 3), (3, 2), (3, 3)}
    slot = {(i, j) for i in range(4) for j in range(4)} - {(1, 1), (2, 1)}
    notched = {(i, j) for i in range(6) for j in range(6)} - {(4, 5), (5, 5)}
    notched4 = {(i, j) for i in range(4) for j in range(4)} - {(0, 3), (1, 3)}
    for squares in (holed, slot, notched, notched4):
        fixed = boundary_heights(squares)
        cases.append((domino_potential(), sorted(region_vertices(squares) - set(fixed)), fixed))
    kinds = set()
    for pot, region, boundary in cases:
        verts, arcs = region_arcs(pot, region, boundary)
        graph = FeasibilityGraph.from_arcs(arcs, verts)
        rarcs = {(y, x): w for (x, y), w in arcs.items()}
        rpins = {x: -h for x, h in boundary.items()}

        def distances(vertices, inner):
            return bellman_ford_distances(vertices, inner, boundary)

        def windows():
            return feasibility._region_windows(pot, region, boundary)

        top = _check_max_extension(lambda: extend_boundary(graph, boundary).values, verts, arcs, boundary, distances)
        bot = _check_max_extension(
            lambda: {v: -h for v, h in extend_boundary_min(graph, boundary).values.items()}, verts, rarcs, rpins, distances
        )
        if top != "values":
            _check_max_extension(windows, verts, arcs, boundary, distances)
        elif bot != "values":
            _check_max_extension(windows, verts, rarcs, rpins, distances)
        else:
            assert windows() == graph_windows(verts, arcs, boundary, region)
        expected = _error(lambda: graph_windows(verts, arcs, boundary, region))
        for run in (windows, lambda: (extend_boundary(graph, boundary), extend_boundary_min(graph, boundary))):
            got = _error(run)
            assert type(got) is type(expected)
            if isinstance(expected, Infeasible):
                # the least lowered pin, or the least unreached vertex, as the reference names it
                pair = isinstance(expected.detail[0], tuple)
                assert got.detail[1] == expected.detail[1] if pair else got.detail == expected.detail
        kinds.add(type(expected).__name__ if expected else "windows")
    assert kinds == {"windows", "Infeasible", "NegativeCycle"}


def test_torus_slope_feasible_equals_graph_negative_cycle():
    # the plan relaxation from a virtual source against dict Bellman-Ford
    # on the torus graph, with unbounded supports among the cases
    from test_sampler import _sloped_torus_cases

    cases = [(pot, n, slope) for _, pot, n, slope in _sloped_torus_cases()]
    rng = random.Random(515)
    for k in range(18):
        slope = (F(rng.randint(-2, 2), 4), F(rng.randint(-2, 2), 4))
        cases.append((_random_periodic_potential(rng), (2, 4, 6)[k % 3], slope))
    for pot in (PeriodicPotential.isotropic("real", QuadraticPotential(1.0)), PeriodicPotential.isotropic("int", sos_abs_potential())):
        cases += [(pot, n, (F(1, 2), F(-1, 4))) for n in (2, 4)]
    feasible = [torus_slope_feasible(pot, n, slope) for pot, n, slope in cases]
    assert feasible == [graph_negative_cycle(*torus_arcs(pot, n, slope)) is None for pot, n, slope in cases]
    assert 10 <= sum(feasible) <= len(cases) - 10
