import itertools
import math
import random
from fractions import Fraction

import pytest

from gradsurf.errors import Infeasible, NegativeCycle, StateSpaceTooLarge
from gradsurf.feasibility import (
    FeasibilityGraph,
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
from gradsurf.lattice import Sublattice, box_region, outer_boundary
from gradsurf.observables import log_partition_exact
from gradsurf.potential import (
    INF,
    PeriodicPotential,
    QuadraticPotential,
    TablePotential,
    domino_potential,
    hamiltonian_interior,
)
from gradsurf.sampler import _torus_start

from oracles import (
    all_simple_path_distances,
    enumerate_feasible_configs,
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


def test_distances_match_path_enumeration_random_graphs():
    rng = random.Random(123)
    verts = [(i, 0) for i in range(3)] + [(i, 1) for i in range(3)]
    for trial in range(60):
        arcs = {}
        for x, y in itertools.permutations(verts, 2):
            if abs(x[0] - y[0]) + abs(x[1] - y[1]) == 1 and rng.random() < 0.8:
                arcs[(x, y)] = rng.randint(-2, 6)
        oracle = all_simple_path_distances(verts, arcs)
        g = FeasibilityGraph.from_arcs(arcs) if arcs else None
        if g is None:
            continue
        for v in verts:
            g.adjacency.setdefault(v, [])
        g.vertices = sorted(set(g.vertices) | set(verts))
        if oracle is None:
            with pytest.raises(NegativeCycle):
                shortest_distances(g, verts)
        else:
            dists = shortest_distances(g, verts)
            for x in verts:
                for y in verts:
                    assert dists[x][y] == oracle[(x, y)]


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
    poly = allowed_slope_polytope(domino, cycle_length_bound=8)
    assert poly.feasible and not poly.truncated
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


def test_polytope_monotone_in_bound(domino):
    small = allowed_slope_polytope(domino, cycle_length_bound=2)
    big = allowed_slope_polytope(domino, cycle_length_bound=8)
    rng = random.Random(5)
    for _ in range(200):
        u = (F(rng.randint(-8, 8), 8), F(rng.randint(-8, 8), 8))
        if big.contains(u):
            assert small.contains(u)


def test_polytope_truncation_flag(domino):
    # at bound 2 only the straight two-step cycles exist; they are retained
    # and sit exactly at the bound, so truncation must be flagged
    short = allowed_slope_polytope(domino, cycle_length_bound=2)
    assert short.truncated
    expected_box = {(1, 0, F(1, 2)), (-1, 0, F(1, 2)), (0, 1, F(1, 2)), (0, -1, F(1, 2))}
    assert set(short.canonical()) == expected_box
    assert not allowed_slope_polytope(domino, cycle_length_bound=8).truncated


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


def test_polytope_soundness_domino(domino):
    poly = allowed_slope_polytope(domino, cycle_length_bound=8)
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


def test_ground_state_infeasible(domino):
    with pytest.raises(Infeasible):
        ground_state_energy(domino, 4, (F(3, 4), F(0)))


def test_ground_state_deep_torus_raises_typed_error(domino):
    # the search recurses once per site: 1023 levels on the side-32 torus
    with pytest.raises(StateSpaceTooLarge, match="recursion depth 1023"):
        ground_state_energy(domino, 32, (F(0), F(0)))


def test_enumeration_deep_torus_raises_typed_error(domino):
    # the enumeration recurses once per site as well
    with pytest.raises(StateSpaceTooLarge, match="recursion depth 1023"):
        log_partition_exact(domino, torus=32, slope=(0, 0))
    with pytest.raises(StateSpaceTooLarge, match="recursion depth 1023"):
        next(enumerate_torus_configs(domino, 32, (F(0), F(0))))


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
            assert _configs(enumerate_torus_configs(pot, 2, slope)) == oracle
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
                got = _configs(enumerate_region_configs(pot, interior, boundary))
            except (Infeasible, NegativeCycle):
                got = []
            assert got == oracle
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


def _check_max_extension(run, verts, arcs, pins):
    """run() must give the maximal extension of ``pins`` on ``arcs`` or the
    error a single seeded pass owes: NegativeCycle for a cycle the pins
    reach, then Infeasible((x, y)) with D(x, y) < phi(y) - phi(x), then
    Infeasible(v) for an unreached v.  Returns the outcome's name."""
    reach = _reachable(verts, arcs, pins)
    inner = {a: w for a, w in arcs.items() if a[0] in reach and a[1] in reach}
    dist = all_simple_path_distances(sorted(reach), inner)
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
