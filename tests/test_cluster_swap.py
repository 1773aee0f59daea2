import itertools
import math
import random
from fractions import Fraction

import pytest

from gradsurf import cluster_swap
from gradsurf.cluster_swap import (
    DerivedCoords,
    Triplet,
    _proxies,
    _scan_levels,
    cluster_swap_at,
    edge_coupling_constant,
    from_derived,
    shifted_analysis,
    swap_deficit,
    swappable_set,
    swendsen_wang_update,
    synchronized_domination_coupling,
    to_derived,
    total_energy,
)
from gradsurf.errors import Infeasible, InfiniteEnergy, MixedClusterSign, NegativeResidual
from gradsurf.heights import HeightConfig
from gradsurf.lattice import box_region, edge_head, edges_within, outer_boundary
from gradsurf.potential import (
    INF,
    PeriodicPotential,
    QuadraticPotential,
    TablePotential,
    domino_potential,
    validate_sap,
)
from gradsurf.rng import RngStream
from gradsurf.sampler import torus_sample

from oracles import exact_gibbs_distribution
from swap_harness import rx_pushforward_tv, sw_pushforward_tv

F = Fraction


def _chain_region():
    return [(0, 0), (1, 0), (2, 0)]


def _chain_boundary():
    return {(-1, 0): 0, (3, 0): 0}


def _random_triplet(pot, rng, region, boundary):
    states, probs = exact_gibbs_distribution(pot, region, boundary)
    ref = sorted(set(region) | set(boundary))[0]

    def draw():
        u = rng.random()
        acc = 0.0
        for s, p in zip(states, probs):
            acc += p
            if u < acc:
                values = dict(boundary)
                values.update(s)
                return HeightConfig(values, reference=ref)
        values = dict(boundary)
        values.update(states[-1])
        return HeightConfig(values, reference=ref)

    phi1, phi2 = draw(), draw()
    edges = edges_within(phi1.values.keys())
    residual = {e: F(rng.randint(0, 16), 8) for e in edges}
    return Triplet(phi1, phi2, residual)


def test_derived_coords_equal_configs(sos_trunc1):
    values = {(i, 0): 0 for i in range(-1, 4)}
    phi = HeightConfig(dict(values), reference=(-1, 0))
    trip = Triplet(phi, phi.copy(), {e: F(1) for e in edges_within(values)})
    coords = to_derived(sos_trunc1, trip)
    assert all(z == 0 for z in coords.zeta.values())
    assert all(lo == hi for lo, hi in coords.xi.values())


def test_derived_coords_ordering(sos):
    phi1 = HeightConfig({(0, 0): 3, (1, 0): 0}, reference=(0, 0))
    phi2 = HeightConfig({(0, 0): 1, (1, 0): 0}, reference=(0, 0))
    trip = Triplet(phi1, phi2, {((0, 0), 0): F(0)})
    coords = to_derived(sos, trip)
    assert coords.xi[(0, 0)] == (1, 3)
    assert coords.zeta[(0, 0)] == 1


def test_round_trip_exact(sos_trunc1):
    rng = random.Random(42)
    region, boundary = _chain_region(), _chain_boundary()
    for _ in range(1000):
        trip = _random_triplet(sos_trunc1, rng, region, boundary)
        back = from_derived(sos_trunc1, to_derived(sos_trunc1, trip))
        assert back.phi1.values == trip.phi1.values
        assert back.phi2.values == trip.phi2.values
        assert back.residual == trip.residual


def test_total_energy_invariant(sos_trunc1):
    rng = random.Random(1)
    region, boundary = _chain_region(), _chain_boundary()
    trip = _random_triplet(sos_trunc1, rng, region, boundary)
    coords = to_derived(sos_trunc1, trip)
    for e, t in coords.total.items():
        pe = sum(
            sos_trunc1.edge_energy(e, cfg.values[(e[0][0] + 1, e[0][1])] - cfg.values[e[0]])
            for cfg in (trip.phi1, trip.phi2)
        )
        assert t == pe + trip.residual[e]


def test_from_total_rejects_undershoot(sos_trunc1):
    phi1 = HeightConfig({(0, 0): 0, (1, 0): 1}, reference=(0, 0))
    phi2 = HeightConfig({(0, 0): 0, (1, 0): 0}, reference=(0, 0))
    trip = Triplet(phi1, phi2, {((0, 0), 0): F(2)})
    coords = to_derived(sos_trunc1, trip)
    bad_total = {e: t - 10 for e, t in coords.total.items()}
    with pytest.raises(NegativeResidual):
        DerivedCoords.from_total(
            sos_trunc1, coords.xi, coords.zeta, bad_total, coords.reference
        )


def test_coupling_constant_sos_example(sos):
    xi = {(0, 0): (0, 2), (1, 0): (1, 3)}
    k = edge_coupling_constant(sos, xi, ((0, 0), 0))
    assert k == -2


def test_coupling_constant_equal_heights(sos):
    xi = {(0, 0): (1, 1), (1, 0): (4, 5)}
    assert edge_coupling_constant(sos, xi, ((0, 0), 0)) == 0


def test_coupling_constant_quadratic(gaussian):
    xi = {(0, 0): (0, 1), (1, 0): (0, 1)}
    assert edge_coupling_constant(gaussian, xi, ((0, 0), 0)) == -2


def test_coupling_constant_infinite(domino):
    # aligned increments impossible for the class: raise
    xi = {(0, 0): (0, 0), (0, 1): (5, 5)}
    with pytest.raises(InfiniteEnergy):
        edge_coupling_constant(domino, xi, ((0, 0), 1))


def test_ferromagnetism_random(sos, gaussian):
    rng = random.Random(99)
    count = 0
    for pot in (sos, gaussian):
        for _ in range(5000):
            x1 = rng.randint(-3, 3)
            x2 = x1 + rng.randint(0, 3)
            y1 = rng.randint(-3, 3)
            y2 = y1 + rng.randint(0, 3)
            xi = {(0, 0): (x1, x2), (1, 0): (y1, y2)}
            k = edge_coupling_constant(pot, xi, ((0, 0), 0))
            assert k <= 0
            count += 1
    assert count == 10000


def test_deficit_equals_coupling_magnitude_when_aligned(sos_trunc2):
    # with both surfaces aligned (zeta >= 0 at both ends), the direct
    # deficit equals -K exactly
    rng = random.Random(3)
    for _ in range(500):
        x1 = rng.randint(-2, 2)
        dx = rng.randint(0, 2)
        y1 = rng.randint(x1 - 2, x1 + 2)
        dy = rng.randint(0, 2)
        phi1 = HeightConfig({(0, 0): x1, (1, 0): y1}, reference=(0, 0))
        phi2 = HeightConfig({(0, 0): x1 + dx, (1, 0): y1 + dy}, reference=(0, 0))
        edge = ((0, 0), 0)
        trip = Triplet(phi1, phi2, {edge: F(0)})
        e_cur = sos_trunc2.edge_energy(edge, y1 - x1) + sos_trunc2.edge_energy(
            edge, (y1 + dy) - (x1 + dx)
        )
        if e_cur == INF:
            continue
        xi = {(0, 0): (x1, x1 + dx), (1, 0): (y1, y1 + dy)}
        k = edge_coupling_constant(sos_trunc2, xi, edge)
        d = swap_deficit(sos_trunc2, trip, edge)
        if k == -INF:
            assert d == INF
        else:
            assert d == -k


def test_swappable_probability_matches_exponential_law(sos):
    # satisfied edge with deficit d joins S with probability e^-d under
    # fresh Exp(1) residuals (the e^{-2|K|} law in Ising convention)
    phi1 = HeightConfig({(0, 0): 0, (1, 0): 0}, reference=(0, 0))
    phi2 = HeightConfig({(0, 0): 2, (1, 0): 2}, reference=(0, 0))
    edge = ((0, 0), 0)
    trip = Triplet(phi1, phi2, {edge: F(0)})
    d = swap_deficit(sos, trip, edge)
    assert d == 4  # crossed arrangement costs V(-2)+V(2) = 4 more
    rng = RngStream(11, 0).at(0)
    trials = 200_000
    draws = rng.standard_exponential(trials)
    hits = int((draws >= float(d)).sum())
    p = math.exp(-float(d))
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(hits - trials * p) < 4 * sigma


def test_swappable_set_equal_configs(sos_trunc1):
    values = {(i, 0): 0 for i in range(-1, 4)}
    phi = HeightConfig(dict(values), reference=(-1, 0))
    trip = Triplet(phi, phi.copy(), {e: F(0) for e in edges_within(values)})
    ss = swappable_set(sos_trunc1, trip)
    assert ss.closed_edges == frozenset(edges_within(values))
    assert all(len(c.vertices) == 1 and c.zeta == 0 for c in ss.clusters)


def test_swappable_set_zeta_constant_on_clusters(sos_trunc1):
    rng = random.Random(17)
    region, boundary = _chain_region(), _chain_boundary()
    for _ in range(200):
        trip = _random_triplet(sos_trunc1, rng, region, boundary)
        ss = swappable_set(sos_trunc1, trip, window=region)
        for c in ss.clusters:
            signs = {
                (trip.phi1.values[v] > trip.phi2.values[v])
                - (trip.phi1.values[v] < trip.phi2.values[v])
                for v in c.vertices
            }
            assert signs == {c.zeta}


def test_cluster_swap_involution(sos_trunc1):
    rng = random.Random(5)
    region, boundary = _chain_region(), _chain_boundary()
    for _ in range(300):
        trip = _random_triplet(sos_trunc1, rng, region, boundary)
        x = random.Random(rng.random()).choice(region)
        once = cluster_swap_at(sos_trunc1, trip, region, x)
        twice = cluster_swap_at(sos_trunc1, once, region, x)
        assert twice.phi1.values == trip.phi1.values
        assert twice.phi2.values == trip.phi2.values
        assert twice.residual == trip.residual


def test_cluster_swap_preserves_total_energy(sos_trunc1):
    rng = random.Random(6)
    region, boundary = _chain_region(), _chain_boundary()
    for _ in range(1000):
        trip = _random_triplet(sos_trunc1, rng, region, boundary)
        x = region[rng.randrange(len(region))]
        out = cluster_swap_at(sos_trunc1, trip, region, x)
        assert total_energy(sos_trunc1, out) == total_energy(sos_trunc1, trip)


def test_cluster_swap_boundary_cluster_is_identity(sos_trunc1):
    # boundaries differ, so the crossing cluster touches the outside
    region = _chain_region()
    b1 = {(-1, 0): 0, (3, 0): 0}
    values1 = dict(b1)
    values1.update({(0, 0): 1, (1, 0): 1, (2, 0): 1})
    values2 = dict(b1)
    values2.update({(0, 0): 0, (1, 0): 0, (2, 0): 0})
    # make phi2's boundary higher so the boundary zeta is nonzero there
    values2[(-1, 0)] = 1
    values2[(3, 0)] = 1
    phi1 = HeightConfig(values1, reference=(-1, 0))
    phi2 = HeightConfig(values2, reference=(-1, 0))
    trip = Triplet(phi1, phi2, {e: F(0) for e in edges_within(values1)})
    ss = swappable_set(sos_trunc1, trip, window=region)
    target = ss.cluster_of((1, 0))
    if not target.inside_window:
        out = cluster_swap_at(sos_trunc1, trip, region, (1, 0))
        assert out.phi1.values == trip.phi1.values
        assert out.phi2.values == trip.phi2.values


def test_swendsen_wang_equal_configs_only_residuals_change(sos_trunc1):
    values = {(i, 0): 0 for i in range(-1, 4)}
    phi = HeightConfig(dict(values), reference=(-1, 0))
    trip = Triplet(phi, phi.copy(), {e: F(1) for e in edges_within(values)})
    out = swendsen_wang_update(sos_trunc1, trip, _chain_region(), RngStream(3, 1).at(0))
    assert out.phi1.values == trip.phi1.values
    assert out.phi2.values == trip.phi2.values


def test_swendsen_wang_single_cluster_swaps_fairly(sos_trunc1):
    region, boundary = _chain_region(), _chain_boundary()
    values1 = dict(boundary)
    values1.update({(0, 0): 0, (1, 0): 1, (2, 0): 0})
    values2 = dict(boundary)
    values2.update({(0, 0): 0, (1, 0): -1, (2, 0): 0})
    phi1 = HeightConfig(values1, reference=(-1, 0))
    phi2 = HeightConfig(values2, reference=(-1, 0))
    edges = edges_within(values1)
    stream = RngStream(2718, 0)
    swaps = 0
    trials = 20_000
    for k in range(trials):
        trip = Triplet(phi1.copy(), phi2.copy(), {e: F(0) for e in edges})
        out = swendsen_wang_update(sos_trunc1, trip, region, stream.at(k))
        if out.phi1.values[(1, 0)] == -1:
            swaps += 1
    sigma = math.sqrt(trials * 0.25)
    assert abs(swaps - trials / 2) < 3 * sigma


def test_rx_measure_preservation_chain(sos_trunc1):
    tv = rx_pushforward_tv(sos_trunc1, _chain_region(), _chain_boundary(), (1, 0))
    assert tv < 1e-8


def test_sw_measure_preservation_chain(sos_trunc1):
    tv = sw_pushforward_tv(sos_trunc1, _chain_region(), _chain_boundary())
    assert tv < 1e-8


def test_shifted_analysis_uniform_offset(sos_trunc1):
    window = box_region(3, 3)
    values1 = {v: 0 for v in window}
    values2 = {v: 5 for v in window}
    phi1 = HeightConfig(values1, reference=(0, 0))
    phi2 = HeightConfig(values2, reference=(0, 0))
    trip = Triplet(phi1, phi2, {e: F(0) for e in edges_within(window)})
    for c in range(0, 5):
        a = shifted_analysis(sos_trunc1, trip, c, window)
        assert a.t_plus
        assert not a.t_minus
    a5 = shifted_analysis(sos_trunc1, trip, 5, window)
    assert not a5.t_plus and not a5.t_minus
    assert a5.b_plus == 5
    assert a5.b_minus == 5


def test_shifted_analysis_equal_pair(sos_trunc1):
    window = box_region(3, 3)
    values = {v: 0 for v in window}
    phi = HeightConfig(values, reference=(0, 0))
    trip = Triplet(phi, phi.copy(), {e: F(0) for e in edges_within(window)})
    a = shifted_analysis(sos_trunc1, trip, 0, window)
    assert not a.t_plus and not a.t_minus
    assert a.b_plus == a.b_minus == 0


def test_stochastic_domination_coupling(sos_trunc1):
    interior = sorted(box_region(2, 2, origin=(1, 1)))
    b1 = {v: 0 for v in outer_boundary(interior)}
    b2 = {v: 1 for v in outer_boundary(interior)}
    for k in range(300):
        phi1, phi2 = synchronized_domination_coupling(
            sos_trunc1, interior, b1, b2, RngStream(555, k)
        )
        assert all(phi1.values[v] <= phi2.values[v] for v in interior)


def test_mixed_cluster_sign_raises_typed_error(nonconvex):
    # V(0) = 1, V(+-1) = 0: the crossing pair on this edge costs 2 to swap,
    # so with zero residual the edge stays open and joins opposite signs
    phi1 = HeightConfig({(0, 0): 1, (1, 0): 0}, reference=(0, 0))
    phi2 = HeightConfig({(0, 0): 0, (1, 0): 1}, reference=(0, 0))
    trip = Triplet.build(phi1, phi2, residual={})
    with pytest.raises(MixedClusterSign):
        swappable_set(nonconvex, trip)


# ---------------------------------------------------------------------------
# Memoized deficits and shift levels against per-edge and per-level scans


def _torus_triplets():
    """Couplings of torus samples restricted to the fundamental window, as
    ``gradsurf swap`` builds them: integer heights, so deficits memoize."""
    from test_feasibility import _random_periodic_potential

    abs2 = TablePotential.from_dict({-2: 0.8, -1: 0.4, 0: 0.0, 1: 0.4, 2: 0.8})
    rng = random.Random(99)
    pots = [domino_potential(), PeriodicPotential.isotropic("int", abs2)]
    pots += [p for p in (_random_periodic_potential(rng) for _ in range(24)) if validate_sap(p).valid][:6]
    out = []
    for k, pot in enumerate(pots):
        for seed in range(2):
            try:
                p1, p2 = (torus_sample(pot, 6, (0, 0), 8, RngStream(seed, 2 * k + i)) for i in (0, 1))
            except Infeasible:
                continue
            p1, p2 = (HeightConfig(dict(p.values), reference=(0, 0)) for p in (p1, p2))
            out.append((pot, Triplet.build(p1, p2, rng=RngStream(seed, 100 + k).at(0))))
    return out


def _direct_swappable(pot, trip):
    """Closed edges and open clusters from one swap_deficit call per edge."""
    p1, p2 = trip.phi1.values, trip.phi2.values
    closed = set()
    label = {v: v for v in p1}

    def find(v):
        while label[v] != v:
            v = label[v]
        return v

    for e, r in trip.residual.items():
        base, head = e[0], edge_head(e)
        if head not in p1 or p1[base] == p2[base] or p1[head] == p2[head]:
            closed.add(e)
            continue
        d = swap_deficit(pot, trip, e)
        if d != INF and r >= d:
            closed.add(e)
        else:
            label[find(base)] = find(head)
    clusters = {}
    for v in p1:
        clusters.setdefault(find(v), []).append(v)
    return closed, sorted(sorted(c) for c in clusters.values())


def _anisotropic_triplet():
    """Two edges of different classes with the same four relative heights
    (2, 2, 0, 1): deficit 2 on the axis-0 edge, 6 on the axis-1 edge, so
    with residual 3 only the first is swappable."""
    classes = {
        (axis, (0, 0)): TablePotential.from_dict({k: scale * abs(k) for k in range(-2, 3)})
        for axis, scale in ((0, 1.0), (1, 3.0))
    }
    pot = PeriodicPotential.build("int", [[1, 0], [0, 1]], classes)
    phi1 = HeightConfig({(0, 0): 2, (1, 0): 2, (0, 1): 2}, reference=(0, 0))
    phi2 = HeightConfig({(0, 0): 0, (1, 0): 1, (0, 1): 1}, reference=(0, 0))
    return pot, Triplet.build(phi1, phi2, residual={((0, 0), 0): 3, ((0, 0), 1): 3})


def test_memoized_swappable_set_equals_direct_deficits():
    cases = _torus_triplets() + [_anisotropic_triplet()]
    assert len(cases) >= 10
    assert _direct_swappable(*cases[-1])[0] == {((0, 0), 0)}
    for pot, trip in cases:
        closed, clusters = _direct_swappable(pot, trip)
        for window in (None, box_region(3, 4)):
            ss = swappable_set(pot, trip, window)
            assert ss.closed_edges == closed
            assert sorted(sorted(c.vertices) for c in ss.clusters) == clusters
    assert sum(bool(pot._memo("_swap_deficits")) for pot in {id(p): p for p, _ in cases}.values()) >= 4


def _level_scan(pot, trip, c, window):
    """The crossing bounds from one _proxies call per level visited."""
    ss, t_plus, t_minus = _proxies(pot, trip, c, window)
    diffs = [trip.phi2.values[v] - trip.phi1.values[v] for v in sorted(window)]
    levels = _scan_levels(diffs, pot.discrete)
    b_plus = next((lv for lv in levels if not _proxies(pot, trip, lv, window)[1]), INF)
    b_minus = next((lv for lv in reversed(levels) if not _proxies(pot, trip, lv, window)[2]), -INF)
    return ss, t_plus, t_minus, b_plus, b_minus


def test_shifted_analysis_equals_level_scan_one_swappable_set_per_level(monkeypatch):
    # each distinct shift level gets one swappable set, shared by the shift
    # c and both crossing-bound scans
    calls, levels = [], []
    sets, proxies = cluster_swap.swappable_set, cluster_swap._proxies
    for pot, trip in _torus_triplets():
        window = set(trip.phi1.values)
        for c in (0, 1, -2):
            ss, t_plus, t_minus, b_plus, b_minus = _level_scan(pot, trip, c, window)
            monkeypatch.setattr(cluster_swap, "swappable_set", lambda *a, **k: calls.append(1) or sets(*a, **k))
            monkeypatch.setattr(cluster_swap, "_proxies", lambda p, t, lv, w: levels.append(lv) or proxies(p, t, lv, w))
            calls.clear(), levels.clear()
            a = shifted_analysis(pot, trip, c, window)
            monkeypatch.undo()
            assert (a.t_plus, a.t_minus, a.b_plus, a.b_minus) == (t_plus, t_minus, b_plus, b_minus)
            assert a.swappable.closed_edges == ss.closed_edges
            assert [c.vertices for c in a.swappable.clusters] == [c.vertices for c in ss.clusters]
            scan = _scan_levels([trip.phi2.values[v] - trip.phi1.values[v] for v in window], True)
            visited = {c} | {lv for lv in scan if lv <= b_plus} | {lv for lv in scan if lv >= b_minus}
            assert len(calls) == len(levels) == len(set(levels)) == len(visited)
