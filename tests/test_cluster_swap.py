import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from gradsurf import cluster_swap
from gradsurf.cluster_swap import (
    DerivedCoords,
    Triplet,
    _scan_levels,
    cluster_swap_at,
    coin_merge_coupling,
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
from gradsurf.errors import Infeasible, InfiniteEnergy, MissingHeight, MixedClusterSign, NegativeResidual
from gradsurf.heights import HeightConfig
from gradsurf.lattice import box_region, edge_head, edges_within, neighbors, outer_boundary
from gradsurf.potential import (
    INF,
    PeriodicPotential,
    QuadraticPotential,
    TablePotential,
    domino_potential,
    lipschitz_truncate,
    sos_abs_potential,
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


@pytest.mark.parametrize("edge", [((0, 0), 0), ((0, 0), 1), ((5, 5), 0)], ids=["head", "head-e2", "base"])
def test_triplet_refuses_residual_edges_that_leave_the_support(edge):
    # such an edge has no pair energy, so swaps could not conserve t on it
    phi = HeightConfig({(0, 0): 0}, reference=(0, 0))
    with pytest.raises(MissingHeight, match=re.escape(str(edge))):
        Triplet(phi, phi.copy(), {edge: 1})


@pytest.mark.parametrize(
    "value, error",
    [(math.nan, NegativeResidual), (-math.inf, NegativeResidual), (-0.5, NegativeResidual), (F(-1, 3), NegativeResidual), (math.inf, InfiniteEnergy)],
    ids=["nan", "-inf", "negative-float", "negative-rational", "inf"],
)
def test_triplet_types_residuals_that_are_not_finite_and_nonnegative(value, error):
    phi = HeightConfig({(0, 0): 0, (1, 0): 0}, reference=(0, 0))
    with pytest.raises(error, match=r"edge \(\(0, 0\), 0\)"):
        Triplet(phi, phi.copy(), {((0, 0), 0): value})


def test_cluster_swap_at_names_a_vertex_without_a_height(sos_trunc1):
    phi = HeightConfig({(0, 0): 0, (1, 0): 1}, reference=(0, 0))
    trip = Triplet.build(phi, phi.copy(), residual={})
    with pytest.raises(MissingHeight, match=r"\(7, 7\)"):
        cluster_swap_at(sos_trunc1, trip, None, (7, 7))
    with pytest.raises(MissingHeight, match=r"\(7, 7\)"):
        swappable_set(sos_trunc1, trip).cluster_of((7, 7))


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
    assert sum(bool(cluster_swap._deficit_table(pot).exact) for pot in {id(p): p for p, _ in cases}.values()) >= 4


def _shifted(trip, c):
    phi1 = HeightConfig({v: h + c for v, h in trip.phi1.values.items()}, reference=trip.phi1.reference)
    return Triplet(phi1, trip.phi2.copy(), dict(trip.residual))


def test_wide_supports_classify_per_edge():
    # a deficit table for increments in [-40, 40] would exceed its limit;
    # those swaps call _deficit per edge, with the same classification
    wide = PeriodicPotential.isotropic("int", TablePotential.from_dict({k: 0.5 * k * k for k in range(-40, 41)}))
    assert cluster_swap._deficit_table(wide) is None
    rng = random.Random(3)
    region = sorted(box_region(4, 4))
    for seed in range(3):
        p1, p2 = (HeightConfig({v: rng.randint(-3, 3) for v in region}, reference=(0, 0)) for _ in range(2))
        trip = Triplet.build(p1, p2, rng=RngStream(seed, 0).at(0))
        closed, clusters = _direct_swappable(wide, trip)
        ss = swappable_set(wide, trip)
        assert ss.closed_edges == closed
        assert sorted(sorted(c.vertices) for c in ss.clusters) == clusters
        _, t_plus, t_minus, b_plus, b_minus = _level_scan(wide, trip, 1, set(region))
        a = shifted_analysis(wide, trip, 1)
        assert (a.t_plus, a.t_minus, a.b_plus, a.b_minus) == (t_plus, t_minus, b_plus, b_minus)


def _rebuilt_proxies(pot, trip, c, window):
    """The swappable set and T+/T- proxies of one shift level from a rebuilt
    shifted triplet, its closed edges checked against per-edge deficits."""
    shifted = _shifted(trip, c)
    ss = swappable_set(pot, shifted, window)
    assert ss.closed_edges == _direct_swappable(pot, shifted)[0]
    bound = [cl for cl in ss.clusters if cl.touches_boundary]
    t_plus = frozenset(v for cl in bound if cl.zeta < 0 for v in cl.vertices)
    t_minus = frozenset(v for cl in bound if cl.zeta > 0 for v in cl.vertices)
    return ss, t_plus, t_minus


def _level_scan(pot, trip, c, window):
    """The crossing bounds from one rebuilt triplet per level visited."""
    ss, t_plus, t_minus = _rebuilt_proxies(pot, trip, c, window)
    diffs = [trip.phi2.values[v] - trip.phi1.values[v] for v in sorted(window)]
    levels = _scan_levels(diffs, pot.discrete)
    b_plus = next((lv for lv in levels if not _rebuilt_proxies(pot, trip, lv, window)[1]), INF)
    b_minus = next((lv for lv in reversed(levels) if not _rebuilt_proxies(pot, trip, lv, window)[2]), -INF)
    return ss, t_plus, t_minus, b_plus, b_minus


def _gaussian_triplets():
    """Couplings of real-valued heights on the Gaussian potential: every
    deficit is computed per edge, and the levels are the observed height
    differences."""
    gaussian = PeriodicPotential.isotropic("real", QuadraticPotential(1.0))
    rng = random.Random(17)
    region = sorted(box_region(5, 5))
    out = []
    for seed in range(3):
        p1, p2 = (HeightConfig({v: rng.gauss(0.0, 1.0) for v in region}, reference=(0, 0)) for _ in range(2))
        out.append((gaussian, Triplet.build(p1, p2, rng=RngStream(seed, 200).at(0))))
    return out


def test_shifted_analysis_equals_level_scan_one_classification_at_the_shift(monkeypatch):
    # the crossing bounds need no classification: one swappable set, at
    # the shift c, is the only array pass an analysis makes
    arrays = cluster_swap._SwapArrays
    calls, classified = [], []
    swappable, closed = arrays.swappable, arrays._closed
    for pot, trip in _torus_triplets() + _gaussian_triplets():
        for window in (set(trip.phi1.values), set(box_region(3, 4))):
            for c in (0, 1, -2):
                ss, t_plus, t_minus, b_plus, b_minus = _level_scan(pot, trip, c, window)
                monkeypatch.setattr(arrays, "swappable", lambda self, lv: calls.append(lv) or swappable(self, lv))
                monkeypatch.setattr(arrays, "_closed", lambda self, lv, idx: classified.append(lv) or closed(self, lv, idx))
                calls.clear(), classified.clear()
                a = shifted_analysis(pot, trip, c, window)
                monkeypatch.undo()
                assert (a.t_plus, a.t_minus, a.b_plus, a.b_minus) == (t_plus, t_minus, b_plus, b_minus)
                assert a.swappable.closed_edges == ss.closed_edges
                assert [c.vertices for c in a.swappable.clusters] == [c.vertices for c in ss.clusters]
                assert a.swappable.labels == ss.labels
                assert calls == classified == [c]


def test_shifted_analysis_refuses_nonconvex_potentials(nonconvex):
    # no open edge at any level, but a nonconvex potential may give open
    # clusters of mixed sign, so the sign rule behind b+- does not hold
    window = box_region(3, 3)
    phi = HeightConfig({(i, j): (i + j) % 2 for i, j in window}, reference=(0, 0))
    trip = Triplet.build(phi, phi.copy(), residual={})
    assert swappable_set(nonconvex, trip).clusters
    with pytest.raises(MixedClusterSign, match="nonconvex"):
        shifted_analysis(nonconvex, trip, 0, window)


def test_shifted_analysis_checks_every_pair_energy(sos_trunc1):
    # phi1 = phi2 leaves no candidate edge at the shift 0, so only the
    # pair check over every edge finds the increment 2 outside the support
    phi = HeightConfig({(0, 0): 0, (1, 0): 2, (2, 0): 2}, reference=(0, 0))
    trip = Triplet.build(phi, phi.copy(), residual={})
    swappable_set(sos_trunc1, trip)
    with pytest.raises(InfiniteEnergy, match=r"edge \(\(0, 0\), 0\)"):
        shifted_analysis(sos_trunc1, trip, 0)


def _inexact_deficit_potential():
    """Tables whose swap deficits are exact rationals that are not floats:
    sums of tenths need more than 53 bits."""
    table = TablePotential.from_dict({-2: 0.7, -1: 0.3, 0: 0.0, 1: 0.1, 2: 0.6})
    return PeriodicPotential.isotropic("int", table)


def _one_edge_triplets(pot):
    """(phi1, phi2, deficit) for every pair of increments i1, i2 and base
    offset whose single edge (0, 0) -> (1, 0) crosses (both endpoints
    differ) with a positive finite deficit."""
    out = []
    for i1, i2, delta in itertools.product(range(-2, 3), range(-2, 3), range(-4, 5)):
        if delta == 0 or delta + i2 == i1:
            continue
        phi1 = HeightConfig({(0, 0): 0, (1, 0): i1}, reference=(0, 0))
        phi2 = HeightConfig({(0, 0): delta, (1, 0): delta + i2}, reference=(0, 0))
        d = swap_deficit(pot, Triplet.build(phi1, phi2, residual={}), ((0, 0), 0))
        if d != INF and d > 0:
            out.append((phi1, phi2, d))
    return out


def _assert_direct(pot, trip):
    closed, clusters = _direct_swappable(pot, trip)
    ss = swappable_set(pot, trip)
    assert ss.closed_edges == closed
    assert sorted(sorted(c.vertices) for c in ss.clusters) == clusters


def test_swappable_set_exact_at_float_rounded_deficits():
    # a float residual r is swappable exactly when r >= d; at r = float(d)
    # that holds only when d rounds up, so comparing with the nearest float
    # would be wrong half the time
    pot = _inexact_deficit_potential()
    rounded = set()
    for phi1, phi2, d in _one_edge_triplets(pot):
        f = float(d)
        if Fraction(f) == d:
            continue
        rounded.add(f > d)
        for r in (f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf)):
            _assert_direct(pot, Triplet.build(phi1, phi2, residual={((0, 0), 0): r}))
    assert rounded == {True, False}


def test_swappable_set_exact_for_rational_residuals():
    # residuals that are not floats (as swaps leave them) compare exactly,
    # also a hair below or above a deficit that is itself a float
    pot = _inexact_deficit_potential()
    hair = Fraction(1, 2**80)
    for phi1, phi2, d in _one_edge_triplets(pot):
        for r in (d - hair, d, d + hair):
            _assert_direct(pot, Triplet.build(phi1, phi2, residual={((0, 0), 0): r}))


def test_swappable_set_exact_after_swaps_and_involution():
    # swaps leave residuals r + (old - new) that are not floats; the
    # classification stays exact and a second swap restores every field
    pot = _inexact_deficit_potential()
    rng = random.Random(5)
    region = box_region(3, 3)
    inexact = 0
    for k in range(4):
        phi1, phi2 = (HeightConfig({v: rng.randint(-1, 1) for v in region}, reference=(0, 0)) for _ in range(2))
        trip = Triplet.build(phi1, phi2, rng=RngStream(k, 7).at(0))
        residual = {}
        for e, r in trip.residual.items():
            d = swap_deficit(pot, trip, e) if phi1.values[e[0]] != phi2.values[e[0]] else INF
            residual[e] = max(float(d), 0.0) if d != INF and r > 0.5 else r  # ties at rounded deficits
        trip = Triplet.build(phi1, phi2, residual=residual)
        for x in sorted(region):
            once = cluster_swap_at(pot, trip, None, x)
            inexact += sum(Fraction(float(r)) != r for r in once.residual.values())
            _assert_direct(pot, once)
            twice = cluster_swap_at(pot, once, None, x)
            assert twice.phi1.values == trip.phi1.values and twice.phi2.values == trip.phi2.values
            assert twice.residual == trip.residual
    assert inexact


# ---------------------------------------------------------------------------
# The swap command's array route against the dict route


def _box_triplet(phi1, phi2, rng, side):
    """The dict triplet of two torus samples on the box [0, side)^2."""
    box = sorted(box_region(side, side))
    p1, p2 = (HeightConfig({v: p.values[v] for v in box}, reference=(0, 0)) for p in (phi1, phi2))
    return Triplet.build(p1, p2, rng=rng)


def test_torus_window_arrays_equal_the_dict_route():
    # gradsurf swap classifies on the torus plan's arrays; its crossing
    # bounds and clusters are those of shifted_analysis on the dict
    # triplet drawn from the same streams, and its clusters those of one
    # swap_deficit call per edge
    from test_feasibility import _random_periodic_potential

    abs_tables = [{k: scale * abs(k) for k in range(-w, w + 1)} for w, scale in ((1, 1.0), (2, 1.1))]
    rng = random.Random(21)
    periodic = next(p for p in iter(lambda: _random_periodic_potential(rng), None) if validate_sap(p).valid)
    pots = [(domino_potential(), range(2, 11, 2)), (periodic, range(2, 11, 2))]
    pots += [(PeriodicPotential.isotropic("int", TablePotential.from_dict(t)), range(2, 11)) for t in abs_tables]
    pots += [(PeriodicPotential.isotropic("real", QuadraticPotential(1.0)), range(2, 11))]
    pots += [(PeriodicPotential.isotropic("int", sos_abs_potential()), range(2, 11))]
    compared = 0
    for k, (pot, sides) in enumerate(pots):
        for n in sides:
            for slope in ((0, 0), (F(1, 2), 0), (F(1, 4), F(1, 4))):
                seed = 10 * k + n
                try:
                    phi1, phi2 = (torus_sample(pot, n, slope, 4, RngStream(seed, i)) for i in (0, 1))
                except Infeasible:
                    continue
                arrays = cluster_swap._SwapArrays.torus_window(pot, phi1, phi2, RngStream(seed, 10_000).at(0))
                ss, b_plus, b_minus = arrays.analysis(0)
                trip = _box_triplet(phi1, phi2, RngStream(seed, 10_000).at(0), n)
                ref = shifted_analysis(pot, trip, 0, box_region(n, n))
                assert (b_plus, b_minus) == (ref.b_plus, ref.b_minus)
                got = [(c.vertices, c.zeta, c.touches_boundary) for c in ss.clusters]
                assert got == [(c.vertices, c.zeta, c.touches_boundary) for c in ref.swappable.clusters]
                closed, clusters = _direct_swappable(pot, trip)
                assert ss.closed_edges == ref.swappable.closed_edges == closed
                assert sorted(sorted(v) for v, _, _ in got) == clusters
                compared += 1
    assert compared >= 120


def _domino_3x3_triplet():
    """Two domino surfaces on the 3x3 box, from torus samples of side 4."""
    pot = domino_potential()
    phi1, phi2 = (torus_sample(pot, 4, (0, 0), 8, RngStream(5, i)) for i in (0, 1))
    return pot, _box_triplet(phi1, phi2, RngStream(5, 2).at(0), 3)


def _reference_clusters(pot, trip, window):
    """Each open cluster's vertices, inside_window and touches_boundary,
    the window rim found from lattice neighbors."""
    rim = {v for v in window if any(w not in window for w in neighbors(v))}
    return [(sorted(c), set(c) <= window, bool(set(c) & rim)) for c in _direct_swappable(pot, trip)[1]]


@pytest.mark.parametrize("window", [box_region(4, 4), box_region(2, 3, (1, 1)), set()], ids=["past-support", "inner", "empty"])
def test_swappable_set_flags_clusters_against_any_window(window):
    pot, trip = _domino_3x3_triplet()
    ss = swappable_set(pot, trip, window)
    got = sorted((sorted(c.vertices), c.inside_window, c.touches_boundary) for c in ss.clusters)
    assert got == sorted(_reference_clusters(pot, trip, set(window)))


def test_shifted_analysis_names_a_window_vertex_without_a_height():
    # a window reaching past the support has no crossing bounds: the least
    # window vertex without a height is named
    pot, trip = _domino_3x3_triplet()
    with pytest.raises(MissingHeight, match=r"\(0, 3\)"):
        shifted_analysis(pot, trip, 0, box_region(4, 4))


def test_shifted_analysis_of_an_empty_window_has_infinite_bounds():
    # no rim site constrains a level, and no level is observed
    pot, trip = _domino_3x3_triplet()
    a = shifted_analysis(pot, trip, 0, set())
    assert (a.b_plus, a.b_minus, a.window_size) == (INF, -INF, 0)
    assert a.t_plus == a.t_minus == frozenset()


# ---------------------------------------------------------------------------
# Golden digests of the swap maps: (phi1, phi2, residual) of every output,
# with the types of its heights and residuals, byte for byte


def _state(*parts):
    """Each triplet or config of parts as its references and sorted items."""
    out = []
    for p in parts:
        for phi in (p.phi1, p.phi2) if isinstance(p, Triplet) else (p,):
            out.append((phi.reference, sorted(phi.values.items())))
        if isinstance(p, Triplet):
            out.append(sorted(p.residual.items()))
    return out


def _golden_cases():
    """(potential, triplets, window) per case: the sos_trunc1 chain, the 3x3
    domino box, real Gaussian heights, a table wider than _TABLE_LIMIT and
    residuals tied to float-rounded deficits, which swaps leave inexact."""
    sos1 = lipschitz_truncate(PeriodicPotential.isotropic("int", sos_abs_potential()), 1)
    rng = random.Random(8)
    chain = [_random_triplet(sos1, rng, _chain_region(), _chain_boundary()) for _ in range(3)]
    domino, box = _domino_3x3_triplet()
    gaussian, trips = zip(*_gaussian_triplets()[:2])
    wide = PeriodicPotential.isotropic("int", TablePotential.from_dict({k: 0.5 * k * k for k in range(-40, 41)}))
    region = sorted(box_region(4, 4))
    wides = []
    for seed in range(2):
        p1, p2 = (HeightConfig({v: rng.randint(-3, 3) for v in region}, reference=(0, 0)) for _ in range(2))
        wides.append(Triplet.build(p1, p2, rng=RngStream(seed, 0).at(0)))
    inexact, ties = _inexact_deficit_potential(), []
    for k in range(2):
        p1, p2 = (HeightConfig({v: rng.randint(-1, 1) for v in box_region(3, 3)}, reference=(0, 0)) for _ in range(2))
        trip = Triplet.build(p1, p2, rng=RngStream(k, 7).at(0))
        residual = {}
        for e, r in trip.residual.items():
            d = swap_deficit(inexact, trip, e) if p1.values[e[0]] != p2.values[e[0]] else INF
            residual[e] = max(float(d), 0.0) if d != INF and r > 0.5 else r
        ties.append(Triplet.build(p1, p2, residual=residual))
    return {
        "sos_trunc1-chain": (sos1, chain, _chain_region()),
        "domino-3x3": (domino, [box], None),
        "gaussian": (gaussian[0], list(trips), box_region(3, 3)),
        "wide-table": (wide, wides, None),
        "inexact-residuals": (inexact, ties, None),
    }


_SWAP_DIGESTS = {
    "sos_trunc1-chain": "f608f66cad1e7a3e5d770a51d3ad05b8e6a5c2f69d02c1071cb1e093c6325652",
    "domino-3x3": "d28d0a16da5d75588d4c3b72d5974f20c729e19f3ffc11e577f7bb4f5723fef6",
    "gaussian": "1948f668d1d343ef5a69d6efafd75738e6f65da6bc778c95407c8503c345100c",
    "wide-table": "97d46a19ffeb7fa0dd6abcdbe816f38230bffd5329228c85427323a90b171e4d",
    "inexact-residuals": "d6222aeee29f2ae4658438af0ad1444c71017514cd8c69a245a189fd06f97e8d",
}


@pytest.mark.parametrize("case", sorted(_SWAP_DIGESTS))
def test_swap_maps_match_golden_digests(case):
    # each map from each triplet: cluster_swap_at chained over the sorted
    # support, six chained Swendsen-Wang updates and three coin merges
    pot, trips, window = _golden_cases()[case]
    out = []
    for s, trip in enumerate(trips):
        support = sorted(trip.phi1.values)
        t = trip
        for x in support:
            t = cluster_swap_at(pot, t, window, x)
            out.append(_state(t))
        t = trip
        for k in range(6):
            t = swendsen_wang_update(pot, t, window, RngStream(s, k).at(0))
            out.append(_state(t, cluster_swap_at(pot, t, window, support[k % len(support)])))
        for k in range(3):
            out.append(_state(*coin_merge_coupling(pot, trip, support if window is None else window, RngStream(s, 10 + k).at(0))))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == _SWAP_DIGESTS[case]


def test_synchronized_domination_coupling_matches_golden_digest(sos_trunc1):
    interior = sorted(box_region(2, 2, origin=(1, 1)))
    b1 = {v: 0 for v in outer_boundary(interior)}
    b2 = {v: 1 for v in outer_boundary(interior)}
    out = [
        _state(*synchronized_domination_coupling(pot, interior, b1, b2, RngStream(31, k)))
        for pot in (sos_trunc1, _inexact_deficit_potential())
        for k in range(8)
    ]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == "fb5714a902e08b6f6413b1e3ce4fe358cb64160bfcbe3b705015923ba341aba2"
