import itertools
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from gradsurf import feasibility, sampler
from gradsurf.cli import main
from gradsurf.errors import EmptySupport, GradsurfError, Infeasible, NegativeCycle, NonMonotoneCoupling, StateSpaceTooLarge
from gradsurf.feasibility import enumerate_torus_configs
from gradsurf.heights import HeightConfig, TorusInfo
from gradsurf.lattice import box_region, outer_boundary
from gradsurf.observables import THERMODYNAMIC_INTEGRATION, sigma_estimate, variance_profile
from gradsurf.potential import (
    PeriodicPotential,
    PiecewiseLinearPotential,
    QuadraticPotential,
    TablePotential,
    domino_potential,
)
from gradsurf.rng import RngStream
from gradsurf.sampler import (
    DiscreteDistribution,
    GaussianDistribution,
    _torus_start,
    cftp_sample,
    checkerboard_order,
    heat_bath_sweep,
    random_round,
    random_scan_order,
    site_conditional,
    torus_sample,
)

from oracles import exact_gibbs_distribution

F = Fraction


def test_site_conditional_sos_two_neighbors(sos):
    config = {(0, 0): 0, (2, 0): 0}
    dist = site_conditional(sos, config, (1, 0))
    # oracle: P(a) i e^{-2|a|}; P(0) = (1 - e^-2) / (1 + e^-2) by the geometric series
    q = math.exp(-2)
    expected0 = (1 - q) / (1 + q)
    assert dist.prob(0) == pytest.approx(expected0, abs=1e-12)
    assert dist.prob(1) == pytest.approx(expected0 * q, abs=1e-12)
    assert dist.prob(-3) == pytest.approx(expected0 * q**3, abs=1e-12)


def test_site_conditional_domino_point_mass(domino):
    # neighbors 0 and 2 cannot happen for dominoes; build a forcing window instead
    boundary = {(0, 1): 0, (2, 1): 0, (1, 0): -1, (1, 2): -1}
    dist = site_conditional(domino, boundary, (1, 1))
    assert isinstance(dist, DiscreteDistribution)
    assert set(dist.support) <= {-1, 0}
    # all four neighbors at 1: horizontal edges allow {0,1}, vertical {1,2}
    forcing = {(0, 1): 1, (2, 1): 1, (1, 0): 1, (1, 2): 1}
    d2 = site_conditional(domino, forcing, (1, 1))
    assert d2.support == (1,) and d2.probs == (1.0,)


def test_site_conditional_gaussian(gaussian):
    config = {(0, 0): 1.0, (2, 0): 4.0}
    dist = site_conditional(gaussian, config, (1, 0))
    assert isinstance(dist, GaussianDistribution)
    assert dist.mean == pytest.approx(2.5)
    assert dist.variance == pytest.approx(0.25)


def test_site_conditional_empty_support(sos_trunc1):
    config = {(0, 0): 0, (2, 0): 3}
    with pytest.raises(EmptySupport):
        site_conditional(sos_trunc1, config, (1, 0))


def test_sweep_empty_region(sos):
    config = HeightConfig({(0, 0): 0}, reference=(0, 0))
    out = heat_bath_sweep(sos, config, boundary={(0, 0): 0}, order=[], uniforms=[])
    assert out.values == config.values


def test_single_site_sweep_is_exact_gibbs(sos_trunc1):
    # one interior vertex: the sweep distribution equals the conditional itself
    interior = [(1, 1)]
    boundary = {v: 0 for v in outer_boundary(interior)}
    states, probs = exact_gibbs_distribution(sos_trunc1, interior, boundary)
    dist = site_conditional(sos_trunc1, boundary, (1, 1))
    oracle = {s[(1, 1)]: p for s, p in zip(states, probs)}
    assert set(oracle) == set(dist.support)
    for a, p in oracle.items():
        assert dist.prob(a) == pytest.approx(p, abs=1e-12)


def _sweep_matrix(pot, states, interior, boundary):
    """Exact one-sweep transition matrix, composing per-site kernels."""
    order = checkerboard_order(interior)
    index = {tuple(sorted(s.items())): i for i, s in enumerate(states)}
    n = len(states)
    mat = np.eye(n)
    for x in order:
        site = np.zeros((n, n))
        for i, s in enumerate(states):
            values = dict(boundary)
            values.update(s)
            del values[x]
            dist = site_conditional(pot, values, x)
            for a, p in zip(dist.support, dist.probs):
                target = dict(s)
                target[x] = a
                j = index[tuple(sorted(target.items()))]
                site[i, j] += p
        mat = mat @ site
    return mat


@pytest.mark.parametrize("fixture_name", ["sos_trunc1", "domino"])
def test_sweep_fixes_gibbs_vector(request, fixture_name):
    pot = request.getfixturevalue(fixture_name)
    if fixture_name == "domino":
        interior = sorted(box_region(2, 2, origin=(1, 1)))
        boundary = {
            (0, 0): 0, (1, 0): -1, (2, 0): 0, (3, 0): -1,
            (0, 1): 0, (3, 1): 0,
            (0, 2): 0, (3, 2): -1,
            (0, 3): 0, (1, 3): -1, (2, 3): 0, (3, 3): -1,
        }
        boundary = {v: h for v, h in boundary.items() if v in outer_boundary(interior)}
    else:
        interior = sorted(box_region(2, 2, origin=(1, 1)))
        boundary = {v: 0 for v in outer_boundary(interior)}
    states, probs = exact_gibbs_distribution(pot, interior, boundary)
    assert len(states) > 1
    mat = _sweep_matrix(pot, states, interior, boundary)
    pi = np.array(probs)
    assert np.abs(pi @ mat - pi).max() < 1e-12
    assert np.abs(mat.sum(axis=1) - 1).max() < 1e-12


def test_sweep_deterministic_given_stream(sos_trunc1):
    interior = sorted(box_region(2, 2, origin=(1, 1)))
    boundary = {v: 0 for v in outer_boundary(interior)}
    init = HeightConfig({v: 0 for v in interior}, reference=interior[0])
    stream = RngStream(99, 3)
    a = heat_bath_sweep(sos_trunc1, init, boundary=boundary, rng=stream.at(0))
    b = heat_bath_sweep(sos_trunc1, init, boundary=boundary, rng=stream.at(0))
    assert a.values == b.values


def test_torus_sample_homology_conserved(domino):
    stream = RngStream(7, 0)
    config = torus_sample(domino, 4, (F(0), F(0)), sweeps=10, rng=stream)
    n = 4
    row = sum(config.increment((i, 0), 0) for i in range(n))
    col = sum(config.increment((0, j), 1) for j in range(n))
    assert (row, col) == (0, 0)
    tilted = torus_sample(domino, 4, (F(1, 4), F(0)), sweeps=10, rng=stream.substream(1))
    row = sum(tilted.increment((i, 0), 0) for i in range(n))
    assert row == 1


def test_torus_sample_side_32_domino(domino):
    # the start costs one extension pass per direction at any size
    config = torus_sample(domino, 32, (F(0), F(0)), sweeps=1, rng=RngStream(0, 0))
    assert len(config.values) == 32 * 32


def test_torus_sample_real_heights_stay_finite(gaussian):
    # real increments telescope around a cycle only up to rounding, so no
    # chain may test its cycle sums exactly
    for seed in range(30):
        config = torus_sample(gaussian, 4, (F(0), F(0)), sweeps=8, rng=RngStream(seed, 0))
        assert len(config.values) == 16
        assert all(math.isfinite(h) for h in config.values.values())


def test_torus_start_rejects_infinite_plane():
    # increments in [0, inf) are unbounded, so the start is the plane u.x,
    # whose wrap increment -1 has infinite energy at slope (-1/4, 0)
    half = PeriodicPotential.isotropic("int", PiecewiseLinearPotential((0.0, 1.0), (0.0, 0.0), None, 1.0))
    with pytest.raises(StateSpaceTooLarge):
        torus_sample(half, 4, (F(-1, 4), F(0)), sweeps=1, rng=RngStream(0, 0))
    assert len(torus_sample(half, 4, (F(1, 4), F(0)), sweeps=1, rng=RngStream(0, 0)).values) == 16


def test_torus_chains_never_search_ground_states(sos_trunc1, monkeypatch, tmp_path):
    # the branch-and-bound search is exponential in n^2; it stays an exact
    # small-torus oracle and no torus chain starts from it
    search = feasibility.ground_state_energy
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gradsurf" and hasattr(module, "ground_state_energy"):
            monkeypatch.setattr(module, "ground_state_energy", counted)
    slope = (F(1, 4), F(0))
    torus_sample(sos_trunc1, 4, slope, sweeps=2, rng=RngStream(0, 0))
    sigma_estimate(sos_trunc1, slope, 4, THERMODYNAMIC_INTEGRATION, budget=16, rng=RngStream(1, 0))
    variance_profile(sos_trunc1, 4, slope, distances=(1, 2), trials=8, rng=RngStream(2, 0), burn_in=2)
    cfg = tmp_path / "swap.json"
    cfg.write_text(json.dumps({"potential": {"preset": "domino"}, "n": 4, "sweeps": 2, "trials": 1}))
    assert main(["swap", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == []


def test_torus_sweep_fixes_class_gibbs(sos_trunc1):
    # exact stationarity on the 2-torus, slope (1/2, 0) class
    n, slope = 2, (F(1, 2), F(0))
    states = []
    weights = []
    for values, energy in enumerate_torus_configs(sos_trunc1, n, slope):
        states.append(values)
        weights.append(math.exp(-energy))
    info_slope = states[0]
    index = {tuple(sorted(s.items())): i for i, s in enumerate(states)}
    pi = np.array(weights)
    pi /= pi.sum()
    interior = [v for v in sorted(states[0]) if v != (0, 0)]
    from gradsurf.feasibility import torus_info

    info = torus_info(sos_trunc1, n, slope)
    mat = np.eye(len(states))
    for x in checkerboard_order(interior):
        site = np.zeros((len(states), len(states)))
        for i, s in enumerate(states):
            cfg = HeightConfig(dict(s), reference=(0, 0), torus=info)
            del cfg.values[x]
            dist = site_conditional(sos_trunc1, cfg, x)
            for a, p in zip(dist.support, dist.probs):
                target = dict(s)
                target[x] = a
                site[i, index[tuple(sorted(target.items()))]] += p
        mat = mat @ site
    assert np.abs(pi @ mat - pi).max() < 1e-12


def test_heat_bath_empirical_matches_enumeration(sos_trunc1):
    # thinned chain on the 2x2 block against the exact enumeration
    from scipy import stats

    interior = sorted(box_region(2, 2, origin=(1, 1)))
    boundary = {v: 0 for v in outer_boundary(interior)}
    states, probs = exact_gibbs_distribution(sos_trunc1, interior, boundary)
    index = {tuple(sorted(s.items())): i for i, s in enumerate(states)}
    config = HeightConfig({v: 0 for v in interior}, reference=interior[0])
    stream = RngStream(6021, 0)
    counts = [0] * len(states)
    thin, samples = 6, 6000
    t = 0
    for _ in range(200):  # burn-in
        config = heat_bath_sweep(sos_trunc1, config, boundary=boundary, rng=stream.at(t))
        t += 1
    for _ in range(samples):
        for _ in range(thin):
            config = heat_bath_sweep(sos_trunc1, config, boundary=boundary, rng=stream.at(t))
            t += 1
        counts[index[tuple(sorted(config.values.items()))]] += 1
    expected = [samples * p for p in probs]
    assert stats.chisquare(counts, expected).pvalue > 0.01


def test_cftp_unique_config(sos_trunc1):
    boundary = {(0, 1): 0, (2, 1): 2, (1, 0): 1, (1, 2): 1}
    out = cftp_sample(sos_trunc1, [(1, 1)], boundary, RngStream(1, 0))
    assert out.values[(1, 1)] == 1


def test_cftp_deterministic(domino):
    interior = sorted(box_region(2, 2, origin=(1, 1)))
    boundary = {
        (1, 0): -1, (2, 0): 0,
        (0, 1): 0, (3, 1): 0,
        (0, 2): 0, (3, 2): -1,
        (1, 3): -1, (2, 3): 0,
    }
    boundary = {v: h for v, h in boundary.items() if v in outer_boundary(interior)}
    a = cftp_sample(domino, interior, boundary, RngStream(123, 5))
    b = cftp_sample(domino, interior, boundary, RngStream(123, 5))
    assert a.values == b.values


def test_cftp_matches_enumeration(sos_trunc1):
    from scipy import stats

    interior = [(1, 1)]
    boundary = {v: 0 for v in outer_boundary(interior)}
    states, probs = exact_gibbs_distribution(sos_trunc1, interior, boundary)
    oracle = {s[(1, 1)]: p for s, p in zip(states, probs)}
    counts = {a: 0 for a in oracle}
    trials = 4000
    for k in range(trials):
        out = cftp_sample(sos_trunc1, interior, boundary, RngStream(2024, k))
        counts[out.values[(1, 1)]] += 1
    observed = [counts[a] for a in sorted(oracle)]
    expected = [trials * oracle[a] for a in sorted(oracle)]
    assert stats.chisquare(observed, expected).pvalue > 0.01


def test_cftp_monotone_coupling_under_shifted_boundary(sos_trunc1):
    # shared uniforms and ordered boundaries keep the chains ordered
    interior = sorted(box_region(2, 2, origin=(1, 1)))
    b1 = {v: 0 for v in outer_boundary(interior)}
    b2 = {v: 1 for v in outer_boundary(interior)}
    for k in range(50):
        s1 = cftp_sample(sos_trunc1, interior, b1, RngStream(77, k))
        s2 = cftp_sample(sos_trunc1, interior, b2, RngStream(77, k))
        assert all(s1.values[v] <= s2.values[v] for v in interior)


def test_cftp_ignores_edges_between_boundary_vertices(sos_trunc1):
    # |eta| <= 1 forbids the step 0 -> 2 between (-1, 0) and (-1, 1), but
    # that edge's energy is fixed and the interior keeps 17 configurations
    interior = sorted(box_region(2, 2))
    boundary = {v: 1 for v in outer_boundary(interior)}
    boundary[(-1, 0)], boundary[(-1, 1)] = 0, 2
    states, _ = exact_gibbs_distribution(sos_trunc1, interior, boundary)
    assert len(states) == 17
    for k in range(20):
        out = cftp_sample(sos_trunc1, interior, boundary, RngStream(9, k))
        assert {v: out.values[v] for v in interior} in states


def test_cftp_one_extension_pass_per_direction(sos_trunc1, monkeypatch):
    # the maximal and minimal starts come from one seeded Bellman-Ford
    # pass each, whatever the number of boundary vertices (8 here)
    passes = []
    bellman_ford = feasibility._bellman_ford

    def counted(*args):
        passes.append(args[2])
        return bellman_ford(*args)

    monkeypatch.setattr(feasibility, "_bellman_ford", counted)
    interior = sorted(box_region(2, 2))
    boundary = {v: 0 for v in outer_boundary(interior)}
    cftp_sample(sos_trunc1, interior, boundary, RngStream(0))
    assert passes == [{v: 0.0 for v in boundary}] * 2


def test_cftp_nonconvex_potential_raises_typed_error(nonconvex):
    # V(0) = 1, V(+-1) = 0 is Lipschitz but not convex: site conditionals
    # are not ordered in the neighbor heights, so the coupled chains cross
    interior = sorted(box_region(3, 3))
    boundary = {v: 0 for v in outer_boundary(interior)}
    with pytest.raises(NonMonotoneCoupling):
        cftp_sample(nonconvex, interior, boundary, RngStream(0))


def test_random_round_integer_input():
    config = HeightConfig({(0, 0): 0, (1, 0): 2}, reference=(0, 0))
    out = random_round(config, RngStream(5, 0).at(0))
    assert out.values == config.values


def test_random_round_flat_half():
    config = HeightConfig({(0, 0): 0.5, (1, 0): 0.5}, reference=(0, 0))
    for k in range(10):
        out = random_round(config, RngStream(5, k).at(0))
        vals = set(out.values.values())
        assert len(vals) == 1 and vals <= {0, 1}


def test_random_round_plane_slope_half():
    n = 4
    info = TorusInfo(n=n, slope=(F(1, 2), F(0)))
    values = {(i, j): 0.5 * i for i in range(n) for j in range(n)}
    config = HeightConfig(values, reference=(0, 0), torus=info)
    for k in range(10):
        out = random_round(config, RngStream(6, k).at(0))
        row = sum(out.increment((i, 0), 0) for i in range(n))
        assert row == 2


def test_checkerboard_order():
    order = checkerboard_order([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert order == [(0, 0), (1, 1), (0, 1), (1, 0)]


def test_checkerboard_half_sweep_order_independent(sos_trunc1):
    # sites of one color share no edges, so updating a color block in any
    # order with site-keyed uniforms is bit-identical; this is what makes
    # internal parallelization of half-sweeps legal
    interior = sorted(box_region(3, 3, origin=(1, 1)))
    boundary = {v: 0 for v in outer_boundary(interior)}
    init = HeightConfig({v: 0 for v in interior}, reference=interior[0])
    base_order = checkerboard_order(interior)
    us = RngStream(41, 0).at(0).random(len(base_order))
    by_site = dict(zip(base_order, us))
    n_even = sum(1 for v in base_order if (v[0] + v[1]) % 2 == 0)
    evens, odds = base_order[:n_even], base_order[n_even:]
    reference = heat_bath_sweep(
        sos_trunc1, init, boundary=boundary, order=base_order, uniforms=us
    )
    for perm_seed in range(3):
        rng = np.random.default_rng(perm_seed)
        order2 = [evens[i] for i in rng.permutation(n_even)] + [
            odds[i] for i in rng.permutation(len(odds))
        ]
        us2 = [by_site[v] for v in order2]
        shuffled = heat_bath_sweep(
            sos_trunc1, init, boundary=boundary, order=order2, uniforms=us2
        )
        assert shuffled.values == reference.values


# ---------------------------------------------------------------------------
# Memoized site conditionals against the site_conditional reference


def _reference_sweeps(pot, config, order, stream, sweeps, boundary=None):
    """Sweeps as a plain loop over site_conditional."""
    values = dict(config.values)
    for t in range(sweeps):
        for u, x in zip(stream.at(t).random(len(order)), order):
            view = HeightConfig(values, config.reference, config.torus)
            values[x] = site_conditional(pot, view, x, boundary).quantile(u)
    return values


def _library_sweeps(pot, config, order, stream, sweeps, boundary=None):
    for t in range(sweeps):
        config = heat_bath_sweep(pot, config, boundary=boundary, order=order, rng=stream.at(t))
    return config.values


def _exact(values):
    # repr keeps int and float apart, so a type change fails too
    return repr(sorted(values.items()))


def _sloped_torus_cases():
    from test_feasibility import _random_periodic_potential

    abs2 = TablePotential.from_dict({-2: 2.2, -1: 1.1, 0: 0.0, 1: 1.1, 2: 2.2})
    cases = [("domino", domino_potential(), n, slope) for n in (4, 6) for slope in ((0, 0), (F(1, 2), 0), (F(1, 4), F(1, 4)))]
    cases += [("abs2", PeriodicPotential.isotropic("int", abs2), 4, slope) for slope in ((0, 0), (F(1, 2), F(1, 4)))]
    rng = random.Random(4242)
    for k in range(12):
        cases.append((f"random-{k}", _random_periodic_potential(rng), 2 + 2 * (k % 2), (F(k % 3, 2), F(0))))
    # odd sides wrap onto the same checkerboard color, so their wave
    # schedules need more than two waves; side 1 has no free site
    abs2 = PeriodicPotential.isotropic("int", TablePotential.from_dict({-2: 2.2, -1: 1.1, 0: 0.0, 1: 1.1, 2: 2.2}))
    for n in (1, 2, 3, 5, 7):
        cases += [(f"abs2-side{n}", abs2, n, slope) for slope in ((0, 0), (F(1, 2), F(-1, 3)), (F(2), 0))]
    cases += [(f"domino-side2-{k}", domino_potential(), 2, slope) for k, slope in enumerate(((0, 0), (F(1, 2), 0)))]
    rng = random.Random(77)
    for k in range(8):
        slope = (F(k % 3 - 1, 2), F(k % 2, 2))
        cases.append((f"random-wide-{k}", _random_periodic_potential(rng), 6 + 2 * (k % 2), slope))
    return cases


@pytest.mark.parametrize("name, pot, n, slope", _sloped_torus_cases(), ids=lambda c: str(c) if isinstance(c, str) else None)
def test_memoized_torus_sweeps_equal_site_conditional_loop(name, pot, n, slope):
    # sloped tori carry holonomy shifts on the wrap edges; the random
    # 2Z^2-periodic tables give every orientation its own edge class
    try:
        start, table = _torus_start(pot, n, slope)
    except Infeasible:
        return
    stream = RngStream(5, n)
    expected = _exact(_reference_sweeps(pot, start, list(table), stream, 6))
    assert _exact(_library_sweeps(pot, start, table, stream, 6)) == expected
    assert _exact(torus_sample(pot, n, slope, 6, stream).values) == expected
    # any other order gets its own wave schedule
    shuffled = random_scan_order(table, np.random.default_rng(n))
    assert _exact(_library_sweeps(pot, start, shuffled, stream, 3)) == _exact(
        _reference_sweeps(pot, start, shuffled, stream, 3)
    )
    assert not table or sampler._conditional_table(pot).count


@pytest.mark.parametrize("name, pot, n, slope", _sloped_torus_cases(), ids=lambda c: str(c) if isinstance(c, str) else None)
def test_plan_windows_equal_graph_windows(name, pot, n, slope):
    # the numpy relaxation against Bellman-Ford on from_torus, including
    # the empty classes (a negative cycle there, Infeasible here)
    graph = feasibility.FeasibilityGraph.from_torus(pot, n, slope)
    try:
        expected = feasibility._value_windows(pot, graph, {(0, 0): 0}, graph.vertices)
    except NegativeCycle:
        with pytest.raises(Infeasible):
            feasibility._torus_frame(pot, n, slope)
        return
    assert feasibility._torus_frame(pot, n, slope)[1] == expected


def test_plan_wave_schedule():
    # a checkerboard order takes two waves on even sides; every wave holds
    # no two neighbors, and each site sits in a later wave than its
    # earlier-ordered neighbors
    pot = PeriodicPotential.isotropic("int", TablePotential.from_dict({-1: 1.0, 0: 0.0, 1: 1.0}))
    for n in (2, 3, 4, 5, 7, 8):
        plan = feasibility._torus_plan(pot, TorusInfo(n, (F(0), F(0))))
        waves = {int(k): w for w, (_, sites, *_) in enumerate(plan.waves) for k in sites}
        assert sorted(waves) == list(range(1, n * n))
        if n % 2 == 0:
            assert len(plan.waves) == 2
        for pos, (k, v) in enumerate((plan.index[v], v) for v in plan.order):
            for t in plan.nbr[k]:
                earlier = plan.sites[t] in plan.order[:pos]
                assert t == 0 or (waves[int(t)] < waves[k] if earlier else waves[int(t)] > waves[k])


@pytest.mark.parametrize("pot_name", ["sos_trunc1", "sos_trunc2", "sos", "domino"])
@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("height", [int, float])
def test_memoized_region_sweeps_equal_site_conditional_loop(request, pot_name, level, height):
    # region boundaries, float starts (reference path until every height is
    # an integer) and sos-abs, whose unbounded scan starts from a rounded mean
    pot = request.getfixturevalue(pot_name)
    interior = sorted(box_region(3, 4, origin=(1, 1)))
    boundary = {v: level * (v[0] // 2) for v in outer_boundary(interior)}
    init = HeightConfig({v: height(0) for v in interior}, reference=interior[0])
    order = checkerboard_order(interior)
    stream = RngStream(3, 1)
    try:
        expected = _exact(_reference_sweeps(pot, init, order, stream, 6, boundary))
    except EmptySupport:
        with pytest.raises(EmptySupport):
            _library_sweeps(pot, init, None, stream, 6, boundary)
        return
    assert _exact(_library_sweeps(pot, init, None, stream, 6, boundary)) == expected


def test_memos_are_per_potential():
    # the same class layout at two scales must never share an entry
    base = {-2: 2.0, -1: 1.0, 0: 0.0, 1: 1.0, 2: 2.0}
    pots = [
        PeriodicPotential.isotropic("int", TablePotential.from_dict({k: s * v for k, v in base.items()}))
        for s in (1.0, 3.0)
    ]
    for pot in pots:
        start, table = _torus_start(pot, 6, (0, 0))
        assert _exact(_library_sweeps(pot, start, table, RngStream(8, 0), 4)) == _exact(
            _reference_sweeps(pot, start, list(table), RngStream(8, 0), 4)
        )
    weak, strong = (sampler._conditional_table(p) for p in pots)
    assert weak is not strong
    shared = np.flatnonzero((weak.row_of >= 0) & (strong.row_of >= 0))
    assert shared.size
    for w, t in zip(weak.row_of[shared], strong.row_of[shared]):
        assert (weak.vals[w] == strong.vals[t]).all()
        if np.isfinite(weak.cdf[w]).any():  # more than one height
            assert (weak.cdf[w] != strong.cdf[t]).any()


def test_wide_supports_sweep_with_site_conditional_code():
    # increment bounds of +-16 would need a table of 33^4 keys, beyond its
    # limit; such torus chains run the reference code, with equal results
    wide = PeriodicPotential.isotropic("int", TablePotential.from_dict({k: 0.25 * abs(k) for k in range(-16, 17)}))
    assert sampler._conditional_table(wide) is None
    start, order = _torus_start(wide, 4, (F(1, 2), 0))
    stream = RngStream(9, 0)
    expected = _exact(_reference_sweeps(wide, start, list(order), stream, 3))
    assert _exact(_library_sweeps(wide, start, order, stream, 3)) == expected
    assert _exact(torus_sample(wide, 4, (F(1, 2), 0), 3, stream).values) == expected


def test_cftp_memoized_path_equals_reference_path(monkeypatch):
    # the coupled sweep with memoized conditionals against the per-site
    # site_conditional code it replaces
    from test_feasibility import _random_periodic_potential

    rng = random.Random(17)
    pots = [domino_potential()] + [_random_periodic_potential(rng) for _ in range(4)]
    results = {}
    for path in ("memo", "reference"):
        if path == "reference":
            monkeypatch.setattr(sampler, "_site_table", lambda *args: None)
        for k, pot in enumerate(pots):
            for w, h in ((2, 2), (3, 3), (4, 2)):
                interior = sorted(box_region(w, h))
                boundary = {v: (v[0] + v[1]) % 2 if k == 0 else 0 for v in outer_boundary(interior)}
                for seed in range(3):
                    try:
                        out = _exact(cftp_sample(pot, interior, boundary, RngStream(seed, k)).values)
                    except GradsurfError as exc:
                        out = exc.kind
                    results.setdefault((k, w, h, seed), []).append(out)
    assert all(a == b for a, b in results.values())
    assert sum(a[0] not in ("Infeasible", "NegativeCycle", "NonMonotoneCoupling") for a in results.values()) >= 20


def test_torus_start_built_once_per_potential(monkeypatch):
    # one relaxation (both directions at once) for the plan's windows,
    # none after
    passes = []
    extensions = feasibility.TorusPlan.extensions

    def counted(self, *args):
        passes.append(args)
        return extensions(self, *args)

    monkeypatch.setattr(feasibility.TorusPlan, "extensions", counted)
    pot = domino_potential()
    slope = (F(1, 4), F(0))
    a = torus_sample(pot, 8, slope, sweeps=3, rng=RngStream(1, 0))
    b = torus_sample(pot, 8, slope, sweeps=3, rng=RngStream(1, 1))
    assert len(passes) == 1
    assert a.values == torus_sample(domino_potential(), 8, slope, sweeps=3, rng=RngStream(1, 0)).values
    assert b.values == torus_sample(domino_potential(), 8, slope, sweeps=3, rng=RngStream(1, 1)).values


def test_one_conditional_per_distinct_pattern(monkeypatch):
    # a domino chain recomputes no site conditional: one
    # _discrete_conditional call per distinct neighborhood pattern
    pot = domino_potential()
    start, table = _torus_start(pot, 8, (0, 0))
    stream, sweeps = RngStream(0, 0), 8
    patterns = set()
    values = dict(start.values)
    for t in range(sweeps):
        for u, x in zip(stream.at(t).random(len(table)), table):
            slots = feasibility._neighbor_slots(x, values, start.torus)
            hs = [values[k] + d if o > 0 else values[k] - d for k, d, _, o in slots]
            classes = tuple((pot.edge_class(e), o) for _, _, e, o in slots)
            patterns.add((classes, tuple(h - min(hs) for h in hs)))
            view = HeightConfig(values, start.reference, start.torus)
            values[x] = site_conditional(pot, view, x).quantile(u)
    calls = []
    conditional = sampler._discrete_conditional

    def counted(terms):
        calls.append(terms)
        return conditional(terms)

    monkeypatch.setattr(sampler, "_discrete_conditional", counted)
    assert _library_sweeps(pot, start, table, stream, sweeps) == values
    assert len(calls) == len(patterns) < len(table) * sweeps // 10
