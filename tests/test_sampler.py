import collections
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from gradsurf import feasibility, rng, sampler
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
    sos_abs_potential,
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

from oracles import at_rows, exact_gibbs_distribution, graph_windows, region_arcs, torus_arcs

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
    # the maximal and minimal starts come from one plan relaxation, both
    # directions at once, per region and boundary heights, whatever the
    # number of boundary vertices (8 here) or of samples
    passes = []
    extensions = feasibility.Plan.extensions

    def counted(self, partial):
        passes.append(dict(partial))
        return extensions(self, partial)

    monkeypatch.setattr(feasibility.Plan, "extensions", counted)
    interior = sorted(box_region(2, 2))
    boundary = {v: 0 for v in outer_boundary(interior)}
    cftp_sample(sos_trunc1, interior, boundary, RngStream(0))
    # a second sample of the region reuses the plan's windows
    cftp_sample(sos_trunc1, interior, boundary, RngStream(1))
    assert passes == [boundary]


def test_region_plan_shared_across_boundary_levels():
    # one plan per region and boundary vertices; each boundary level adds
    # only its own height windows
    abs1 = PeriodicPotential.isotropic("int", TablePotential.from_dict({-1: 1.0, 0: 0.0, 1: 1.0}))
    region = sorted(box_region(6, 6))
    boundaries = [{v: level for v in outer_boundary(region)} for level in range(5)]
    for level, boundary in enumerate(boundaries):
        cftp_sample(abs1, region, boundary, RngStream(level))
    plans = abs1._memo("_region_plans")
    assert len(plans) == 1
    (plan,) = plans.values()
    assert len(plan.windows) == 5
    for boundary in boundaries:
        expected = graph_windows(*region_arcs(abs1, region, boundary), boundary, region)
        assert plan.windows[tuple(sorted(boundary.items()))] == expected


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
    # the numpy relaxation against Bellman-Ford on the dict torus graph,
    # including the empty classes (a negative cycle there, Infeasible here)
    verts, arcs = torus_arcs(pot, n, slope)
    try:
        expected = graph_windows(verts, arcs, {(0, 0): 0}, verts)
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


@pytest.mark.parametrize("slope", [(0, 0), (F(1, 2), F(1, 4))], ids=["flat", "sloped"])
@pytest.mark.parametrize("domain, edge", [("real", QuadraticPotential(1.0)), ("int", sos_abs_potential())], ids=["gaussian", "sos-abs"])
def test_unbounded_torus_chains_equal_site_conditional_loop(domain, edge, slope):
    # chains without a plan (a Gaussian on real heights, |eta| with
    # unbounded increments) sweep one dict in place with site_conditional's
    # code, from the plane start
    pot = PeriodicPotential.isotropic(domain, edge)
    start, order = _torus_start(pot, 4, slope)
    stream = RngStream(6, 1)
    expected = _exact(_reference_sweeps(pot, start, list(order), stream, 3))
    assert _exact(_library_sweeps(pot, start, order, stream, 3)) == expected
    assert _exact(torus_sample(pot, 4, slope, 3, stream).values) == expected


def test_sweep_plan_asked_once_per_chain(monkeypatch, tmp_path, sos_trunc1):
    # a chain asks _sweep_plan once for all its sweeps: torus_sample once,
    # region sample once per sample
    calls = []
    sweep_plan = sampler._sweep_plan
    monkeypatch.setattr(sampler, "_sweep_plan", lambda *args: calls.append(args) or sweep_plan(*args))
    torus_sample(sos_trunc1, 4, (0, 0), 8, RngStream(0, 0))
    assert len(calls) == 1
    calls.clear()
    abs1 = {"domain": "int", "period": [[1, 0], [0, 1]], "classes": {"kind": "table", "values": {"-1": 1.0, "0": 0.0, "1": 1.0}}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"potential": abs1, "mode": "region", "region": "4x4", "sweeps": 8, "samples": 2}))
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 2


def test_chain_branches_agree_on_ti_and_variance_profiles(monkeypatch, sos_trunc1):
    # TI sweeps rescaled potentials and reads chain energies, variance
    # profiles read chain configs: the dict branch, forced by a selector
    # that accepts no plan, gives the plan branch's numbers bit for bit
    slope = (F(1, 4), F(0))
    results = []
    for path in ("plan", "dict"):
        if path == "dict":
            monkeypatch.setattr(sampler, "_sweep_plan", lambda *args: None)
        ti = sigma_estimate(sos_trunc1, slope, 4, method=THERMODYNAMIC_INTEGRATION, budget=16, rng=RngStream(3, 0))
        profile = variance_profile(sos_trunc1, 4, slope, (1, 2), trials=8, rng=RngStream(3, 1), burn_in=4, batches=4)
        results.append((ti.value, ti.stderr, profile.variances, profile.stderrs))
    assert results[0] == results[1]


def _cftp_cases(sos_trunc1, nonconvex):
    """(potential, interior, boundary, stream) per case: random tables on
    boxes, a notched region, a missing neighbor, a nonconvex crossing and a
    table with a gap."""
    from test_feasibility import _random_periodic_potential

    from gradsurf.tilings import boundary_heights, region_vertices

    rng = random.Random(17)
    pots = [domino_potential()] + [_random_periodic_potential(rng) for _ in range(4)]
    cases = {}
    for k, pot in enumerate(pots):
        for w, h in ((2, 2), (3, 3), (4, 2)):
            interior = sorted(box_region(w, h))
            boundary = {v: (v[0] + v[1]) % 2 if k == 0 else 0 for v in outer_boundary(interior)}
            for seed in range(3):
                cases[(k, w, h, seed)] = (pot, interior, boundary, RngStream(seed, k))
    # a notched region: a notched domino square and |eta| <= 1 on it
    squares = box_region(4, 4) - {(3, 3), (2, 3)}
    fixed = boundary_heights(squares)
    notched = sorted(region_vertices(squares) - set(fixed))
    cases["notched-domino"] = (domino_potential(), notched, fixed, RngStream(4, 0))
    cases["notched-abs1"] = (sos_trunc1, notched, {v: v[0] // 2 for v in outer_boundary(notched)}, RngStream(4, 1))
    # a boundary that leaves (0, 0) without its -e1 neighbor
    interior = sorted(box_region(3, 3))
    open_side = {v: 0 for v in outer_boundary(interior) if v != (-1, 0)}
    cases["missing-neighbor"] = (sos_trunc1, interior, open_side, RngStream(5, 0))
    # the nonconvex crossing
    cases["nonconvex"] = (nonconvex, interior, {v: 0 for v in outer_boundary(interior)}, RngStream(0))
    # a table with a gap: the chains cross at (0, 0) in the sweep where a
    # later site has no finite-energy height
    gapped = PeriodicPotential.isotropic("int", TablePotential.from_dict({-1: 1.0, 0: 1.5, 2: 1.5, 3: 0.5}))
    interior = sorted(box_region(3, 4))
    boundary = {v: 0 for v in outer_boundary(interior)}
    boundary.update({(0, 4): 1, (1, 4): 1, (2, -1): -1, (3, 0): -1, (3, 1): -1, (3, 3): 1})
    cases["gapped"] = (gapped, interior, boundary, RngStream(421))
    return cases


def test_cftp_memoized_path_equals_reference_path(monkeypatch, sos_trunc1, nonconvex):
    # the batched coupled sweep on the region plan against the per-site
    # site_conditional code, forced by a selector that accepts no plan
    cases = _cftp_cases(sos_trunc1, nonconvex)
    plan_sweeps = []
    sweep_waves = sampler._sweep_waves
    monkeypatch.setattr(sampler, "_sweep_waves", lambda *args: plan_sweeps.append(1) or sweep_waves(*args))
    results = {}
    for path in ("plan", "reference"):
        if path == "reference":
            monkeypatch.setattr(sampler, "_sweep_plan", lambda *args: None)
        for key, (pot, interior, boundary, stream) in cases.items():
            try:
                out = _exact(cftp_sample(pot, interior, boundary, stream).values)
            except GradsurfError as exc:
                out = f"{exc.kind}: {exc}"
            results.setdefault(key, []).append(out)
        if path == "plan":
            assert plan_sweeps
    assert all(a == b for a, b in results.values())
    assert sum(a[0].split(":")[0] not in ("Infeasible", "NegativeCycle", "NonMonotoneCoupling") for a in results.values()) >= 23
    assert results["nonconvex"][0].startswith("NonMonotoneCoupling: coupled chains crossed at site")
    assert results["gapped"][0] == "NonMonotoneCoupling: coupled chains crossed at site (0, 0)"


def _cftp_outcome(run):
    try:
        return [_exact(config.values) for config in run()]
    except GradsurfError as exc:
        return f"{exc.kind}: {exc}"


# streams on the nonconvex table in a 3x3 box at level 0 with 4 epochs:
# samples 0 and 1 coalesce, sample 2 exhausts the budget, and samples 3 and
# 4 cross in the second epoch
_LATE = [RngStream(11), RngStream(421, 7), RngStream(10), RngStream(9), RngStream(7)]
_LATE_ERROR = "NoCoalescence: no coalescence within epoch budget 4 (last span 16, 31 coupled sweeps)"


def _batch_equals_loop(pot, interior, boundary, streams, max_epochs=22):
    """The outcome of one batch, asserted equal to one call per stream."""
    batch = _cftp_outcome(lambda: sampler.cftp_samples(pot, interior, boundary, streams, max_epochs))
    alone = _cftp_outcome(lambda: [cftp_sample(pot, interior, boundary, s, max_epochs) for s in streams])
    assert batch == alone
    return batch


def test_cftp_samples_equal_per_stream_samples(monkeypatch, sos_trunc1, nonconvex):
    # a batch returns each stream's sample, or raises what the first
    # failing stream raises alone, on every case of the plan test above and
    # on the reference path
    outcomes = []
    for pot, interior, boundary, stream in _cftp_cases(sos_trunc1, nonconvex).values():
        streams = [stream] + [RngStream(stream.seed, stream.stream_id + k) for k in range(1, 6)]
        for max_epochs in (-1, 0, 22):
            outcomes.append(_batch_equals_loop(pot, interior, boundary, streams, max_epochs))
    assert outcomes.count("NoCoalescence: no coalescence within epoch budget -1 (last span 0, 0 coupled sweeps)") >= 20
    assert sum(isinstance(out, list) for out in outcomes) >= 20
    # the middle sample's error is raised when later samples fail first:
    # in _LATE, and when sample 1 crosses in a later epoch than sample 2
    interior = sorted(box_region(3, 3))
    ring = {v: 0 for v in outer_boundary(interior)}
    assert _batch_equals_loop(nonconvex, interior, ring, _LATE, 4) == _LATE_ERROR
    crossing = [RngStream(11), RngStream(3), RngStream(7)]
    assert _batch_equals_loop(nonconvex, interior, ring, crossing, 4) == "NonMonotoneCoupling: coupled chains crossed at site (1, 1)"
    # empty supports replay the batch's sweep sample by sample
    gapped = _cftp_cases(sos_trunc1, nonconvex)["gapped"][:3]
    pair = [RngStream(421, 1), RngStream(421, 0)]
    assert _batch_equals_loop(*gapped, pair, 6) == "EmptySupport: no height has finite energy"
    assert _batch_equals_loop(*gapped, pair[::-1], 6).startswith("NonMonotoneCoupling")
    monkeypatch.setattr(sampler, "_sweep_plan", lambda *args: None)
    assert _batch_equals_loop(nonconvex, interior, ring, _LATE, 4) == _LATE_ERROR
    assert _batch_equals_loop(*gapped, pair, 6) == "EmptySupport: no height has finite energy"


def test_cftp_block_draws_equal_the_at_path(monkeypatch, sos_trunc1, nonconvex):
    # CFTP draws each epoch by rng.block; with one numpy generator per row
    # instead (oracles.at_rows) every sample and every error message, spans
    # and sweep counts included, is the same
    interior = sorted(box_region(3, 3))
    ring = {v: 0 for v in outer_boundary(interior)}
    batches = [
        (pot, interior, boundary, [stream] + [RngStream(stream.seed, stream.stream_id + k) for k in range(1, 4)], 22)
        for pot, interior, boundary, stream in _cftp_cases(sos_trunc1, nonconvex).values()
    ]
    batches.append((nonconvex, interior, ring, _LATE, 4))

    def outcomes():
        return [_cftp_outcome(lambda: sampler.cftp_samples(*batch)) for batch in batches]

    by_block = outcomes()
    monkeypatch.setattr(rng, "block", at_rows)
    assert outcomes() == by_block
    assert by_block[-1] == _LATE_ERROR
    assert sum(isinstance(out, list) for out in by_block) >= 20


def test_coupled_waves_replays_empty_supports_sample_by_sample(sos_trunc1):
    # a boundary height of sample 1 leaves site (1, 0) without a
    # finite-energy height, so the batched sweep raises EmptySupport; the
    # replay sweeps sample 0 as it would be swept alone and names sample 1
    interior = sorted(box_region(3, 2))
    boundary = {v: 0 for v in outer_boundary(interior)}
    order = checkerboard_order(interior)
    chain = sampler._Chain(sos_trunc1, HeightConfig(dict.fromkeys(interior, 1), reference=(0, 0)), boundary, order)
    plan = chain.plan
    start = [[level if v in interior else 0 for v in plan.sites] for level in (1, -1)]
    chains = np.array([start, start], dtype=np.int64)
    chains[1, :, plan.index[(1, -1)]] = 9
    uniforms = np.random.default_rng(3).random((2, len(order)))
    alone = chains[:1].copy()
    chain.heights = alone.reshape(2, -1)
    assert sampler._coupled_sweep(chain, uniforms[:1]) is None
    assert not (alone == chains[:1]).all()
    chain.heights = chains.reshape(4, -1)
    k, exc = sampler._coupled_sweep(chain, uniforms)
    assert (k, f"{exc.kind}: {exc}") == (1, "EmptySupport: no height has finite energy")
    assert (chains[0] == alone[0]).all()


def test_cftp_keeps_pins_inside_its_region(sos_trunc1):
    # a region site that the boundary pins stays at its pin: each sample
    # equals CFTP on the region without that site, stream by stream, with
    # the region's own reference vertex
    interior = sorted(box_region(3, 3))
    boundary = {v: 0 for v in outer_boundary(interior)}
    boundary[(1, 1)] = 1
    streams = [RngStream(seed) for seed in range(5)]
    holed = [v for v in interior if v != (1, 1)]
    for out, alone in zip(sampler.cftp_samples(sos_trunc1, interior, boundary, streams), sampler.cftp_samples(sos_trunc1, holed, boundary, streams)):
        assert out.values[(1, 1)] == 1
        assert (_exact(out.values), out.reference) == (_exact(alone.values), (0, 0))
    pinned = sampler.cftp_samples(sos_trunc1, [(1, 1)], boundary, streams[:2])
    assert [(_exact(out.values), out.reference) for out in pinned] == [(_exact(boundary), (1, 1))] * 2


def test_sweep_with_a_repinned_config_site_matches_golden(sos_trunc2):
    # the boundary pins config site (1, 1) at 2 while the config holds -1:
    # its neighbors see 2, and the swept config holds the pin there, the
    # height the sweep used
    interior = sorted(box_region(4, 4))
    boundary = {v: (v[0] + 2 * v[1]) % 3 - 1 for v in outer_boundary(interior)}
    boundary[(1, 1)] = 2
    config = HeightConfig({**dict.fromkeys(interior, 0), (1, 1): -1}, reference=(0, 0))
    stream = RngStream(8, 2)
    for t in range(4):
        chain = sampler._Chain(sos_trunc2, config, boundary)
        chain.sweep([stream.at(t).random(len(chain.order))])
        used = dict(zip(chain.sites, chain.heights[0].tolist()))
        config = heat_bath_sweep(sos_trunc2, config, boundary=boundary, rng=stream.at(t))
        assert config.values == {v: used[v] for v in config.values}
    assert _exact(config.values) == (
        "[((0, 0), 0), ((0, 1), 0), ((0, 2), 0), ((0, 3), 0), ((1, 0), 1), ((1, 1), 2), ((1, 2), 1), ((1, 3), 0), "
        "((2, 0), 0), ((2, 1), 0), ((2, 2), 0), ((2, 3), 0), ((3, 0), 0), ((3, 1), 0), ((3, 2), 0), ((3, 3), 1)]"
    )


def test_sweep_gives_an_order_site_without_a_height_one(sos_trunc1):
    # (1, 1) is in the order but neither in the config nor the boundary: it
    # has no height until its update, and the swept config holds it
    interior = sorted(box_region(2, 2))
    boundary = {v: 0 for v in outer_boundary(interior)}
    config = HeightConfig({(0, 0): 0, (0, 1): 0, (1, 0): 0}, reference=(0, 0))
    out = heat_bath_sweep(sos_trunc1, config, boundary=boundary, order=interior, rng=RngStream(1).at(0))
    assert list(out.values.items()) == [((0, 0), 0), ((0, 1), 0), ((1, 0), -1), ((1, 1), 0)]


def test_cftp_samples_chunks(monkeypatch, sos_trunc1, nonconvex):
    # chunks of at most _CFTP_HEIGHTS chain heights, in stream order, give
    # the per-stream samples and errors; a bound below one sample's chains
    # runs one sample per chunk.  The draws come in rng.block slices of at
    # most max(_CFTP_HEIGHTS, len(region)) doubles, an epoch keeps its rows
    # for the next only where they fit in the bound (at the default no
    # (stream, counter) pair is drawn twice; at bound 1 nothing is kept and
    # each epoch redraws the last one's times), and no bound changes an
    # outcome.
    sizes, drawn, pairs = [], [], collections.Counter()
    sweep_waves = sampler._sweep_waves
    monkeypatch.setattr(sampler, "_sweep_waves", lambda table, waves, heights, us: sizes.append(heights.size) or sweep_waves(table, waves, heights, us))
    block = rng.block

    def counted(streams, counters, size):
        drawn.append(len(counters) * size)
        pairs.update(zip(streams, counters))
        return block(streams, counters, size)

    monkeypatch.setattr(rng, "block", counted)
    interior = sorted(box_region(3, 3))
    ring = {v: 0 for v in outer_boundary(interior)}
    heights = 2 * (len(interior) + len(ring))
    streams = [RngStream(5, k) for k in range(7)]
    expected = _cftp_outcome(lambda: sampler.cftp_samples(sos_trunc1, interior, ring, streams))
    assert isinstance(expected, list)
    for bound in (1 << 14, 2 * heights, heights + 1, len(interior) + 1, len(interior), 1):
        monkeypatch.setattr(sampler, "_CFTP_HEIGHTS", bound)
        sizes.clear()
        drawn.clear()
        pairs.clear()
        sampler.cftp_samples(sos_trunc1, interior, ring, streams)
        if bound in (1 << 14, 1):
            assert (max(pairs.values()) > 1) == (bound == 1)
        assert _batch_equals_loop(sos_trunc1, interior, ring, streams) == expected
        assert max(sizes) == heights * min(len(streams), max(1, bound // heights))
        assert max(drawn) <= max(bound, len(interior))
        # one row per slice exactly when two rows exceed the bound
        assert (max(drawn) == len(interior)) == (bound < 2 * len(interior))
        # sample 2 shares a chunk with sample 3, or follows chunks of successes
        assert _batch_equals_loop(nonconvex, interior, ring, _LATE, 4) == _LATE_ERROR
        assert max(drawn) <= max(bound, len(interior))


def test_cftp_draws_each_stream_time_once(monkeypatch, sos_trunc1):
    # An epoch of span 2S draws only the times [-2S, -S) and replays the
    # rows of [-S, 0) the epoch before kept, so each (stream, counter) pair
    # is drawn once and a stream coalescing in the epoch of span T has
    # drawn exactly the times [-T, 0).  With a bound below one epoch's rows
    # nothing is kept, every epoch draws all its times (2T - 1 rows per
    # stream) and the samples are the same.
    pairs = collections.Counter()
    block = rng.block
    monkeypatch.setattr(rng, "block", lambda streams, counters, size: pairs.update(zip(streams, counters)) or block(streams, counters, size))
    for side, streams, rows, redrawn in ((2, [RngStream(7, s) for s in range(200)], 480, 760), (8, [RngStream(0)], 32, 63)):
        interior = sorted(box_region(side, side))
        ring = {v: 0 for v in outer_boundary(interior)}
        for bound in (1 << 14, 1):
            monkeypatch.setattr(sampler, "_CFTP_HEIGHTS", bound)
            pairs.clear()
            samples = sampler.cftp_samples(sos_trunc1, interior, ring, streams)
            if bound == 1 << 14:
                expected = [s.values for s in samples]
                assert sum(pairs.values()) == len(pairs) == rows
                spans = collections.Counter(stream for stream, _ in pairs)
                assert set(pairs) == {(s, t) for s in streams for t in range(-spans[s], 0)}
                assert all(span & (span - 1) == 0 for span in spans.values())
            else:
                assert [s.values for s in samples] == expected
                assert len(pairs) == rows and sum(pairs.values()) == redrawn == sum(2 * spans[s] - 1 for s in streams)


def test_torus_start_built_once_per_potential(monkeypatch):
    # one relaxation (both directions at once) for the plan's windows,
    # none after
    passes = []
    extensions = feasibility.Plan.extensions

    def counted(self, *args):
        passes.append(args)
        return extensions(self, *args)

    monkeypatch.setattr(feasibility.Plan, "extensions", counted)
    pot = domino_potential()
    slope = (F(1, 4), F(0))
    a = torus_sample(pot, 8, slope, sweeps=3, rng=RngStream(1, 0))
    b = torus_sample(pot, 8, slope, sweeps=3, rng=RngStream(1, 1))
    assert len(passes) == 1
    assert a.values == torus_sample(domino_potential(), 8, slope, sweeps=3, rng=RngStream(1, 0)).values
    assert b.values == torus_sample(domino_potential(), 8, slope, sweeps=3, rng=RngStream(1, 1)).values


def test_one_conditional_per_distinct_pattern(monkeypatch):
    # a domino chain recomputes no site conditional: its table fills one
    # row per distinct neighborhood pattern and no key twice
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
    filled = []
    fill = sampler._ConditionalTable._fill
    monkeypatch.setattr(sampler._ConditionalTable, "_fill", lambda self, key, rel: filled.append(np.unique(key)) or fill(self, key, rel))
    assert _library_sweeps(pot, start, table, stream, sweeps) == values
    keys = np.concatenate(filled)
    rows = sampler._conditional_table(pot)
    assert len(np.unique(keys)) == len(keys) == rows.count == (rows.row_of >= 0).sum()
    assert rows.count == len(patterns) < len(table) * sweeps // 10


def _conditional_cases():
    """(name, potentials of one table): one-potential tables, among them
    random 2Z^2-periodic tables with ties (one left unnormalized, so with
    negative energies), and the 21 TI copies of abs2, beta = 0 included."""
    from gradsurf.observables import _chebyshev_grid, _scale_potential
    from test_feasibility import _random_periodic_potential

    abs1 = PeriodicPotential.isotropic("int", TablePotential.from_dict({-1: 1.0, 0: 0.0, 1: 1.0}))
    abs2 = PeriodicPotential.isotropic("int", TablePotential.from_dict({k: 1.07 * abs(k) for k in range(-2, 3)}))
    rng = random.Random(2323)
    lat = domino_potential().lattice
    raw = {
        (axis, base): TablePotential.from_dict({k: rng.choice([-1.5, -0.5, 0.0, 0.5]) for k in range(rng.randint(-2, 0), rng.randint(0, 2) + 1)})
        for axis in (0, 1)
        for base in lat.fundamental_domain()
    }
    cases = [
        ("abs1", [abs1]),
        ("abs2-scaled", [abs2]),
        ("domino", [domino_potential()]),
        ("random-periodic", [_random_periodic_potential(rng)]),
        ("random-negative", [PeriodicPotential("int", lat, raw)]),
        ("ti-copies", [_scale_potential(abs2, beta) for beta in _chebyshev_grid()]),
    ]
    return [pytest.param(name, pots, id=name) for name, pots in cases]


@pytest.mark.parametrize("name, pots", _conditional_cases())
def test_conditional_fill_matches_discrete_conditional(name, pots):
    # every filled row holds _discrete_conditional's support and running
    # sums bit for bit, for each of the K potentials of a pattern; a
    # pattern without a finite-energy height raises its EmptySupport
    base = sampler._table_base(pots[0])
    table = sampler._ConditionalTable(pots, base)
    lat = pots[0].lattice
    domain = lat.fundamental_domain()
    gen = np.random.default_rng(len(name))

    def reference(k, cell, rel):
        x = domain[cell]
        around = {(x[0] + dx, x[1] + dy) for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))}
        slots = feasibility._neighbor_slots(x, around, None)
        terms = [(pots[k].edge_potential(edge), h, o) for (_, _, edge, o), h in zip(slots, rel)]
        return sampler._discrete_conditional(terms)

    empty = 0
    for batch in range(6):
        rel = gen.integers(0, base, size=(40, 4))
        rel -= rel.min(axis=1, keepdims=True)
        k, cell = gen.integers(0, len(pots), size=40), gen.integers(0, lat.index, size=40)
        ok = []
        for i in range(40):
            try:
                reference(k[i], cell[i], rel[i].tolist())
                ok.append(i)
            except EmptySupport as exc:
                message = str(exc)
                with pytest.raises(EmptySupport) as raised:
                    table.rows(cell[i : i + 1] + k[i : i + 1] * lat.index, rel[i : i + 1])
                assert str(raised.value) == message
                empty += 1
        table.rows(cell[ok] + k[ok] * lat.index, rel[ok])
    keys = np.flatnonzero(table.row_of >= 0)
    assert table.count == len(keys) * len(pots) > 0
    for key in keys.tolist():
        cell, digits = divmod(key, base**4)
        rel = [digits // base**s % base for s in range(4)]
        for k in range(len(pots)):
            dist = reference(k, cell, rel)
            row = table.row_of[key] + k
            size = len(dist.support)
            assert table.vals[row, :size].tolist() == list(dist.support)
            assert table.cdf[row, : size - 1].tolist() == list(itertools.accumulate(dist.probs))[:-1]
            assert (table.cdf[row, size - 1 :] == math.inf).all()
    # abs1 and abs2 leave some height finite within every key's spread
    assert (empty > 0) == (name in ("domino", "random-periodic", "random-negative"))


def test_conditional_table_potentials_share_finite_entries():
    # a key's K rows are filled together, so a key without a finite-energy
    # height must have none for every potential of the table
    abs1 = TablePotential.from_dict({-1: 1.0, 0: 0.0, 1: 1.0})
    gapped = TablePotential.from_dict({-1: 1.0, 1: 1.0})
    pots = [PeriodicPotential.isotropic("int", edge) for edge in (abs1, gapped)]
    with pytest.raises(ValueError, match="finite entries"):
        sampler._ConditionalTable(pots, 3)
