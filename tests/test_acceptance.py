"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line on success (run with -s to see them);
a failed assertion is the FAIL line.
"""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from gradsurf.cluster_swap import (
    Triplet,
    coin_merge_coupling,
    edge_coupling_constant,
)
from gradsurf.errors import InfiniteEnergy, NegativeCycle
from gradsurf.feasibility import (
    FeasibilityGraph,
    allowed_slope_polytope,
    extend_boundary,
    extend_boundary_min,
    shortest_distances,
)
from gradsurf.heights import HeightConfig
from gradsurf.lattice import box_region, edges_within, outer_boundary
from gradsurf.observables import (
    EXACT_SUM,
    THERMODYNAMIC_INTEGRATION,
    convexity_margin,
    log_concavity_check,
    fkg_check,
    sigma_estimate,
    variance_profile,
)
from gradsurf.potential import (
    PeriodicPotential,
    TablePotential,
    domino_potential,
    lipschitz_truncate,
    sos_abs_potential,
)
from gradsurf.rng import RngStream
from gradsurf.sampler import cftp_samples, checkerboard_order, site_conditional
from gradsurf.tilings import (
    DominoMatching,
    count_tilings_bruteforce,
    count_tilings_kasteleyn,
    height_to_matching,
    matching_to_height,
)

from oracles import (
    all_simple_path_distances,
    enumerate_feasible_configs,
    enumerate_tilings,
    exact_gibbs_distribution,
    fibonacci_tiling_count,
)
from swap_harness import rx_pushforward_tv, sw_pushforward_tv

F = Fraction


def _report(num, detail):
    print(f"\nACCEPTANCE {num}: PASS ({detail})")


def rect(w, h):
    return frozenset((i, j) for i in range(w) for j in range(h))


TILING_CORPUS = [
    rect(1, 2),
    rect(2, 2),
    rect(2, 3),
    rect(3, 2),
    rect(2, 4),
    rect(3, 4),
    rect(4, 4),
    rect(2, 8),
    rect(4, 5),
    rect(2, 10),
    frozenset({(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 2), (1, 2)}),
]


def _sos_trunc(c):
    return lipschitz_truncate(PeriodicPotential.isotropic("int", sos_abs_potential()), c)


def test_criterion_01_domino_bijection_and_counting():
    total_tilings = 0
    for region in TILING_CORPUS:
        assert len(region) <= 20
        tilings = enumerate_tilings(region)
        assert count_tilings_bruteforce(region) == len(tilings)
        assert count_tilings_kasteleyn(region) == len(tilings)
        for dominoes in tilings:
            t = DominoMatching(region, dominoes)
            assert height_to_matching(matching_to_height(t), region) == t
            total_tilings += 1
    for n in range(1, 11):
        assert count_tilings_bruteforce(rect(n, 2)) == fibonacci_tiling_count(n)
    _report(1, f"{total_tilings} round trips; counts agree on {len(TILING_CORPUS)} regions")


def test_criterion_02_domino_slope_polytope():
    poly = allowed_slope_polytope(domino_potential())
    expected = {
        (1, 1, F(1, 2)),
        (1, -1, F(1, 2)),
        (-1, 1, F(1, 2)),
        (-1, -1, F(1, 2)),
    }
    assert poly.feasible
    assert set(poly.canonical()) == expected
    _report(2, "exact rational halfspaces |u1| + |u2| <= 1/2")


def _domino_patch_fixture():
    # 4x4 vertex patch with admissible boundary; interior is the 2x2 block
    interior = sorted(box_region(2, 2, origin=(1, 1)))
    boundary = {
        (1, 0): -1, (2, 0): 0,
        (0, 1): 0, (3, 1): 0,
        (0, 2): 0, (3, 2): -1,
        (1, 3): -1, (2, 3): 0,
    }
    boundary = {v: h for v, h in boundary.items() if v in outer_boundary(interior)}
    return interior, boundary


def _sweep_matrix(pot, states, interior, boundary):
    order = checkerboard_order(interior)
    index = {tuple(sorted(s.items())): i for i, s in enumerate(states)}
    mat = np.eye(len(states))
    for x in order:
        site = np.zeros((len(states), len(states)))
        for i, s in enumerate(states):
            values = dict(boundary)
            values.update(s)
            del values[x]
            dist = site_conditional(pot, values, x)
            for a, p in zip(dist.support, dist.probs):
                target = dict(s)
                target[x] = a
                site[i, index[tuple(sorted(target.items()))]] += p
        mat = mat @ site
    return mat


def test_criterion_03_gibbs_kernel_correctness():
    fixtures = []
    sos1 = _sos_trunc(1)
    fixtures.append((sos1, sorted(box_region(2, 2, origin=(1, 1))), None))
    fixtures.append((sos1, [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)], None))
    fixtures.append((sos1, [(i, 1) for i in range(1, 8)], None))  # 7-site chain
    dom_interior, dom_boundary = _domino_patch_fixture()
    fixtures.append((domino_potential(), dom_interior, dom_boundary))
    worst = 0.0
    for pot, interior, boundary in fixtures:
        assert len(interior) <= 9
        if boundary is None:
            boundary = {v: 0 for v in outer_boundary(interior)}
        states, probs = exact_gibbs_distribution(pot, interior, boundary)
        assert len(states) > 1
        mat = _sweep_matrix(pot, states, interior, boundary)
        pi = np.array(probs)
        dev = float(np.abs(pi @ mat - pi).max())
        worst = max(worst, dev)
        assert dev < 1e-12
    # CFTP empirical distribution against enumeration, 1e5 samples
    pot = domino_potential()
    interior, boundary = _domino_patch_fixture()
    states, probs = exact_gibbs_distribution(pot, interior, boundary)
    keys = [tuple(sorted(s.items())) for s in states]
    index = {k: i for i, k in enumerate(keys)}
    counts = [0] * len(states)
    trials = 100_000
    for out in cftp_samples(pot, interior, boundary, [RngStream(31337, k) for k in range(trials)]):
        key = tuple(sorted((v, out.values[v]) for v in interior))
        counts[index[key]] += 1
    expected = [trials * p for p in probs]
    p_value = stats.chisquare(counts, expected).pvalue
    assert p_value > 0.01
    _report(3, f"stationarity dev {worst:.1e}; CFTP chi^2 p = {p_value:.3f}")


def test_criterion_04_cluster_swap_measure_preservation():
    region = [(0, 0), (1, 0), (2, 0)]
    boundary = {(-1, 0): 0, (3, 0): 0}
    # 3-value window fixture
    pot3 = _sos_trunc(1)
    tv_rx_3 = rx_pushforward_tv(pot3, region, boundary, (1, 0))
    tv_sw_3 = sw_pushforward_tv(pot3, region, boundary)
    # 2-value window fixture: asymmetric support {0, 1}
    pot2 = PeriodicPotential.isotropic("int", TablePotential.from_dict({0: 0.0, 1: 0.5}))
    tv_rx_2 = rx_pushforward_tv(pot2, region, boundary, (1, 0))
    tv_sw_2 = sw_pushforward_tv(pot2, region, boundary)
    for tv in (tv_rx_3, tv_sw_3, tv_rx_2, tv_sw_2):
        assert tv < 1e-8
    _report(
        4,
        "TV(Rx) <= {:.1e}, TV(SW) <= {:.1e}".format(
            max(tv_rx_3, tv_rx_2), max(tv_sw_3, tv_sw_2)
        ),
    )


def test_criterion_05_ferromagnetism_and_log_concavity():
    rng = random.Random(16180)
    pots = [
        PeriodicPotential.isotropic("int", sos_abs_potential()),
        _sos_trunc(2),
        domino_potential(),
    ]
    checked = 0
    while checked < 10_000:
        pot = pots[checked % len(pots)]
        x1 = rng.randint(-3, 3)
        x2 = x1 + rng.randint(0, 2)
        y1 = rng.randint(x1 - 2, x1 + 2)
        y2 = y1 + rng.randint(0, 2)
        base = (2 * rng.randint(0, 1), 2 * rng.randint(0, 1))
        axis = rng.randint(0, 1)
        try:
            k = edge_coupling_constant(
                pot, {base: (x1, x2), (base[0] + (1 - axis), base[1] + axis): (y1, y2)},
                (base, axis),
            )
        except InfiniteEnergy:
            continue
        assert k <= 0
        checked += 1
    # log concavity on enumerable fixtures
    fixtures = [
        (_sos_trunc(2), [(1, 0)], {(0, 0): 0, (2, 0): 0}, (1, 0)),
        (_sos_trunc(1), sorted(box_region(2, 2, origin=(1, 1))), None, (1, 1)),
        (domino_potential(),) + _domino_patch_fixture() + ((1, 1),),
    ]
    for pot, interior, boundary, x0 in fixtures:
        if boundary is None:
            boundary = {v: 0 for v in outer_boundary(interior)}
        report = log_concavity_check(pot, interior, boundary, x0)
        assert report.verdict == "PASS"
    _report(5, f"{checked} couplings <= 0; log-concavity on {len(fixtures)} fixtures")


def test_criterion_06_stochastic_domination():
    pot = _sos_trunc(1)
    interior = sorted(box_region(2, 2, origin=(1, 1)))
    b1 = {v: 0 for v in outer_boundary(interior)}
    b2 = {v: 1 for v in outer_boundary(interior)}
    support = sorted(set(interior) | set(b1))
    edges = edges_within(support)
    states1, probs1 = exact_gibbs_distribution(pot, interior, b1)
    states2, probs2 = exact_gibbs_distribution(pot, interior, b2)
    cdf1 = np.cumsum(probs1)
    cdf2 = np.cumsum(probs2)
    trials = 10_000
    violations = 0
    for k in range(trials):
        gen = RngStream(271828, k).at(0)
        u1, u2 = gen.random(2)
        s1 = states1[int(np.searchsorted(cdf1, u1))]
        s2 = states2[int(np.searchsorted(cdf2, u2))]
        v1 = dict(b1)
        v1.update(s1)
        v2 = dict(b2)
        v2.update(s2)
        trip = Triplet(
            HeightConfig(v1, reference=support[0]),
            HeightConfig(v2, reference=support[0]),
            {e: F(float(r)) for e, r in zip(edges, gen.standard_exponential(len(edges)))},
        )
        phi1, phi2 = coin_merge_coupling(pot, trip, interior, gen)
        if not all(phi1.values[v] <= phi2.values[v] for v in interior):
            violations += 1
    assert violations == 0
    _report(6, f"{trials} coupled trials, zero order violations")


def test_criterion_07_fkg_mtp2():
    fixtures = []
    sos1 = _sos_trunc(1)
    interior = sorted(box_region(2, 1, origin=(1, 1)))
    fixtures.append(
        (sos1, interior, {v: 0 for v in outer_boundary(interior)},
         lambda s: s[(1, 1)] >= 1, lambda s: s[(2, 1)] >= 1)
    )
    interior2 = sorted(box_region(2, 2, origin=(1, 1)))
    fixtures.append(
        (sos1, interior2, {v: 0 for v in outer_boundary(interior2)},
         lambda s: s[(1, 1)] + s[(2, 2)] >= 1, lambda s: s[(2, 1)] >= 1)
    )
    dom_interior, dom_boundary = _domino_patch_fixture()
    fixtures.append(
        (domino_potential(), dom_interior, dom_boundary,
         lambda s: s[(1, 1)] >= 0, lambda s: s[(2, 2)] >= 0)
    )
    for pot, interior, boundary, a, b in fixtures:
        report = fkg_check(pot, interior, boundary, a, b)
        assert report.mtp2_ok, report.mtp2_violation
        assert report.correlation >= -1e-12
    _report(7, f"MTP2 and FKG exact on {len(fixtures)} fixtures")


def test_criterion_08_surface_tension_convexity():
    margins = []
    dom = domino_potential()
    for seg in (((F(-1, 4), F(0)), (F(1, 4), F(0)), (F(0), F(0))),
                ((F(-1, 4), F(-1, 4)), (F(1, 4), F(1, 4)), (F(0), F(0)))):
        e1 = sigma_estimate(dom, seg[0], 4, method=EXACT_SUM)
        e2 = sigma_estimate(dom, seg[1], 4, method=EXACT_SUM)
        mid = sigma_estimate(dom, seg[2], 4, method=EXACT_SUM)
        rep = convexity_margin(e1, e2, mid)
        assert rep.margin > 0
        margins.append(rep.margin)
    sos1 = _sos_trunc(1)
    for seg in (((F(-1, 3), F(0)), (F(1, 3), F(0)), (F(0), F(0))),
                ((F(-1, 3), F(-1, 3)), (F(1, 3), F(1, 3)), (F(0), F(0)))):
        e1 = sigma_estimate(sos1, seg[0], 3, method=EXACT_SUM)
        e2 = sigma_estimate(sos1, seg[1], 3, method=EXACT_SUM)
        mid = sigma_estimate(sos1, seg[2], 3, method=EXACT_SUM)
        rep = convexity_margin(e1, e2, mid)
        assert rep.margin > 0
        margins.append(rep.margin)
    exact = sigma_estimate(sos1, (F(0), F(0)), 3, method=EXACT_SUM)
    ti = sigma_estimate(
        sos1,
        (F(0), F(0)),
        3,
        method=THERMODYNAMIC_INTEGRATION,
        budget=1024,
        rng=RngStream(512, 0),
    )
    assert abs(ti.value - exact.value) <= 3 * ti.stderr
    _report(
        8,
        f"4 exact margins > 0 (min {min(margins):.4f}); TI within "
        f"{abs(ti.value - exact.value) / ti.stderr:.2f} stderr",
    )


def test_criterion_09_martingale_variance_bound():
    prof = variance_profile(
        domino_potential(),
        20,
        (F(0), F(0)),
        distances=(1, 2, 4, 8, 16),
        trials=200,
        rng=RngStream(2020, 0),
        thin=2,
        burn_in=80,
    )
    assert prof.verdict == "PASS"
    for j, v, s in zip(prof.distances, prof.variances, prof.stderrs):
        assert v <= j * prof.c_hat + 3 * s
    assert prof.roughness_ratio is not None and prof.roughness_ratio > 1
    _report(
        9,
        f"Var(j) <= j*C at j=1..16 (C = {prof.c_hat:.3f}, "
        f"Var16/Var2 = {prof.roughness_ratio:.2f})",
    )


def test_criterion_10_feasibility_oracle_equivalence():
    rng = random.Random(4242)
    verts = [(i, j) for i in range(3) for j in range(3)]
    graphs = 0
    for _ in range(60):
        arcs = {}
        for x, y in itertools.permutations(verts, 2):
            if abs(x[0] - y[0]) + abs(x[1] - y[1]) == 1 and rng.random() < 0.75:
                arcs[(x, y)] = rng.randint(-2, 6)
        if not arcs:
            continue
        oracle = all_simple_path_distances(verts, arcs)
        g = FeasibilityGraph.from_arcs(arcs, verts)
        if oracle is None:
            with pytest.raises(NegativeCycle) as exc:
                shortest_distances(g, verts)
            wit, weight = exc.value.witness, exc.value.weight
            assert weight < 0
            assert sum(arcs[(a, b)] for a, b in zip(wit, wit[1:])) == weight
        else:
            dists = shortest_distances(g, verts)
            for x in verts:
                for y in verts:
                    assert dists[x][y] == oracle[(x, y)]
        graphs += 1
    # extension maximality on 3x3-and-smaller fixtures
    for pot, w, h in ((_sos_trunc(1), 3, 3), (_sos_trunc(1), 2, 3), (_sos_trunc(2), 2, 2)):
        interior = sorted(box_region(w, h, origin=(1, 1)))
        boundary = {v: 0 for v in outer_boundary(interior)}
        universe = set(interior) | set(boundary)
        g = FeasibilityGraph.from_potential(pot, universe)
        top = extend_boundary(g, boundary)
        bot = extend_boundary_min(g, boundary)
        feasible = enumerate_feasible_configs(pot, interior, boundary)
        assert feasible
        for config, _ in feasible:
            for v, hval in config.items():
                assert bot.values[v] <= hval <= top.values[v]
    _report(10, f"{graphs} graphs vs path enumeration; extensions dominate brute force")


def test_criterion_11_verify_determinism(tmp_path):
    from gradsurf.cli import main

    rc1 = main(["verify", "--seed", "7", "--out", str(tmp_path / "a")])
    rc2 = main(["verify", "--seed", "7", "--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    files_a = sorted((tmp_path / "a").iterdir())
    files_b = sorted((tmp_path / "b").iterdir())
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name
    _report(11, f"{len(files_a)} output files byte-identical across runs")
