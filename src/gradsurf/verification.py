"""The exact-oracle battery behind the `verify` CLI command.

Each check is fast, deterministic for a given seed, and compares an
implementation path against an independent route (recurrences, determinant
counts, exact enumeration, matrix fixed points, structural inequalities
the models are known to obey).  The battery returns one (name, passed,
detail) row per check.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from .cluster_swap import (
    Triplet,
    cluster_swap_at,
    edge_coupling_constant,
    synchronized_domination_coupling,
    total_energy,
)
from .feasibility import (
    FeasibilityGraph,
    _region_windows,
    allowed_slope_polytope,
    enumerate_region_configs,
    shortest_distances,
    torus_slope_feasible,
)
from .heights import HeightConfig
from .lattice import box_region, edge_head, edges_within, outer_boundary
from .observables import (
    EXACT_SUM,
    TRANSFER_MATRIX,
    fkg_check,
    log_concavity_check,
    log_partition_exact,
)
from .potential import (
    PeriodicPotential,
    QuadraticPotential,
    TablePotential,
    domino_potential,
    lipschitz_truncate,
    sos_abs_potential,
    wedge_normalize,
)
from .rng import RngStream
from .sampler import cftp_sample, cftp_samples, checkerboard_order, site_conditional, torus_sample
from .tilings import (
    boundary_heights,
    count_tilings_bruteforce,
    count_tilings_kasteleyn,
    height_to_matching,
    matching_to_height,
    region_vertices,
)

F = Fraction


def _sos_trunc(cutoff):
    return lipschitz_truncate(
        PeriodicPotential.isotropic("int", sos_abs_potential()), cutoff
    )


def _rect(w, h):
    return frozenset((i, j) for i in range(w) for j in range(h))


def check_domino_counts():
    fib = [1, 1]
    for _ in range(9):
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 11):
        if count_tilings_bruteforce(_rect(n, 2)) != fib[n]:
            return False, f"2x{n} strip count disagrees with the recurrence"
    ring = _rect(3, 3) - {(1, 1)}  # a hole with an odd number of squares
    for region in (_rect(2, 2), _rect(2, 3), _rect(3, 4), _rect(4, 4), ring):
        if count_tilings_kasteleyn(region) != count_tilings_bruteforce(region):
            return False, f"Kasteleyn and brute force disagree on {len(region)} squares"
    aztec = {(x, y) for x in range(-16, 16) for y in range(-16, 16) if abs(2 * x + 1) + abs(2 * y + 1) <= 32}
    if count_tilings_kasteleyn(aztec) != 2**136:
        return False, "the order-16 Aztec diamond does not count 2^136"
    return True, "Fibonacci strips and Kasteleyn agreement, the 3x3 ring included"


def check_bijection_round_trip():
    # every tiling, enumerated as a height function of the domino potential
    for region in (_rect(2, 3), _rect(3, 4)):
        fixed = boundary_heights(region)
        interior = sorted(region_vertices(region) - set(fixed))
        count = 0
        for values, _ in enumerate_region_configs(domino_potential(), interior, fixed):
            heights = {**fixed, **values}
            t = height_to_matching(heights, region)
            if matching_to_height(t).values != heights or height_to_matching(matching_to_height(t), region) != t:
                return False, "round trip failed"
            count += 1
        if count != count_tilings_bruteforce(region):
            return False, f"{count} height functions on {len(region)} squares, not one per tiling"
    return True, "matching <-> height identity on enumerated tilings"


def check_domino_polytope():
    pot = domino_potential()
    poly = allowed_slope_polytope(pot)
    expected = {
        (1, 1, F(1, 2)),
        (1, -1, F(1, 2)),
        (-1, 1, F(1, 2)),
        (-1, -1, F(1, 2)),
    }
    if set(poly.canonical()) != expected or not poly.feasible:
        return False, f"halfspaces {poly.canonical()}"
    # torus plans on the quotient graph of each side answer independently
    for n in (4, 8):
        for u in ((F(i, n), F(j, n)) for i in range(-n, n + 1) for j in range(-n, n + 1)):
            if poly.contains(u) != torus_slope_feasible(pot, n, u):
                return False, f"membership of {u} differs from feasibility on the {n}-torus"
    return True, "allowed slopes are |u1| + |u2| <= 1/2, as on the 4- and 8-torus slope grids"


def check_sweep_stationarity():
    pot = _sos_trunc(1)
    interior = sorted(box_region(2, 2, origin=(1, 1)))
    boundary = {v: 0 for v in outer_boundary(interior)}
    states, energies = [], []
    for values, energy in enumerate_region_configs(pot, interior, boundary):
        states.append(values)
        energies.append(energy)
    weights = np.exp(-np.array(energies))
    pi = weights / weights.sum()
    index = {tuple(sorted(s.items())): i for i, s in enumerate(states)}
    mat = np.eye(len(states))
    for x in checkerboard_order(interior):
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
    dev = float(np.abs(pi @ mat - pi).max())
    return dev < 1e-12, f"max stationarity deviation {dev:.2e}"


def check_ferromagnetic_couplings(seed=20240501):
    rng = random.Random(seed)
    pots = [
        PeriodicPotential.isotropic("int", sos_abs_potential()),
        PeriodicPotential.isotropic("real", QuadraticPotential(1.0)),
        _sos_trunc(2),
    ]
    from .errors import InfiniteEnergy

    n = 0
    for pot in pots:
        while True:
            x1 = rng.randint(-3, 3)
            x2 = x1 + rng.randint(0, 3)
            y1 = rng.randint(-3, 3)
            y2 = y1 + rng.randint(0, 3)
            try:
                k = edge_coupling_constant(
                    pot, {(0, 0): (x1, x2), (1, 0): (y1, y2)}, ((0, 0), 0)
                )
            except InfiniteEnergy:
                continue  # inadmissible pair: outside the admissible precondition
            if not k <= 0:
                return False, f"positive coupling {k}"
            n += 1
            if n % 3400 == 0:
                break
    return True, f"{n} admissible couplings all nonpositive"


def check_swap_involution(seed=7):
    pot = _sos_trunc(1)
    region = [(0, 0), (1, 0), (2, 0)]
    boundary = {(-1, 0): 0, (3, 0): 0}
    rng = random.Random(seed)
    support = sorted(set(region) | set(boundary))
    edges = edges_within(support)
    states = [v for v, _ in enumerate_region_configs(pot, region, boundary)]
    for _ in range(400):
        v1 = dict(boundary)
        v1.update(rng.choice(states))
        v2 = dict(boundary)
        v2.update(rng.choice(states))
        trip = Triplet(
            HeightConfig(v1, reference=support[0]),
            HeightConfig(v2, reference=support[0]),
            {e: F(rng.randint(0, 16), 8) for e in edges},
        )
        x = region[rng.randrange(len(region))]
        once = cluster_swap_at(pot, trip, region, x)
        if total_energy(pot, once) != total_energy(pot, trip):
            return False, "total energy moved under a swap"
        twice = cluster_swap_at(pot, once, region, x)
        if (
            twice.phi1.values != trip.phi1.values
            or twice.phi2.values != trip.phi2.values
            or twice.residual != trip.residual
        ):
            return False, "swap at a vertex is not an involution"
    return True, "400 swaps: involution and energy conservation exact"


def check_stochastic_domination(seed=5150, trials=400):
    pot = _sos_trunc(1)
    interior = sorted(box_region(2, 2, origin=(1, 1)))
    b1 = {v: 0 for v in outer_boundary(interior)}
    b2 = {v: 1 for v in outer_boundary(interior)}
    for k in range(trials):
        phi1, phi2 = synchronized_domination_coupling(
            pot, interior, b1, b2, RngStream(seed, k)
        )
        if not all(phi1.values[v] <= phi2.values[v] for v in interior):
            return False, f"order violated on trial {k}"
    return True, f"{trials} coupled trials all ordered"


def check_log_concavity():
    pot = _sos_trunc(2)
    boundary = {(0, 0): 0, (2, 0): 0}
    good = log_concavity_check(pot, [(1, 0)], boundary, (1, 0))
    control = log_concavity_check(
        PeriodicPotential.isotropic(
            "int", TablePotential.from_dict({0: 1.0, 1: 0.0, -1: 0.0})
        ),
        [(1, 0)],
        boundary,
        (1, 0),
    )
    ok = good.verdict == "PASS" and control.verdict == "FAIL"
    return ok, "convex passes, nonconvex control fails"


def check_fkg():
    pot = _sos_trunc(1)
    interior = sorted(box_region(2, 1, origin=(1, 1)))
    boundary = {v: 0 for v in outer_boundary(interior)}
    report = fkg_check(
        pot,
        interior,
        boundary,
        lambda s: s[(1, 1)] >= 1,
        lambda s: s[(2, 1)] >= 1,
    )
    return report.verdict == "PASS", f"correlation {report.correlation:.3e}"


def check_exact_methods_agree():
    abs1 = _sos_trunc(1)
    # |eta| <= 1 at 400 per unit step: the slope (1/2, 0) class costs 800,
    # where exp(-energy) underflows, so only a log-space sum stays finite
    stiff = PeriodicPotential.isotropic("int", TablePotential.from_dict({-1: 400.0, 0: 0.0, 1: 400.0}))
    cases = [(abs1, (F(0), F(0))), (abs1, (F(1, 2), F(0))), (stiff, (F(1, 2), F(0)))]
    for pot, slope in cases:
        a = log_partition_exact(pot, torus=2, slope=slope, method=EXACT_SUM)
        b = log_partition_exact(pot, torus=2, slope=slope, method=TRANSFER_MATRIX)
        if abs(a - b) > 1e-10:
            return False, f"methods differ by {abs(a - b):.2e} at {slope}"
    return True, "class sums and transfer matrix agree to 1e-10"


def _floyd_warshall(pot, vertices, edges):
    """(index, D): all-pairs distances over the increment bounds of the
    edges between the vertices, by Floyd-Warshall."""
    index = {v: k for k, v in enumerate(vertices)}
    dist = np.full((len(vertices), len(vertices)), math.inf)
    np.fill_diagonal(dist, 0.0)
    for edge in edges:
        x, y = index[edge[0]], index[edge_head(edge)]
        lo, hi = pot.edge_potential(edge).support()
        dist[x, y], dist[y, x] = min(dist[x, y], hi), min(dist[y, x], -lo)
    for k in range(len(vertices)):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return index, dist


def check_window_relaxation():
    # the relaxation kernel serves every height window and distance table;
    # Floyd-Warshall over the same increment bounds is the independent route
    squares = _rect(6, 6) - {(4, 5), (5, 5)}
    fixed = boundary_heights(squares)
    box = sorted(box_region(4, 4))
    cases = [
        (domino_potential(), sorted(region_vertices(squares) - set(fixed)), fixed),
        (_sos_trunc(1), box, {v: v[0] // 2 for v in outer_boundary(box)}),
    ]
    for pot, region, boundary in cases:
        inside, universe = set(region), sorted(set(region) | set(boundary))
        # an edge joining two boundary vertices has a fixed energy and no arcs
        edges = [e for e in edges_within(universe) if e[0] in inside or edge_head(e) in inside]
        index, dist = _floyd_warshall(pot, universe, edges)
        windows = _region_windows(pot, region, boundary)
        for v in region:
            top = min(h + dist[index[x], index[v]] for x, h in boundary.items())
            bot = max(h - dist[index[v], index[x]] for x, h in boundary.items())
            if windows[v] != range(math.ceil(bot), math.floor(top) + 1):
                return False, f"plan and Floyd-Warshall windows differ at {v}"
        table = shortest_distances(FeasibilityGraph.from_potential(pot, region), region)
        index, dist = _floyd_warshall(pot, region, edges_within(region))
        if any(table[x][y] != dist[index[x], index[y]] for x in region for y in region):
            return False, f"distance table and Floyd-Warshall differ on a {len(region)}-site region"
    return True, "plan windows and distance tables equal Floyd-Warshall on 2 regions"


def check_cftp_determinism(seed=99):
    pot = domino_potential()
    region = _rect(2, 2)
    fixed = boundary_heights(region)
    interior = [(1, 1)]
    a = cftp_sample(pot, interior, fixed, RngStream(seed, 0))
    b = cftp_sample(pot, interior, fixed, RngStream(seed, 0))
    streams = [RngStream(seed, k) for k in range(3)]
    batch = cftp_samples(pot, interior, fixed, streams)
    if [c.values for c in batch] != [cftp_sample(pot, interior, fixed, s).values for s in streams]:
        return False, "a batch of three streams differs from their single samples"
    return a.values == b.values, "same stream reproduces the exact sample"


def check_torus_homology(seed=12):
    pot = domino_potential()
    config = torus_sample(pot, 4, (F(1, 4), F(0)), sweeps=6, rng=RngStream(seed, 0))
    row = sum(config.increment((i, 0), 0) for i in range(4))
    col = sum(config.increment((0, j), 1) for j in range(4))
    return (row, col) == (1, 0), f"cycle sums {(row, col)}"


def check_wedge_invariants():
    w = wedge_normalize(QuadraticPotential(1.0))
    if abs(w(0.0) + math.log(2)) > 1e-9:
        return False, "center value is not -log 2"
    for x, val in zip(w.grid, w.values):
        if val < w.base(x) - math.log(2) - 1e-12:
            return False, "lower bound V - log 2 violated"
    for i in range(1, len(w.grid) - 1):
        if w.values[i + 1] + w.values[i - 1] - 2 * w.values[i] < -1e-8:
            return False, "grid convexity violated"
    return True, "bound, convexity, and center value hold"


BATTERY = [
    ("domino_counts", check_domino_counts),
    ("bijection_round_trip", check_bijection_round_trip),
    ("domino_polytope", check_domino_polytope),
    ("sweep_stationarity", check_sweep_stationarity),
    ("ferromagnetic_couplings", check_ferromagnetic_couplings),
    ("swap_involution", check_swap_involution),
    ("stochastic_domination", check_stochastic_domination),
    ("log_concavity", check_log_concavity),
    ("fkg_mtp2", check_fkg),
    ("exact_methods_agree", check_exact_methods_agree),
    ("window_relaxation", check_window_relaxation),
    ("cftp_determinism", check_cftp_determinism),
    ("torus_homology", check_torus_homology),
    ("wedge_invariants", check_wedge_invariants),
]


def run_battery():
    """Run every check; returns a list of (name, passed, detail)."""
    results = []
    for name, fn in BATTERY:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
