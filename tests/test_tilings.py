import itertools
from fractions import Fraction

import pytest

from gradsurf.cluster_swap import Triplet, swappable_set
from gradsurf.errors import InconsistentCycle, NotAHeightFunction, RegionTooLarge, Untileable
from gradsurf.lattice import edges_within
from gradsurf.potential import domino_potential, hamiltonian_interior
from gradsurf.rng import RngStream
from gradsurf.tilings import (
    DominoMatching,
    _psi_step,
    boundary_heights,
    count_tilings_bruteforce,
    count_tilings_kasteleyn,
    height_to_matching,
    matching_to_height,
    region_vertices,
    reverse_cycle,
    symmetric_difference_cycles,
    uniform_tiling_sample,
)

from oracles import (
    count_tilings_backtracking,
    enumerate_tilings,
    fibonacci_tiling_count,
    transfer_matrix_strip_count,
)


def rect(w, h):
    return frozenset((i, j) for i in range(w) for j in range(h))


CORPUS = [
    rect(1, 2),
    rect(2, 2),
    rect(2, 3),
    rect(3, 2),
    rect(2, 4),
    rect(4, 2),
    rect(3, 4),
    rect(4, 4),
    rect(2, 8),
    rect(4, 5),
    rect(2, 2) | {(2, 0), (2, 1), (3, 0), (3, 1)},  # 2x4 assembled sideways
    frozenset({(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 2), (1, 2)}),  # L
]


def _tiling(region, dominoes):
    return DominoMatching(frozenset(region), frozenset(map(frozenset, dominoes)))


def test_height_of_horizontal_2x2_tiling():
    # hand-derived table for the two-horizontal-domino tiling
    t = _tiling(rect(2, 2), [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    cfg = matching_to_height(t)
    expected = {
        (0, 0): 0, (1, 0): -1, (2, 0): 0,
        (0, 1): 0, (1, 1): 0, (2, 1): 0,
        (0, 2): 0, (1, 2): -1, (2, 2): 0,
    }
    assert cfg.values == expected


def test_height_increment_law_and_energy():
    pot = domino_potential()
    for region in CORPUS[:6]:
        for dominoes in enumerate_tilings(region):
            cfg = matching_to_height(DominoMatching(region, dominoes))
            verts = region_vertices(region)
            psi = {v: 4 * cfg.values[v] + _label(v) for v in verts}
            for v in verts:
                for w in ((v[0] + 1, v[1]), (v[0], v[1] + 1)):
                    if w in verts:
                        assert abs(psi[w] - psi[v]) in (1, 3)
            assert hamiltonian_interior(pot, verts, cfg.values) == 0


def _label(v):
    from gradsurf.potential import parity_label

    return parity_label(v)


def test_bijection_round_trip_corpus():
    for region in CORPUS:
        if len(region) > 20:
            continue
        for dominoes in enumerate_tilings(region):
            t = DominoMatching(region, dominoes)
            back = height_to_matching(matching_to_height(t), region)
            assert back == t


def test_height_to_matching_rejects_bad_increment():
    t = _tiling(rect(2, 2), [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    cfg = matching_to_height(t)
    cfg.values[(1, 1)] += 5
    with pytest.raises(NotAHeightFunction):
        height_to_matching(cfg, rect(2, 2))


def test_flat_heights_give_brick_wall():
    # flat phi crosses every horizontal edge in even vertex-rows, pairing
    # square rows (odd, even); offset the region so those pairs are interior
    region = frozenset((i, j) for i in range(4) for j in (1, 2))
    verts = region_vertices(region)
    flat = {v: 0 for v in verts}
    t = height_to_matching(flat, region)
    assert t.dominoes == frozenset(
        frozenset(((i, 1), (i, 2))) for i in range(4)
    )


def test_count_bruteforce_examples():
    assert count_tilings_bruteforce(rect(2, 2)) == 2
    assert count_tilings_bruteforce(rect(2, 3)) == 3
    assert count_tilings_bruteforce({(0, 0), (1, 0), (0, 1)}) == 0


def test_count_bruteforce_matches_oracle():
    for region in CORPUS:
        if len(region) <= 36:
            assert count_tilings_bruteforce(region) == count_tilings_backtracking(region)


def test_count_bruteforce_region_too_large():
    with pytest.raises(RegionTooLarge):
        count_tilings_bruteforce(rect(8, 8))


def test_fibonacci_strips():
    for n in range(1, 11):
        assert count_tilings_bruteforce(rect(n, 2)) == fibonacci_tiling_count(n)


def test_kasteleyn_matches_bruteforce_corpus():
    for region in CORPUS:
        if len(region) <= 20:
            assert count_tilings_kasteleyn(region) == count_tilings_bruteforce(region)


def test_kasteleyn_odd_region():
    assert count_tilings_kasteleyn({(0, 0), (1, 0), (0, 1)}) == 0


def test_kasteleyn_8x8_transfer_matrix():
    # the strip DP is itself validated against brute force on small sizes
    for w, h in ((2, 3), (3, 4), (4, 4)):
        assert transfer_matrix_strip_count(w, h) == count_tilings_bruteforce(rect(w, h))
    assert count_tilings_kasteleyn(rect(8, 8)) == transfer_matrix_strip_count(8, 8)


def test_kasteleyn_translation_invariant_exact_int():
    # the vertical-edge signs alternate with the column; negative columns
    # must give integer signs, or Bareiss runs on floats
    for region in CORPUS + [rect(4, 4)]:
        count = count_tilings_kasteleyn(region)
        for dx, dy in ((-5, 0), (-2, -3), (-13, 4), (3, -7), (1, 1)):
            moved = count_tilings_kasteleyn({(x + dx, y + dy) for x, y in region})
            assert type(moved) is int and moved == count
    box = {(x - 13, y) for x, y in rect(12, 12)}  # columns -13..-2
    count = count_tilings_kasteleyn(box)
    assert type(count) is int and count == transfer_matrix_strip_count(12, 12) == 53060477521960000


def test_kasteleyn_aztec_diamonds_centred_at_origin():
    # the order-n Aztec diamond has 2^(n(n+1)/2) tilings; centred at the
    # origin, half of its columns are negative
    for n in range(1, 13):
        diamond = {
            (x, y) for x in range(-n, n) for y in range(-n, n) if abs(2 * x + 1) + abs(2 * y + 1) <= 2 * n
        }
        assert len(diamond) == 2 * n * (n + 1)
        count = count_tilings_kasteleyn(diamond)
        assert type(count) is int and count == 2 ** (n * (n + 1) // 2)


def test_boundary_heights_match_tilings():
    for region in CORPUS[:6]:
        fixed = boundary_heights(region)
        for dominoes in enumerate_tilings(region):
            cfg = matching_to_height(DominoMatching(region, dominoes))
            for v, h in fixed.items():
                assert cfg.values[v] == h


def test_uniform_sample_2x2():
    from scipy import stats

    counts: dict = {}
    trials = 2000
    for k in range(trials):
        t = uniform_tiling_sample(rect(2, 2), RngStream(808, k))
        counts[t.dominoes] = counts.get(t.dominoes, 0) + 1
    assert len(counts) == 2
    observed = sorted(counts.values())
    assert stats.chisquare(observed).pvalue > 0.01


def test_uniform_sample_2x4_five_tilings():
    from scipy import stats

    region = rect(4, 2)
    assert count_tilings_bruteforce(region) == 5
    counts: dict = {}
    trials = 20_000
    for k in range(trials):
        t = uniform_tiling_sample(region, RngStream(909, k))
        counts[t.dominoes] = counts.get(t.dominoes, 0) + 1
    assert len(counts) == 5
    assert stats.chisquare(sorted(counts.values())).pvalue > 0.01


def test_uniform_sample_untileable():
    with pytest.raises(Untileable):
        uniform_tiling_sample({(0, 0), (1, 0), (0, 1)}, RngStream(1, 0))


def test_symmetric_difference_empty():
    t = _tiling(rect(2, 2), [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    diff, cycles = symmetric_difference_cycles(t, t)
    assert set(diff.values()) == {0}
    assert cycles == []


def test_symmetric_difference_2x2():
    th = _tiling(rect(2, 2), [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    tv = _tiling(rect(2, 2), [((0, 0), (0, 1)), ((1, 0), (1, 1))])
    diff, cycles = symmetric_difference_cycles(th, tv)
    assert len(cycles) == 1
    assert len(cycles[0]) == 4
    assert diff[(1, 1)] in (-1, 1)
    assert all(diff[v] == 0 for v in diff if v != (1, 1))


def test_symmetric_difference_rejects_corrupted_matching():
    # a domino outside the region leaves the height function intact but
    # gives its squares one partner each in the symmetric difference
    t = _tiling(rect(2, 2), [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    bad = _tiling(rect(2, 2), [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    object.__setattr__(bad, "dominoes", bad.dominoes | {frozenset({(5, 5), (6, 5)})})
    with pytest.raises(InconsistentCycle):
        symmetric_difference_cycles(t, bad)


def test_psi_step_rejects_non_neighbors():
    with pytest.raises(NotAHeightFunction):
        _psi_step((0, 0), (1, 1), False)


def test_reverse_every_cycle_swaps_tilings():
    region = rect(4, 4)
    tilings = enumerate_tilings(region)
    t1 = DominoMatching(region, tilings[0])
    t2 = DominoMatching(region, tilings[7])
    _, cycles = symmetric_difference_cycles(t1, t2)
    a, b = t1, t2
    for cyc in cycles:
        a, b = reverse_cycle(a, b, cyc)
    assert (a, b) == (t2, t1)


def test_reverse_cycle_negates_diff_inside():
    th = _tiling(rect(2, 2), [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    tv = _tiling(rect(2, 2), [((0, 0), (0, 1)), ((1, 0), (1, 1))])
    diff, cycles = symmetric_difference_cycles(th, tv)
    a, b = reverse_cycle(th, tv, cycles[0])
    diff2, _ = symmetric_difference_cycles(a, b)
    assert diff2[(1, 1)] == -diff[(1, 1)]


def test_cluster_swap_consistency_4x4():
    # open clusters of the coupled domino surfaces match the components of
    # the nonzero height difference, exhaustively over tiling pairs
    pot = domino_potential()
    region = rect(4, 4)
    tilings = [DominoMatching(region, d) for d in enumerate_tilings(region)]
    heights = [matching_to_height(t) for t in tilings]
    edges = edges_within(region_vertices(region))
    pairs = list(itertools.product(range(len(tilings)), repeat=2))
    for i, j in pairs[:: max(1, len(pairs) // 400)]:
        phi1, phi2 = heights[i], heights[j]
        trip = Triplet(phi1.copy(), phi2.copy(), {e: Fraction(0) for e in edges})
        ss = swappable_set(pot, trip)
        lib_clusters = {
            frozenset(c.vertices) for c in ss.clusters if c.zeta != 0
        }
        diff = {v: phi2.values[v] - phi1.values[v] for v in phi1.values}
        assert lib_clusters == _components(
            {v for v, d in diff.items() if d != 0}
        )


def _components(vset):
    out = set()
    left = set(vset)
    while left:
        seed = left.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            v = stack.pop()
            for w in ((v[0] + 1, v[1]), (v[0] - 1, v[1]), (v[0], v[1] + 1), (v[0], v[1] - 1)):
                if w in left:
                    left.remove(w)
                    comp.add(w)
                    stack.append(w)
        out.add(frozenset(comp))
    return out
