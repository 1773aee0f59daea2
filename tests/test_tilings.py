import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gradsurf.cluster_swap import Triplet, swappable_set
from gradsurf.errors import (
    InconsistentCycle,
    NotAHeightFunction,
    NotSimplyConnected,
    RegionTooLarge,
    Untileable,
)
from gradsurf.lattice import edges_within
from gradsurf.potential import domino_potential, hamiltonian_interior
from gradsurf.rng import RngStream
from gradsurf.tilings import (
    DominoMatching,
    _banded_det_residues,
    _odd_hole_rays,
    _prime_pool,
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
    uniform_tiling_samples,
)

from oracles import (
    at_rows,
    backtrack_tiling_count,
    bareiss_determinant,
    count_tilings_bareiss,
    enumerate_tilings,
    fibonacci_tiling_count,
    temperley_fisher_log_count,
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
            assert count_tilings_bruteforce(region) == backtrack_tiling_count(region)


def test_memoized_count_equals_backtracking_on_random_regions():
    # boxes of up to 20 squares, shifted anywhere, with random squares
    # removed: holed, disconnected and untileable regions included
    rng = random.Random(25)
    holed = tileable = 0
    for _ in range(300):
        w = rng.randint(1, 6)
        h = rng.randint(1, 20 // w)
        dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
        box = {(dx + i, dy + j) for i in range(w) for j in range(h)}
        removed = set(rng.sample(sorted(box), rng.randint(0, min(4, len(box)))))
        region = frozenset(box - removed)
        count = count_tilings_bruteforce(region)
        assert count == backtrack_tiling_count(region)
        holed += any(all(t in region for t in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))) for x, y in removed)
        tileable += count > 0
    assert holed >= 10 and tileable >= 50


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
    for n in range(1, 33):
        diamond = {
            (x, y) for x in range(-n, n) for y in range(-n, n) if abs(2 * x + 1) + abs(2 * y + 1) <= 2 * n
        }
        assert len(diamond) == 2 * n * (n + 1)
        count = count_tilings_kasteleyn(diamond)
        assert type(count) is int and count == 2 ** (n * (n + 1) // 2)


def _random_holed_region(rng):
    """A box of sides 3-9 with 1-20 random squares removed, at most 36 and
    an even number of squares left."""
    while True:
        w, h = rng.randint(3, 9), rng.randint(3, 9)
        cells = {(i, j) for i in range(w) for j in range(h)}
        for _ in range(rng.randint(1, 20)):
            cells.discard((rng.randrange(w), rng.randrange(h)))
        if len(cells) <= 36 and len(cells) % 2 == 0:
            return frozenset(cells)


def test_kasteleyn_counts_regions_with_holes():
    # a hole with an odd number of squares breaks the column gauge, so its
    # ray of flipped signs must bring back brute force's count, on every
    # translate of the region
    ring = rect(3, 3) - {(1, 1)}
    assert count_tilings_kasteleyn(ring) == count_tilings_bruteforce(ring) == 2
    assert count_tilings_kasteleyn(rect(6, 6) - {(2, 2), (2, 3), (3, 2), (3, 3)}) == 1444
    rng = random.Random(7)
    odd_holes = 0
    for _ in range(600):
        region = _random_holed_region(rng)
        count = count_tilings_bruteforce(region)
        odd_holes += bool(_odd_hole_rays(region))
        for dx, dy in ((0, 0), (-9, 3), (4, -11)):
            assert count_tilings_kasteleyn({(x + dx, y + dy) for x, y in region}) == count, (sorted(region), dx, dy)
    assert odd_holes >= 80


def test_banded_residues_equal_bareiss_mod_small_primes():
    # with primes this small, singular matrices mod p and zero leading
    # pivots are common, so the kernel's row swaps and all-zero columns run
    rng = random.Random(11)
    primes = [3, 5, 7, 11]
    swaps = zero_columns = 0
    for _ in range(400):
        n, b = rng.randint(1, 12), rng.randint(0, 4)
        dense = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(max(0, i - b), min(n, i + b + 1)):
                dense[i][j] = rng.choice((0, 0, 0, -1, 1, 2, -3, 5, 13))
        if rng.random() < 0.2 and n > 1:  # two equal rows: singular over Z
            i = rng.randrange(n - 1)
            row = [dense[i][c] if abs(i + 1 - c) <= b else 0 for c in range(n)]
            dense[i], dense[i + 1] = row, row[:]
        band = np.zeros((n, 2 * b + 1), dtype=np.int64)
        for i in range(n):
            for j in range(max(0, i - b), min(n, i + b + 1)):
                band[i, j - i + b] = dense[i][j]
        det = bareiss_determinant(dense)
        residues = _banded_det_residues(band, np.array(primes, dtype=np.int64))
        assert residues.tolist() == [det % p for p in primes], (dense, det)
        for p in primes:
            swaps += dense[0][0] % p == 0 and det % p != 0
            zero_columns += det % p == 0 and det != 0
    assert swaps >= 50 and zero_columns >= 50


def test_prime_pool_is_the_largest_primes_below_2_31():
    sieve = bytearray([1]) * 46341
    sieve[:2] = b"\0\0"
    for i in range(2, 216):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    small = [i for i, f in enumerate(sieve) if f]
    pool = _prime_pool(40)
    candidates = range(2**31 - 1, pool[-1] - 1, -1)
    assert list(pool) == [m for m in candidates if all(m % q for q in small)]


def test_kasteleyn_equals_bareiss_oracle():
    # the banded residue kernel against Bareiss on the same signs, on the
    # corpus, on the holed regions of the brute-force test, on larger holed
    # regions that need several primes, and on every region's transpose
    rng = random.Random(7)
    regions = CORPUS + [_random_holed_region(rng) for _ in range(600)]
    for _ in range(12):  # boxes less random dominoes, so colours balance
        w, h = rng.randint(8, 16), rng.randint(8, 14)
        cells = {(i - 6, j + 3) for i in range(w) for j in range(h)}
        for _ in range(rng.randint(0, 15)):
            x, y = rng.randrange(w - 1) - 6, rng.randrange(h) + 3
            if {(x, y), (x + 1, y)} <= cells:
                cells -= {(x, y), (x + 1, y)}
        regions.append(frozenset(cells))
    nonzero = 0
    for region in regions:
        count = count_tilings_bareiss(region)
        nonzero += count > 0
        assert count_tilings_kasteleyn(region) == count, sorted(region)
        assert count_tilings_kasteleyn({(y, x) for x, y in region}) == count, sorted(region)
    assert nonzero >= 100


def test_kasteleyn_boxes_match_temperley_fisher():
    sides = (2, 3, 4, 7, 10, 16, 25, 32, 33, 64)
    for m, n in itertools.combinations_with_replacement(sides, 2):
        if m * n % 2:
            continue
        count = count_tilings_kasteleyn(rect(m, n))
        assert type(count) is int
        assert math.isclose(math.log(count), temperley_fisher_log_count(m, n), rel_tol=1e-12), (m, n)


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
    for t in uniform_tiling_samples(region, [RngStream(909, k) for k in range(trials)]):
        counts[t.dominoes] = counts.get(t.dominoes, 0) + 1
    assert len(counts) == 5
    assert stats.chisquare(sorted(counts.values())).pvalue > 0.01


def test_uniform_samples_of_one_region_share_a_potential(monkeypatch):
    # later samples of a region reuse its potential, and with it the plan,
    # windows and conditional table; the tilings are those of fresh ones
    from gradsurf import tilings

    built = []

    def counted():
        built.append(domino_potential())
        return built[-1]

    monkeypatch.setattr(tilings, "domino_potential", counted)
    region = frozenset((i + 7, j - 3) for i, j in rect(4, 2))
    samples = [uniform_tiling_sample(region, RngStream(5, k)) for k in range(4)]
    assert len(built) == 1
    tilings._tiling_setup.cache_clear()
    for k, t in enumerate(samples):
        assert uniform_tiling_sample(region, RngStream(5, k)).dominoes == t.dominoes
    assert len(built) == 2


def test_uniform_tiling_samples_equal_per_stream_samples():
    # one batch per region gives each stream's tiling, and the errors of
    # a single sample
    for region in (rect(4, 4), rect(6, 3), rect(6, 6) - {(5, 5), (5, 4)}):
        streams = [RngStream(13, k) for k in range(12)]
        batch = uniform_tiling_samples(region, streams)
        assert [t.dominoes for t in batch] == [uniform_tiling_sample(region, s).dominoes for s in streams]
    for region, error in (({(0, 0), (1, 0), (0, 1)}, Untileable), (rect(3, 3) - {(1, 1)}, NotSimplyConnected)):
        with pytest.raises(error):
            uniform_tiling_samples(region, [RngStream(1, k) for k in range(3)])


def test_uniform_tiling_samples_block_draws_equal_the_at_path(monkeypatch):
    # the tilings of a notched box are the same with one numpy generator
    # per row (oracles.at_rows) in place of rng.block
    from gradsurf import rng

    region = rect(6, 6) - {(5, 5), (5, 4)}
    streams = [RngStream(21, k) for k in range(6)]
    by_block = [t.dominoes for t in uniform_tiling_samples(region, streams)]
    monkeypatch.setattr(rng, "block", at_rows)
    assert [t.dominoes for t in uniform_tiling_samples(region, streams)] == by_block


def test_uniform_sample_untileable():
    with pytest.raises(Untileable):
        uniform_tiling_sample({(0, 0), (1, 0), (0, 1)}, RngStream(1, 0))


def test_uniform_sample_holed_regions_raise_not_simply_connected():
    # each hole's height offset is random, so the fixed-boundary sampler
    # must refuse both regions on every seed, before any boundary walk
    ring = rect(3, 3) - {(1, 1)}
    holed = rect(6, 6) - {(2, 2), (2, 3), (3, 2), (3, 3)}
    two = rect(8, 3) - {(1, 1), (5, 1)}
    for region, holes in ((ring, 1), (holed, 1), (two, 2)):
        for seed in range(20):
            with pytest.raises(NotSimplyConnected) as info:
                uniform_tiling_sample(region, RngStream(seed, 0))
            assert info.value.holes == holes and info.value.kind == "NotSimplyConnected"


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
