import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gradsurf.errors import Infeasible, NotErgodic, NotIncreasing, SlopeMismatch, StateSpaceTooLarge
from gradsurf.feasibility import torus_slope_feasible
from gradsurf.heights import HeightConfig, TorusInfo
from gradsurf.lattice import Sublattice, box_region, outer_boundary
from gradsurf.observables import (
    EXACT_SUM,
    THERMODYNAMIC_INTEGRATION,
    TRANSFER_MATRIX,
    SigmaEstimate,
    _transfer_matrix_log_z,
    convexity_margin,
    empirical_gradient_measure,
    fkg_check,
    height_offset_estimate,
    log_concavity_check,
    log_partition_exact,
    sigma_estimate,
    variance_profile,
)
from gradsurf.potential import (
    INF,
    PeriodicPotential,
    PiecewiseLinearPotential,
    QuadraticPotential,
    TablePotential,
    domino_potential,
    lipschitz_truncate,
    sos_abs_potential,
)
from gradsurf.rng import RngStream

from oracles import at_rows, torus_class_enumerate, transfer_matrix_log_z_loops

F = Fraction


def test_unbounded_support_scan_between_unequal_pins(sos):
    # sos-abs has unbounded support, so the sums scan each free site over
    # a window sized from V's growth; one site between pins 0 and 2 has
    # Z = e^-2 (3 + 2 e^-2 / (1 - e^-2)), and three free sites are refused
    boundary = {(0, 0): 0, (2, 0): 2}
    assert log_partition_exact(sos, region=[(1, 0)], boundary=boundary) == pytest.approx(-0.8021352261203858, abs=1e-12)
    assert log_concavity_check(sos, [(1, 0)], boundary, (1, 0)).verdict == "PASS"
    with pytest.raises(StateSpaceTooLarge, match="at most 2 free sites"):
        log_partition_exact(sos, region=[(1, 0), (2, 0), (3, 0)], boundary={(0, 0): 0, (4, 0): 0})


def test_unbounded_support_scan_without_pins_is_infeasible(sos):
    # no pin leaves the heights free, as on the Lipschitz path
    with pytest.raises(Infeasible, match=r"\(0, 0\)"):
        log_partition_exact(sos, region=[(0, 0)], boundary={})


def test_unbounded_support_scan_spends_the_node_budget(sos):
    # both free sites have a pin, so each window is [-44, 44], past which
    # |eta| costs 45; 89 + 89^2 nodes exceed a budget of 10 before the search
    boundary = {(-1, 0): 0, (2, 0): 0}
    assert log_partition_exact(sos, region=[(0, 0), (1, 0)], boundary=boundary) == pytest.approx(0.7352926947372781, abs=1e-12)
    with pytest.raises(StateSpaceTooLarge, match="node budget 10$"):
        log_partition_exact(sos, region=[(0, 0), (1, 0)], boundary=boundary, node_budget=10)


def _linear(s):
    return PeriodicPotential.isotropic("int", PiecewiseLinearPotential(xs=(0.0,), ys=(0.0,), left_slope=-s, right_slope=s))


@pytest.mark.parametrize("s", [1.0, 0.1, 0.02])
def test_unbounded_support_window_grows_as_the_slope_falls(s):
    # V = s|eta|, one site between pins 0 and 0: Z = sum_h e^(-2 s |h|);
    # a window of fixed width cuts off a relative mass of order e^(-90 s)
    exact = math.log((1 + math.exp(-2 * s)) / (1 - math.exp(-2 * s)))
    boundary = {(0, 0): 0, (2, 0): 0}
    assert log_partition_exact(_linear(s), region=[(1, 0)], boundary=boundary) == pytest.approx(exact, abs=1e-12)


def test_unbounded_support_window_of_a_site_pinned_through_the_other():
    # (1, 0)'s only neighbour is the free site (0, 0), so its window is
    # twice as wide; a brute-force double sum over [-600, 600]^2 agrees
    s = 0.5
    h = np.arange(-600, 601)
    x, y = h[:, None], h[None, :]
    energy = s * (np.abs(x) + np.abs(1 - x) + np.abs(y - x))
    exact = float(np.log(np.exp(-energy).sum()))
    boundary = {(-1, 0): 0, (0, 1): 1}
    assert log_partition_exact(_linear(s), region=[(0, 0), (1, 0)], boundary=boundary) == pytest.approx(exact, abs=1e-12)


def test_log_partition_single_free_edge(sos):
    # oracle: Z = 1 + 2/(e - 1) by direct series summation
    val = log_partition_exact(sos, region=[(1, 0)], boundary={(0, 0): 0})
    expected = math.log(1 + 2 / (math.e - 1))
    assert val == pytest.approx(expected, abs=1e-12)
    assert math.exp(val) == pytest.approx(2.16395, abs=1e-5)


def test_exact_region_sums_need_integer_heights(sos):
    # a real domain has no integer state space to sum over; the int
    # sos-abs scan over two free sites keeps the value of the direct sum
    gaussian = PeriodicPotential.isotropic("real", QuadraticPotential(1.0))
    boundary = {(1, 0): 0, (-1, 0): 0, (0, 1): 0, (0, -1): 0}
    with pytest.raises(StateSpaceTooLarge, match="real domain"):
        log_partition_exact(gaussian, region=[(0, 0)], boundary=boundary)
    with pytest.raises(StateSpaceTooLarge, match="real domain"):
        fkg_check(gaussian, [(0, 0)], boundary, lambda s: s[(0, 0)] >= 0, lambda s: s[(0, 0)] >= 1)
    with pytest.raises(StateSpaceTooLarge, match="real domain"):
        log_concavity_check(gaussian, [(0, 0)], boundary, (0, 0))
    val = log_partition_exact(sos, region=[(1, 0), (2, 0)], boundary={(0, 0): 0, (3, 0): 0})
    terms = [math.exp(-(abs(a) + abs(b - a) + abs(b))) for a in range(-60, 61) for b in range(-60, 61)]
    assert val == pytest.approx(math.log(math.fsum(terms)), abs=1e-12)


def test_log_partition_domino_2torus_counts(domino):
    # independent oracle enumerates the slope-0 class by brute force
    oracle = torus_class_enumerate(domino, 2, (0, 0), window=2)
    count = len(oracle)
    assert count > 0
    val = log_partition_exact(domino, torus=2, slope=(F(0), F(0)))
    assert val == pytest.approx(math.log(count), abs=1e-12)


def test_log_partition_tree_region_uniform():
    # all-zero values on support of size 3, path region with 3 edges
    table = TablePotential.from_dict({-1: 0.0, 0: 0.0, 1: 0.0})
    pot = PeriodicPotential.isotropic("int", table)
    region = [(1, 0), (2, 0), (3, 0)]
    val = log_partition_exact(pot, region=region, boundary={(0, 0): 0})
    assert val == pytest.approx(3 * math.log(3), abs=1e-12)


def test_log_partition_infeasible_is_minus_inf(domino):
    assert log_partition_exact(domino, torus=4, slope=(F(3, 4), F(0))) == -INF


@pytest.mark.parametrize(
    "fixture_name,n,slope",
    [
        ("sos_trunc1", 2, (F(0), F(0))),
        ("sos_trunc1", 2, (F(1, 2), F(0))),
        ("sos_trunc1", 3, (F(1, 3), F(1, 3))),
        ("domino", 2, (F(0), F(0))),
        ("domino", 2, (F(1, 2), F(0))),
    ],
)
def test_exact_sum_vs_transfer_matrix(request, fixture_name, n, slope):
    pot = request.getfixturevalue(fixture_name)
    a = log_partition_exact(pot, torus=n, slope=slope, method=EXACT_SUM)
    b = log_partition_exact(pot, torus=n, slope=slope, method=TRANSFER_MATRIX)
    assert a == pytest.approx(b, abs=1e-10)


def test_exact_sum_vs_transfer_matrix_random_potentials():
    import random

    from gradsurf.lattice import Sublattice

    rng = random.Random(77007)
    compared = 0
    for _ in range(8):
        lat = Sublattice(2, 2, 0)
        classes = {}
        for axis in (0, 1):
            for base in lat.fundamental_domain():
                lo = rng.randint(-1, 0)
                hi = rng.randint(lo, lo + 1)
                classes[(axis, base)] = TablePotential.from_dict(
                    {k: 0.5 * rng.randint(0, 3) for k in range(lo, hi + 1)}
                )
        pot = PeriodicPotential.build("int", lat, classes)
        for holonomy in ((0, 0), (1, 0), (0, 1), (-1, 1)):
            slope = (F(holonomy[0], 2), F(holonomy[1], 2))
            a = log_partition_exact(pot, torus=2, slope=slope, method=EXACT_SUM)
            b = log_partition_exact(pot, torus=2, slope=slope, method=TRANSFER_MATRIX)
            if a == -INF or b == -INF:
                assert a == b, (classes, slope)
            else:
                assert a == pytest.approx(b, abs=1e-10), (classes, slope)
            compared += 1
    assert compared == 32


def _random_table_potential(rng, lat, value):
    """Random tables on the lattice's edge classes: supports of at most
    three increments inside [-1, 2], values from ``value()``."""
    classes = {}
    for axis in (0, 1):
        for base in lat.fundamental_domain():
            lo = rng.randint(-1, 0)
            hi = rng.randint(lo, lo + 2)
            classes[(axis, base)] = TablePotential.from_dict({k: value() for k in range(lo, hi + 1)})
    return PeriodicPotential.build("int", lat, classes)


def _assert_three_way_agreement(pot, n, slope):
    kernel = _transfer_matrix_log_z(pot, n, slope)
    reference = transfer_matrix_log_z_loops(pot, n, slope)
    tm = log_partition_exact(pot, torus=n, slope=slope, method=TRANSFER_MATRIX)
    exact = log_partition_exact(pot, torus=n, slope=slope, method=EXACT_SUM)
    if -INF in (kernel, reference, tm, exact):
        assert kernel == reference == tm == exact == -INF, (pot, n, slope)
    else:
        assert kernel == pytest.approx(reference, abs=1e-10), (pot, n, slope)
        assert tm == pytest.approx(exact, abs=1e-10), (pot, n, slope)
    return exact


@pytest.mark.parametrize("n,tables,per_table", [(1, 8, 4), (2, 8, 4), (3, 6, 3), (4, 3, 2)])
def test_transfer_matrix_equals_loop_reference_and_exact_sum(n, tables, per_table):
    # 2Z^2-periodic tables on even tori; odd sides are not multiples of that
    # period, so they take Z^2-periodic tables (one random table per axis)
    rng = random.Random(81000 + n)
    lat = Sublattice(2, 2, 0) if n % 2 == 0 else Sublattice(1, 1, 0)
    # every increment lies in [-1, 2], so a row cannot climb 2n + 1
    infeasible = (F(2 * n + 1, n), F(0))
    candidates = [(F(a, n), F(b, n)) for a in range(-n, 2 * n + 1) for b in range(-n, 2 * n + 1)]
    finite = 0
    for _ in range(tables):
        pot = _random_table_potential(rng, lat, lambda: 0.5 * rng.randint(0, 3))
        feasible = [s for s in candidates if torus_slope_feasible(pot, n, s)]
        assert not torus_slope_feasible(pot, n, infeasible)
        for slope in rng.sample(feasible, min(per_table, len(feasible))) + [infeasible]:
            finite += _assert_three_way_agreement(pot, n, slope) > -INF
    assert finite >= tables


def test_transfer_matrix_stiff_abs1_does_not_underflow():
    # |eta| <= 1 at 100 per unit step: each row of the 4-torus climbs 2, so
    # the 6 ground states (two up-steps per row, the same columns in every
    # row) cost 800, past the double range of exp(-energy)
    stiff = PeriodicPotential.isotropic("int", TablePotential.from_dict({-1: 100.0, 0: 0.0, 1: 100.0}))
    slope = (F(1, 2), F(0))
    exact = log_partition_exact(stiff, torus=4, slope=slope, method=EXACT_SUM)
    tm = log_partition_exact(stiff, torus=4, slope=slope, method=TRANSFER_MATRIX)
    assert exact == pytest.approx(-800 + math.log(6), abs=1e-9)
    assert exact == pytest.approx(-798.2082405307, abs=1e-9)
    assert tm == pytest.approx(exact, abs=1e-10)
    sigma = sigma_estimate(stiff, slope, 4, method=TRANSFER_MATRIX)
    assert sigma.value == pytest.approx(-exact / 16, abs=1e-12)


def test_transfer_matrix_stiff_random_tables():
    # every nonzero value is at least 60 and each row and column of the
    # 4-torus at slope (1/2, 1/2) climbs 2, so every config costs at least
    # 16 * 60 = 960
    rng = random.Random(81060)
    lat = Sublattice(2, 2, 0)
    slope = (F(1, 2), F(1, 2))
    for _ in range(3):
        classes = {}
        for axis in (0, 1):
            for base in lat.fundamental_domain():
                lo = rng.randint(-1, 0)
                classes[(axis, base)] = TablePotential.from_dict(
                    {k: 0.0 if k == 0 else rng.uniform(60.0, 120.0) for k in range(lo, 2)}
                )
        pot = PeriodicPotential.build("int", lat, classes)
        exact = log_partition_exact(pot, torus=4, slope=slope, method=EXACT_SUM)
        tm = log_partition_exact(pot, torus=4, slope=slope, method=TRANSFER_MATRIX)
        assert -INF < exact < -900
        assert tm == pytest.approx(exact, abs=1e-10)


def test_sigma_exact_methods_agree(sos_trunc1):
    e1 = sigma_estimate(sos_trunc1, (F(0), F(0)), 3, method=EXACT_SUM)
    e2 = sigma_estimate(sos_trunc1, (F(0), F(0)), 3, method=TRANSFER_MATRIX)
    assert e1.stderr == e2.stderr == 0.0
    assert e1.value == pytest.approx(e2.value, abs=1e-10)


def test_sigma_ti_matches_exact(sos_trunc1):
    exact = sigma_estimate(sos_trunc1, (F(0), F(0)), 3, method=EXACT_SUM)
    ti = sigma_estimate(
        sos_trunc1,
        (F(0), F(0)),
        3,
        method=THERMODYNAMIC_INTEGRATION,
        budget=1024,
        rng=RngStream(1234, 0),
    )
    assert ti.stderr > 0
    assert abs(ti.value - exact.value) <= 3 * ti.stderr


@pytest.mark.parametrize("budget", [16, 256])
def test_sigma_ti_block_draws_equal_the_at_path(monkeypatch, sos_trunc1, budget):
    # TI draws every sweep of every beta node from one stream by rng.block,
    # in slices of at most _CFTP_HEIGHTS doubles (several at budget 256);
    # one numpy generator per row (oracles.at_rows) gives the same value
    # and stderr
    from gradsurf import rng, sampler

    drawn = []
    block = rng.block
    monkeypatch.setattr(rng, "block", lambda streams, counters, size: drawn.append(len(counters) * size) or block(streams, counters, size))
    slope = (F(1, 4), F(0))
    ti = sigma_estimate(sos_trunc1, slope, 4, method=THERMODYNAMIC_INTEGRATION, budget=budget, rng=RngStream(77, 3))
    sweeps = 21 * (max(8, budget // 4) + 32 * max(1, budget // 32))
    assert sum(drawn) == sweeps * 15
    assert max(drawn) <= sampler._CFTP_HEIGHTS
    assert len(drawn) == -(-sweeps // (sampler._CFTP_HEIGHTS // 15))
    monkeypatch.setattr(rng, "block", at_rows)
    at = sigma_estimate(sos_trunc1, slope, 4, method=THERMODYNAMIC_INTEGRATION, budget=budget, rng=RngStream(77, 3))
    assert (ti.value, ti.stderr) == (at.value, at.stderr)
    assert ti.stderr > 0


def _ti_cases():
    """(potential, n, slope) per case: abs1 and abs2 on sides 3 to 6,
    sloped domino and random 2Z^2-periodic tables on sides 4 and 6."""
    from test_feasibility import _random_periodic_potential

    abs1 = lipschitz_truncate(PeriodicPotential.isotropic("int", sos_abs_potential()), 1)
    abs2 = PeriodicPotential.isotropic("int", TablePotential.from_dict({k: 1.1 * abs(k) for k in range(-2, 3)}))
    cases = {
        "abs1-n3-flat": (abs1, 3, (F(0), F(0))),
        "abs1-n4-quarter": (abs1, 4, (F(1, 4), F(0))),
        "abs1-n5-diagonal": (abs1, 5, (F(1, 5), F(2, 5))),
        "abs2-n3-third": (abs2, 3, (F(0), F(1, 3))),
        "abs2-n6-sloped": (abs2, 6, (F(1, 2), F(1, 6))),
        "domino-n4-quarter": (domino_potential(), 4, (F(1, 4), F(0))),
    }
    rng = random.Random(1919)
    for k, (n, slope) in enumerate([(4, (F(0), F(0))), (4, (F(1, 2), F(0))), (6, (F(1, 3), F(1, 3))), (6, (F(0), F(1, 2)))]):
        cases[f"periodic{k}-n{n}"] = (_random_periodic_potential(rng), n, slope)
    return cases


_TI_CASES = _ti_cases()


@pytest.mark.parametrize("budget", [16, 64, 100], ids=["per-batch-1", "per-batch-2", "per-batch-3"])
@pytest.mark.parametrize("case", sorted(_TI_CASES))
def test_ti_batch_equals_per_beta_loop(case, budget):
    # the 21 beta chains swept as one batch give the per-beta loop's
    # integral and stderr bit for bit
    from gradsurf.observables import _ti_energy_integral

    from oracles import ti_energy_integral_loop

    pot, n, slope = _TI_CASES[case]
    expected = ti_energy_integral_loop(pot, n, slope, budget, RngStream(budget, n))
    assert _ti_energy_integral(pot, n, slope, budget, RngStream(budget, n)) == expected


def test_ti_batch_equals_per_beta_loop_on_the_dict_branch(monkeypatch, sos_trunc1):
    # a selector that accepts no plan sends every copy through
    # site_conditional's code, one dict per beta node
    from gradsurf import sampler
    from gradsurf.observables import _ti_energy_integral

    from oracles import ti_energy_integral_loop

    slope = (F(1, 4), F(0))
    expected = ti_energy_integral_loop(sos_trunc1, 4, slope, 16, RngStream(4, 4))
    monkeypatch.setattr(sampler, "_sweep_plan", lambda *args: None)
    assert _ti_energy_integral(sos_trunc1, 4, slope, 16, RngStream(4, 4)) == expected


def test_ti_sweeps_all_beta_chains_in_one_wave_pass_per_sweep(monkeypatch, sos_trunc1):
    # one _sweep_waves call per sweep time for all 21 chains: 8 burn-in
    # and 32 batch sweeps at budget 16
    from gradsurf import sampler
    from gradsurf.observables import _ti_energy_integral

    calls = []
    sweep_waves = sampler._sweep_waves
    monkeypatch.setattr(sampler, "_sweep_waves", lambda *args: calls.append(len(args[2])) or sweep_waves(*args))
    _ti_energy_integral(sos_trunc1, 4, (F(1, 4), F(0)), 16, RngStream(0, 0))
    assert calls == [21 * 16] * 40


def test_ti_fills_each_pattern_for_all_beta_chains_at_once(monkeypatch):
    # a bench-sized abs1 TI op (n = 4, budget 16): a pattern that one beta
    # chain meets is filled for all 21 at once, so the op takes fewer fills
    # than the 77 that filling each potential's rows on its own takes here
    from gradsurf import sampler
    from gradsurf.observables import _ti_energy_integral

    added = []
    fill = sampler._ConditionalTable._fill

    def counted(table, key, *rest):
        count = table.count
        fill(table, key, *rest)
        added.append((table.count - count, len(np.unique(key))))

    monkeypatch.setattr(sampler._ConditionalTable, "_fill", counted)
    abs1 = PeriodicPotential.isotropic("int", TablePotential.from_dict({-1: 1.0, 0: 0.0, 1: 1.0}))
    _ti_energy_integral(abs1, 4, (F(0), F(0)), 16, RngStream(0, 0))
    assert 0 < len(added) < 77
    assert all(rows == 21 * keys for rows, keys in added)


def test_ti_table_keys_stay_within_the_limit(monkeypatch):
    # increment bounds of +-15 give 31^4 keys, within sampler._TABLE_LIMIT:
    # the 21 beta chains share one table of that many keys, and no table of
    # the unscaled potential is built
    from gradsurf import sampler
    from gradsurf.observables import _ti_energy_integral

    built = []
    table = sampler._ConditionalTable
    monkeypatch.setattr(sampler, "_ConditionalTable", lambda *args: built.append(table(*args)) or built[-1])
    wide = PeriodicPotential.isotropic("int", TablePotential.from_dict({k: 0.25 * abs(k) for k in range(-15, 16)}))
    _ti_energy_integral(wide, 2, (F(0), F(0)), 4, RngStream(0, 0))
    assert [t.row_of.size for t in built] == [31**4] and 31**4 <= sampler._TABLE_LIMIT
    assert built[0].width == 21


def test_ti_raises_at_boundary_slopes_where_transfer_matrix_answers(domino):
    # at slope (1, 0) every x-increment of abs1 is tight, so no site can
    # move and the chains would average the start's energy (0.81597 with
    # stderr 0 at every seed and budget); the exact methods give 0.99975
    abs1 = PeriodicPotential.isotropic("int", TablePotential.from_dict({-1: 1.0, 0: 0.0, 1: 1.0}))
    for slope in ((F(1), F(0)), (F(1), F(1)), (F(-1), F(1, 2))):
        exact = sigma_estimate(abs1, slope, 4, method=TRANSFER_MATRIX)
        assert exact.value == sigma_estimate(abs1, slope, 4, method=EXACT_SUM).value < INF
        with pytest.raises(NotErgodic, match="tight"):
            sigma_estimate(abs1, slope, 4, method=THERMODYNAMIC_INTEGRATION, budget=16, rng=RngStream(0, 0))
    assert sigma_estimate(abs1, (F(1), F(0)), 4, method=TRANSFER_MATRIX).value == pytest.approx(0.99975, abs=1e-5)
    inside = sigma_estimate(abs1, (F(3, 4), F(0)), 4, method=THERMODYNAMIC_INTEGRATION, budget=64, rng=RngStream(0, 0))
    assert inside.stderr > 0
    # domino energies are constant on their supports, so its boundary
    # slopes keep the exact answer
    slope = (F(1, 4), F(1, 4))
    ti = sigma_estimate(domino, slope, 4, method=THERMODYNAMIC_INTEGRATION, budget=16, rng=RngStream(0, 0))
    assert (ti.value, ti.stderr) == (sigma_estimate(domino, slope, 4, method=TRANSFER_MATRIX).value, 0.0)


def test_variance_profile_raises_at_boundary_slopes(domino):
    # the profile's chain would never move a site on a tight cycle, so
    # abs1 at (1, 0) is refused before any sweep; inside the polytope it
    # runs, and domino keeps its boundary slopes
    abs1 = PeriodicPotential.isotropic("int", TablePotential.from_dict({-1: 1.0, 0: 0.0, 1: 1.0}))
    with pytest.raises(NotErgodic, match="single-site chain needs a slope inside the allowed polytope"):
        variance_profile(abs1, 4, (F(1), F(0)), distances=(1, 2), trials=2, rng=RngStream(0, 0), burn_in=1, batches=2)
    for pot, slope in ((abs1, (F(3, 4), F(0))), (domino, (F(1, 4), F(1, 4)))):
        prof = variance_profile(pot, 4, slope, distances=(1, 2), trials=2, rng=RngStream(0, 0), burn_in=1, batches=2)
        assert len(prof.variances) == 2


@pytest.mark.parametrize(
    "edge",
    [PiecewiseLinearPotential((-1, 0, 1), (1, 0, 1)), TablePotential.from_dict({-1: 1.0, 0: 0.0, 1: 1.0})],
    ids=["pwl", "abs1"],
)
def test_sigma_ti_on_real_heights_raises_state_space_too_large(monkeypatch, edge):
    # TI's beta = 0 reference is the transfer matrix, a sum over integer
    # heights, so a real domain fails before any sweep with the error the
    # exact methods raise
    from gradsurf import observables

    monkeypatch.setattr(observables, "_Chain", None)  # no chain may be built
    pot = PeriodicPotential.isotropic("real", edge)
    with pytest.raises(StateSpaceTooLarge, match="integer heights"):
        sigma_estimate(pot, (F(0), F(0)), 3, method=THERMODYNAMIC_INTEGRATION, budget=16, rng=RngStream(0, 0))
    for method in (EXACT_SUM, TRANSFER_MATRIX):
        with pytest.raises(StateSpaceTooLarge):
            sigma_estimate(pot, (F(0), F(0)), 3, method=method)


def test_sigma_monotone_under_truncation(sos_trunc1, sos_trunc2):
    s1 = sigma_estimate(sos_trunc1, (F(0), F(0)), 2, method=EXACT_SUM)
    s2 = sigma_estimate(sos_trunc2, (F(0), F(0)), 2, method=EXACT_SUM)
    assert s1.value >= s2.value  # smaller state space, smaller Z


def test_sigma_additive_constant_covariance(sos_trunc1):
    # +c on every edge potential raises sigma by exactly c * (edges per site)
    c = 2.0
    shifted = PeriodicPotential.isotropic(
        "int", TablePotential.from_dict({-1: 1.0 + c, 0: 0.0 + c, 1: 1.0 + c})
    )
    base = sigma_estimate(sos_trunc1, (F(0), F(0)), 2, method=EXACT_SUM)
    up = sigma_estimate(shifted, (F(0), F(0)), 2, method=EXACT_SUM)
    assert up.value - base.value == pytest.approx(2 * c, abs=1e-12)


def test_sigma_infeasible_slope(domino):
    est = sigma_estimate(domino, (F(3, 4), F(0)), 4, method=EXACT_SUM)
    assert est.value == INF


def test_domino_convexity_margin_positive(domino):
    lo = sigma_estimate(domino, (F(-1, 4), F(0)), 4, method=EXACT_SUM)
    hi = sigma_estimate(domino, (F(1, 4), F(0)), 4, method=EXACT_SUM)
    mid = sigma_estimate(domino, (F(0), F(0)), 4, method=EXACT_SUM)
    report = convexity_margin(lo, hi, mid)
    assert report.margin > 0
    assert report.verdict == "PASS"
    flipped = convexity_margin(hi, lo, mid)
    assert flipped.margin == report.margin


def test_convexity_margin_degenerate(sos_trunc1):
    e = sigma_estimate(sos_trunc1, (F(0), F(0)), 2, method=EXACT_SUM)
    report = convexity_margin(e, e, e)
    assert report.margin == 0
    assert report.verdict == "INCONCLUSIVE"


def test_convexity_margin_slope_mismatch(sos_trunc1):
    a = sigma_estimate(sos_trunc1, (F(0), F(0)), 2, method=EXACT_SUM)
    b = sigma_estimate(sos_trunc1, (F(1, 2), F(0)), 2, method=EXACT_SUM)
    with pytest.raises(SlopeMismatch):
        convexity_margin(a, b, a)


def test_boundary_face_margin_matches_transfer_matrix(domino):
    # along the boundary face of the domino polytope the class sums are
    # tiny zero-entropy counts; the margin must match the independent
    # transfer-matrix route exactly
    lo = sigma_estimate(domino, (F(1, 2), F(0)), 4, method=EXACT_SUM)
    hi = sigma_estimate(domino, (F(0), F(1, 2)), 4, method=EXACT_SUM)
    mid = sigma_estimate(domino, (F(1, 4), F(1, 4)), 4, method=EXACT_SUM)
    tm = [
        log_partition_exact(domino, torus=4, slope=s, method=TRANSFER_MATRIX)
        for s in ((F(1, 2), F(0)), (F(0), F(1, 2)), (F(1, 4), F(1, 4)))
    ]
    expected = (-tm[0] / 16 - tm[1] / 16) / 2 + tm[2] / 16
    report = convexity_margin(lo, hi, mid)
    assert report.margin == pytest.approx(expected, abs=1e-10)
    assert report.margin >= 0  # sigma stays convex on the boundary


def test_empirical_gradient_flat():
    lat = Sublattice(1, 1, 0)
    flat = HeightConfig({(i, j): 0 for i in range(3) for j in range(3)}, reference=(0, 0))
    egm = empirical_gradient_measure([flat], lat)
    freqs = egm.frequencies()
    assert freqs == {(0, 0, 0, 0): 1.0}


def test_empirical_gradient_brick_wall_two_phases():
    # the slope-(1/2,0) ground state and its unit translate: two phases
    lat = Sublattice(2, 2, 0)
    n = 4
    info = TorusInfo(n=n, slope=(F(1, 2), F(0)))
    phase0 = {(i, j): (i + 1) // 2 for i in range(n) for j in range(n)}
    phase1 = {(i, j): i // 2 for i in range(n) for j in range(n)}
    cfgs = [
        HeightConfig(phase0, reference=(0, 0), torus=info),
        HeightConfig(phase1, reference=(0, 0), torus=info),
    ]
    egm = empirical_gradient_measure(cfgs, lat)
    freqs = egm.frequencies()
    assert len(freqs) == 2
    assert all(f == pytest.approx(0.5) for f in freqs.values())
    # order invariance
    egm2 = empirical_gradient_measure(list(reversed(cfgs)), lat)
    assert egm2.frequencies() == freqs


def test_variance_profile_deterministic_flat(sos):
    frozen = lipschitz_truncate(sos, 0)  # support {0}: the flat class only
    prof = variance_profile(
        frozen, 4, (F(0), F(0)), distances=(1, 2), trials=8, rng=RngStream(5, 0)
    )
    assert prof.variances == (0.0, 0.0)
    assert prof.verdict == "PASS"


def test_variance_profile_rejects_empty_distances(sos_trunc1):
    for distances in ((), (4,)):
        with pytest.raises(ValueError, match="distances"):
            variance_profile(sos_trunc1, 4, (F(0), F(0)), distances=distances, trials=2, rng=RngStream(5, 0))


def test_variance_profile_sos_bound(sos_trunc1):
    prof = variance_profile(
        sos_trunc1,
        8,
        (F(0), F(0)),
        distances=(1, 2, 4),
        trials=120,
        rng=RngStream(77, 0),
    )
    assert prof.verdict == "PASS"
    assert prof.c_hat > 0


def test_height_offset_flat_and_planes():
    flat = HeightConfig(
        {(i, j): 0 for i in range(-2, 3) for j in range(-2, 3)}, reference=(0, 0)
    )
    assert height_offset_estimate(flat, [0, 1, 2]) == [0, 0, 0]
    plane = HeightConfig(
        {(i, j): i for i in range(-2, 3) for j in range(-2, 3)},
        reference=(0, 0),
    )
    assert height_offset_estimate(plane, [1, 2]) == [0, 0]
    offset_vals = {
        (i, j): i + 0.4 for i in range(-2, 3) for j in range(-2, 3)
    }
    shifted = HeightConfig(offset_vals, reference=(0, 0))
    assert height_offset_estimate(shifted, [1, 2]) == pytest.approx([0.4, 0.4])


def test_height_offset_box_exceeds():
    from gradsurf.errors import BoxExceedsSupport

    flat = HeightConfig({(0, 0): 0}, reference=(0, 0))
    with pytest.raises(BoxExceedsSupport):
        height_offset_estimate(flat, [1])


def test_fkg_same_event(sos_trunc1):
    interior = sorted(box_region(2, 1, origin=(1, 1)))
    boundary = {v: 0 for v in outer_boundary(interior)}
    event = lambda s: s[(1, 1)] >= 1
    report = fkg_check(sos_trunc1, interior, boundary, event, event)
    assert report.verdict == "PASS"
    assert report.correlation >= 0  # variance of an indicator


def test_fkg_two_site_events(sos_trunc1):
    interior = sorted(box_region(2, 1, origin=(1, 1)))
    boundary = {v: 0 for v in outer_boundary(interior)}
    a = lambda s: s[(1, 1)] >= 1
    b = lambda s: s[(2, 1)] >= 1
    report = fkg_check(sos_trunc1, interior, boundary, a, b)
    assert report.verdict == "PASS"
    assert report.correlation > 0


def test_fkg_rejects_nonincreasing(sos_trunc1):
    interior = sorted(box_region(2, 1, origin=(1, 1)))
    boundary = {v: 0 for v in outer_boundary(interior)}
    bad = lambda s: s[(1, 1)] <= -1
    good = lambda s: s[(1, 1)] >= 0
    with pytest.raises(NotIncreasing):
        fkg_check(sos_trunc1, interior, boundary, bad, good)


def test_fkg_domino_mtp2(domino):
    from gradsurf.tilings import boundary_heights

    region = frozenset((i, j) for i in range(3) for j in range(2))
    boundary = boundary_heights(region)  # admissible by construction
    interior = [(1, 1), (2, 1)]
    a = lambda s: s[(1, 1)] >= 0
    b = lambda s: s[(2, 1)] >= 0
    report = fkg_check(domino, interior, boundary, a, b)
    assert report.mtp2_ok
    assert report.verdict == "PASS"


def test_log_concavity_single_site(sos):
    boundary = {(0, 0): 0, (2, 0): 0}
    report = log_concavity_check(sos, [(1, 0)], boundary, (1, 0))
    assert report.verdict == "PASS"
    # oracle: masses proportional to e^{-2|a|}
    probs = [math.exp(v) for v in report.log_masses]
    total = sum(probs)
    q = math.exp(-2)
    assert probs[report.support.index(0)] / total == pytest.approx(
        (1 - q) / (1 + q), abs=1e-9
    )


def test_log_concavity_domino_patch(domino):
    interior = sorted(box_region(2, 2, origin=(1, 1)))
    boundary_cfg = {
        (0, 0): 0, (1, 0): -1, (2, 0): 0, (3, 0): -1,
        (0, 1): 0, (3, 1): 0,
        (0, 2): 0, (3, 2): -1,
        (0, 3): 0, (1, 3): -1, (2, 3): 0, (3, 3): -1,
    }
    boundary_cfg = {
        v: h for v, h in boundary_cfg.items() if v in outer_boundary(interior)
    }
    report = log_concavity_check(domino, interior, boundary_cfg, (1, 1))
    assert report.verdict == "PASS"


def test_log_concavity_negative_control(nonconvex):
    boundary = {(0, 0): 0, (2, 0): 0}
    report = log_concavity_check(nonconvex, [(1, 0)], boundary, (1, 0))
    assert report.verdict == "FAIL"
