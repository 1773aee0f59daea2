"""Non-diagonal invariance lattices and periodic-potential consistency."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gradsurf.cli import main
from gradsurf.errors import InsufficientBudget
from gradsurf.feasibility import allowed_slope_polytope, torus_slope_feasible
from gradsurf.heights import HeightConfig
from gradsurf.lattice import Sublattice
from gradsurf.observables import (
    EXACT_SUM,
    TRANSFER_MATRIX,
    empirical_gradient_measure,
    sigma_estimate,
)
from gradsurf.potential import PeriodicPotential, TablePotential, domino_potential
from gradsurf.rng import RngStream

F = Fraction


def test_sublattice_reduce_sheared():
    lat = Sublattice.from_matrix([[2, 0], [1, 2]])  # columns (2,1), (0,2)
    assert lat.index == 4
    rng = random.Random(3)
    reps = set()
    for _ in range(300):
        v = (rng.randint(-15, 15), rng.randint(-15, 15))
        r = lat.reduce(v)
        assert 0 <= r[0] < lat.a and 0 <= r[1] < lat.b
        # v - r must lie in the lattice
        assert lat.contains((v[0] - r[0], v[1] - r[1]))
        reps.add(lat.reduce((v[0] + 2, v[1] + 1)) == r or True)
    # translation by a generator never changes the class
    for _ in range(50):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert lat.reduce(v) == lat.reduce((v[0] + 2, v[1] + 1))
        assert lat.reduce(v) == lat.reduce((v[0], v[1] + 2))


@pytest.mark.parametrize("period", [[[1, 0], [0, 1]], [[2, 0], [1, 2]], [[3, 1], [-2, 1]], [[2, 0], [0, 3]]])
def test_sublattice_cell_indexes_the_fundamental_domain(period):
    # cell(i, j) is the position of reduce((i, j)) in fundamental_domain(),
    # on Python ints and elementwise on int64 arrays
    lat = Sublattice.from_matrix(period)
    domain = lat.fundamental_domain()
    points = [(i, j) for i in range(-7, 8) for j in range(-7, 8)]
    expected = [domain.index(lat.reduce(v)) for v in points]
    assert [lat.cell(i, j) for i, j in points] == expected
    i, j = np.array(points, dtype=np.int64).T
    assert lat.cell(i, j).tolist() == expected


def _column_striped_potential():
    """Period 2 in e1: even columns force increments {0,1}, odd {-1,0}."""
    lat = Sublattice(2, 1, 0)
    classes = {
        (0, (0, 0)): TablePotential.from_dict({0: 0.0, 1: 0.0}),
        (0, (1, 0)): TablePotential.from_dict({-1: 0.0, 0: 0.0}),
        (1, (0, 0)): TablePotential.from_dict({0: 0.0}),
        (1, (1, 0)): TablePotential.from_dict({0: 0.0}),
    }
    return PeriodicPotential.build("int", lat, classes)


def test_polytope_striped_columns():
    pot = _column_striped_potential()
    poly = allowed_slope_polytope(pot)
    expected = {
        (1, 0, F(1, 2)),
        (-1, 0, F(1, 2)),
        (0, 1, F(0)),
        (0, -1, F(0)),
    }
    assert set(poly.canonical()) == expected
    assert torus_slope_feasible(pot, 4, (F(1, 4), F(0)))
    assert not torus_slope_feasible(pot, 4, (F(0), F(1, 4)))


def _contradictory_potential():
    """Even rows force +1 steps, odd rows force 0, columns rigid."""
    lat = Sublattice(1, 2, 0)
    classes = {
        (0, (0, 0)): TablePotential.from_dict({1: 0.0}),
        (0, (0, 1)): TablePotential.from_dict({0: 0.0}),
        (1, (0, 0)): TablePotential.from_dict({0: 0.0}),
        (1, (0, 1)): TablePotential.from_dict({0: 0.0}),
    }
    return PeriodicPotential.build("int", lat, classes)


def test_polytope_contradictory_potential(tmp_path):
    # row loops force u1 = 1 and u1 = 0 simultaneously: no slope is allowed
    # even though no single null cycle is negative
    pot = _contradictory_potential()
    poly = allowed_slope_polytope(pot)
    assert not poly.feasible
    for u in ((F(0), F(0)), (F(1), F(0)), (F(1, 2), F(0)), (F(0), F(1))):
        assert not poly.contains(u)
    assert not torus_slope_feasible(pot, 2, (F(0), F(0)))
    assert not torus_slope_feasible(pot, 2, (F(1, 2), F(0)))
    assert not torus_slope_feasible(pot, 2, (F(1), F(0)))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"potential": pot.to_dict(), "slopes": [{"slope": [0, 0], "n": 2}]}))
    assert main(["feasibility", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "feasibility.json").read_text())
    assert report["feasible_at_zero"] is False
    assert report["checks"] == [{"slope": ["0", "0"], "n": 2, "feasible": False, "in_polytope": False}]


def test_domino_sigma_sequence_internal_consistency():
    dom = domino_potential()
    values = []
    for n in (2, 4):
        es = sigma_estimate(dom, (F(0), F(0)), n, method=EXACT_SUM)
        tm = sigma_estimate(dom, (F(0), F(0)), n, method=TRANSFER_MATRIX)
        assert es.value == pytest.approx(tm.value, abs=1e-10)
        count = math.exp(-es.value * n * n)
        assert count == pytest.approx(round(count), abs=1e-6)  # integer class count
        values.append(es.value)
    assert values[0] < values[1] < 0  # entropy per site grows with n here


def test_ti_insufficient_budget(sos_trunc1):
    with pytest.raises(InsufficientBudget) as caught:
        sigma_estimate(
            sos_trunc1,
            (F(0), F(0)),
            2,
            method="ThermodynamicIntegration",
            budget=64,
            rng=RngStream(5, 0),
            tolerance=1e-12,
        )
    # the error carries what the estimate reached, and its message is the
    # one error.json has always held
    reached = sigma_estimate(sos_trunc1, (F(0), F(0)), 2, method="ThermodynamicIntegration", budget=64, rng=RngStream(5, 0))
    error = caught.value
    assert (error.stderr, error.tolerance, error.budget) == (reached.stderr, 1e-12, 64)
    assert error.stderr > error.tolerance
    assert str(error) == f"stderr {reached.stderr} exceeds tolerance 1e-12"


def test_empirical_gradient_frequencies_sum_to_one():
    lat = Sublattice(1, 1, 0)
    rng = random.Random(11)
    cfgs = []
    for _ in range(3):
        values = {(i, j): rng.randint(-2, 2) for i in range(4) for j in range(4)}
        values[(0, 0)] = 0
        cfgs.append(HeightConfig(values, reference=(0, 0)))
    egm = empirical_gradient_measure(cfgs, lat)
    assert sum(egm.counts.values()) == egm.total
    assert sum(egm.frequencies().values()) == pytest.approx(1.0, abs=1e-12)
