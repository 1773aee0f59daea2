"""Error contracts and secondary paths not covered by the main modules."""

import math

import numpy as np
import pytest

from gradsurf.errors import DivergentNormalizer, NoCoalescence, StateSpaceTooLarge
from gradsurf.feasibility import (
    enumerate_region_configs,
    enumerate_torus_configs,
    ground_state_energy,
)
from gradsurf.heights import HeightConfig
from gradsurf.lattice import box_region, outer_boundary
from gradsurf.observables import EXACT_SUM, TRANSFER_MATRIX, log_partition_exact
from gradsurf.potential import (
    PeriodicPotential,
    PiecewiseLinearPotential,
    sos_abs_potential,
    wedge_normalize,
)
from gradsurf.rng import RngStream
from gradsurf.sampler import (
    TabulatedDistribution,
    cftp_sample,
    heat_bath_sweep,
    random_round,
    random_scan_order,
    site_conditional,
)


def test_wedge_divergent_normalizer():
    flat = PiecewiseLinearPotential((0.0,), (0.0,), left_slope=0.0, right_slope=0.0)
    with pytest.raises(DivergentNormalizer):
        wedge_normalize(flat)


def test_continuous_nongaussian_conditional():
    # V = |eta| on the reals: conditional at the middle of neighbors 0 and 2
    # is proportional to exp(-|a| - |2 - a|); flat on [0, 2] with
    # exponential tails, so the median sits at 1 by symmetry
    pot = PeriodicPotential.isotropic("real", sos_abs_potential())
    dist = site_conditional(pot, {(0, 0): 0.0, (2, 0): 2.0}, (1, 0))
    assert isinstance(dist, TabulatedDistribution)
    assert dist.quantile(0.5) == pytest.approx(1.0, abs=1e-3)
    # oracle mass of [0, 2]: 2 / (2 + 2 * integral of e^{-2t}) = 2 / 3
    lo = dist.quantile(1 / 6)
    hi = dist.quantile(5 / 6)
    assert lo == pytest.approx(0.0, abs=2e-2)
    assert hi == pytest.approx(2.0, abs=2e-2)
    qs = [dist.quantile(u) for u in np.linspace(0.01, 0.99, 21)]
    assert all(b >= a for a, b in zip(qs, qs[1:]))


def test_continuous_sweep_runs():
    pot = PeriodicPotential.isotropic("real", sos_abs_potential())
    interior = sorted(box_region(2, 2, origin=(1, 1)))
    boundary = {v: 0.0 for v in outer_boundary(interior)}
    config = HeightConfig({v: 0.0 for v in interior}, reference=interior[0])
    out = heat_bath_sweep(pot, config, boundary=boundary, rng=RngStream(3, 0).at(0))
    assert all(isinstance(h, float) for h in out.values.values())


def test_random_round_gradient_moves_at_most_one():
    rng = RngStream(17, 0).at(0)
    values = {(i, j): float(rng.normal()) * 2 for i in range(4) for j in range(4)}
    config = HeightConfig(values, reference=(0, 0))
    for k in range(20):
        out = random_round(config, RngStream(18, k).at(0))
        for (i, j) in values:
            for (di, dj) in ((1, 0), (0, 1)):
                w = (i + di, j + dj)
                if w in values:
                    before = values[w] - values[(i, j)]
                    after = out.values[w] - out.values[(i, j)]
                    assert abs(after - before) < 1.0 + 1e-12


def test_cftp_no_coalescence_budget(sos_trunc1):
    interior = sorted(box_region(3, 3, origin=(1, 1)))
    boundary = {v: 0 for v in outer_boundary(interior)}
    with pytest.raises(NoCoalescence):
        cftp_sample(sos_trunc1, interior, boundary, RngStream(1, 0), max_epochs=-1)


def test_cftp_no_coalescence_reports_span_and_sweeps(sos_trunc1):
    # one epoch of one coupled sweep does not coalesce on the 3x3 box
    interior = sorted(box_region(3, 3))
    boundary = {v: 0 for v in outer_boundary(interior)}
    with pytest.raises(NoCoalescence) as caught:
        cftp_sample(sos_trunc1, interior, boundary, RngStream(0), max_epochs=0)
    err = caught.value
    assert (err.budget, err.span, err.sweeps) == (0, 1, 1)
    assert str(err) == "no coalescence within epoch budget 0 (last span 1, 1 coupled sweeps)"


def test_cftp_empty_region_returns_boundary(sos_trunc1):
    boundary = {(2, 1): 1, (0, 3): 0, (1, 1): 2}
    out = cftp_sample(sos_trunc1, [], boundary, RngStream(0))
    assert out.values == boundary and out.reference == (0, 3)


def test_random_scan_order_is_permutation():
    sites = sorted(box_region(3, 3))
    order = random_scan_order(sites, RngStream(9, 0).at(0))
    assert sorted(order) == sites
    other = random_scan_order(sites, RngStream(9, 1).at(0))
    assert sorted(other) == sites
    # deterministic per stream
    again = random_scan_order(sites, RngStream(9, 0).at(0))
    assert again == order


def test_cli_region_sample(tmp_path):
    import json

    from gradsurf.cli import main

    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "potential": {
                    "domain": "int",
                    "period": [[1, 0], [0, 1]],
                    "classes": {
                        "kind": "table",
                        "values": {"-1": 1.0, "0": 0.0, "1": 1.0},
                    },
                },
                "mode": "region",
                "region": [[1, 1], [2, 1], [1, 2], [2, 2]],
                "boundary_level": 0,
                "sweeps": 8,
                "samples": 2,
            }
        )
    )
    rc = main(["sample", "--config", str(cfg), "--seed", "4", "--out", str(tmp_path / "o")])
    assert rc == 0
    rows = (tmp_path / "o" / "samples.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 4


_SITE = [(0, 0)]
_RING = {v: 0 for v in outer_boundary(_SITE)}
EXACT_METHODS = {
    "cftp_sample": lambda pot: cftp_sample(pot, _SITE, _RING, RngStream(0)),
    "enumerate_region_configs": lambda pot: list(enumerate_region_configs(pot, _SITE, _RING)),
    "enumerate_torus_configs": lambda pot: list(enumerate_torus_configs(pot, 2, (0, 0))),
    "ground_state_energy": lambda pot: ground_state_energy(pot, 2, (0, 0)),
    "log_partition_exact_sum": lambda pot: log_partition_exact(
        pot, torus=2, slope=(0, 0), method=EXACT_SUM
    ),
    "log_partition_exact_tm": lambda pot: log_partition_exact(
        pot, torus=2, slope=(0, 0), method=TRANSFER_MATRIX
    ),
}


@pytest.mark.parametrize("method", sorted(EXACT_METHODS))
@pytest.mark.parametrize("fixture_name", ["sos", "gaussian"])
def test_exact_methods_reject_unbounded_potentials(request, fixture_name, method):
    # every exact method shares one precondition and one typed error
    pot = request.getfixturevalue(fixture_name)
    message = "^exact methods need a discrete Lipschitz potential$"
    with pytest.raises(StateSpaceTooLarge, match=message):
        EXACT_METHODS[method](pot)
