import math
import random

import pytest

from gradsurf.errors import EmptySupport, MissingHeight
from gradsurf.potential import (
    INF,
    PeriodicPotential,
    PiecewiseLinearPotential,
    QuadraticPotential,
    TablePotential,
    convex_interpolation,
    domino_potential,
    edge_energy,
    hamiltonian_interior,
    lipschitz_truncate,
    parity_label,
    sos_abs_potential,
    validate_sap,
    wedge_normalize,
)


def test_domino_table_entries(domino):
    # edge with labels 0 -> 1 runs upward from an even-even vertex
    edge = ((0, 0), 1)
    assert parity_label((0, 0)) == 0 and parity_label((0, 1)) == 1
    assert edge_energy(domino, edge, -1) == 0
    assert edge_energy(domino, edge, 0) == 0
    assert edge_energy(domino, edge, 1) == INF
    assert edge_energy(domino, edge, 2) == INF


def test_domino_translation_invariance(domino):
    rng = random.Random(7)
    for _ in range(100):
        base = (rng.randint(-20, 20), rng.randint(-20, 20))
        axis = rng.randint(0, 1)
        eta = rng.randint(-2, 2)
        s = (2 * rng.randint(-5, 5), 2 * rng.randint(-5, 5))
        shifted = ((base[0] + s[0], base[1] + s[1]), axis)
        assert edge_energy(domino, (base, axis), eta) == edge_energy(domino, shifted, eta)


def test_sos_translation_invariance(sos):
    rng = random.Random(8)
    for _ in range(100):
        base = (rng.randint(-20, 20), rng.randint(-20, 20))
        axis = rng.randint(0, 1)
        eta = rng.randint(-4, 4)
        s = (rng.randint(-5, 5), rng.randint(-5, 5))
        shifted = ((base[0] + s[0], base[1] + s[1]), axis)
        assert edge_energy(sos, (base, axis), eta) == edge_energy(sos, shifted, eta)


def test_sos_zero_increment_is_minimum(sos):
    assert edge_energy(sos, ((3, -2), 0), 0) == 0


def test_convexity_identity_on_potentials(sos, gaussian, domino):
    # V(a+eps) + V(b-eps) >= V(a) + V(b) whenever a - b + eps > 0
    rng = random.Random(9)
    pots = [
        sos.class_potentials[(0, (0, 0))],
        gaussian.class_potentials[(0, (0, 0))],
        domino.class_potentials[(1, (0, 0))],
    ]
    for pot in pots:
        for _ in range(300):
            a = rng.randint(-3, 3)
            eps = rng.randint(0, 3)
            b = rng.randint(-3, a + eps - 1) if a + eps - 1 >= -3 else None
            if b is None:
                continue
            lhs = pot(a + eps) + pot(b - eps)
            rhs = pot(a) + pot(b)
            if rhs == INF:
                continue
            assert lhs >= rhs


def test_hamiltonian_constant_config(sos, domino):
    region = {(i, j) for i in range(3) for j in range(3)}
    config = {v: 5 for v in region}
    assert hamiltonian_interior(sos, region, config) == 0
    assert hamiltonian_interior(domino, region, config) == 0


def test_hamiltonian_1d_path(sos):
    region = [(0, 0), (1, 0), (2, 0)]
    config = {(0, 0): 0, (1, 0): 1, (2, 0): 3}
    assert hamiltonian_interior(sos, region, config) == 3


def test_hamiltonian_missing_height(sos):
    region = [(0, 0), (1, 0)]
    with pytest.raises(MissingHeight):
        hamiltonian_interior(sos, region, {(0, 0): 0})


def test_hamiltonian_additive_over_disjoint_pieces(sos):
    rng = random.Random(10)
    left = {(i, j) for i in range(2) for j in range(3)}
    right = {(i, j) for i in range(3, 5) for j in range(3)}  # gap: no shared edges
    both = left | right
    config = {v: rng.randint(-2, 2) for v in both}
    assert hamiltonian_interior(sos, both, config) == hamiltonian_interior(
        sos, left, config
    ) + hamiltonian_interior(sos, right, config)


def test_hamiltonian_height_shift_invariant(sos):
    # gradient potentials are invariant under constant height shifts
    region = {(i, j) for i in range(3) for j in range(2)}
    rng = random.Random(11)
    config = {v: rng.randint(-2, 2) for v in region}
    shifted = {v: h + 7 for v, h in config.items()}
    assert hamiltonian_interior(sos, region, config) == hamiltonian_interior(sos, region, shifted)


def test_validate_domino(domino):
    report = validate_sap(domino)
    assert report.valid
    assert report.lipschitz
    assert not report.isotropic


def test_validate_gaussian(gaussian):
    report = validate_sap(gaussian)
    assert report.valid
    assert not report.lipschitz
    assert report.isotropic


def test_validate_nonconvex_table(nonconvex):
    report = validate_sap(nonconvex)
    assert not report.valid
    assert all(not r.convex for r in report.per_class.values())


def test_validate_flags_nondivergent():
    flat = PeriodicPotential.isotropic(
        "real", PiecewiseLinearPotential((0.0,), (0.0,), left_slope=0.0, right_slope=0.0)
    )
    report = validate_sap(flat)
    assert not report.valid  # constant potential does not diverge


def test_truncate_sos(sos):
    t = lipschitz_truncate(sos, 2)
    p = t.class_potentials[(0, (0, 0))]
    assert p.support() == (-2, 2)
    assert [p(k) for k in range(-2, 3)] == [2, 1, 0, 1, 2]
    assert validate_sap(t).lipschitz


def test_truncate_domino_unchanged(domino):
    t = lipschitz_truncate(domino, 0)
    assert t.class_potentials == domino.class_potentials


def test_truncate_quadratic_tight():
    pot = PeriodicPotential.isotropic("int", QuadraticPotential(1.0))
    t = lipschitz_truncate(pot, 0.5)
    assert t.class_potentials[(0, (0, 0))].support() == (0, 0)


def test_truncate_empty():
    pot = PeriodicPotential.isotropic("int", QuadraticPotential(1.0))
    with pytest.raises(EmptySupport):
        lipschitz_truncate(pot, -1.0)


def test_convex_interpolation_tent():
    tent = convex_interpolation(TablePotential.from_dict({0: 0.0, 1: 1.0, -1: 1.0}))
    assert tent(0.5) == 0.5
    assert tent(-0.25) == 0.25
    assert tent(1) == 1
    assert tent(1.5) == INF


def test_convex_interpolation_abs():
    v = convex_interpolation(sos_abs_potential())
    for eta in (-2.5, -1, 0.25, 3.75):
        assert v(eta) == abs(eta)


def test_convex_interpolation_quadratic_chords():
    v = convex_interpolation(QuadraticPotential(1.0))
    # linear with slope 2j+1 on [j, j+1]
    assert v(1.5) == (1 + 4) / 2
    assert v(2.25) == 4 + 0.25 * (9 - 4)


def test_wedge_symmetric_center_quadratic():
    w = wedge_normalize(QuadraticPotential(1.0))
    assert w(0.0) == pytest.approx(-math.log(2), abs=1e-9)


def test_wedge_symmetric_center_abs():
    w = wedge_normalize(sos_abs_potential())
    assert w(0.0) == pytest.approx(-math.log(2), abs=1e-9)


def test_wedge_value_oracle_quadratic():
    # independent oracle: F(1) = (1 + erf(1))/2 for V = eta^2
    w = wedge_normalize(QuadraticPotential(1.0))
    f1 = (1 + math.erf(1)) / 2
    expected = 1.0 - math.log(2 - 4 * abs(f1 - 0.5))
    assert w(1.0) == pytest.approx(expected, abs=1e-6)
    assert w(1.0) >= 1.0 - math.log(2)


def test_wedge_invariants_quadratic():
    w = wedge_normalize(QuadraticPotential(1.0))
    base = w.base
    for x, val in zip(w.grid, w.values):
        assert val >= base(x) - math.log(2) - 1e-12
    # discrete convexity on the grid
    for i in range(1, len(w.grid) - 1):
        assert w.values[i + 1] + w.values[i - 1] - 2 * w.values[i] >= -1e-8
    # symmetry
    for x, val in zip(w.grid, w.values):
        assert w(-x) == pytest.approx(val, abs=1e-9)


def test_potential_roundtrip(tmp_path, domino, sos, gaussian):
    for pot in (domino, sos, gaussian):
        path = tmp_path / "pot.json"
        pot.save(path)
        again = PeriodicPotential.load(path)
        assert again == pot


def test_potential_roundtrip_with_offset(tmp_path):
    raw = TablePotential.from_dict({0: 3.0, 1: 4.0, -1: 4.0})
    pot = PeriodicPotential.isotropic("int", raw)
    assert pot.offsets[(0, (0, 0))] == 3.0
    assert pot.edge_energy(((0, 0), 0), 0) == 0.0  # normalized
    path = tmp_path / "pot.json"
    pot.save(path)
    assert PeriodicPotential.load(path) == pot


def test_domino_preset_roundtrip():
    assert PeriodicPotential.from_dict({"preset": "domino"}) == domino_potential()


def test_classes_preset_string_is_isotropic_spec():
    base = {"domain": "int", "period": [[1, 0], [0, 1]]}
    as_string = PeriodicPotential.from_dict({**base, "classes": "sos-abs"})
    as_dict = PeriodicPotential.from_dict({**base, "classes": {"preset": "sos-abs"}})
    assert as_string.to_dict() == as_dict.to_dict()
    assert as_string.config_hash() == as_dict.config_hash()
