import collections
import filecmp
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gradsurf.cli import _samples_csv, main
from gradsurf.heights import HeightConfig


def _write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_tile_count_2x2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {"region": "2x2", "count": True})
    rc = main(["tile", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "2"
    counts = json.loads((tmp_path / "out" / "counts.json").read_text())
    assert counts["count_kasteleyn"] == 2
    assert counts["count_bruteforce"] == 2


def test_tile_ring_counts_then_refuses_to_sample(tmp_path, capsys):
    ring = [[x, y] for x in range(3) for y in range(3) if (x, y) != (1, 1)]
    cfg = _write_config(tmp_path, "c.json", {"region": ring, "count": True, "samples": 1})
    rc = main(["tile", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().out.strip().splitlines()[-1] == "2"
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "NotSimplyConnected"


def test_tile_sampling_writes_rows(tmp_path):
    cfg = _write_config(tmp_path, "c.json", {"region": "2x2", "count": False, "samples": 3})
    rc = main(["tile", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = (tmp_path / "out" / "tilings.csv").read_text().strip().splitlines()
    assert rows[0].startswith("sample,")
    assert len(rows) == 1 + 3 * 2  # two dominoes per sample


def test_malformed_potential_file(tmp_path):
    bad = tmp_path / "pot.json"
    bad.write_text("{ not json")
    cfg = _write_config(tmp_path, "c.json", {"potential": str(bad), "region": "2x2"})
    rc = main(["cftp", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "ConfigParse"


def test_invalid_potential_rejected(tmp_path):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "potential": {
                "domain": "int",
                "period": [[1, 0], [0, 1]],
                "classes": {"kind": "table", "values": {"0": 1.0, "1": 0.0, "-1": 0.0}},
            },
            "region": "2x2",
        },
    )
    rc = main(["cftp", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "ConfigParse"


def test_sigma_command_with_margin(tmp_path):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "potential": {"preset": "domino"},
            "n": 4,
            "method": "ExactSum",
            "slopes": [["-1/4", "0"], ["1/4", "0"], ["0", "0"]],
        },
    )
    rc = main(["sigma", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    data = json.loads((tmp_path / "out" / "sigma.json").read_text())
    assert len(data["estimates"]) == 3
    assert data["margin"]["verdict"] == "PASS"


def test_feasibility_polytope_csv(tmp_path):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "potential": {"preset": "domino"},
            "slopes": [
                {"slope": ["0", "0"], "n": 4},
                {"slope": ["3/4", "0"], "n": 4},
            ],
        },
    )
    rc = main(["feasibility", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = (tmp_path / "out" / "polytope.csv").read_text().strip().splitlines()
    assert rows[0] == "n1,n2,offset,cycle"
    assert len(rows) == 5  # four halfspaces
    checks = json.loads((tmp_path / "out" / "feasibility.json").read_text())["checks"]
    assert checks[0]["feasible"] and checks[0]["in_polytope"]
    assert not checks[1]["feasible"] and not checks[1]["in_polytope"]


def test_feasibility_distances_keep_isolated_vertices(tmp_path):
    # two region vertices joined by no edge inside the region: both stay,
    # at distance 0 from themselves and +inf from each other
    cfg = _write_config(tmp_path, "c.json", {"potential": {"preset": "domino"}, "distance_region": [[0, 0], [3, 3]]})
    rc = main(["feasibility", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = (tmp_path / "out" / "distances.csv").read_text().strip().splitlines()
    assert rows[1:] == ["0,0,0,0,0.0", "0,0,3,3,inf", "3,3,0,0,inf", "3,3,3,3,0.0"]


def test_torus_sample_at_a_boundary_slope_raises_not_ergodic(tmp_path):
    # at slope (1, 0) every x-increment of abs1 is tight, so the chain
    # would return its start surface unchanged: the command refuses it; an
    # infeasible slope still fails as Infeasible, and domino, whose energies
    # are constant on their supports, still samples at (1/4, 1/4)
    for potential, slope, error in (
        (_ABS1, [1, 0], "NotErgodic"),
        (_ABS1, [2, 0], "Infeasible"),
        ({"preset": "domino"}, ["1/4", "1/4"], None),
    ):
        cfg = {"potential": potential, "mode": "torus", "n": 4, "slope": slope, "sweeps": 4, "samples": 2}
        out = tmp_path / f"{error}"
        rc = main(["sample", "--config", _write_config(tmp_path, "c.json", cfg), "--out", str(out)])
        if error is None:
            assert rc == 0 and len((out / "samples.csv").read_text().splitlines()) == 1 + 2 * 16
        else:
            assert rc == 2 and json.loads((out / "error.json").read_text())["error"] == error


def test_sample_torus_manifest(tmp_path):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {"potential": {"preset": "domino"}, "mode": "torus", "n": 4, "sweeps": 4, "samples": 2},
    )
    rc = main(["sample", "--config", cfg, "--seed", "9", "--out", str(tmp_path / "out")])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["potential_hash"]
    rows = (tmp_path / "out" / "samples.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 16


def test_swap_command(tmp_path):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {"potential": {"preset": "domino"}, "n": 4, "sweeps": 6, "trials": 2},
    )
    rc = main(["swap", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "out")])
    assert rc == 0
    data = json.loads((tmp_path / "out" / "swap.json").read_text())
    assert len(data["scans"]) == 2
    rows = (tmp_path / "out" / "clusters.csv").read_text().strip().splitlines()
    assert rows[0] == "trial,x,y,zeta,cluster,boundary_touch"


def _dir_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_cftp_determinism_bytes(tmp_path):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {"potential": {"preset": "domino"}, "region": "3x3", "samples": 4},
    )
    rc1 = main(["cftp", "--config", cfg, "--seed", "11", "--out", str(tmp_path / "a")])
    rc2 = main(["cftp", "--config", cfg, "--seed", "11", "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")
    rc3 = main(["cftp", "--config", cfg, "--seed", "12", "--out", str(tmp_path / "c")])
    assert rc3 == 0
    assert _dir_bytes(tmp_path / "a") != _dir_bytes(tmp_path / "c")


@pytest.mark.parametrize("preset", ["sos-abs", "gaussian:1.0"])
def test_cftp_unbounded_potential_writes_typed_error(tmp_path, preset):
    domain = "real" if preset.startswith("gaussian") else "int"
    pot = {"domain": domain, "period": [[1, 0], [0, 1]], "classes": preset}
    cfg = _write_config(tmp_path, "c.json", {"potential": pot, "region": "2x2"})
    rc = main(["cftp", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "StateSpaceTooLarge"


@pytest.mark.parametrize("domain", ["int", "real"])
@pytest.mark.parametrize("preset", ["sos-abs", "gaussian:1.0"])
def test_sigma_ti_unbounded_potential_writes_typed_error(tmp_path, preset, domain):
    # thermodynamic integration starts at beta = 0, where an unbounded
    # support has no finite normalizer
    pot = {"domain": domain, "period": [[1, 0], [0, 1]], "classes": preset}
    cfg = {"potential": pot, "n": 4, "method": "ThermodynamicIntegration", "budget": 16, "slopes": [[0, 0]]}
    rc = main(["sigma", "--config", _write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "DivergentNormalizer"


def test_sigma_ti_real_heights_writes_typed_error(tmp_path):
    # a bounded support on real heights has no integer-height beta = 0
    # reference: StateSpaceTooLarge, as for ExactSum and TransferMatrix
    classes = {"kind": "pwl", "breakpoints": [-1, 0, 1], "values": [1, 0, 1]}
    pot = {"domain": "real", "period": [[1, 0], [0, 1]], "classes": classes}
    cfg = {"potential": pot, "n": 3, "method": "ThermodynamicIntegration", "budget": 16, "slopes": [[0, 0]]}
    rc = main(["sigma", "--config", _write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "StateSpaceTooLarge"
    assert "integer heights" in err["message"]


@pytest.mark.parametrize("mode", ["torus", "region"])
@pytest.mark.parametrize("preset", ["sos-abs", "gaussian:1.0"])
def test_sample_unbounded_potential(tmp_path, preset, mode):
    # torus chains start from the plane u.x, region chains from the flat
    # surface at boundary_level
    domain = "real" if preset.startswith("gaussian") else "int"
    pot = {"domain": domain, "period": [[1, 0], [0, 1]], "classes": preset}
    cfg = {"potential": pot, "mode": mode, "n": 4, "region": "3x3", "sweeps": 4, "samples": 2}
    rc = main(["sample", "--config", _write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = (tmp_path / "out" / "samples.csv").read_text().strip().splitlines()[1:]
    sites = {(int(x), int(y)) for _, x, y, _ in (row.split(",") for row in rows)}
    side = 4 if mode == "torus" else 3
    assert sites == {(i, j) for i in range(side) for j in range(side)}
    assert len(rows) == 2 * side * side


@pytest.mark.parametrize("command, extra", [("cftp", {}), ("sample", {"mode": "region"})])
def test_empty_region_writes_config_error(tmp_path, command, extra):
    cfg = _write_config(tmp_path, "c.json", {"potential": {"preset": "domino"}, "region": [], **extra})
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "ConfigParse"


def _torus_config(command, n, **extra):
    slopes = [{"slope": [0, 0], "n": n}] if command == "feasibility" else [[0, 0]]
    return command, {"potential": {"preset": "domino"}, "mode": "torus", "n": n, "slopes": slopes, **extra}


@pytest.mark.parametrize(
    "command, cfg",
    [_torus_config(c, n) for c in ("sample", "sigma", "swap", "feasibility") for n in (0, -2, 3)]
    + [_torus_config("sigma", 2, method="Foo")],
)
def test_bad_torus_side_or_sigma_method_writes_config_error(tmp_path, command, cfg):
    # domino tilings have period 2, so a torus side must be positive and even
    rc = main([command, "--config", _write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "ConfigParse"
    assert err["message"] == ("unknown sigma method 'Foo'" if "method" in cfg else f"torus side {cfg['n']} is not a positive multiple of the period")


_ABS1 = {"domain": "int", "period": [[1, 0], [0, 1]], "classes": {"kind": "table", "values": {"-1": 1.0, "0": 0.0, "1": 1.0}}}
_ABS2 = {"domain": "int", "period": [[1, 0], [0, 1]], "classes": {"kind": "table", "values": {"-2": 2.2, "-1": 1.1, "0": 0.0, "1": 1.1, "2": 2.2}}}


# 2Z^2-periodic convex tables: each of the eight edge classes has its own
# energies, two with a support of four increments
_PERIODIC2 = {
    "domain": "int",
    "period": [[2, 0], [0, 2]],
    "classes": [
        {"axis": axis, "base": base, "potential": {"kind": "table", "values": values}}
        for axis, base, values in (
            (0, [0, 0], {"-1": 1.0, "0": 0.0, "1": 0.5}),
            (0, [0, 1], {"-1": 0.5, "0": 0.0, "1": 1.0}),
            (0, [1, 0], {"-1": 1.5, "0": 0.5, "1": 0.0, "2": 0.5}),
            (0, [1, 1], {"-1": 1.0, "0": 0.5, "1": 0.0}),
            (1, [0, 0], {"-1": 0.0, "0": 0.5, "1": 1.5}),
            (1, [0, 1], {"-1": 1.0, "0": 0.0, "1": 1.0}),
            (1, [1, 0], {"-1": 0.5, "0": 0.0, "1": 0.5}),
            (1, [1, 1], {"-1": 2.0, "0": 1.0, "1": 0.0, "2": 1.0}),
        )
    ],
}


def _preset(name, domain):
    return {"domain": domain, "period": [[1, 0], [0, 1]], "classes": name}

# 0.25|eta| on increments in [-16, 16]: its conditional table would exceed
# sampler._TABLE_LIMIT keys, so CFTP runs site_conditional's code
_ABS_QUARTER_16 = {"domain": "int", "period": [[1, 0], [0, 1]], "classes": {"kind": "table", "values": {str(k): 0.25 * abs(k) for k in range(-16, 17)}}}

# 0.1 eta^2 on increments in [-40, 40]: its swap deficit table would
# exceed cluster_swap._TABLE_LIMIT entries, so swaps classify per edge
_WIDE_40 = {"domain": "int", "period": [[1, 0], [0, 1]], "classes": {"kind": "table", "values": {str(k): 0.1 * k * k for k in range(-40, 41)}}}

# V(0) = 1, V(+-1) = 0: not convex, so it fails validation
_NONCONVEX = {"domain": "int", "period": [[1, 0], [0, 1]], "classes": {"kind": "table", "values": {"-1": 0.0, "0": 1.0, "1": 0.0}}}

# real heights, increments in [-0.2, 1.1] on axis 0 and [-0.3, inf) on
# axis 1: distances such as 3.3000000000000003 and inf, and an isolated
# vertex, in the distance table
_REAL_BOUNDS = {
    "domain": "real",
    "period": [[1, 0], [0, 1]],
    "classes": [
        {"axis": 0, "base": [0, 0], "potential": {"kind": "pwl", "breakpoints": [-0.2, 0.0, 1.1], "values": [0.5, 0.0, 1.0]}},
        {"axis": 1, "base": [0, 0], "potential": {"kind": "pwl", "breakpoints": [-0.3, 0.0], "values": [0.75, 0.0], "right_slope": 1.0}},
    ],
}

_NOTCHED_6X6 = sorted([i, j] for i in range(6) for j in range(6) if (i, j) not in {(4, 5), (5, 5)})


def _box_10x10(dx, dy):
    return [[i + dx, j + dy] for i in range(10) for j in range(10)]


def _per_row_csv(configs):
    """The sample table as rows of one f-string per site."""
    rows = ["sample,x,y,height"]
    for s, config in enumerate(configs):
        rows.extend(f"{s},{x},{y},{h}" for (x, y), h in config.sorted_items())
    return "\n".join(rows) + "\n"


def test_samples_csv_equals_per_row_formatting():
    # int, float and Fraction heights, alone and mixed, negative
    # coordinates, a lone site, samples whose key sets differ (and come
    # back) and the same sites inserted in another order format as the
    # per-row f-strings do
    rng = random.Random(3)
    box = [(x, y) for x in range(-2, 3) for y in range(-1, 2)]
    heights = [
        lambda: rng.randint(-5, 5),
        lambda: rng.uniform(-3, 3),
        lambda: rng.choice([0.1, -0.0, 1e-300, 2.5e17, float("inf")]),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
    ]
    configs = []
    for k in range(24):
        sites = rng.sample(box, rng.randint(1, len(box))) if k % 3 else box
        height = heights[k % 4] if k < 16 else lambda: rng.choice(heights)()
        configs.append(HeightConfig({v: height() for v in sites}, reference=sites[0]))
    configs.append(HeightConfig(dict(reversed(configs[0].values.items())), reference=configs[0].reference))
    assert _samples_csv(configs) == _per_row_csv(configs)
    assert _samples_csv([]) == _per_row_csv([]) == "sample,x,y,height\n"


def test_region_sample_starts_from_integer_heights(tmp_path):
    # the start is the maximal extension of the boundary: level + 1 on every
    # site of the 2x2 box, written as an integer like every swept height
    cfg = {"potential": _ABS1, "mode": "region", "region": "2x2", "boundary_level": 1, "sweeps": 0}
    rc = main(["sample", "--config", _write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = (tmp_path / "out" / "samples.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["2"] * 4


@pytest.mark.parametrize(
    "command, cfg, digests",
    [
        (
            "cftp",
            {"potential": _ABS1, "region": "2x2", "samples": 200},
            {"samples.csv": "65d593d7b8e6d71541fb2023c57b3900a585413baa8d8bb68baaae4aa40d4106"},
        ),
        (
            "cftp",
            {"potential": {"preset": "domino"}, "region": "6x6", "samples": 2},
            {"samples.csv": "407d8cdfff30c57a9c202c744076212e45d06b5556131d0253738b0a6b1b7e7e"},
        ),
        (
            "cftp",
            {"potential": _ABS_QUARTER_16, "region": "2x2", "samples": 50},
            {"samples.csv": "6a216b0c91e7c4ab6f28520f8641600c5eaf399d889d0fdc6315803ad244f04e"},
        ),
        (
            "sample",
            {"potential": _ABS1, "mode": "region", "region": "4x4", "sweeps": 8, "samples": 2},
            {"samples.csv": "9e31bf7e2084e140840e5af9a7b4345d411c71dc45dbe6b6777098510840f05c"},
        ),
        (
            "sample",
            {"potential": {"preset": "domino"}, "mode": "region", "region": "4x4", "sweeps": 8, "samples": 2},
            {"samples.csv": "7410f5c3873b16a5cb514a820f4ec5252a5da1df9d356a907fe079c5ff9d6c14"},
        ),
        (
            "sample",
            {"potential": _preset("sos-abs", "int"), "mode": "region", "region": "4x4", "sweeps": 8, "samples": 2},
            {"samples.csv": "68b51722b83214f8eb5f67b61b43bd357c1fa6f3aab425f2d97f85a418cc0c56"},
        ),
        (
            "sample",
            {"potential": _preset("gaussian:1.0", "real"), "mode": "region", "region": "4x4", "sweeps": 8, "samples": 2},
            {"samples.csv": "02063e5c6d595108c7ed81d1a4268bfce769b9691aa16c2a599699342d1a560b"},
        ),
        (
            "sample",
            {"potential": _ABS2, "n": 4, "slope": ["1/2", 0], "sweeps": 8, "samples": 2},
            {"samples.csv": "8a9952e3796ba28a25b8f251bc84dbbe96715c07920d5575363ad78b40f02fab"},
        ),
        (
            "sample",
            {"potential": _preset("gaussian:1.0", "real"), "n": 4, "sweeps": 4, "samples": 2},
            {"samples.csv": "65ef1b6afea7bcb04d6f9771a6f2300118bca081feedfd878071c3954c60b8e9"},
        ),
        (
            "sample",
            {"potential": _preset("sos-abs", "int"), "n": 4, "sweeps": 4, "samples": 2},
            {"samples.csv": "6d775d72a212118513e64b84e9333eee52cca2dfaf2449ab2b59d76ee623b271"},
        ),
        (
            "swap",
            {"potential": _ABS1, "n": 6, "sweeps": 8, "trials": 2},
            {
                "swap.json": "b6aee69cac83362af25b8a3faafeb185ac1f43716c0e9415d5669eccebb88176",
                "clusters.csv": "6d37531a15cc150de6f41f632e5663d197f5bcfa3ca38e1217848cd5c31ec82f",
            },
        ),
        (
            "swap",
            {"potential": _ABS2, "n": 5, "slope": ["2/5", "-1/5"], "sweeps": 8, "trials": 2},
            {
                "swap.json": "5480e050380a1c155cca2a249dacd65c48e9b8dae384a4074f69c2a00db89b89",
                "clusters.csv": "1afc74842cff56674171b53ed642ee5f60e0ab0a511323198956c8249f7493eb",
            },
        ),
        (
            "swap",
            {"potential": {"preset": "domino"}, "n": 2, "sweeps": 8, "trials": 3},
            {
                "swap.json": "d6d3122d836849f6eba3bbe9fb8edee335d0a683e4d4cac33cc6a214cebc0f13",
                "clusters.csv": "137a826ea9e2a688dcd86a450fd697b0b1ca3b77004e97057da65db25627104a",
            },
        ),
        (
            "swap",
            {"potential": _preset("gaussian:1.0", "real"), "n": 4, "sweeps": 4, "trials": 2},
            {
                "swap.json": "8b8b9fed86701408b3b5576f26c2564d56ccf18f6137d9905ec083690033755c",
                "clusters.csv": "c82ae5e1c59697b7aebae08e53ac5146ebc0d5b19c3890f200e91aba7a97f809",
            },
        ),
        (
            "swap",
            {"potential": _preset("sos-abs", "int"), "n": 4, "sweeps": 4, "trials": 2},
            {
                "swap.json": "431dc6af1d8bbe3c19cb97064b158785d4c8bda5d3d0246759249b3d5653a5f0",
                "clusters.csv": "54e1972157221facfbebbc9ad2bdbcbc734c322c15abbdf4926738a67754926a",
            },
        ),
        (
            "swap",
            {"potential": _WIDE_40, "n": 4, "sweeps": 4, "trials": 2},
            {
                "swap.json": "f9f3874580373c792298e137bf297bba5c8a3a73ba3f9038be22cd0a93522518",
                "clusters.csv": "6ea3185433e9c8f7fb87c9ee8ee4b473e91300ac3012eb9d8a54f062722d9ed6",
            },
        ),
        (
            "tile",
            {"region": _NOTCHED_6X6, "count": True, "samples": 2},
            {
                "tilings.csv": "b31fbf920634b3d9024b0d62aa5a7e757590a5e9922acb44aeda885c9c00ee58",
                "heights.csv": "98fd4511a4fe13a9b17914f5300fce3ae6a0b06a631bb9a23b4a8e2d7b7d7d06",
            },
        ),
        (
            "tile",
            {"region": "6x6", "samples": 4},
            {
                "tilings.csv": "d04a4728824c4219652b2d81b6fbc985234904c87b57b734e627da7c0bb402ae",
                "heights.csv": "b45263c8b7aba238ee133538f565583928f684594ff981a8167c8ec7cf2783c3",
            },
        ),
        (
            "sigma",
            {"potential": _ABS1, "n": 4, "method": "ThermodynamicIntegration", "budget": 16, "slopes": [[0, 0], ["1/4", 0]]},
            {"sigma.json": "ed2bcf913613a9105f5c3d80d3898b5d008c41131c392acd7f26b58d5634bb9c"},
        ),
        (
            "sigma",
            {"potential": _PERIODIC2, "n": 4, "method": "ThermodynamicIntegration", "budget": 64, "slopes": [[0, 0], ["1/4", "1/4"]]},
            {"sigma.json": "c2d9d6570d53fc4c952a17c2f003f0cb3b2419953a06b77e4a0e049ab7a9ec07"},
        ),
        (
            "sigma",
            {"potential": {"preset": "domino"}, "n": 4, "method": "ThermodynamicIntegration", "budget": 64, "slopes": [["1/4", 0], ["1/4", "1/4"]]},
            {"sigma.json": "cb2ec290ee6e329786b3e718c828884470962c7420d9bd19cb1c4dec16331d65"},
        ),
        (
            "feasibility",
            {"potential": _ABS1, "distance_region": _box_10x10(1, 2)},
            {
                "distances.csv": "acd20c9d21209e4eb82b7d272c435bffff8789ab74f106fda1b732f2375d1eb8",
                "polytope.csv": "d15df3a7b1851fb08ceb8cf52681348ce47b34c8e9055cad72cf66a8065a8677",
                "feasibility.json": "406695a1f7c8c58158a6da3c1bfefa3919f5b43d97a656763b2caef15acb700b",
            },
        ),
        (
            "feasibility",
            {"potential": {"preset": "domino"}, "distance_region": _box_10x10(3, 1)},
            {
                "distances.csv": "c5510bfb08b6c06373691bca4732f593937dc5f2080c5dc0c7c4759cab86a248",
                "polytope.csv": "33adb671d51dc1dcd221981b5fc0b64d9a723b172ca3dac4e49449910dbb8d50",
                "feasibility.json": "406695a1f7c8c58158a6da3c1bfefa3919f5b43d97a656763b2caef15acb700b",
            },
        ),
        (
            "feasibility",
            {
                "potential": _REAL_BOUNDS,
                "distance_region": [[i, j] for i in range(4) for j in range(3)] + [[7, 7]],
                "slopes": [{"slope": ["1/4", "0"], "n": 4}, {"slope": ["0", "1/2"], "n": 2}],
            },
            {
                "distances.csv": "98aa812cf1cef4d3d3b3e6669370c52b7ee93e881d4f0e87e123df1e59d67b58",
                "polytope.csv": "d7eb2617dda1b2e41e346f3cf475e819cd709d39d4253e8a02b0e1d57e77d7ac",
                "feasibility.json": "0851b4318e54d242a9a70c8965beed06da32be07e217eef0ba7250136ce4713f",
            },
        ),
    ],
    ids=[
        "cftp-abs1-2x2", "cftp-domino-6x6", "cftp-abs-quarter-16-2x2", "sample-abs1-4x4", "sample-domino-4x4", "sample-sos-abs-4x4", "sample-gaussian-4x4",
        "sample-torus-abs2-sloped", "sample-torus-gaussian", "sample-torus-sos-abs", "swap-abs1-n6",
        "swap-abs2-n5-sloped", "swap-domino-n2", "swap-torus-gaussian", "swap-torus-sos-abs", "swap-wide-table-n4", "tile-notched-6x6", "tile-6x6", "sigma-ti-abs1-n4",
        "sigma-ti-periodic2-n4-budget64", "sigma-ti-domino-sloped-n4-budget64",
        "distances-abs1-10x10", "distances-domino-10x10", "distances-real-bounds",
    ],
)
def test_region_outputs_match_golden_digests(tmp_path, command, cfg, digests):
    # region and torus sampling outputs (on plans and on site_conditional's
    # code), a swap, TI estimates and distance tables for a fixed config and
    # seed stay byte-identical
    rc = main([command, "--config", _write_config(tmp_path, "c.json", cfg), "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest


def test_swap_on_a_nonconvex_table_matches_golden_error(tmp_path):
    # open clusters of a nonconvex potential may mix signs, so the crossing
    # bounds have no meaning there; the config is refused before any sweep
    cfg = {"potential": _NONCONVEX, "n": 4, "sweeps": 4, "trials": 1}
    rc = main(["swap", "--config", _write_config(tmp_path, "c.json", cfg), "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    error = (tmp_path / "out" / "error.json").read_bytes()
    assert hashlib.sha256(error).hexdigest() == "00c75e08a15cad5364acab8b3430a12fafd8fde845684e5ac5fbd2792d0d9ef8"


def test_swap_on_a_plan_potential_builds_no_triplet_and_no_fraction_per_edge(tmp_path, monkeypatch):
    # the swap op classifies on the torus plan's arrays: no Triplet, no
    # float check per residual, and exact deficits (the only Fractions)
    # only where the deficit table gains an entry
    from gradsurf import cluster_swap

    calls = collections.Counter()

    def counted(name, f):
        return lambda *args, **kwargs: calls.update([name]) or f(*args, **kwargs)

    for name in ("_exact_float", "_deficit", "_to_fraction"):
        monkeypatch.setattr(cluster_swap, name, counted(name, getattr(cluster_swap, name)))
    monkeypatch.setattr(cluster_swap.Triplet, "build", staticmethod(counted("build", cluster_swap.Triplet.build)))
    tables, table_of = [], cluster_swap._deficit_table
    monkeypatch.setattr(cluster_swap, "_deficit_table", lambda pot: tables.append(table_of(pot)) or tables[-1])
    cfg = {"potential": _ABS2, "n": 8, "sweeps": 4, "trials": 3}
    assert main(["swap", "--config", _write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls["_exact_float"] == calls["build"] == 0
    assert len(tables) == 3 and all(t is tables[0] for t in tables)
    fills = len(tables[0].exact)
    assert 0 < calls["_deficit"] == fills < 3 * 2 * 8 * 7
    assert calls["_to_fraction"] <= 4 * fills


_DOMINO = {"preset": "domino"}


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("swap", {"potential": _DOMINO, "n": 4, "sweeps": 1, "trials": 0}),
        ("sigma", {"potential": _DOMINO, "n": 4}),
        ("sigma", {"potential": _DOMINO, "slopes": [[0, 0]]}),
        ("cftp", {"potential": _DOMINO}),
        ("tile", {}),
        ("sample", {"potential": _DOMINO, "mode": "region"}),
        ("feasibility", {"potential": _DOMINO, "slopes": [{"slope": [0, 0]}]}),
        ("cftp", {"potential": _DOMINO, "region": "2x2", "samples": "x"}),
        ("sample", {"potential": _DOMINO, "mode": "bogus", "region": "2x2", "n": 4}),
        ("sample", {"potential": _DOMINO, "n": 4, "slope": ["a", 0]}),
        ("sigma", {"potential": _DOMINO, "n": 4, "slopes": [["1/0", 0]]}),
        ("feasibility", {"potential": _DOMINO, "slopes": [{"slope": [0], "n": 4}]}),
        ("cftp", {"potential": _DOMINO, "region": "2x2", "seed": "x"}),
        ("cftp", {"potential": _DOMINO, "region": "2x2", "samples": -3}),
        ("sample", {"potential": _DOMINO, "n": 4, "sweeps": -5}),
        ("sigma", {"potential": _DOMINO, "n": 4, "slopes": [[0, 0]], "budget": -1}),
    ]
    + [(command, {"potential": _DOMINO, "region": region}) for region in ("3xq", [5], [[0, 0, 0]]) for command in ("tile", "cftp")],
    ids=[
        "swap-no-trials", "sigma-no-slopes", "sigma-no-n", "cftp-no-region", "tile-no-region", "sample-no-region", "feasibility-item-no-n",
        "cftp-samples-not-int", "sample-bogus-mode", "sample-bad-slope", "sigma-zero-denominator", "feasibility-short-slope", "cftp-seed-not-int",
        "cftp-negative-samples", "sample-negative-sweeps", "sigma-negative-budget",
    ]
    + [f"{command}-region-{name}" for name in ("bad-side", "not-pairs", "triple") for command in ("tile", "cftp")],
)
def test_malformed_config_writes_config_error(tmp_path, command, cfg):
    # a missing key, a non-integer field, zero trials, a negative count of
    # samples, sweeps or budget, an unknown mode, a slope that is not two
    # rationals or a region that is not a box or a list of integer pairs
    # exits 2 with a ConfigParse error, not a traceback, a wrong mode or a
    # count of a region that is not one
    rc = main([command, "--config", _write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "ConfigParse"
