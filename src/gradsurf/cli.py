"""Reproducible experiment runner.

Every command reads a single JSON config, resolves defaults, seeds all
randomness from one integer, and writes its outputs plus a run manifest
into the output directory.  Outputs are canonicalized (sorted rows, no
timestamps), so equal configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .cluster_swap import _SwapArrays
from .errors import ConfigParse, GradsurfError
from .feasibility import (
    FeasibilityGraph,
    _region_plan,
    _torus_side_fits,
    allowed_slope_polytope,
    distances_csv,
    torus_info,
    torus_slope_feasible,
)
from .heights import HeightConfig
from .lattice import outer_boundary
from .observables import EXACT_SUM, THERMODYNAMIC_INTEGRATION, TRANSFER_MATRIX, convexity_margin, sigma_estimate
from .potential import PeriodicPotential, validate_sap
from .rng import RngStream
from .sampler import _Chain, _check_ergodic, cftp_samples, torus_sample
from .tilings import (
    BRUTE_FORCE_LIMIT,
    count_tilings_bruteforce,
    count_tilings_kasteleyn,
    matching_to_height,
    uniform_tiling_samples,
)
from .verification import run_battery


def _slope(spec) -> tuple[Fraction, Fraction]:
    """A slope [u1, u2] of two rationals; ConfigParse otherwise."""
    if isinstance(spec, list) and len(spec) == 2:
        try:
            return (Fraction(str(spec[0])), Fraction(str(spec[1])))
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigParse(f"a slope must be a list of two rationals, not {spec!r}")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigParse(f"config {path} must be a JSON object, not {type(cfg).__name__}")
    return cfg


def _resolve_potential(cfg: dict) -> PeriodicPotential:
    spec = cfg.get("potential", {"preset": "domino"})
    if isinstance(spec, str):
        pot = PeriodicPotential.load(spec)
    else:
        pot = PeriodicPotential.from_dict(spec)
    report = validate_sap(pot)
    if not report.valid:
        bad = sorted(cls for cls, r in report.per_class.items() if not r.ok)
        raise ConfigParse(f"potential fails validation on classes {bad}")
    return pot


def _required(cfg: dict, key: str):
    """cfg[key]; ConfigParse naming the key when it is missing."""
    if key not in cfg:
        raise ConfigParse(f"config needs {key!r}")
    return cfg[key]


def _integer(cfg: dict, key: str, default=None, least=None) -> int:
    """cfg[key] as an integer (an int, an integral float or a string of
    digits), or the default when given and the key is missing; ConfigParse
    naming the key otherwise (a bool or a fractional float among them), or
    when the integer is below ``least``."""
    value = _required(cfg, key) if default is None else cfg.get(key, default)
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        value = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigParse(f"{key!r} must be an integer, not {value!r}") from None
    if least is not None and value < least:
        raise ConfigParse(f"{key!r} must be at least {least}, not {value}")
    return value


def _list(cfg: dict, key: str, default=None) -> list:
    """cfg[key], which must be a list, or the default when given and the
    key is missing; ConfigParse naming the key otherwise."""
    value = _required(cfg, key) if default is None else cfg.get(key, default)
    if not isinstance(value, list):
        raise ConfigParse(f"{key!r} must be a list, not {value!r}")
    return value


def _torus_side(pot: PeriodicPotential, cfg: dict, default=None) -> int:
    """The torus side ``n`` of a config, which must be a positive multiple
    of the potential's period."""
    n = _integer(cfg, "n", default)
    if not _torus_side_fits(pot, n):
        raise ConfigParse(f"torus side {n} is not a positive multiple of the period")
    return n


def _region_from_spec(spec) -> frozenset:
    """The squares of a region spec: "WxH" for a box or a list of [x, y]
    integer pairs; ConfigParse for anything else or an empty region."""
    cells = spec
    try:
        if isinstance(spec, str):
            w, h = (int(t) for t in spec.split("x"))
            cells = [(i, j) for i in range(w) for j in range(h)]
        region = frozenset(tuple(v) for v in cells)
    except (TypeError, ValueError):
        region = None
    if region is None or not all(len(v) == 2 and all(type(c) is int for c in v) for v in region):
        raise ConfigParse(f"a region must be 'WxH' or a list of [x, y] integer pairs, not {spec!r}")
    if not region:
        raise ConfigParse(f"region {spec!r} is empty")
    return region


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _write_json(path: Path, obj) -> None:
    _write(path, json.dumps(obj, indent=1, sort_keys=True, default=str) + "\n")


def _manifest(command: str, cfg: dict, seed: int, pot: PeriodicPotential | None) -> dict:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return {
        "command": command,
        "config": cfg,
        "config_hash": hashlib.sha256(blob).hexdigest()[:16],
        "potential_hash": pot.config_hash() if pot is not None else None,
        "seed": seed,
        "versions": {
            "gradsurf": __version__,
            "numpy": np.__version__,
            "python": "%d.%d" % sys.version_info[:2],
        },
    }


def _samples_csv(configs) -> str:
    """The ``sample,x,y,height`` table of the configs, sample s's heights in
    sorted site order.  The sites are sorted once per key order, into a
    template of ``{0},x,y,{k}`` lines, k the site's place in that order,
    that one ``str.format`` call fills with s and the config's heights as
    they come; ``"{}"`` formats a height as ``format(h, "")`` does, as an
    f-string would."""
    lines, templates = ["sample,x,y,height"], {}
    for s, config in enumerate(configs):
        keys = tuple(config.values)
        if keys not in templates:
            order = sorted(range(len(keys)), key=keys.__getitem__)
            templates[keys] = "\n".join(f"{{0}},{keys[k][0]},{keys[k][1]},{{{k + 1}}}" for k in order)
        lines.append(templates[keys].format(s, *config.values.values()))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands


def cmd_sample(cfg, seed, out: Path):
    pot = _resolve_potential(cfg)
    mode = cfg.get("mode", "torus")
    if mode not in ("torus", "region"):
        raise ConfigParse(f"unknown sample mode {mode!r}")
    samples = _integer(cfg, "samples", 1, least=0)
    sweeps = _integer(cfg, "sweeps", 64, least=0)
    if mode == "torus":
        n = _torus_side(pot, cfg)
        slope = _slope(cfg.get("slope", [0, 0]))
        _check_ergodic(pot, torus_info(pot, n, slope))
        table = _samples_csv(torus_sample(pot, n, slope, sweeps, RngStream(seed, s)) for s in range(samples))
    else:
        region, boundary = _region_with_boundary(cfg)
        if pot.is_lipschitz():
            top, _ = _region_plan(pot, region, boundary).extensions(boundary)
            # whole heights on an int domain, so every sweep runs the plan
            cast = math.floor if pot.discrete else float
            start = HeightConfig({v: cast(top[v]) for v in region}, reference=region[0])
        else:  # flat at boundary_level, the plane through the pins
            start = HeightConfig(dict.fromkeys(region, boundary[min(boundary)]), reference=region[0])
        table = _samples_csv(_region_sample(pot, start, boundary, sweeps, RngStream(seed, s)) for s in range(samples))
    _write(out / "samples.csv", table)
    _write_json(out / "manifest.json", _manifest("sample", cfg, seed, pot))
    return 0


def _region_sample(pot, start, boundary, sweeps, stream):
    """A heat-bath chain from ``start`` after ``sweeps`` sweeps, sweep t
    with ``stream.at(t)``."""
    chain = _Chain(pot, start, boundary)
    for t in range(sweeps):
        chain.sweep([stream.at(t).random(len(chain.order))])
    return chain.config()


def _region_with_boundary(cfg):
    """The sorted region and its outer boundary pinned at boundary_level."""
    region = sorted(_region_from_spec(_required(cfg, "region")))
    level = _integer(cfg, "boundary_level", 0)
    return region, {v: level for v in outer_boundary(region)}


def cmd_cftp(cfg, seed, out: Path):
    pot = _resolve_potential(cfg)
    region, boundary = _region_with_boundary(cfg)
    samples = _integer(cfg, "samples", 1, least=0)
    configs = cftp_samples(pot, region, boundary, [RngStream(seed, s) for s in range(samples)])
    _write(out / "samples.csv", _samples_csv(configs))
    _write_json(out / "manifest.json", _manifest("cftp", cfg, seed, pot))
    return 0


def cmd_tile(cfg, seed, out: Path):
    region = _region_from_spec(_required(cfg, "region"))
    result: dict = {"squares": len(region)}
    if cfg.get("count", True):
        brute = count_tilings_bruteforce(region) if len(region) <= BRUTE_FORCE_LIMIT else None
        kast = count_tilings_kasteleyn(region)
        result["count_kasteleyn"] = kast
        result["count_bruteforce"] = brute
        print(kast)
    samples = _integer(cfg, "samples", 0, least=0)
    if samples:
        rows = ["sample,square1_x,square1_y,square2_x,square2_y"]
        tilings = uniform_tiling_samples(region, [RngStream(seed, s) for s in range(samples)])
        for s, t in enumerate(tilings):
            for d in sorted(tuple(sorted(dom)) for dom in t.dominoes):
                (ax, ay), (bx, by) = d
                rows.append(f"{s},{ax},{ay},{bx},{by}")
        heights = _samples_csv(map(matching_to_height, tilings))
        _write(out / "tilings.csv", "\n".join(rows) + "\n")
        _write(out / "heights.csv", heights)
    _write_json(out / "counts.json", result)
    _write_json(out / "manifest.json", _manifest("tile", cfg, seed, None))
    return 0


def cmd_feasibility(cfg, seed, out: Path):
    pot = _resolve_potential(cfg)
    items = _list(cfg, "slopes", [])
    if not all(isinstance(item, dict) for item in items):
        raise ConfigParse(f"each feasibility item must be an object with 'slope' and 'n', not {items!r}")
    items = [(_slope(_required(item, "slope")), _torus_side(pot, item)) for item in items]
    poly = allowed_slope_polytope(pot)
    _write(out / "polytope.csv", "\n".join(poly.csv_rows()) + "\n")
    if "distance_region" in cfg:
        region = sorted(_region_from_spec(cfg["distance_region"]))
        graph = FeasibilityGraph.from_potential(pot, region)
        _write(out / "distances.csv", "\n".join(distances_csv(region, region, graph.distance_matrix(region))) + "\n")
    checks = []
    for u, n in items:
        checks.append(
            {
                "slope": [str(u[0]), str(u[1])],
                "n": n,
                "feasible": torus_slope_feasible(pot, n, u),
                "in_polytope": poly.contains(u),
            }
        )
    _write_json(
        out / "feasibility.json",
        {"feasible_at_zero": poly.feasible, "checks": checks},
    )
    _write_json(out / "manifest.json", _manifest("feasibility", cfg, seed, pot))
    return 0


def cmd_sigma(cfg, seed, out: Path):
    pot = _resolve_potential(cfg)
    n = _torus_side(pot, cfg)
    method = cfg.get("method", EXACT_SUM)
    if method not in (EXACT_SUM, TRANSFER_MATRIX, THERMODYNAMIC_INTEGRATION):
        raise ConfigParse(f"unknown sigma method {method!r}")
    budget = _integer(cfg, "budget", 2048, least=0)
    estimates = []
    records = []
    for k, spec in enumerate(_list(cfg, "slopes")):
        u = _slope(spec)
        est = sigma_estimate(pot, u, n, method=method, budget=budget, rng=RngStream(seed, k))
        estimates.append(est)
        records.append(est.to_record(seed=seed))
    result = {"estimates": records}
    if len(estimates) == 3:
        try:
            report = convexity_margin(estimates[0], estimates[1], estimates[2])
            result["margin"] = report.to_record(seed=seed)
        except GradsurfError:
            pass
    _write_json(out / "sigma.json", result)
    _write_json(out / "manifest.json", _manifest("sigma", cfg, seed, pot))
    return 0


def cmd_swap(cfg, seed, out: Path):
    pot = _resolve_potential(cfg)
    n = _torus_side(pot, cfg, 8)
    slope = _slope(cfg.get("slope", [0, 0]))
    sweeps = _integer(cfg, "sweeps", 64, least=0)
    trials = _integer(cfg, "trials", 16, least=1)
    scans = []
    cluster_rows = ["trial,x,y,zeta,cluster,boundary_touch"]
    for t in range(trials):
        phi1 = torus_sample(pot, n, slope, sweeps, RngStream(seed, 2 * t))
        phi2 = torus_sample(pot, n, slope, sweeps, RngStream(seed, 2 * t + 1))
        arrays = _SwapArrays.torus_window(pot, phi1, phi2, RngStream(seed, 10_000 + t).at(0))
        ss, b_plus, b_minus = arrays.analysis(0)
        scans.append({"trial": t, "b_plus": b_plus, "b_minus": b_minus, "gap": b_plus - b_minus})
        # clusters in the order of their least vertex, each in sorted order
        order = np.argsort(ss.label, kind="stable")
        label = ss.label[order]
        for k, z, c, b in zip(order.tolist(), ss.zeta[label].tolist(), label.tolist(), ss.touches[label].tolist()):
            x, y = arrays.triplet.sites[k]
            cluster_rows.append(f"{t},{x},{y},{z},{c},{int(b)}")
    gaps = [s["gap"] for s in scans]
    _write_json(
        out / "swap.json",
        {
            "window": n,
            "scans": scans,
            "gap_in_01_fraction": sum(1 for g in gaps if g in (0, 1)) / len(gaps),
        },
    )
    _write(out / "clusters.csv", "\n".join(cluster_rows) + "\n")
    _write_json(out / "manifest.json", _manifest("swap", cfg, seed, pot))
    return 0


def cmd_verify(cfg, seed, out: Path):
    results = run_battery()
    lines = []
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        print(lines[-1])
    _write(out / "report.txt", "\n".join(lines) + "\n")
    _write_json(
        out / "report.json",
        {
            "checks": [
                {"name": n, "passed": ok, "detail": d} for n, ok, d in results
            ],
            "all_passed": all(ok for _, ok, _ in results),
        },
    )
    _write_json(out / "manifest.json", _manifest("verify", cfg, seed, None))
    return 0 if all(ok for _, ok, _ in results) else 1


COMMANDS = {
    "sample": cmd_sample,
    "cftp": cmd_cftp,
    "tile": cmd_tile,
    "feasibility": cmd_feasibility,
    "sigma": cmd_sigma,
    "swap": cmd_swap,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradsurf",
        description="Gradient random-surface simulation and verification runner",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="out")
    args = parser.parse_args(argv)
    out = Path(args.out)
    try:
        cfg = _load_config(args.config) if args.config else {}
        seed = args.seed if args.seed is not None else _integer(cfg, "seed", 0)
        return COMMANDS[args.command](cfg, seed, out)
    except GradsurfError as exc:
        payload = {"error": exc.kind, "message": str(exc)}
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "error.json", payload)
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
