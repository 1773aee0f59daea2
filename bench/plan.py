"""Workload plans: the CLI ops each workload runs, generated from its seed.

A plan is a fixed bag of timed ops (one round), a list of probes and a
warm-up op.  Every round runs the whole bag in a seeded order, each op
with its own gradsurf seed, so rounds differ in randomness but not in
the mix of work.  The seed also picks region placements, boundary levels,
notch shapes and potential scales; none of these moves an op's cost much,
so the percentiles of different seeds fall on the same kinds of op.

Probes are inputs the README advertises and the code mishandles.  They
run untimed, once per round, and count only in ``ok_frac`` and the
report's failure fraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("exact-region", "torus-swap", "surface-tension")


@dataclass
class Op:
    kind: str  # op kind, for the per-kind counts in the report
    cmd: str
    cfg: dict  # the CLI config
    spec: dict  # what the output check needs to know
    pair: str | None = None  # sigma ops sharing a key are cross-checked
    config_path: str = field(default="", repr=False)


@dataclass
class Plan:
    workload: str
    seed: int
    bag: list[Op]
    probes: list[Op]
    warmup: Op

    def round_order(self, r: int) -> list[int]:
        order = list(range(len(self.bag)))
        random.Random(f"{self.workload}/{self.seed}/round{r}").shuffle(order)
        return order

    def op_seed(self, r: int, i: int) -> int:
        return (self.seed * 1_000_003 + r * 1_009 + i) % (1 << 31)


def _abs_potential(k: int, scale: float = 1.0) -> dict:
    """|eta| truncated at k, times ``scale``, as an isotropic table."""
    values = {str(e): round(scale * abs(e), 4) for e in range(-k, k + 1)}
    return {"domain": "int", "period": [[1, 0], [0, 1]], "classes": {"kind": "table", "values": values}}


DOMINO = {"preset": "domino"}


def _box(w: int, h: int, dx: int = 0, dy: int = 0) -> list[list[int]]:
    return [[dx + i, dy + j] for i in range(w) for j in range(h)]


def _notched(rng: random.Random, w: int, h: int, corners: int, notch_rows) -> list[list[int]]:
    """A w x h box (w even) with staircase notches cut at seeded corners.

    Each notch removes an even run of squares from the end of each of its
    rows, so every row keeps an even length: the region stays simply
    connected and tileable.  The result is translated and maybe transposed.
    """
    cells = {(i, j) for i in range(w) for j in range(h)}
    for corner in rng.sample(range(4), corners):
        rows = rng.choice(notch_rows)
        for k, run in enumerate(rows):
            j = k if corner < 2 else h - 1 - k
            xs = range(run) if corner % 2 == 0 else range(w - run, w)
            cells -= {(x, j) for x in xs}
    dx, dy = rng.randrange(4), rng.randrange(4)
    flip = rng.random() < 0.5
    return sorted([dy + j, dx + i] if flip else [dx + i, dy + j] for i, j in cells)


def _cftp(rng, pot_name, pot, w, h, samples, kind):
    verts = _box(w, h, rng.randrange(4), rng.randrange(4))
    level = rng.randint(-3, 3)
    cfg = {"potential": pot, "region": verts, "boundary_level": level, "samples": samples}
    spec = {"vertices": verts, "boundary_level": level, "samples": samples, "pot": pot_name}
    return Op(kind, "cftp", cfg, spec)


def _tile(cells, count, samples, kind):
    cfg = {"region": cells, "count": count, "samples": samples}
    return Op(kind, "tile", cfg, {"cells": cells, "count": count, "samples": samples})


def _distances(rng, pot_name, pot, kind):
    verts = _box(10, 10, rng.randrange(4), rng.randrange(4))
    cfg = {"potential": pot, "distance_region": verts}
    return Op(kind, "feasibility", cfg, {"vertices": verts, "pot": pot_name})


def exact_region(seed: int) -> Plan:
    """CFTP, Bellman-Ford extensions, Kasteleyn and distance tables; no torus."""
    rng = random.Random(f"exact-region/{seed}")
    abs1 = _abs_potential(1)
    # Kinds in cost order: six ops under 0.2 s, ten tiny-region ops around
    # 0.3 s (half the ops, so the median falls in the middle of them, as
    # this traffic dominates the test suite), then four count-only boxes of
    # equal size on top (they set the 90th percentile).
    bag = [
        _distances(rng, "abs1", abs1, "distances"),
        _distances(rng, "domino", DOMINO, "distances"),
        _cftp(rng, "domino", DOMINO, 6, 6, 1, "cftp-box"),
        _cftp(rng, "abs1", abs1, 8, 8, 1, "cftp-box"),
        _tile(_notched(rng, 6, 6, 1, [[2]]), True, 1, "tile-sample"),
        _tile(_notched(rng, 8, 8, 1, [[2]]), False, 1, "tile-sample"),
    ]
    bag += [_cftp(rng, "abs1", abs1, 2, 2, 200, "cftp-tiny") for _ in range(10)]
    notches = [[6], [4, 2], [2, 2, 2]]
    bag += [_tile(_notched(rng, 40, 10, 2, notches), True, 0, "tile-count") for _ in range(4)]
    dx, dy = rng.randrange(4), rng.randrange(4)
    ring = [c for c in _box(3, 3, dx, dy) if c != [dx + 1, dy + 1]]
    holed = [c for c in _box(6, 6, dx, dy) if not (2 <= c[0] - dx <= 3 and 2 <= c[1] - dy <= 3)]
    # The ring has 2 tilings, but Kasteleyn reports 0 and sampling raises
    # Untileable.  On the holed 6x6 one sample in seven comes back, so 20
    # samples make the failure certain for any practical purpose.
    probes = [_tile(ring, True, 1, "probe-holed"), _tile(holed, True, 20, "probe-holed")]
    warmup = _distances(rng, "abs1", abs1, "warmup")
    return Plan("exact-region", seed, bag, probes, warmup)


def _swap(n, pot_name, pot, kind):
    cfg = {"potential": pot, "n": n, "slope": [0, 0], "sweeps": 8, "trials": 1}
    return Op(kind, "swap", cfg, {"n": n, "trials": 1, "pot": pot_name})


def torus_swap(seed: int) -> Plan:
    """Heat-bath sweeps on large slope-0 tori and cluster swapping; no CFTP."""
    rng = random.Random(f"torus-swap/{seed}")
    scale = round(rng.uniform(0.8, 1.25), 2)
    pots = {"domino": DOMINO, "abs1": _abs_potential(1, scale), "abs2": _abs_potential(2, scale)}
    # (side, potential) in cost order: seven small tori, six of one middle
    # cost (they set the median), three larger, then four of about 0.44 s
    # on top (they set the 90th percentile)
    sizes = [(12, "domino"), (12, "abs1"), (12, "abs2"), (14, "domino"), (14, "abs1"), (16, "domino"), (14, "abs2")]
    sizes += [(16, "abs2"), (18, "abs1")] * 3
    sizes += [(18, "abs2"), (20, "domino"), (20, "abs1")]
    sizes += [(20, "abs2"), (20, "abs2"), (24, "domino"), (28, "domino")]
    bag = [_swap(n, name, pots[name], f"swap-n{n}") for n, name in sizes]
    probes = [_swap(32, "domino", DOMINO, "probe-deep-torus")]
    warmup = _swap(12, "domino", DOMINO, "warmup")
    return Plan("torus-swap", seed, bag, probes, warmup)


def _sigma(pot_name, pot, n, method, slopes, pair, kind, budget=None):
    cfg = {"potential": pot, "n": n, "method": method, "slopes": slopes}
    if budget is not None:
        cfg["budget"] = budget
    return Op(kind, "sigma", cfg, {"pot": pot_name, "n": n, "slopes": slopes}, pair=pair)


def _torus_sample(pot_name, pot, n, slope, kind):
    cfg = {"potential": pot, "mode": "torus", "n": n, "slope": slope, "sweeps": 8, "samples": 1}
    return Op(kind, "sample", cfg, {"pot": pot_name, "n": n, "slope": slope, "samples": 1})


def surface_tension(seed: int) -> Plan:
    """TI heat bath on 15-site tori, transfer matrices and ground states."""
    rng = random.Random(f"surface-tension/{seed}")
    scale = round(rng.uniform(0.8, 1.25), 2)
    abs1, abs2 = _abs_potential(1, scale), _abs_potential(2, scale)
    axis = rng.randrange(2)
    unit = lambda q: [q, "0"] if axis == 0 else ["0", q]  # noqa: E731
    bag = []
    for k, slope in enumerate((["0", "0"], ["1/4", "0"], ["0", "1/4"])):
        key = f"abs1-n4-{k}"
        bag.append(_sigma("abs1", abs1, 4, "ThermodynamicIntegration", [slope], key, "sigma-ti", 16))
        bag.append(_sigma("abs1", abs1, 4, "TransferMatrix", [slope], key, "sigma-tm"))
    bag.append(_sigma("domino", DOMINO, 6, "TransferMatrix", [["0", "0"]], None, "sigma-tm"))
    bag.append(_sigma("domino", DOMINO, 6, "TransferMatrix", [unit("1/3")], None, "sigma-tm"))
    triples = [
        [unit("-1/4"), unit("1/4"), ["0", "0"]],
        [unit("-1/4")[::-1], unit("1/4")[::-1], ["0", "0"]],
        [["-1/4", "-1/4"], ["1/4", "1/4"], ["0", "0"]],
    ]
    for k, triple in enumerate(triples):
        bag.append(_sigma("domino", DOMINO, 4, "ExactSum", triple, f"domino-n4-{k}", "sigma-exact"))
        bag.append(_sigma("domino", DOMINO, 4, "TransferMatrix", triple, f"domino-n4-{k}", "sigma-tm"))
    # six exact domino ops and one small transfer matrix below the four
    # sampling ops, so the median falls among the samples; the three TI
    # ops on top set the 90th percentile
    for slope in (["1/2", "0"], ["1/4", "1/4"]) * 2:
        bag.append(_torus_sample("abs2", abs2, 4, slope, "sample-sloped"))
    gauss = {"domain": "real", "period": [[1, 0], [0, 1]], "classes": {"preset": "gaussian:1.0"}}
    sos = {"domain": "int", "period": [[1, 0], [0, 1]], "classes": {"preset": "sos-abs"}}
    sos_string = {"domain": "int", "period": [[1, 0], [0, 1]], "classes": "sos-abs"}
    probes = [
        _torus_sample("gaussian", gauss, 4, ["0", "0"], "probe-unbounded"),
        _torus_sample("abs", sos, 4, ["0", "0"], "probe-unbounded"),
        _torus_sample("abs", sos_string, 4, ["0", "0"], "probe-unbounded"),
    ]
    warmup = _sigma("domino", DOMINO, 4, "TransferMatrix", triples[0], None, "warmup")
    return Plan("surface-tension", seed, bag, probes, warmup)


PLANS = {"exact-region": exact_region, "torus-swap": torus_swap, "surface-tension": surface_tension}
