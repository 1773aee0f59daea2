"""Theory-facing measurements: partition functions, surface tension,
empirical gradient statistics, variance profiles, FKG and log-concavity.

Exact methods (class sums, transfer matrices) return rigorously computed
values with zero stderr; the thermodynamic-integration estimator carries
batch-mean error bars.  Verdict-style checks run on exhaustively
enumerable fixtures and report violations rather than raising.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BoxExceedsSupport,
    DivergentNormalizer,
    Infeasible,
    InsufficientBudget,
    NotIncreasing,
    SlopeMismatch,
    StateSpaceTooLarge,
)
from .feasibility import (
    _energy_table,
    _search,
    _torus_frame,
    enumerate_region_configs,
    enumerate_torus_configs,
    torus_info,
    torus_slope_feasible,
)
from .heights import HeightConfig
from .lattice import Sublattice, Vertex, add, edges_meeting, neighbors
from .potential import INF, PeriodicPotential, TablePotential
from .rng import RngStream
from .sampler import _Chain, _check_ergodic, _torus_start, _uniform_rows

EXACT_SUM = "ExactSum"
TRANSFER_MATRIX = "TransferMatrix"
THERMODYNAMIC_INTEGRATION = "ThermodynamicIntegration"


# ---------------------------------------------------------------------------
# Exact log partition functions


def _logsumexp(values) -> float:
    values = [v for v in values if v > -INF]
    if not values:
        return -INF
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def log_partition_exact(
    pot: PeriodicPotential,
    *,
    torus: int | None = None,
    slope=None,
    region=None,
    boundary=None,
    method: str = EXACT_SUM,
    node_budget: int = 10_000_000,
) -> float:
    """log Z over a torus slope class or a finite region with boundary.

    Values refer to the potential as originally defined: normalization
    offsets subtracted at construction are added back here.  An infeasible
    class reports -inf rather than raising.
    """
    if torus is not None:
        if method == TRANSFER_MATRIX:
            log_z = _transfer_matrix_log_z(pot, torus, slope)
        else:
            try:
                configs = enumerate_torus_configs(pot, torus, slope, node_budget)
                log_z = _logsumexp([-energy for _, energy in configs])
            except Infeasible:
                return -INF
        per_class_edges = torus * torus // pot.lattice.index
        raw_offset = sum(pot.offsets.values()) * per_class_edges
        return log_z - raw_offset if log_z > -INF else -INF
    if method == TRANSFER_MATRIX:
        raise ValueError("transfer-matrix mode applies to torus classes")
    states = _enumerate_states(pot, region, boundary, node_budget)
    log_z = _logsumexp([-energy for _, energy in states])
    if log_z == -INF:
        return -INF
    offset = sum(pot.edge_offset(e) for e in edges_meeting(region))
    return log_z - offset


def _enumerate_states(pot, region, boundary, node_budget: int = 10_000_000, radius: int = 45):
    """(values, energy) pairs; unbounded supports on integer heights fall
    back to the exact search over tail-truncated windows on at most two
    free sites, and other domains raise StateSpaceTooLarge (a sum over
    integer heights is not their measure).

    The windows leave out only configurations that cost at least radius
    more than the cheapest flat one at a pin height.  Past the least width
    w at which every (convex) class potential has reached that cost and
    still grows, a site next to a pin spans the pins' range widened by w,
    and a site whose only neighbour is the other free site by 2w.  Windows
    the node budget cannot search raise StateSpaceTooLarge.
    """
    if pot.is_lipschitz():
        yield from enumerate_region_configs(pot, region, boundary, node_budget)
        return
    if not pot.discrete:
        raise StateSpaceTooLarge(f"exact sums over the {pot.domain} domain have no finite state space")
    region = sorted(region)
    if len(region) > 2:
        raise StateSpaceTooLarge("unbounded supports allow at most 2 free sites")
    if region and not boundary:
        raise Infeasible(region[0])
    pins = set(boundary.values())
    lo, hi = int(min(pins, default=0)), int(max(pins, default=0))
    flat = min((e for p in pins or {0} for _, e in _search(pot, None, region, boundary, 0.0, dict.fromkeys(region, (p,)), node_budget)), default=INF)
    cost, classes = radius + flat, pot.class_potentials.values()
    width = bisect_left(
        range(node_budget + 1), True, key=lambda w: all(v(s * (w + 1)) >= max(cost, v(s * w)) for v in classes for s in (1, -1))
    )
    if width > node_budget:
        raise StateSpaceTooLarge(f"windows wider than {2 * node_budget + 1} heights exceed the node budget {node_budget}")
    pinned = {v for v in region if any(w in boundary for w in neighbors(v))}
    windows, nodes, paths = {}, 0, 1
    for v in region:
        if not pinned & {v, *neighbors(v)}:
            raise DivergentNormalizer(f"free site {v} has no pinned neighbour, so its heights are unbounded")
        k = 1 if v in pinned else 2
        windows[v] = range(lo - k * width, hi + k * width + 1)
        paths *= len(windows[v])
        nodes += paths
    if nodes > node_budget:
        sizes = [len(windows[v]) for v in region]
        raise StateSpaceTooLarge(f"windows of {sizes} heights exceed the node budget {node_budget}")
    yield from _search(pot, None, region, boundary, 0.0, windows, node_budget)


# ---------------------------------------------------------------------------
# Transfer matrix over torus columns


def _transfer_matrix_log_z(pot, n, slope):
    """log Z of the slope class on the n-torus as the trace of a chain of
    per-column transfer matrices, in log space.

    A state of column c is a profile d (heights above row 0, d[0] = 0, with
    finite vertical energy, the wrap edge to row 0 at holonomy h[1]
    included) and an anchor, the column's row-0 height, from the
    ``_torus_frame`` windows; column 0 is pinned at anchor 0.  The matrix
    of step c - 1 -> c holds minus the horizontal energies between the
    states of the two columns and the vertical energy of column c's
    profile; the wrap step n - 1 -> 0 adds the holonomy h[0] and no
    vertical energy.  The chain starts from the diagonal of column 0's
    profile energies and multiplies through the matrices in log space,
    each entry's sum taken relative to its own largest term, so no finite
    term underflows to 0.  An infeasible class gives -inf.
    """
    try:
        info, windows, _, _ = _torus_frame(pot, n, slope)
    except Infeasible:
        return -INF
    hol = info.holonomy()
    lo, table = _energy_table(pot)

    def row(edge):
        (i, j), axis = edge
        return table[axis, pot.lattice.cell(i, j)]

    def energies(edge, increments):
        return np.take(row(edge), 1 + increments - lo, mode="clip")

    def column_states(c):
        """Heights (S, n) and vertical energies (S,) of column c's states."""
        steps = [(np.flatnonzero(row(((c, j), 1)) < INF) + lo - 1).tolist() for j in range(n - 1)]
        combos = list(itertools.product(*steps))
        incs = np.array(combos, dtype=np.int64).reshape(len(combos), n - 1)
        prof = np.concatenate([np.zeros((len(incs), 1), np.int64), incs.cumsum(axis=1)], axis=1)
        incs = np.concatenate([incs, hol[1] - prof[:, -1:]], axis=1)
        vert = sum(energies(((c, j), 1), incs[:, j]) for j in range(n))
        keep = vert < INF
        prof, vert = prof[keep], vert[keep]
        anchors = np.array(windows[(c, 0)], dtype=np.int64)  # [0] at x0 = (0, 0)
        heights = (anchors[:, None, None] + prof[None]).reshape(-1, n)
        return heights, np.tile(vert, len(anchors))

    def step(c, prev, cur, shift):
        """Log weights of the horizontal edges of column c from ``prev``
        states to ``cur`` states."""
        energy = np.zeros((len(prev), len(cur)))
        for j in range(n):
            energy += energies(((c, j), 0), cur[None, :, j] + shift - prev[:, None, j])
        return -energy

    first, vert0 = column_states(0)
    chain = np.full((len(first), len(first)), -INF)
    np.fill_diagonal(chain, -vert0)
    prev = first
    for c in range(1, n):
        cur, vert = column_states(c)
        chain = _log_matmul(chain, step(c - 1, prev, cur, 0) - vert)
        prev = cur
    closing = chain + step(n - 1, prev, first, hol[0]).T
    peak = closing.max(initial=-INF)
    if peak == -INF:
        return -INF
    return float(peak + np.log(np.exp(closing - peak).sum()))


# Floats of (row, inner, column) terms that ``_log_matmul`` holds at once:
# 128 KiB, so a product's temporaries add nothing measurable to peak RSS
_MATMUL_BLOCK = 1 << 14


def _log_matmul(a, b):
    """log(exp(a) @ exp(b)) with each entry's sum taken relative to its
    largest term, a block of rows at a time."""
    out = np.empty((a.shape[0], b.shape[1]))
    rows = max(1, _MATMUL_BLOCK // max(1, b.size))
    with np.errstate(divide="ignore"):
        for r in range(0, a.shape[0], rows):
            terms = a[r : r + rows, :, None] + b[None]
            peak = terms.max(axis=1, initial=-INF)
            peak[peak == -INF] = 0.0
            terms -= peak[:, None, :]
            np.exp(terms, out=terms)
            out[r : r + rows] = peak + np.log(terms.sum(axis=1))
    return out


# ---------------------------------------------------------------------------
# Surface tension estimates


@dataclass(frozen=True)
class SigmaEstimate:
    slope: tuple
    n: int
    value: float
    method: str
    stderr: float = 0.0

    def to_record(self, seed=None) -> dict:
        return {
            "observable": "sigma",
            "inputs": {"slope": [str(s) for s in self.slope], "n": self.n},
            "value": self.value,
            "stderr": self.stderr,
            "method": self.method,
            "seed": seed,
        }


def sigma_estimate(
    pot: PeriodicPotential,
    slope,
    n: int,
    method: str = EXACT_SUM,
    budget: int = 2048,
    rng: RngStream | None = None,
    tolerance: float | None = None,
) -> SigmaEstimate:
    """Surface tension at a slope from the n-torus: -log Z / n^2.

    Exact methods report stderr 0; thermodynamic integration runs
    fixed-class MCMC over a Chebyshev beta grid with batch-mean errors, and
    raises NotErgodic where single-site moves cannot mix the class
    (``sampler._check_ergodic``).
    """
    info = torus_info(pot, n, slope)
    if not torus_slope_feasible(pot, n, slope):
        return SigmaEstimate(info.slope, n, INF, method, 0.0)
    volume = n * n
    if method in (EXACT_SUM, TRANSFER_MATRIX):
        log_z = log_partition_exact(pot, torus=n, slope=slope, method=method)
        value = INF if log_z == -INF else -log_z / volume
        return SigmaEstimate(info.slope, n, value, method, 0.0)
    if method != THERMODYNAMIC_INTEGRATION:
        raise ValueError(f"unknown sigma method {method!r}")
    _check_ergodic(pot, info)
    integral, int_err = _ti_energy_integral(pot, n, slope, budget, rng)
    log_n0 = _transfer_matrix_log_z(_scale_potential(pot, 0.0), n, slope)
    raw_offset = sum(pot.offsets.values()) * (volume // pot.lattice.index)
    log_z = log_n0 - integral - raw_offset
    value = -log_z / volume
    stderr = int_err / volume
    if tolerance is not None and stderr > tolerance:
        raise InsufficientBudget(stderr, tolerance, budget)
    return SigmaEstimate(info.slope, n, value, THERMODYNAMIC_INTEGRATION, stderr)


def _scale_potential(pot, beta: float) -> PeriodicPotential:
    """beta * V on the same Lipschitz supports.  Raises DivergentNormalizer
    for an unbounded support, whose beta = 0 measure has no finite
    normalizer."""
    classes = {}
    for cls, p in pot.class_potentials.items():
        lo, hi = p.support()
        if math.isinf(lo) or math.isinf(hi):
            raise DivergentNormalizer(
                f"thermodynamic integration starts at beta = 0, where support [{lo}, {hi}] has no finite normalizer"
            )
        classes[cls] = TablePotential.from_dict(
            {k: beta * p(k) for k in range(int(lo), int(hi) + 1) if p(k) < INF}
        )
    return PeriodicPotential.build(pot.domain, pot.lattice, classes)


def _chebyshev_grid(points: int = 21):
    return sorted(0.5 * (1.0 - math.cos(math.pi * k / (points - 1))) for k in range(points))


def _ti_energy_integral(pot, n, slope, budget, rng, batches: int = 32):
    """Integral of the mean energy over beta in [0, 1], with stderr.

    One chain per node of the beta grid, each a row of one ``_Chain``
    under its rescaled potential, so a sweep of all of them is one step.
    The chains share one stream: chain k's sweep t draws counter
    k * T + t, with T the sweeps of a chain.  After the burn-in, each
    sweep's energies fill one column of the (chains, sweeps) series; each
    batch sum adds its sweeps left to right from 0.0, and a chain's batch
    means give its mean and stderr.
    """
    if rng is None:
        rng = RngStream(0, 0)
    grid = _chebyshev_grid()
    burn = max(8, budget // 4)
    per_batch = max(1, budget // batches)
    potentials = [_scale_potential(pot, beta) for beta in grid]
    if not pot.discrete:
        raise StateSpaceTooLarge("thermodynamic integration needs integer heights: its beta = 0 reference is the transfer matrix")
    start, order = _torus_start(pot, n, slope)
    chain = _Chain(pot, start, order=order, copies=potentials)
    sweeps = burn + batches * per_batch
    draws = _uniform_rows([rng] * len(grid), range(sweeps), len(order), [k * sweeps for k in range(len(grid))])
    for _ in range(burn):
        chain.sweep(next(draws))
    series = np.empty((len(grid), batches * per_batch))
    for t in range(series.shape[1]):
        chain.sweep(next(draws))
        series[:, t] = chain.energy()
    batch_sums = np.zeros((len(grid), batches))
    for t in range(per_batch):
        batch_sums += series[:, t::per_batch]
    batch_means = batch_sums / per_batch
    means = [float(np.mean(row)) for row in batch_means]
    errs = [float(np.std(row, ddof=1) / math.sqrt(batches)) for row in batch_means]
    integral = 0.0
    var = 0.0
    for i in range(len(grid) - 1):
        w = 0.5 * (grid[i + 1] - grid[i])
        integral += w * (means[i] + means[i + 1])
        var += (w * errs[i]) ** 2 + (w * errs[i + 1]) ** 2
    return integral, math.sqrt(var)


# ---------------------------------------------------------------------------
# Convexity margins


@dataclass(frozen=True)
class MarginReport:
    margin: float
    stderr: float
    verdict: str  # PASS or INCONCLUSIVE

    def to_record(self, seed=None) -> dict:
        return {
            "observable": "convexity_margin",
            "inputs": {},
            "value": self.margin,
            "stderr": self.stderr,
            "method": "midpoint",
            "verdict": self.verdict,
            "seed": seed,
        }


def convexity_margin(e1: SigmaEstimate, e2: SigmaEstimate, mid: SigmaEstimate) -> MarginReport:
    """Midpoint convexity margin (sigma(u1) + sigma(u2))/2 - sigma(mid).

    PASS only when the margin clears three combined standard errors; noise
    alone never produces FAIL.
    """
    if e1.n != mid.n or e2.n != mid.n or e1.method != mid.method or e2.method != mid.method:
        raise SlopeMismatch("estimates must share n and method")
    for k in (0, 1):
        lhs = Fraction(e1.slope[k]) + Fraction(e2.slope[k])
        if lhs != 2 * Fraction(mid.slope[k]):
            raise SlopeMismatch(f"slopes are not a midpoint triple in component {k}")
    margin = 0.5 * (e1.value + e2.value) - mid.value
    stderr = math.sqrt(0.25 * e1.stderr**2 + 0.25 * e2.stderr**2 + mid.stderr**2)
    verdict = "PASS" if margin > 3 * stderr else "INCONCLUSIVE"
    return MarginReport(margin=margin, stderr=stderr, verdict=verdict)


# ---------------------------------------------------------------------------
# Empirical gradient measures


@dataclass(frozen=True)
class EmpiricalGradientMeasure:
    offsets: tuple[Vertex, ...]
    counts: dict
    total: int

    def frequencies(self) -> dict:
        return {p: c / self.total for p, c in sorted(self.counts.items())}


DEFAULT_PATTERN = ((1, 0), (0, 1), (-1, 0), (0, -1))


def empirical_gradient_measure(
    samples, lattice: Sublattice, offsets=DEFAULT_PATTERN
) -> EmpiricalGradientMeasure:
    """Frequencies of local increment patterns over lattice translates."""
    counts: dict = {}
    total = 0
    offsets = tuple(tuple(o) for o in offsets)
    for config in samples:
        base_points = _lattice_points(config, lattice, offsets)
        for x in base_points:
            pattern = tuple(config.height(add(x, o)) - config.height(x) for o in offsets)
            counts[pattern] = counts.get(pattern, 0) + 1
            total += 1
    return EmpiricalGradientMeasure(offsets=offsets, counts=counts, total=total)


def _lattice_points(config: HeightConfig, lattice: Sublattice, offsets=DEFAULT_PATTERN):
    if config.torus is not None:
        return sorted(v for v in config.values if lattice.reduce(v) == (0, 0))
    verts = set(config.values)
    return [
        v
        for v in sorted(verts)
        if lattice.reduce(v) == (0, 0) and all(add(v, o) in verts for o in offsets)
    ]


# ---------------------------------------------------------------------------
# Variance profiles


@dataclass(frozen=True)
class VarianceProfile:
    distances: tuple[int, ...]
    variances: tuple[float, ...]
    stderrs: tuple[float, ...]
    c_hat: float
    verdict: str  # PASS or FAIL against Var(j) <= j*C + 3 sigma
    roughness_ratio: float | None

    def csv_rows(self):
        rows = ["distance,variance,stderr"]
        for j, v, s in zip(self.distances, self.variances, self.stderrs):
            rows.append(f"{j},{v},{s}")
        return rows


def variance_profile(
    pot: PeriodicPotential,
    n: int,
    slope,
    distances,
    trials: int,
    rng: RngStream,
    thin: int = 2,
    burn_in: int = 64,
    batches: int = 16,
) -> VarianceProfile:
    """Sampled Var(phi(x + j e1) - phi(x)) with the j*C bound verdict.

    C-hat is the largest sampled single-increment variance over unit edges;
    the verdict checks every requested distance at three standard errors.
    Raises NotErgodic where single-site moves cannot mix the class
    (``sampler._check_ergodic``).
    """
    distances = tuple(sorted(distances))
    if not distances or max(distances) >= n:
        raise ValueError("distances must be nonempty and fit inside the torus")
    _check_ergodic(pot, torus_info(pot, n, slope))
    start, order = _torus_start(pot, n, slope)
    chain = _Chain(pot, start, order=order)
    counter = 0
    for _ in range(burn_in):
        chain.sweep([rng.at(counter).random(len(order))])
        counter += 1
    samples_d: dict[int, list] = {j: [] for j in distances}
    samples_unit: dict[int, list] = {0: [], 1: []}
    for s in range(trials):
        for _ in range(thin):
            chain.sweep([rng.at(counter).random(len(order))])
            counter += 1
        config = chain.config()
        for j in distances:
            diffs = [
                config.height((x[0] + j, x[1])) - config.height(x)
                for x in config.values
            ]
            samples_d[j].append(diffs)
        for axis in (0, 1):
            incs = [config.increment(x, axis) for x in config.values]
            samples_unit[axis].append(incs)
    variances, stderrs = [], []
    for j in distances:
        v, s = _batched_variance(samples_d[j], batches)
        variances.append(v)
        stderrs.append(s)
    c_hat = max(_batched_variance(samples_unit[axis], batches)[0] for axis in (0, 1))
    ok = all(
        v <= j * c_hat + 3 * s for j, v, s in zip(distances, variances, stderrs)
    )
    ratio = None
    if 16 in distances and 2 in distances:
        v16 = variances[distances.index(16)]
        v2 = variances[distances.index(2)]
        ratio = v16 / v2 if v2 > 0 else INF
    return VarianceProfile(
        distances=distances,
        variances=tuple(variances),
        stderrs=tuple(stderrs),
        c_hat=c_hat,
        verdict="PASS" if ok else "FAIL",
        roughness_ratio=ratio,
    )


def _batched_variance(rows, batches):
    """Ensemble variance of pooled observations with batch-mean stderr."""
    arr = np.asarray(rows, dtype=float)  # samples x sites
    grand_mean = arr.mean()
    per_sample = ((arr - grand_mean) ** 2).mean(axis=1)
    bsize = max(1, len(per_sample) // batches)
    bm = [
        per_sample[i * bsize : (i + 1) * bsize].mean()
        for i in range(len(per_sample) // bsize)
    ]
    v = float(np.mean(bm))
    s = float(np.std(bm, ddof=1) / math.sqrt(len(bm))) if len(bm) > 1 else 0.0
    return v, s


# ---------------------------------------------------------------------------
# Height offsets


def height_offset_estimate(config: HeightConfig, box_halfwidths) -> list[float]:
    """Box averages of the surface around the reference vertex.

    Heights are taken as carried by the config (the additive constant is
    exactly what the estimator measures).
    """
    ref = config.reference
    out = []
    for k in box_halfwidths:
        pts = [
            (ref[0] + dx, ref[1] + dy)
            for dx in range(-k, k + 1)
            for dy in range(-k, k + 1)
        ]
        if config.torus is None and any(p not in config.values for p in pts):
            raise BoxExceedsSupport(f"box of halfwidth {k} leaves the support")
        out.append(sum(config.height(p) for p in pts) / len(pts))
    return out


# ---------------------------------------------------------------------------
# FKG / MTP2 and log-concavity verdicts


@dataclass(frozen=True)
class FkgReport:
    mtp2_ok: bool
    mtp2_violation: tuple | None
    correlation: float
    correlation_ok: bool

    @property
    def verdict(self) -> str:
        return "PASS" if (self.mtp2_ok and self.correlation_ok) else "FAIL"


def fkg_check(pot, region, boundary, event_a, event_b) -> FkgReport:
    """Exact FKG correlation of increasing events plus exhaustive MTP2.

    Events are predicates on the interior assignment; both are verified
    increasing by exhaustive pairwise comparison first.
    """
    region = sorted(region)
    states = []
    energies = []
    for values, energy in _enumerate_states(pot, region, boundary):
        states.append(values)
        energies.append(energy)
    for name, ev in (("A", event_a), ("B", event_b)):
        for s in states:
            for t in states:
                if all(s[v] <= t[v] for v in region) and ev(s) > ev(t):
                    raise NotIncreasing(f"event {name} decreases from {s} to {t}")
    weights = [math.exp(-e) for e in energies]
    total = sum(weights)
    probs = [w / total for w in weights]
    mtp2_ok, violation = _mtp2_check(pot, region, boundary, states, energies)
    pa = sum(p for s, p in zip(states, probs) if event_a(s))
    pb = sum(p for s, p in zip(states, probs) if event_b(s))
    pab = sum(p for s, p in zip(states, probs) if event_a(s) and event_b(s))
    corr = pab - pa * pb
    return FkgReport(
        mtp2_ok=mtp2_ok,
        mtp2_violation=violation,
        correlation=corr,
        correlation_ok=corr >= -1e-12,
    )


def _mtp2_check(pot, region, boundary, states, energies):
    """Energy submodularity over all state pairs (weight MTP2)."""
    index = {tuple(sorted(s.items())): i for i, s in enumerate(states)}
    for i, s in enumerate(states):
        for j, t in enumerate(states):
            if j < i:
                continue
            lo = {v: min(s[v], t[v]) for v in s}
            hi = {v: max(s[v], t[v]) for v in s}
            ki = index.get(tuple(sorted(lo.items())))
            kj = index.get(tuple(sorted(hi.items())))
            if ki is None or kj is None:
                return False, (s, t)  # min/max escaped the finite-energy set
            if energies[i] + energies[j] < energies[ki] + energies[kj] - 1e-12:
                return False, (s, t)
    return True, None


@dataclass(frozen=True)
class LogConcavityReport:
    support: tuple[int, ...]
    log_masses: tuple[float, ...]
    ok: bool
    violation: int | None

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"


def log_concavity_check(pot, region, boundary, x0) -> LogConcavityReport:
    """Exact marginal law at x0 and the f(a)^2 >= f(a+1) f(a-1) check.

    When every feasible configuration has equal energy the comparison runs
    on exact integer counts; otherwise in log space.
    """
    region = sorted(region)
    by_height: dict[int, list[float]] = {}
    for values, energy in _enumerate_states(pot, region, boundary):
        by_height.setdefault(values[x0], []).append(energy)
    support = sorted(by_height)
    all_energies = [e for es in by_height.values() for e in es]
    if all(e == all_energies[0] for e in all_energies):
        counts = {a: len(by_height[a]) for a in support}
        ok, violation = True, None
        for a in support:
            lhs = counts.get(a, 0) ** 2
            rhs = counts.get(a + 1, 0) * counts.get(a - 1, 0)
            if lhs < rhs:
                ok, violation = False, a
                break
        log_masses = tuple(math.log(counts[a]) for a in support)
        return LogConcavityReport(tuple(support), log_masses, ok, violation)
    log_masses = {a: _logsumexp([-e for e in es]) for a, es in by_height.items()}
    ok, violation = True, None
    for a in support:
        lhs = 2 * log_masses.get(a, -INF)
        rhs = log_masses.get(a + 1, -INF) + log_masses.get(a - 1, -INF)
        if rhs > lhs + 1e-9:
            ok, violation = False, a
            break
    return LogConcavityReport(
        tuple(support), tuple(log_masses[a] for a in support), ok, violation
    )
