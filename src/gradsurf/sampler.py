"""Heat-bath Gibbs sampling on regions and slope-constrained tori.

Single-site conditionals are computed exactly: a finite table in the
discrete case, closed-form Gaussians for quadratic potentials, and a
tabulated inverse CDF otherwise.  Sites update in a deterministic
checkerboard order with one uniform per site, so a sweep is a pure
function of the configuration and the random stream, and chains started
from ordered states stay ordered under shared uniforms.  That monotonicity
drives the exact coupling-from-the-past sampler for Lipschitz potentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .errors import EmptySupport, NoCoalescence, NonMonotoneCoupling, StateSpaceTooLarge
from .feasibility import (
    _local_energy,
    _neighbor_terms,
    _region_graph,
    _torus_energy,
    _torus_frame,
    _value_windows,
    torus_info,
)
from .heights import HeightConfig
from .lattice import Vertex
from .potential import INF, PeriodicPotential, QuadraticPotential
from .rng import RngStream

_TAIL = 1e-15  # relative tail mass cutoff for unbounded discrete supports


# ---------------------------------------------------------------------------
# Site conditionals


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite table over integer heights, ordered ascending."""

    support: tuple[int, ...]
    probs: tuple[float, ...]

    def quantile(self, u: float) -> int:
        acc = 0.0
        for a, p in zip(self.support, self.probs):
            acc += p
            if u < acc:
                return a
        return self.support[-1]

    def prob(self, a: int) -> float:
        for s, p in zip(self.support, self.probs):
            if s == a:
                return p
        return 0.0


@dataclass(frozen=True)
class GaussianDistribution:
    mean: float
    variance: float

    def quantile(self, u: float) -> float:
        return NormalDist(self.mean, math.sqrt(self.variance)).inv_cdf(u)


@dataclass(frozen=True)
class TabulatedDistribution:
    """Inverse-CDF sampler for a general continuous conditional."""

    xs: tuple[float, ...]
    cdf: tuple[float, ...]

    def quantile(self, u: float) -> float:
        lo, hi = 0, len(self.xs) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.cdf[mid] <= u:
                lo = mid
            else:
                hi = mid
        c0, c1 = self.cdf[lo], self.cdf[hi]
        if c1 <= c0:
            return self.xs[lo]
        t = (u - c0) / (c1 - c0)
        return self.xs[lo] + t * (self.xs[hi] - self.xs[lo])


def site_conditional(pot: PeriodicPotential, config, x: Vertex, boundary=None):
    """Exact single-site conditional at x given its current neighbors.

    Discrete domains get an explicit table; quadratic continuous potentials
    a Gaussian; general continuous potentials a quadrature-tabulated
    inverse CDF.  Raises EmptySupport for inadmissible neighborhoods.
    """
    values, torus = _lookup(config, boundary)
    return _site_dist(pot, values, x, torus)


def _lookup(config, boundary):
    if isinstance(config, HeightConfig):
        values = dict(config.values)
        torus = config.torus
    else:
        values = dict(config)
        torus = None
    if boundary:
        values.update(boundary)
    return values, torus


def _feasible_window(terms):
    lo, hi = -INF, INF
    for pot, h, orient in terms:
        slo, shi = pot.support()
        if orient > 0:  # h - a in [slo, shi]
            lo, hi = max(lo, h - shi), min(hi, h - slo)
        else:  # a - h in [slo, shi]
            lo, hi = max(lo, h + slo), min(hi, h + shi)
    return lo, hi


def _discrete_conditional(terms) -> DiscreteDistribution:
    lo, hi = _feasible_window(terms)
    if lo > hi:
        raise EmptySupport("no height has finite energy")
    if lo > -INF and hi < INF:
        candidates = range(int(math.ceil(lo)), int(math.floor(hi)) + 1)
        energies = {a: _local_energy(terms, a) for a in candidates}
        energies = {a: e for a, e in energies.items() if e < INF}
        if not energies:
            raise EmptySupport("no height has finite energy")
    else:
        energies = _scan_unbounded(terms, lo, hi)
    support = sorted(energies)
    emin = min(energies.values())
    weights = [math.exp(-(energies[a] - emin)) for a in support]
    total = sum(weights)
    return DiscreteDistribution(tuple(support), tuple(w / total for w in weights))


def _scan_unbounded(terms, lo, hi):
    """Scan outward from the local-energy argmin until the tail is negligible.

    Superlinear convex potentials give geometric tails, so the scan stops
    once a term falls below the relative cutoff.
    """
    center = round(sum(t[1] for t in terms) / len(terms))
    a0 = min(max(center, lo if lo > -INF else center), hi if hi < INF else center)
    a0 = int(a0)
    # walk downhill to the integer argmin (convex local energy)
    e0 = _local_energy(terms, a0)
    while _local_energy(terms, a0 + 1) < e0:
        a0 += 1
        e0 = _local_energy(terms, a0)
    while _local_energy(terms, a0 - 1) < e0:
        a0 -= 1
        e0 = _local_energy(terms, a0)
    if e0 == INF:
        raise EmptySupport("no height has finite energy")
    energies = {a0: e0}
    cut = e0 - math.log(_TAIL)
    a = a0 + 1
    while a <= hi:
        e = _local_energy(terms, a)
        if e > cut:
            break
        energies[a] = e
        a += 1
    a = a0 - 1
    while a >= lo:
        e = _local_energy(terms, a)
        if e > cut:
            break
        energies[a] = e
        a -= 1
    return energies


def _tabulated_conditional(terms, num_points: int = 1025) -> TabulatedDistribution:
    lo, hi = _feasible_window(terms)
    if lo > hi:
        raise EmptySupport("no height has finite energy")
    if lo == -INF or hi == INF:
        center = sum(t[1] for t in terms) / len(terms)
        span = 1.0
        cut = -math.log(_TAIL)
        base = _local_energy(terms, center)
        while span < 1e9 and (
            _local_energy(terms, center - span) - base < cut
            or _local_energy(terms, center + span) - base < cut
        ):
            span *= 2
        lo = max(lo, center - span)
        hi = min(hi, center + span)
    xs = [lo + (hi - lo) * i / (num_points - 1) for i in range(num_points)]
    es = [_local_energy(terms, x) for x in xs]
    emin = min(es)
    ws = [math.exp(-(e - emin)) if e < INF else 0.0 for e in es]
    cdf = [0.0]
    for i in range(num_points - 1):
        cdf.append(cdf[-1] + 0.5 * (ws[i] + ws[i + 1]) * (xs[i + 1] - xs[i]))
    total = cdf[-1]
    if total <= 0:
        raise EmptySupport("conditional has zero mass")
    return TabulatedDistribution(tuple(xs), tuple(c / total for c in cdf))


# ---------------------------------------------------------------------------
# Sweeps


def checkerboard_order(sites) -> list[Vertex]:
    """Even sublattice first, then odd; deterministic within each color."""
    return sorted(sites, key=lambda v: ((v[0] + v[1]) % 2, v))


def random_scan_order(sites, rng) -> list[Vertex]:
    """A random permutation of the sites (the non-default scan)."""
    sites = sorted(sites)
    perm = rng.permutation(len(sites))
    return [sites[i] for i in perm]


def heat_bath_sweep(pot, config: HeightConfig, boundary=None, order=None, uniforms=None, rng=None) -> HeightConfig:
    """Resample every site in order from its exact conditional.

    ``uniforms`` (one per site, in order) may be passed directly for
    coupled chains; otherwise they are drawn from ``rng``.
    """
    out = config.copy()
    if order is None:
        order = checkerboard_order(out.values.keys() - (set(boundary) if boundary else set()))
        if out.torus is not None:
            order = [v for v in order if v != out.reference]
    if uniforms is None:
        uniforms = rng.random(len(order))
    values, torus = _lookup(out, boundary)
    for u, x in zip(uniforms, order):
        dist = _site_dist(pot, values, x, torus)
        values[x] = dist.quantile(u)
    for x in order:
        out.values[x] = values[x]
    return out


def _site_dist(pot, values, x, torus):
    terms = _neighbor_terms(pot, values, x, torus)
    if not terms:
        raise EmptySupport(f"site {x} has no assigned neighbors")
    if pot.discrete:
        return _discrete_conditional(terms)
    if all(isinstance(t[0], QuadraticPotential) for t in terms):
        coeff = sum(t[0].coeff for t in terms)
        mean = sum(t[0].coeff * t[1] for t in terms) / coeff
        return GaussianDistribution(mean=mean, variance=1.0 / (2.0 * coeff))
    return _tabulated_conditional(terms)


# ---------------------------------------------------------------------------
# Torus sampling


def torus_sample(pot, n: int, slope, sweeps: int, rng: RngStream) -> HeightConfig:
    """Heat-bath sample of the slope homology class on the n-torus.

    Starts from the finite-energy surface of ``_torus_start`` and sweeps the
    pinned periodic part; wrap increments carry the class's holonomy, so
    single-site updates never leave the class.
    """
    config, order = _torus_start(pot, n, slope)
    for t in range(sweeps):
        config = heat_bath_sweep(pot, config, order=order, rng=rng.at(t))
    return config.pin()


def _torus_start(pot, n: int, slope) -> tuple[HeightConfig, list[Vertex]]:
    """A finite-energy surface of the slope class and the checkerboard order
    of its free (non-reference) sites: the start of every torus chain.

    Each vertex starts at floor((max ext + min ext) / 2), the midpoint of
    its height window, which keeps every increment within its integer
    bounds; raises Infeasible for an empty class.  Potentials that are not
    discrete Lipschitz start from the plane u.x, rounded down on integer
    heights, and raise StateSpaceTooLarge if it has infinite energy.
    """
    try:
        info, windows, _, _ = _torus_frame(pot, n, slope)
        values = {v: w[(len(w) - 1) // 2] for v, w in windows.items()}
    except StateSpaceTooLarge:
        info = torus_info(pot, n, slope)
        level = math.floor if pot.discrete else float
        values = {(i, j): level(info.slope[0] * i + info.slope[1] * j) for i in range(n) for j in range(n)}
        if _torus_energy(pot, HeightConfig(values, reference=(0, 0), torus=info)) == INF:
            raise
    config = HeightConfig(values, reference=(0, 0), torus=info)
    order = checkerboard_order([v for v in values if v != config.reference])
    return config, order


# ---------------------------------------------------------------------------
# Exact sampling by coupling from the past


def cftp_sample(pot, region, boundary, rng: RngStream, max_epochs: int = 22) -> HeightConfig:
    """Perfect sample from the finite-region Gibbs kernel.

    Monotone CFTP: coupled maximal and minimal chains share uniforms from
    counter-addressed past epochs (1, 2, 4, ... sweeps back) until they
    coalesce at time zero.  Requires a discrete Lipschitz potential with
    convex edge potentials; chains that cross raise NonMonotoneCoupling.
    """
    region = sorted(region)
    windows = _value_windows(pot, _region_graph(pot, region, boundary), boundary, region)
    order = checkerboard_order(region)
    span = 1
    while max_epochs >= 0 and span <= (1 << max_epochs):
        top = {v: windows[v][-1] for v in region}
        bot = {v: windows[v][0] for v in region}
        for t in range(-span, 0):
            us = rng.at(t).random(len(order))
            _coupled_sweep(pot, order, boundary, top, bot, us)
        if top == bot:
            values = dict(boundary)
            values.update(top)
            return HeightConfig(values, reference=region[0])
        span *= 2
    raise NoCoalescence(max_epochs)


def _coupled_sweep(pot, order, boundary, top, bot, uniforms):
    vt, _ = _lookup(top, boundary)
    vb, _ = _lookup(bot, boundary)
    for u, x in zip(uniforms, order):
        dt = _site_dist(pot, vt, x, None)
        db = _site_dist(pot, vb, x, None)
        vt[x] = dt.quantile(u)
        vb[x] = db.quantile(u)
        if vb[x] > vt[x]:
            raise NonMonotoneCoupling(f"coupled chains crossed at site {x}")
    for x in order:
        top[x] = vt[x]
        bot[x] = vb[x]


# ---------------------------------------------------------------------------
# Random rounding


def random_round(config: HeightConfig, rng) -> HeightConfig:
    """floor(phi + eps) with one shared uniform eps; gradients move by <= 1."""
    eps = float(rng.random())
    values = {v: math.floor(h + eps) for v, h in config.values.items()}
    return HeightConfig(values, config.reference, config.torus)
