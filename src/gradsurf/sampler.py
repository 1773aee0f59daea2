"""Heat-bath Gibbs sampling on regions and slope-constrained tori.

Single-site conditionals are computed exactly: a finite table in the
discrete case, closed-form Gaussians for quadratic potentials, and a
tabulated inverse CDF otherwise.  Sites update in a deterministic
checkerboard order with one uniform per site, so a sweep is a pure
function of the configuration and the random stream, and chains started
from ordered states stay ordered under shared uniforms.  That monotonicity
drives the exact coupling-from-the-past sampler for Lipschitz potentials.

Discrete Lipschitz chains compute each site conditional once.  A gradient
potential's conditional depends only on the neighbors' edge classes,
orientations and heights relative to their minimum m, so it is memoized on
the potential under that key and a site draws m + quantile(u).  Shifting
all heights by the integer m changes no argument passed to an edge
potential, so energies, their summation order and the probabilities are
bit-for-bit those of ``site_conditional``, and outputs do not change.  The
memos live as long as the potential.  Which code runs:

- Torus chains with integer heights at every site (``torus_sample``, and
  ``heat_bath_sweep`` on a torus config, as thermodynamic integration and
  variance profiles call it) sweep on the potential's ``TorusPlan``.  Its
  wave schedule puts each site in a later wave than every neighbor that
  precedes it in the order, so the sites of a wave share no edge and
  updating wave by wave equals updating in order.  A wave is one numpy
  step (``_sweep_waves``): each site finds its conditional's running sums
  in a table filled by ``_discrete_conditional`` and draws the first
  support value whose sum exceeds u, the value ``quantile`` returns from
  the same sums.
- Region chains with integer heights (CFTP, region ``sample``) read the
  memo site by site through a ``_SiteTable``.
- Chains with non-integer heights, continuous domains and unbounded
  increments (whose scan starts from a rounded mean, which a shift can
  move) use ``site_conditional``'s code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from statistics import NormalDist

import numpy as np

from .errors import EmptySupport, NoCoalescence, NonMonotoneCoupling, StateSpaceTooLarge
from .feasibility import (
    _local_energy,
    _neighbor_slots,
    _neighbor_terms,
    _region_graph,
    _torus_energy,
    _torus_frame,
    _torus_plan,
    _value_windows,
    torus_info,
)
from .heights import HeightConfig
from .lattice import Vertex, checkerboard_order
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


def random_scan_order(sites, rng) -> list[Vertex]:
    """A random permutation of the sites (the non-default scan)."""
    sites = sorted(sites)
    perm = rng.permutation(len(sites))
    return [sites[i] for i in perm]


def heat_bath_sweep(pot, config: HeightConfig, boundary=None, order=None, uniforms=None, rng=None) -> HeightConfig:
    """Resample every site in order from its exact conditional.

    ``uniforms`` (one per site, in order) may be passed directly for
    coupled chains; otherwise they are drawn from ``rng``.  Torus configs
    that ``_sweep_plan`` accepts sweep wave by wave on the torus plan.
    """
    out = config.copy()
    if order is None:
        order = checkerboard_order(out.values.keys() - (set(boundary) if boundary else set()))
        if out.torus is not None:
            order = [v for v in order if v != out.reference]
    if uniforms is None:
        uniforms = rng.random(len(order))
    found = _sweep_plan(pot, out, boundary, order)
    if found is not None:
        plan, waves, table = found
        heights = np.array([out.values[v] for v in plan.sites], dtype=np.int64)
        _sweep_waves(table, waves, heights, uniforms)
        for v, h in zip(plan.sites, heights.tolist()):
            out.values[v] = h
        return out
    values, torus = _lookup(out, boundary)
    draw, steps = _site_draws(pot, order, values, torus, uniforms)
    for u, x, site in steps:
        values[x] = draw(values, site, u)
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


class _SiteTable(tuple):
    """A region site order that carries, per site, what a sweep reads: the
    neighbor keys and the neighbors' edge classes and orientations.  Built
    once per CFTP sample.

    ``rows[i]`` is (site, neighbor keys, ((edge class, orientation), ...),
    signature), where the signature is a string naming the classes and
    orientations, cheap to hash as part of a memo key.  Equal class tuples
    are stored once, and neighbor keys are the config's own vertex tuples,
    which keeps large tables small.
    """

    def __new__(cls, pot, order, keys):
        self = super().__new__(cls, order)
        self.lattice = pot.lattice
        vertex = {v: v for v in keys}
        shared_classes = {}
        rows = []
        for x in self:
            slots = _neighbor_slots(x, keys, None)
            nbrs = tuple(vertex[key] for key, _, _, _ in slots)
            classes = tuple((pot.edge_class(edge), orient) for _, _, edge, orient in slots)
            classes, signature = shared_classes.setdefault(classes, (classes, repr(classes)))
            rows.append((x, nbrs, classes, signature))
        self.rows = tuple(rows)
        return self


def _site_table(pot, order, values, torus):
    """The order as a _SiteTable when the memoized region conditionals
    apply, else None: a region (tori sweep on their plan), a discrete
    Lipschitz potential, integer heights and a height at every site.  A
    table built for the same period is reused."""
    if torus is not None or not (pot.discrete and pot.is_lipschitz()) or set(map(type, values.values())) != {int}:
        return None
    if isinstance(order, _SiteTable) and order.lattice == pot.lattice:
        return order
    if not values.keys() >= set(order):
        return None
    return _SiteTable(pot, order, values)


def _site_draws(pot, order, values, torus, uniforms):
    """(draw, steps) for one sweep: steps yields (uniform, site, key) in
    order and draw(values, key, u) is the site's new height, read from the
    memoized conditionals when ``_site_table`` applies and from
    ``site_conditional``'s code otherwise."""
    table = _site_table(pot, order, values, torus)
    if table is None:
        return (lambda vals, x, u: _site_dist(pot, vals, x, torus).quantile(u)), zip(uniforms, order, order)
    memo = pot._memo("_site_conditionals")
    pots = pot.class_potentials

    def draw(vals, row, u):
        # the conditional of the heights minus m, keyed by the signature
        x, nbrs, classes, signature = row
        if not nbrs:
            raise EmptySupport(f"site {x} has no assigned neighbors")
        hs = [vals[key] for key in nbrs]
        m = min(hs)
        key = (signature, *[h - m for h in hs])
        dist = memo.get(key)
        if dist is None:
            dist = _discrete_conditional([(pots[c], h - m, orient) for (c, orient), h in zip(classes, hs)])
            memo[key] = dist
        return m + dist.quantile(u)

    return draw, zip(_floats(uniforms), table, table.rows)


def _floats(uniforms):
    """Uniforms as Python floats (same values), which compare faster."""
    return uniforms.tolist() if hasattr(uniforms, "tolist") else uniforms


# ---------------------------------------------------------------------------
# Torus sweeps on the plan


class _ConditionalTable:
    """CDF rows of a potential's discrete site conditionals on tori, each
    filled by ``_discrete_conditional`` the first time its key occurs.

    A key packs a site's index modulo the period lattice (which fixes its
    slot edge classes) and its neighbors' effective heights minus their
    minimum m, in base B = floor(2R) + 1 with R the largest increment
    bound: a larger spread leaves no height with finite energy.  ``row_of``
    maps every key to its row, or -1 before the first fill.  Row r holds
    the conditional's support minus m in ``vals`` and, in ``cdf``, the
    running sums ``DiscreteDistribution.quantile`` forms, with the last
    one and the padding set to +inf: the first entry above u is then at
    the index ``quantile`` returns.
    """

    def __init__(self, pot, size):
        lat = pot.lattice
        self.slots = []
        for r in lat.fundamental_domain():
            classes = ((0, r), (0, lat.reduce((r[0] - 1, r[1]))), (1, r), (1, lat.reduce((r[0], r[1] - 1))))
            self.slots.append([(pot.class_potentials[c], orient) for c, orient in zip(classes, (1, -1, 1, -1))])
        self.base = _table_base(pot)
        self.powers = self.base ** np.arange(4, dtype=np.int64)
        self.row_of = np.full(size, -1, dtype=np.int64)
        self.count = 0
        self.vals = np.zeros((16, self.base), dtype=np.int64)
        self.cdf = np.full((16, self.base), INF)

    def rows(self, sig, rel):
        """Rows of the conditionals of the given sites (``sig``) and
        relative heights; raises EmptySupport where no height has finite
        energy."""
        if rel.max(initial=0) >= self.base:
            raise EmptySupport("no height has finite energy")
        key = sig * self.base**4 + rel @ self.powers
        rows = self.row_of[key]
        if rows.min(initial=0) < 0:
            missing = rows < 0
            self._fill(key[missing], sig[missing], rel[missing])
            rows = self.row_of[key]
        return rows

    def _fill(self, key, sig, rel):
        fresh, first = np.unique(key, return_index=True)
        end = self.count + len(fresh)
        if end > len(self.cdf):
            grow = max(end, 2 * len(self.cdf)) - len(self.cdf)
            self.vals = np.concatenate([self.vals, np.zeros((grow, self.base), dtype=np.int64)])
            self.cdf = np.concatenate([self.cdf, np.full((grow, self.base), INF)])
        for r, i in enumerate(first.tolist(), start=self.count):
            terms = [(v, h, orient) for (v, orient), h in zip(self.slots[sig[i]], rel[i].tolist())]
            dist = _discrete_conditional(terms)
            k = len(dist.support)
            self.vals[r, :k] = dist.support
            self.cdf[r, : k - 1] = list(accumulate(dist.probs))[:-1]
        self.row_of[fresh] = np.arange(self.count, end)
        self.count = end


def _table_base(pot) -> int:
    return math.floor(2 * max(max(abs(b) for b in p.support()) for p in pot.class_potentials.values())) + 1


_TABLE_LIMIT = 1 << 20  # keys of one conditional table (8 MB of row numbers)


def _conditional_table(pot) -> _ConditionalTable | None:
    """The potential's table; None unless the potential is discrete
    Lipschitz with at most _TABLE_LIMIT keys (increment bounds in the tens
    exceed it; such chains use the reference code)."""
    memo = pot._memo("_torus_conditionals")
    if "table" not in memo:
        size = pot.lattice.index * _table_base(pot) ** 4 if pot.discrete and pot.is_lipschitz() else INF
        memo["table"] = _ConditionalTable(pot, size) if size <= _TABLE_LIMIT else None
    return memo["table"]


def _sweep_plan(pot, config, boundary, order):
    """(plan, waves, table) when a sweep of ``order`` runs on the torus
    plan: a potential with a conditional table and a torus config, whose
    side is a multiple of the period, with an integer height at every
    torus site and no boundary; else None.  On the 1-torus only the empty
    order qualifies (its one site has no neighbor)."""
    info = config.torus
    if info is None or boundary or (info.n == 1 and order):
        return None
    table = _conditional_table(pot)
    if table is None or len(config.values) != info.n**2 or set(map(type, config.values.values())) != {int}:
        return None
    plan = _torus_plan(pot, info)
    if not plan.periodic or config.values.keys() != plan.index.keys():
        return None
    if order is plan.order or tuple(order) == plan.order:
        return plan, plan.waves, table
    try:
        return plan, plan.wave_schedule(order), table
    except KeyError:
        return None


def _sweep_waves(table, waves, heights, uniforms):
    """One heat-bath sweep of the int64 ``heights``, wave by wave: each site
    draws m + (the conditional's support minus m)[first running sum > u],
    the first support value whose running sum exceeds u, as
    ``DiscreteDistribution.quantile`` returns from the same sums.  So the
    sweep equals the site-by-site one."""
    us = np.asarray(uniforms, dtype=np.float64)
    for pos, sites, nbr, shift, sig in waves:
        hs = heights[nbr] + shift
        m = hs.min(axis=1)
        rows = table.rows(sig, hs - m[:, None])
        pick = (table.cdf[rows] > us[pos, None]).argmax(axis=1)
        heights[sites] = m + table.vals[rows, pick]


def torus_sample(pot, n: int, slope, sweeps: int, rng: RngStream) -> HeightConfig:
    """Heat-bath sample of the slope homology class on the n-torus.

    Starts from the finite-energy surface of ``_torus_start`` and sweeps the
    pinned periodic part; wrap increments carry the class's holonomy, so
    single-site updates never leave the class.
    """
    chain = _TorusChain(pot, n, slope)
    for t in range(sweeps):
        chain.sweep(rng.at(t).random(len(chain.order)))
    return chain.config().pin()


class _TorusChain:
    """A torus chain from the start of ``_torus_start``, as torus sampling,
    thermodynamic integration and variance profiles run it.  When
    ``_sweep_plan`` accepts the start, the heights stay in one int64 array
    swept on the plan; otherwise a config is swept by ``heat_bath_sweep``.
    """

    def __init__(self, pot, n: int, slope):
        self.pot = pot
        self.start, self.order = _torus_start(pot, n, slope)
        found = _sweep_plan(pot, self.start, None, self.order)
        self.plan = self.current = None
        if found is None:
            self.current = self.start
        else:
            self.plan, self.waves, _ = found
            self.heights = np.array([self.start.values[v] for v in self.plan.sites], dtype=np.int64)

    def sweep(self, uniforms, pot=None) -> None:
        """One sweep of the order with the given uniforms, under ``pot``
        (default the chain's potential; another must have the same period
        lattice and increment bounds, as a rescaled potential has)."""
        pot = self.pot if pot is None else pot
        if self.plan is None:
            self.current = heat_bath_sweep(pot, self.current, order=self.order, uniforms=uniforms)
        else:
            _sweep_waves(_conditional_table(pot), self.waves, self.heights, uniforms)

    def config(self) -> HeightConfig:
        if self.plan is None:
            return self.current.copy()
        values = dict(zip(self.plan.sites, self.heights.tolist()))
        return HeightConfig(values, reference=self.start.reference, torus=self.start.torus)

    def energy(self) -> float:
        """``_torus_energy`` of the current heights under the chain's
        potential: the same edge energies added in the same order (sites in
        sorted order, axis 0 before axis 1)."""
        if self.plan is None:
            return _torus_energy(self.pot, self.current)
        lo, table = _edge_energies(self.pot)
        plan, width = self.plan, table.shape[2]
        inc = self.heights[plan.nbr[:, 0::2]] + plan.shift[:, 0::2] - self.heights[:, None] - lo
        inside = (inc >= 0) & (inc < width)
        energies = np.where(inside, table[[0, 1], plan.sig[:, None], np.clip(inc, 0, width - 1)], INF)
        total = 0.0
        for e in energies.ravel().tolist():
            total += e
        return total


def _edge_energies(pot):
    """(lo, table): table[axis, r, i - lo] is the energy of the edge class
    (axis, r-th fundamental-domain vertex) at increment i, for i from the
    least to the greatest increment bound of a discrete Lipschitz potential."""
    memo = pot._memo("_edge_energies")
    if "table" not in memo:
        pots = [[pot.class_potentials[(axis, r)] for r in pot.lattice.fundamental_domain()] for axis in (0, 1)]
        lo = min(int(p.support()[0]) for row in pots for p in row)
        hi = max(int(p.support()[1]) for row in pots for p in row)
        memo["table"] = lo, np.array([[[p(k) for k in range(lo, hi + 1)] for p in row] for row in pots])
    return memo["table"]


def _torus_start(pot, n: int, slope) -> tuple[HeightConfig, tuple]:
    """A finite-energy surface of the slope class and the checkerboard order
    of its free (non-reference) sites: the start of every torus chain.

    Each vertex starts at floor((max ext + min ext) / 2), the midpoint of
    its height window, which keeps every increment within its integer
    bounds; raises Infeasible for an empty class.  Potentials that are not
    discrete Lipschitz start from the plane u.x, rounded down on integer
    heights, and raise StateSpaceTooLarge if it has infinite energy.  The
    start is built once per plan; each call returns a fresh config.
    """
    info = torus_info(pot, n, slope)
    plan = _torus_plan(pot, info)
    if plan.start is None:
        try:
            _, windows, _, _ = _torus_frame(pot, n, slope)
            values = {v: w[(len(w) - 1) // 2] for v, w in windows.items()}
        except StateSpaceTooLarge:
            level = math.floor if pot.discrete else float
            values = {(i, j): level(info.slope[0] * i + info.slope[1] * j) for i in range(n) for j in range(n)}
            if _torus_energy(pot, HeightConfig(values, reference=(0, 0), torus=info)) == INF:
                raise
        plan.start = tuple(values.items())
    return HeightConfig(dict(plan.start), reference=(0, 0), torus=info), plan.order


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
    order = _site_table(pot, order, {**boundary, **{v: windows[v][0] for v in region}}, None) or order
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
    draw, steps = _site_draws(pot, order, vt, None, uniforms)
    for u, x, site in steps:
        vt[x] = draw(vt, site, u)
        vb[x] = draw(vb, site, u)
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
