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
orientations and heights relative to their minimum m, so it is kept in a
table on the potential under that key and a site draws m + quantile(u).
Shifting all heights by the integer m changes no argument passed to an edge
potential, so energies, their summation order and the probabilities are
bit-for-bit those of ``site_conditional``, and outputs do not change.  A
table fills the rows of all fresh keys of a lookup in one numpy pass
(``_ConditionalTable._fill``) from per-slot energy rows looked up once in
``_energy_table``; ``_discrete_conditional`` computes conditionals only for
chains without a table and is the oracle the fill is tested against.
Which code runs: every heat-bath chain is a ``_Chain``, which asks
``_sweep_plan`` once (``torus_sample``, thermodynamic integration, variance
profiles, region ``sample`` and CFTP keep one chain for all their sweeps,
and ``heat_bath_sweep`` is one sweep of a new chain).  A ``_Chain`` keeps
K rows of heights in one (K, N) array; row k sweeps with row k of the
uniforms and never reads another row.
Thermodynamic integration runs its 21 beta chains as rows: a site of row k
reads only row k's heights, its own uniform (the one its beta chain would
draw alone) and the conditional rows of its potential, which one table
over the 21 potentials fills as each potential's own table would (a key
that one chain meets is filled for all 21 at once), and each row's energy
adds the same edge energies in the same order.  So every output equals that of the per-beta
loop.  Every other route runs its rows under one potential.

- Chains with integer heights sweep them as int64 on the potential's
  ``Plan`` of the torus or region.  Its wave schedule puts each site in a
  later wave than every neighbor that precedes it in the order, so the
  sites of a wave share no edge and updating wave by wave equals updating
  in order.  A wave is one numpy step (``_sweep_waves``) over all rows, on
  the schedule repeated for each row (``_copied_waves``): each site draws
  the first support value whose running sum, from the chain's
  ``_ConditionalTable``, exceeds u, as ``quantile`` does.
- Other chains keep Python heights and sweep each row as a dict with
  ``site_conditional``'s code: non-integer heights, continuous domains,
  unbounded increments (whose scan starts from a rounded mean, which a
  shift can move), tables over ``_TABLE_LIMIT`` keys and region sites with
  a neighbor outside region | boundary.
- CFTP (``cftp_samples``) sweeps the top and bottom chains of many samples
  as the rows of one chain, a sample's uniform row repeated for its two
  rows; ``cftp_sample`` is its one-stream case.  A sweep that raises is
  replayed site by site (``_replay``).  Each (stream, time) row of
  uniforms is drawn once: an epoch of span 2S draws only times [-2S, -S),
  by one ``rng.block`` call per slice (``_uniform_rows``), equal to the
  per-row ``at`` draws, and replays the rows of [-S, 0) the epoch before
  kept, where they fit in _CFTP_HEIGHTS doubles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import rng as _rng
from .errors import EmptySupport, GradsurfError, NoCoalescence, NonMonotoneCoupling, NotErgodic, StateSpaceTooLarge
from .feasibility import (
    _energy_table,
    _fundamental_torus_steps,
    _InArcs,
    _integer_weights,
    _local_energy,
    _neighbor_terms,
    _region_plan,
    _region_windows,
    _torus_energy,
    _torus_frame,
    _torus_plan,
    _torus_side_fits,
    _wave_schedule,
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
    """A new dict of the config's heights and the boundary's, and the torus."""
    if isinstance(config, HeightConfig):
        return {**config.values, **(boundary or {})}, config.torus
    return {**config, **(boundary or {})}, None


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
    """Resample every site in order from its exact conditional, with the
    ``uniforms`` (one per site, in order) or with draws from ``rng``: one
    sweep of a new ``_Chain``."""
    chain = _Chain(pot, config, boundary, order)
    chain.sweep([rng.random(len(chain.order)) if uniforms is None else uniforms])
    return chain.config()


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
# Sweeps on a plan


class _ConditionalTable:
    """CDF rows of the discrete site conditionals of K potentials that share
    a period lattice, increment bounds and finite entries, filled by one
    numpy pass (``_fill``) over the fresh keys of a lookup.

    A key packs a site's cell (its index modulo the period lattice, which
    fixes its slot edge classes) and its neighbors' effective heights minus
    their minimum m, in base B = floor(2R) + 1 with R the largest increment
    bound: a larger spread leaves no height with finite energy.  ``row_of``
    maps every key to the first of its K rows, which lie side by side and
    are filled together, or -1 before the first fill; a lookup for the k-th
    potential passes the cell plus k times the lattice index and reads row
    ``row_of[key] + k``.  So the table holds at most index * B^4 keys for
    any K.  Row r holds the conditional's support minus m at the front of
    ``vals`` and, in ``cdf``, the running sums
    ``DiscreteDistribution.quantile`` forms, with the last one and the
    padding set to +inf: the first entry above u is then at the index
    ``quantile`` returns.

    The support minus m lies in ``grid``, the integers of [-R, R], as the
    neighbor at m allows no other.  ``energies`` holds, per (cell, slot,
    relative neighbor height), the slot's energy at each grid height for
    the K potentials, looked up once in their ``_energy_table``; slots come
    in the order +e1, -e1, +e2, -e2 of ``_neighbor_slots``.
    """

    _AXIS, _ORIENT = np.array([0, 0, 1, 1])[:, None, None], np.array([1, -1, 1, -1])[:, None, None]

    def __init__(self, pots, base):
        lat = pots[0].lattice
        domain = lat.fundamental_domain()
        classes = np.array([[k, lat.cell(i - 1, j), k, lat.cell(i, j - 1)] for k, (i, j) in enumerate(domain)])
        half = (base - 1) // 2
        self.grid = np.arange(-half, half + 1, dtype=np.int64)
        # the slot's increment: the neighbor's height minus the site's on
        # +e slots, the site's minus the neighbor's on -e slots
        inc = self._ORIENT * (np.arange(base)[:, None] - self.grid)
        energies = []
        for pot in pots:
            lo, table = _energy_table(pot)
            at = np.minimum(np.maximum(1 + inc - lo, 0), table.shape[2] - 1)
            energies.append(table[self._AXIS, classes[..., None, None], at])
        energies = np.stack(energies, axis=3)
        if ((energies < INF) != (energies[..., :1, :] < INF)).any():
            raise ValueError("the potentials of one conditional table must share their finite entries")
        self.energies = energies.reshape(len(domain) * 4 * base, -1)
        self.base, self.width = base, len(pots)
        self.span = base**4
        self.powers = base ** np.arange(4, dtype=np.int64)
        self.slot_offsets = np.arange(4) * base
        self.row_of = np.full(len(domain) * self.span, -1, dtype=np.int64)
        self.count = 0
        self.vals = np.zeros((16, len(self.grid)), dtype=np.int64)
        self.cdf = np.full((16, len(self.grid)), INF)

    def rows(self, sig, rel):
        """Rows of the conditionals of the given sites (``sig``) and
        relative heights; raises EmptySupport where no height has finite
        energy."""
        if rel.max(initial=0) >= self.base:
            raise EmptySupport("no height has finite energy")
        key = sig * self.span + rel @ self.powers
        copy = 0
        if self.width > 1:
            copy, key = np.divmod(key, len(self.row_of))
        rows = self.row_of[key]
        if rows.min(initial=0) < 0:
            missing = rows < 0
            self._fill(key[missing], rel[missing])
            rows = self.row_of[key]
        return rows + copy

    def _fill(self, key, rel):
        """Fill the K rows of every distinct key at once, each as
        ``_discrete_conditional`` forms it, bit for bit: each grid height
        adds its four slot energies from 0.0 in slot order, as
        ``_local_energy`` does (an infinite one keeps the sum infinite, and
        no other height has finite energy); the finite heights, moved in
        ascending order to the front of the row, are the support, weighted
        by ``math.exp(-(e - emin))`` (0.0 at an infinite energy); the total
        and the running sums are sequential ``np.add.accumulate`` sums,
        where those +0.0 change no sum.  The K potentials share their finite
        entries, so a key without a finite-energy height has none for any
        of them."""
        fresh, first = np.unique(key, return_index=True)
        at = (fresh // self.span * 4 * self.base)[:, None] + self.slot_offsets + rel[first]
        terms = self.energies[at]
        energy = 0.0 + terms[:, 0]
        for slot in (1, 2, 3):
            energy += terms[:, slot]
        energy = energy.reshape(-1, len(self.grid))
        finite = energy < INF
        count = finite.sum(axis=1)
        if not count.all():
            raise EmptySupport("no height has finite energy")
        support = np.argsort(~finite, axis=1, kind="stable")
        energy = energy[np.arange(len(energy))[:, None], support]
        weights = np.array(list(map(math.exp, (-(energy - energy.min(axis=1)[:, None])).ravel().tolist()))).reshape(energy.shape)
        sums = np.add.accumulate(weights / np.add.accumulate(weights, axis=1)[:, -1:], axis=1)
        sums[np.arange(len(self.grid)) >= count[:, None] - 1] = INF
        end = self.count + len(energy)
        if end > len(self.cdf):
            grow = max(end, 2 * len(self.cdf)) - len(self.cdf)
            self.vals = np.concatenate([self.vals, np.zeros((grow, len(self.grid)), dtype=np.int64)])
            self.cdf = np.concatenate([self.cdf, np.full((grow, len(self.grid)), INF)])
        self.vals[self.count : end] = self.grid[support]
        self.cdf[self.count : end] = sums
        self.row_of[fresh] = np.arange(self.count, end, self.width)
        self.count = end


_TABLE_LIMIT = 1 << 20  # keys of one conditional table (8 MB of row numbers)


def _table_base(pot) -> int | None:
    """The key base B of the potential's conditional tables; None unless
    the potential is discrete Lipschitz with at most _TABLE_LIMIT keys
    (increment bounds in the tens exceed it; such chains use the reference
    code).  The limit holds for a table over K copies too, as their rows
    share keys."""
    memo = pot._memo("_conditionals")
    if "base" not in memo:
        base = None
        if pot.discrete and pot.is_lipschitz():
            base = math.floor(2 * max(max(abs(b) for b in p.support()) for p in pot.class_potentials.values())) + 1
            if pot.lattice.index * base**4 > _TABLE_LIMIT:
                base = None
        memo["base"] = base
    return memo["base"]


def _conditional_table(pot) -> _ConditionalTable | None:
    """The potential's table, built once; None without a ``_table_base``."""
    memo = pot._memo("_conditionals")
    if "table" not in memo:
        base = _table_base(pot)
        memo["table"] = None if base is None else _ConditionalTable([pot], base)
    return memo["table"]


def _sweep_plan(pot, config, boundary, order):
    """(plan, waves) when a sweep of ``order`` runs on a plan: a potential
    with a ``_table_base``, integer heights on the config and
    the boundary, every site of the order with four neighbors on the plan,
    and either a region config disjoint from the boundary and the order or
    a torus config with a height at every site, no boundary and a side
    that is a positive multiple of the period (on the 1-torus only the
    empty order qualifies: its one site has no neighbor); else None."""
    boundary = boundary or {}
    if _table_base(pot) is None or not {*map(type, config.values.values()), *map(type, boundary.values())} <= {int}:
        return None
    info = config.torus
    if info is None:
        if config.values.keys() & boundary.keys() or not boundary.keys().isdisjoint(order):
            return None
        plan = _region_plan(pot, sorted(config.values), boundary)
    else:
        if boundary or (info.n == 1 and order) or not _torus_side_fits(pot, info.n) or len(config.values) != info.n**2:
            return None
        plan = _torus_plan(pot, info)
        if config.values.keys() != plan.index.keys():
            return None
    try:
        waves = plan.waves if order is plan.order or tuple(order) == plan.order else _wave_schedule(plan, order)
    except KeyError:
        return None
    return None if waves is None else (plan, waves)


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
    start, order = _torus_start(pot, n, slope)
    chain = _Chain(pot, start, order=order)
    for t in range(sweeps):
        chain.sweep([rng.at(t).random(len(order))])
    return chain.config().pin()


class _Chain:
    """Heat-bath rows of ``order`` on ``config`` with the ``boundary``
    heights fixed, as one (K, N) array ``heights`` over ``sites``.  Row k
    sweeps under ``copies[k]``, which share ``pot``'s period lattice and
    increment bounds; without copies there is one row at the start and all
    rows sweep under ``pot``.  The order defaults to the checkerboard order
    of the config's sites outside the boundary, less a torus reference.
    ``_sweep_plan`` is asked once, for ``pot``: on the plan ``heights`` is
    int64 over its sites, swept by one ``_sweep_waves`` call on its waves
    copied for the K rows (``_copied_waves``, kept for fewer rows) and
    one ``_ConditionalTable`` over the copies; off it ``heights`` holds
    objects and each row is swept as a dict with ``site_conditional``'s
    code.  Either way row k sweeps with row k of the uniforms, which CFTP
    repeats for a sample's two rows.  ``config`` is read, never changed."""

    def __init__(self, pot, config: HeightConfig, boundary=None, order=None, copies=None):
        if order is None:
            order = checkerboard_order(config.values.keys() - (set(boundary) if boundary else set()))
            if config.torus is not None:
                order = [v for v in order if v != config.reference]
        self.pot, self.start, self.order, self.copies = pot, config, order, copies
        self.pins = {x: h for x, h in (boundary or {}).items() if x in config.values}
        values, self.torus = _lookup(config, boundary)
        found = _sweep_plan(pot, config, boundary, order)
        self.plan = None
        if found is None:
            # an order site without a height (None) gets one when swept
            self.sites = list({**dict.fromkeys(order), **values})
            self.index = {v: i for i, v in enumerate(self.sites)}
        else:
            self.plan, waves = found
            self.sites, self.index = self.plan.sites, self.plan.index
            self.table = _conditional_table(pot) if copies is None else _ConditionalTable(copies, _table_base(pot))
            # ``schedule``: the last sweep's first ``rows`` rows of ``copied``
            self.waves = self.schedule = self.copied = waves
            self.rows = self.copied_rows = 1
        row = [values.get(v) for v in self.sites]
        self.heights = np.array([row] * (1 if copies is None else len(copies)), dtype=object if found is None else np.int64)

    def sweep(self, uniforms) -> None:
        """One sweep of the order in every row, row k with ``uniforms[k]``
        (one uniform per site of the order)."""
        if self.plan is None:
            for heights, us, pot in zip(self.heights, uniforms, self.copies or itertools.repeat(self.pot)):
                values = {v: h for v, h in zip(self.sites, heights.tolist()) if h is not None}
                for u, x in zip(us, self.order):
                    values[x] = _site_dist(pot, values, x, self.torus).quantile(u)
                heights[:] = [values[v] for v in self.sites]
            return
        rows = len(self.heights)
        if self.rows != rows:
            if rows > self.copied_rows:
                cell = 0 if self.copies is None else self.pot.lattice.index
                self.copied = _copied_waves(self.waves, len(self.sites), len(self.order), rows, cell)
                self.copied_rows = rows
            self.schedule = [[a[: len(a) // self.copied_rows * rows] for a in wave] for wave in self.copied]
            self.rows = rows
        _sweep_waves(self.table, self.schedule, self.heights.reshape(-1), np.asarray(uniforms, dtype=np.float64).reshape(-1))

    def config(self, k: int = 0) -> HeightConfig:
        """The start config with the boundary's heights at the sites it
        re-pins (``pins``) and row k's current heights at the order's
        sites: the heights the sweeps used."""
        values = {**self.start.values, **self.pins}
        heights = self.heights[k].tolist()
        values.update((x, heights[self.index[x]]) for x in self.order)
        return HeightConfig(values, self.start.reference, self.start.torus)

    def energy(self) -> np.ndarray:
        """``_torus_energy`` under ``pot`` of each row's current heights on a
        torus, as K values; on the plan, each row's edge energies added in
        the same order (sites in sorted order, axis 0 before axis 1, left to
        right from 0.0, as ``np.add.accumulate`` adds a row)."""
        if self.plan is None:
            return np.array([_torus_energy(self.pot, self.config(k)) for k in range(len(self.heights))])
        lo, table = _energy_table(self.pot)
        plan, heights = self.plan, self.heights
        inc = heights[:, plan.nbr[:, 0::2]] + plan.shift[:, 0::2] - heights[:, :, None]
        terms = np.zeros((len(heights), 1 + inc[0].size))
        terms[:, 1:] = table[[0, 1], plan.sig[:, None], np.clip(1 + inc - lo, 0, table.shape[2] - 1)].reshape(len(heights), -1)
        return np.add.accumulate(terms, axis=1)[:, -1]


def _check_ergodic(pot, info) -> None:
    """Raise NotErgodic when a cycle of the fundamental-torus steps is tight
    at the torus slope u (weight w - u.disp of 0) and some class potential
    of the discrete Lipschitz ``pot`` is not constant on its support: torus
    sampling, variance profiles and thermodynamic integration ask this once
    before their chains sweep.  At a slope outside the allowed polytope it
    raises nothing, leaving Infeasible to the chain's start.

    Every edge of a tight cycle sits at an increment bound, so no
    single-site move changes a site on it: the chain keeps those sites at
    their start heights, and an average over its sweeps is not one over
    the class.  Where every class is constant on its support, every config
    of the class has the same energy, and the average stays exact.  Scaled
    to integers at a feasible slope, a tight cycle weighs 0 and every other
    cycle at least 1;
    lowering each arc by 1 / (S + 1), with S the steps' vertices, makes the
    tight cycles negative and leaves the others, of at most S arcs,
    positive, so one relaxation finds one."""
    if not (pot.discrete and pot.is_lipschitz()):
        return
    table = _energy_table(pot)[1]
    finite = table < INF
    if (np.where(finite, table, -INF).max(axis=2) == np.where(finite, table, INF).min(axis=2)).all():
        return
    steps, disps = _fundamental_torus_steps(pot)
    u = info.slope
    scaled = _integer_weights(steps, disps)(u)
    found = _InArcs(steps.sites, steps.index, steps.src, ((len(steps.sites) + 1) * scaled - 1).astype(float)).negative_cycle()
    if found is not None and _InArcs(steps.sites, steps.index, steps.src, scaled.astype(float)).negative_cycle() is None:
        raise NotErgodic(
            f"the cycle {found[0]} is tight at slope ({u[0]}, {u[1]}), so single-site moves never change "
            "its sites; a single-site chain needs a slope inside the allowed polytope"
        )


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


_CFTP_HEIGHTS = 1 << 14  # chain heights of one CFTP batch (128 kB per array)


def cftp_sample(pot, region, boundary, rng: RngStream, max_epochs: int = 22) -> HeightConfig:
    """Perfect sample from the finite-region Gibbs kernel: ``cftp_samples``
    with the one stream ``rng``."""
    return cftp_samples(pot, region, boundary, [rng], max_epochs)[0]


def cftp_samples(pot, region, boundary, streams, max_epochs: int = 22) -> list[HeightConfig]:
    """One perfect sample from the finite-region Gibbs kernel per stream.

    Monotone CFTP: each sample's maximal and minimal chains share uniforms
    from its stream's counter-addressed past epochs (1, 2, 4, ... sweeps
    back) until they coalesce at time zero.  Requires a discrete Lipschitz
    potential with convex edge potentials; chains that cross raise
    NonMonotoneCoupling.  Region sites the boundary pins keep their pins.

    The chains are rows of one ``_Chain``.  The samples run in chunks of at
    most _CFTP_HEIGHTS chain heights, in stream order (``_cftp_chunk``):
    every epoch sweeps the chains of a chunk's samples that have not
    coalesced at once, and each sample uses ``stream.at(t).random(size)``
    at time t, ``size`` the free sites, as it would alone.  Each such row
    is drawn once: an epoch draws the times the epoch before did not sweep
    from ``rng.block`` in slices of at most max(_CFTP_HEIGHTS, size)
    doubles (``_uniform_rows``), each row equal to that ``at`` call bit for
    bit, and replays the rows the epoch before kept (all its rows, where
    they fit in _CFTP_HEIGHTS doubles).  So sample a equals ``cftp_sample``
    with streams[a], and the batch raises what the first of those calls to
    fail raises.
    """
    streams, region = list(streams), sorted(region)
    free = [v for v in region if v not in boundary]
    if not free or not streams:
        return [HeightConfig(dict(boundary), reference=min(region or boundary)) for _ in streams]
    windows = _region_windows(pot, free, boundary)
    order = checkerboard_order(free)
    chain = _Chain(pot, HeightConfig({v: windows[v][-1] for v in free}, reference=region[0]), boundary, order)
    start = np.repeat(chain.heights, 2, axis=0)
    start[1, [chain.index[v] for v in order]] = [windows[v][0] for v in order]
    chunk = _CFTP_HEIGHTS // start.size or 1
    return [
        HeightConfig({**boundary, **dict(zip(free, heights))}, reference=region[0])
        for lo in range(0, len(streams), chunk)
        for heights in _cftp_chunk(chain, start, streams[lo : lo + chunk], max_epochs)
    ]


def _cftp_chunk(chain, start, streams, max_epochs):
    """The heights of the chain's config sites at which each stream's pair
    of chains from the (2, N) ``start`` coalesces; each epoch puts sample a
    of the active ones in rows 2a and 2a + 1.  A failing sample and those
    after it leave the batch and the others go on, so the first sample to
    fail or to exhaust the epoch budget is the one whose error is raised.

    An epoch of span 2S sweeps times [-2S, 0), and the epoch before swept
    [-S, 0) with the same rows: it draws [-2S, -S) and replays the ``kept``
    rows.  It keeps its own rows for the next epoch when they fit, len(active)
    * span * size <= _CFTP_HEIGHTS doubles (the bound of one slice), and
    drops the rows of the samples that coalesce or fail; otherwise nothing is
    kept and the next epoch draws all its times."""
    active = list(range(len(streams)))
    ends = [None] * len(streams)
    failure = None
    span, sweeps, size = 1, 0, len(chain.order)
    cols = [chain.index[v] for v in chain.start.values]
    kept = np.empty((0, 0, size))  # (time, sample, site): the last epoch's rows of the active samples
    while active and max_epochs >= 0 and span <= (1 << max_epochs):
        chain.heights = np.tile(start, (len(active), 1))
        keep = len(active) * span * size <= _CFTP_HEIGHTS
        rows = []
        drawn = _uniform_rows([streams[a] for a in active], range(-span, -len(kept)), size)
        for uniforms in itertools.chain(drawn, kept):
            uniforms = uniforms[: len(active)]
            if keep:
                rows.append(uniforms)
            failed = _coupled_sweep(chain, uniforms)
            if failed is not None:
                k, failure = failed
                active, chain.heights = active[:k], chain.heights[: 2 * k]
                if not active:
                    break
        sweeps += span
        tops = chain.heights[0::2]
        done = (tops == chain.heights[1::2]).all(axis=1)
        for k, heights in zip(np.flatnonzero(done).tolist(), tops[done][:, cols].tolist()):
            ends[active[k]] = heights
        kept = np.stack([u[: len(active)] for u in rows])[:, ~done] if rows else kept[:0]
        active = [a for a, d in zip(active, done.tolist()) if not d]
        span *= 2
    if active:
        raise NoCoalescence(max_epochs, span // 2, sweeps)
    if failure is not None:
        raise failure
    return ends


def _uniform_rows(streams, times, size, offsets=None):
    """For each t of ``times``, the (len(streams), size) uniforms whose row
    k is ``streams[k].at(offsets[k] + t).random(size)`` (offsets 0 by
    default), drawn by ``rng.block`` in slices of as many rows as fit in
    _CFTP_HEIGHTS doubles (one at least), a slice holding the rows of whole
    times while they fit.  So a slice holds at most max(_CFTP_HEIGHTS,
    size) doubles.  Each call draws every row it yields; CFTP passes only
    the times its last epoch did not keep, and thermodynamic integration
    every sweep of every beta node once."""
    offsets = [0] * len(streams) if offsets is None else offsets
    rows = max(1, _CFTP_HEIGHTS // max(1, size))
    step = max(1, rows // len(streams))
    for lo in range(0, len(times), step):
        ts = times[lo : lo + step]
        pairs = [(s, o + t) for t in ts for s, o in zip(streams, offsets)]
        drawn = [
            _rng.block([s for s, _ in pairs[i : i + rows]], [c for _, c in pairs[i : i + rows]], size)
            for i in range(0, len(pairs), rows)
        ]
        yield from np.concatenate(drawn).reshape(len(ts), len(streams), size)


def _coupled_sweep(chain, uniforms):
    """One ``chain.sweep`` of the CFTP pairs in its rows, sample a's top and
    bottom chains in rows 2a and 2a + 1 both with row a of ``uniforms``;
    returns None, or (a, error) when sample a is the first to fail, after
    sweeping the samples before it.  Each site is updated once, so the
    first site in the order where a pair crosses after the sweep is where
    ``_replay`` sees it cross; a sweep that raises is undone and replayed."""
    before = chain.heights.copy()
    try:
        chain.sweep(np.repeat(uniforms, 2, axis=0))
    except GradsurfError:
        chain.heights[:] = before
        failed = _replay(chain, uniforms)
        if failed is None:
            raise
        return failed
    crossed = chain.heights[1::2] > chain.heights[0::2]
    if not crossed.any():
        return None
    a = int(crossed.any(axis=1).argmax())
    site = checkerboard_order(chain.sites[i] for i in np.flatnonzero(crossed[a]).tolist())[0]
    return a, NonMonotoneCoupling(f"coupled chains crossed at site {site}")


def _replay(chain, uniforms):
    """``_coupled_sweep`` sample by sample and site by site with
    ``site_conditional``'s code, top chain before bottom chain at each site;
    returns (a, error) for the first sample a that raises, after sweeping
    those before it, with NonMonotoneCoupling at the first site where its
    chains cross, else None."""
    for a, us in enumerate(uniforms):
        pair = chain.heights[2 * a : 2 * a + 2]
        top, bot = (dict(zip(chain.sites, heights)) for heights in pair.tolist())
        try:
            for u, x in zip(us, chain.order):
                top[x] = _site_dist(chain.pot, top, x, None).quantile(u)
                bot[x] = _site_dist(chain.pot, bot, x, None).quantile(u)
                if bot[x] > top[x]:
                    raise NonMonotoneCoupling(f"coupled chains crossed at site {x}")
        except GradsurfError as exc:
            return a, exc
        pair[:] = [[values[v] for v in chain.sites] for values in (top, bot)]
    return None


def _copied_waves(waves, size, draws, rows, cell):
    """The plan's wave schedule for ``rows`` rows of one (K, N) array: row r
    holds its N = ``size`` heights at offset rN, draws the uniform at
    position p + r * ``draws`` (in its own uniform row) for position p and
    reads the conditional rows of cell sig + r * ``cell``; the first k rows
    of each array serve k rows."""
    row = np.arange(rows, dtype=np.int64)[:, None]
    offset, first = row * size, row * draws
    return [
        (
            (pos + first).ravel(),
            (sites + offset).ravel(),
            (nbr + offset[..., None]).reshape(-1, 4),
            np.concatenate([shift] * len(row)),
            (sig + row * cell).ravel(),
        )
        for pos, sites, nbr, shift, sig in waves
    ]


# ---------------------------------------------------------------------------
# Random rounding


def random_round(config: HeightConfig, rng) -> HeightConfig:
    """floor(phi + eps) with one shared uniform eps; gradients move by <= 1."""
    eps = float(rng.random())
    values = {v: math.floor(h + eps) for v, h in config.values.items()}
    return HeightConfig(values, config.reference, config.torus)
