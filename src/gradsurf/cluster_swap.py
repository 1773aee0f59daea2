"""Residual-energy coupling of two surfaces and cluster-swapping updates.

A triplet couples two height configurations with a nonnegative residual
energy per edge; the total energy t(e) = V-energy of both surfaces plus
the residual is the conserved quantity of every swap.  An edge is
swappable when its residual covers the energy deficit of exchanging the
two surfaces at one endpoint; the components of the unswappable graph are
the open clusters, on which the surfaces may be exchanged wholesale with
the residual adjusted so t is untouched.

A ``Triplet`` is one set of arrays over its sorted support: neighbor
slots, two height rows and the residuals as floats in edge order, with the
exact rational stored only where a residual is not a float, as swaps may
leave it.  So swap involutions and energy conservation are bitwise
identities.  A swap exchanges the rows under a site mask and recomputes
only the residuals of the edges with one swapped endpoint.

``_SwapArrays`` adds to a triplet what one classification needs of the
potential and the window; ``torus_window`` couples two torus samples on
their plan (behind ``gradsurf swap``, which builds no dict, ``Fraction``
per edge or ``Cluster``).  ``swappable`` classifies the edges of one shift
in one array pass and labels the open clusters by union-find, each
numbered by its least vertex; ``analysis`` adds the crossing bounds.  On
discrete Lipschitz potentials with integer heights each swap deficit is
computed once: it reads only the edge class, the two surfaces' increments
and their offset at the base, so it is memoized on the potential under
that key (``_DeficitTable``) with the least float at or above it.  A float
residual (every Exp(1) draw) is swappable exactly when it reaches that
float; others are compared with the exact rational.  So the
classification is the exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress
from typing import Iterable, Mapping

import numpy as np

from .errors import InfiniteEnergy, MissingHeight, MixedClusterSign, NegativeResidual
from .feasibility import _energy_table, _torus_plan
from .heights import HeightConfig
from .lattice import AXIS_VECTORS, Edge, Vertex, add, edges_within, neighbors
from .potential import INF, PeriodicPotential, validate_sap


def _to_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Triplet:
    """Two height configs on a common support plus per-edge residuals, as
    arrays over the sorted support ``sites``: ``coords``, their (2, N)
    coordinates, ``nbr``, the (N, 4) neighbor slots (+e1, -e1, +e2, -e2;
    -1 for none), ``slots``, the (N, 2) mask of the +e1 and +e2 slots
    (``nbr`` columns 0 and 2) that carry a residual, the height rows ``h1``
    and ``h2`` (``_height_row``), the residuals ``r`` as floats in slot
    order (the sorted edge order) with ``exact`` holding the exact rational
    at the position of each residual that is not a float (NaN in ``r``),
    and the ``reference`` of both configs.  Slot j is the edge (``sites``
    [``base``[j]], ``axis``[j]) with head ``head``[j].  A triplet is never
    changed in place; ``phi1``, ``phi2`` and ``residual`` are built from
    the arrays on first use."""

    def __init__(self, phi1: HeightConfig, phi2: HeightConfig, residual: Mapping[Edge, object]):
        if set(phi1.values) != set(phi2.values) or phi1.reference != phi2.reference:
            raise ValueError("coupled configs must share their support and reference")
        sites = sorted(phi1.values)
        index = {v: k for k, v in enumerate(sites)}
        nbr = np.array([[index.get(w, -1) for w in neighbors(v)] for v in sites], dtype=np.int64)
        slots = np.zeros((len(sites), 2), dtype=bool)
        for e in residual:
            k = index.get(e[0], -1)
            if k < 0 or nbr[k, 2 * e[1]] < 0:
                raise MissingHeight(f"residual edge {e} has an endpoint without a height")
            slots[k, e[1]] = True
        rs = [_stored_residual(residual[e], e) for e in sorted(residual)]  # slot order
        self._set(
            sites, np.array(sites, dtype=np.int64).reshape(-1, 2).T.copy(), nbr, slots,
            _height_row([phi1.values[v] for v in sites]), _height_row([phi2.values[v] for v in sites]),
            np.array([x if type(x) is float else math.nan for x in rs]),
            {j: x for j, x in enumerate(rs) if type(x) is not float}, phi1.reference,
        )

    def _set(self, sites, coords, nbr, slots, h1, h2, r, exact, reference) -> "Triplet":
        self.sites, self.coords, self.nbr, self.slots = sites, coords, nbr, slots
        self.h1, self.h2, self.r, self.exact, self.reference = h1, h2, r, exact, reference
        self.base, self.axis = np.nonzero(slots)
        self.head = nbr[self.base, 2 * self.axis]
        return self

    def _with(self, **arrays) -> "Triplet":
        """A new triplet with this one's arrays, those given replaced."""
        fields = ("sites", "coords", "nbr", "slots", "h1", "h2", "r", "exact", "reference")
        return Triplet.__new__(Triplet)._set(**({k: getattr(self, k) for k in fields} | arrays))

    @staticmethod
    def build(phi1: HeightConfig, phi2: HeightConfig, rng=None, residual=None) -> "Triplet":
        """Couple two configs on every edge of their support, drawing Exp(1)
        residuals in sorted edge order when none are given."""
        if residual is not None:
            return Triplet(phi1, phi2, {e: residual.get(e, 0) for e in edges_within(phi1.values.keys())})
        bare = Triplet(phi1, phi2, {})
        slots = bare.nbr[:, [0, 2]] >= 0
        return bare._with(slots=slots, r=rng.standard_exponential(int(slots.sum())))

    def _edge(self, j) -> Edge:
        return (self.sites[self.base[j]], int(self.axis[j]))

    def edges(self) -> list[Edge]:
        return [(self.sites[k], a) for k, a in zip(self.base.tolist(), self.axis.tolist())]

    @cached_property
    def phi1(self) -> HeightConfig:
        return HeightConfig(dict(zip(self.sites, self.h1.tolist())), self.reference)

    @cached_property
    def phi2(self) -> HeightConfig:
        return HeightConfig(dict(zip(self.sites, self.h2.tolist())), self.reference)

    @cached_property
    def residual(self) -> dict[Edge, Fraction]:
        return {e: self.exact[j] if j in self.exact else Fraction(x) for j, (e, x) in enumerate(zip(self.edges(), self.r.tolist()))}

    def copy(self) -> "Triplet":
        return self._with()


def _stored_residual(x, edge) -> float | Fraction:
    """The residual x as a float when it is one exactly, else as a rational.
    NaN and negative values raise NegativeResidual, +inf InfiniteEnergy."""
    if not x >= 0:
        raise NegativeResidual(f"residual {x} on edge {edge}")
    if isinstance(x, float):
        if x == INF:
            raise InfiniteEnergy(f"infinite residual on edge {edge}")
        return float(x)
    q = _to_fraction(x)
    f = _exact_float(q)
    return q if f is None else f


def _height_row(values) -> np.ndarray:
    """Heights as int64 when every one is an int, else as the Python
    numbers themselves (objects), which the per-edge route reads."""
    return np.array(values, dtype=np.int64 if set(map(type, values)) <= {int} else object)


def _pair_energy(pot, phi1, phi2, edge, swapped=False) -> Fraction | float:
    """V-energy of both surfaces on the edge, after exchanging them at the
    edge's base only when ``swapped``, as an exact rational; +inf absorbs."""
    base, axis = edge
    head = add(base, AXIS_VECTORS[axis])
    b1, b2 = (phi2[base], phi1[base]) if swapped else (phi1[base], phi2[base])
    v = pot.edge_potential(edge)
    e1 = v(phi1[head] - b1)
    e2 = v(phi2[head] - b2)
    if e1 == INF or e2 == INF:
        return INF
    return _to_fraction(e1) + _to_fraction(e2)


def total_energy(pot: PeriodicPotential, triplet: Triplet) -> dict[Edge, Fraction | float]:
    """t(e) = potential energy of both surfaces plus the residual, per edge."""
    out = {}
    p1, p2 = triplet.phi1.values, triplet.phi2.values
    for e, r in triplet.residual.items():
        pe = _pair_energy(pot, p1, p2, e)
        out[e] = INF if pe == INF else pe + r
    return out


# ---------------------------------------------------------------------------
# The (xi, zeta, t) coordinate change


@dataclass
class DerivedCoords:
    """Ordered-pair heights, sign field, and total energies.

    ``residual`` is carried alongside ``total`` so the inverse map is exact;
    the invariant total = pair-energy + residual holds by construction.
    """

    xi: dict[Vertex, tuple]
    zeta: dict[Vertex, int]
    total: dict[Edge, Fraction | float]
    residual: dict[Edge, Fraction]
    reference: Vertex

    @staticmethod
    def from_total(pot, xi, zeta, total, reference) -> "DerivedCoords":
        """Reconstruct residuals from totals; rejects undershooting totals."""
        phi1, phi2 = _split(xi, zeta)
        residual = {}
        for e, t in total.items():
            pe = _pair_energy(pot, phi1, phi2, e)
            if pe == INF:
                raise InfiniteEnergy(f"inadmissible pair on edge {e}")
            r = _to_fraction(t) - pe
            if r < 0:
                raise NegativeResidual(f"total energy undershoots potential on {e}")
            residual[e] = r
        return DerivedCoords(dict(xi), dict(zeta), dict(total), residual, reference)


def _split(xi, zeta):
    phi1, phi2 = {}, {}
    for v, (lo, hi) in xi.items():
        if zeta[v] > 0:
            phi1[v], phi2[v] = hi, lo
        else:
            phi1[v], phi2[v] = lo, hi
    return phi1, phi2


def to_derived(pot: PeriodicPotential, triplet: Triplet) -> DerivedCoords:
    """The injective coordinate change (phi1, phi2, r) -> (xi, zeta, t)."""
    xi, zeta = {}, {}
    p1, p2 = triplet.phi1.values, triplet.phi2.values
    for v in p1:
        a, b = p1[v], p2[v]
        xi[v] = (min(a, b), max(a, b))
        zeta[v] = 1 if a > b else (-1 if a < b else 0)
    total = total_energy(pot, triplet)
    return DerivedCoords(xi, zeta, total, dict(triplet.residual), triplet.phi1.reference)


def from_derived(pot: PeriodicPotential, coords: DerivedCoords) -> Triplet:
    """Exact inverse of to_derived."""
    phi1, phi2 = _split(coords.xi, coords.zeta)
    ref = coords.reference
    return Triplet(
        HeightConfig(phi1, reference=ref),
        HeightConfig(phi2, reference=ref),
        dict(coords.residual),
    )


# ---------------------------------------------------------------------------
# Coupling constants and swappability


def edge_coupling_constant(pot: PeriodicPotential, xi, edge: Edge):
    """Ising coupling of the sign field: aligned minus crossed energy, <= 0."""
    if isinstance(xi, DerivedCoords):
        xi = xi.xi
    base, axis = edge
    head = add(base, AXIS_VECTORS[axis])
    v = pot.edge_potential(edge)
    x1, x2 = xi[base]
    y1, y2 = xi[head]
    aligned = v(y1 - x1) + v(y2 - x2)
    if aligned == INF:
        raise InfiniteEnergy(f"aligned energy infinite on edge {edge}")
    crossed = v(y1 - x2) + v(y2 - x1)
    if crossed == INF:
        return -INF
    return aligned - crossed


def swap_deficit(pot, triplet: Triplet, edge: Edge):
    """Extra energy needed to exchange the surfaces at one endpoint."""
    return _deficit(pot, triplet.phi1.values, triplet.phi2.values, edge)


def _deficit(pot, p1, p2, edge):
    cur = _pair_energy(pot, p1, p2, edge)
    if cur == INF:
        raise InfiniteEnergy(f"inadmissible pair on edge {edge}")
    other = _pair_energy(pot, p1, p2, edge, swapped=True)
    if other == INF:
        return INF
    return other - cur


@dataclass
class Cluster:
    vertices: frozenset[Vertex]
    zeta: int
    inside_window: bool
    touches_boundary: bool

    @property
    def anchor(self) -> Vertex:
        return min(self.vertices)


@dataclass(eq=False)
class SwappableSet:
    """Closed (swappable) edges and the open clusters of their complement,
    as arrays over the sites of one ``_SwapArrays``: ``is_open`` over its
    triplet's edges, ``label`` numbering each site's cluster in the order
    of the clusters' least sites, and per cluster its sign ``zeta``,
    ``inside`` (every vertex lies in the window) and ``touches`` (a vertex
    lies on the window rim).  ``closed_edges``, ``clusters`` and ``labels``
    are built from them on first use."""

    arrays: "_SwapArrays"
    is_open: np.ndarray
    label: np.ndarray
    zeta: np.ndarray
    inside: np.ndarray
    touches: np.ndarray

    @cached_property
    def closed_edges(self) -> frozenset[Edge]:
        return frozenset(compress(self.arrays.triplet.edges(), (~self.is_open).tolist()))

    @cached_property
    def clusters(self) -> list[Cluster]:
        members = [[] for _ in range(len(self.zeta))]
        for v, k in zip(self.arrays.triplet.sites, self.label.tolist()):
            members[k].append(v)
        return [
            Cluster(vertices=frozenset(m), zeta=z, inside_window=i, touches_boundary=t)
            for m, z, i, t in zip(members, self.zeta.tolist(), self.inside.tolist(), self.touches.tolist())
        ]

    @cached_property
    def labels(self) -> dict[Vertex, int]:
        return dict(zip(self.arrays.triplet.sites, self.label.tolist()))

    def cluster_of(self, x: Vertex) -> Cluster:
        return self.clusters[self._label(x)]

    def _label(self, x: Vertex) -> int:
        """The label of x's cluster; MissingHeight when x has no height."""
        if x not in self.labels:
            raise MissingHeight(f"vertex {x} has no height")
        return self.labels[x]

    def vertices(self, chosen) -> frozenset[Vertex]:
        """The vertices of the clusters where the mask ``chosen`` holds."""
        return frozenset(compress(self.arrays.triplet.sites, chosen[self.label].tolist()))


def swappable_set(
    pot: PeriodicPotential,
    triplet: Triplet,
    window: Iterable[Vertex] | None = None,
) -> SwappableSet:
    """Classify edges by swappability and label the open clusters.

    A cluster is ``inside_window`` when every vertex lies in the window and
    ``touches_boundary`` when it meets a window vertex with a lattice
    neighbor outside the window.  The window defaults to the support.
    """
    return _SwapArrays(pot, triplet, None if window is None else set(window)).swappable(0)


class _SwapArrays:
    """A triplet with what classifying a shift c of phi1 needs beyond it:
    masks of the window (the whole support when None) and of its rim
    (window vertices with a lattice neighbor outside it) over the sites.
    Integer heights on a potential with a ``_DeficitTable`` read their
    deficits from it at integer shifts, by the edge classes ``cls``, the
    increments ``i1``, ``i2`` and the offsets of phi2 over phi1 at the
    bases; other triplets call ``_deficit`` per edge on the dict views.
    """

    def __init__(self, pot, triplet: Triplet, window: set | None = None):
        t = self.triplet = triplet
        self.pot = pot
        if window is None:
            self.window, self.rim = np.ones(len(t.sites), dtype=bool), t.nbr.min(axis=1) < 0
        else:
            rim = {v for v in window if any(w not in window for w in neighbors(v))}
            self.window = np.array([v in window for v in t.sites], dtype=bool)
            self.rim = np.array([v in rim for v in t.sites], dtype=bool)
        self.table = _deficit_table(pot) if t.h1.dtype == t.h2.dtype == np.int64 else None
        if self.table is not None:
            tab, h1, h2, base = self.table, t.h1, t.h2, t.base
            self.diff = h1 - h2
            self.cls = t.axis * pot.lattice.index + pot.lattice.cell(*t.coords)[base]
            self.i1 = h1[t.head] - h1[base] - tab.lo
            self.i2 = h2[t.head] - h2[base] - tab.lo
            self.offset = h2[base] - h1[base]  # delta at shift 0
            self.pair_ok = tab.finite[self.cls, np.clip(1 + self.i1, 0, tab.width + 1)] & tab.finite[self.cls, np.clip(1 + self.i2, 0, tab.width + 1)]

    @classmethod
    def torus_window(cls, pot, phi1: HeightConfig, phi2: HeightConfig, rng) -> "_SwapArrays":
        """Two configs of one torus slope class coupled on the fundamental
        window [0, n)^2, as ``gradsurf swap`` couples them, over the
        class's torus plan: the window's edges are the +e slots that do not
        wrap, in sorted order, with Exp(1) residuals drawn by rng; the rim
        is the window's outer ring."""
        n = phi1.torus.n
        plan = _torus_plan(pot, phi1.torus)
        i, j = np.divmod(np.arange(n * n), n)
        nbr = np.where(np.stack([i < n - 1, i > 0, j < n - 1, j > 0], axis=1), plan.nbr, -1)  # no wrapping slot
        slots = nbr[:, [0, 2]] >= 0
        triplet = Triplet.__new__(Triplet)._set(
            plan.sites, np.stack([i, j]), nbr, slots,
            _height_row([phi1.values[v] for v in plan.sites]), _height_row([phi2.values[v] for v in plan.sites]),
            rng.standard_exponential(int(slots.sum())), {}, phi1.reference,
        )
        return cls(pot, triplet)

    def _check_pairs(self, idx) -> None:
        """Raise InfiniteEnergy for the first edge of idx on which either
        surface has infinite energy; shifts change neither."""
        t = self.triplet
        if self.table is None:
            p1, p2 = t.phi1.values, t.phi2.values
            ok = np.array([_pair_energy(self.pot, p1, p2, t._edge(j)) != INF for j in idx.tolist()], dtype=bool)
        else:
            ok = self.pair_ok[idx]
        if not ok.all():
            raise InfiniteEnergy(f"inadmissible pair on edge {t._edge(idx[np.argmin(ok)])}")

    def _shift(self, c):
        """c as an int when the array path applies at that shift, else None."""
        if self.table is not None and isinstance(c, (int, Fraction)) and c.denominator == 1:
            return int(c)
        return None

    def _zeta(self, c) -> np.ndarray:
        k, t = self._shift(c), self.triplet
        if k is not None:
            return np.sign(self.diff + k)
        a, b = t.h1.astype(object) + c, t.h2.astype(object)  # Python arithmetic, as on the dicts
        return (a > b).astype(np.int64) - (a < b)

    def _closed(self, c, idx) -> np.ndarray:
        """Closed mask over the candidate edges idx (both endpoints differ)."""
        k, t = self._shift(c), self.triplet
        if k is None:
            p1 = t.phi1.values if c == 0 else dict(zip(t.sites, (t.h1.astype(object) + c).tolist()))
            out = []
            for j in idx.tolist():
                d = _deficit(self.pot, p1, t.phi2.values, t._edge(j))
                out.append(d != INF and t.exact.get(j, float(t.r[j])) >= d)
            return np.array(out, dtype=bool)
        self._check_pairs(idx)
        tab = self.table
        delta = self.offset[idx] - k + tab.width - 1
        reach = (delta >= 0) & (delta < 2 * tab.width - 1)  # else a swapped increment leaves the support
        flat = ((self.cls[idx] * tab.width + self.i1[idx]) * tab.width + self.i2[idx]) * (2 * tab.width - 1) + delta
        ceiling = np.take(tab.ceiling, flat, mode="clip")  # read only where reach
        missing = reach & np.isnan(ceiling)
        if missing.any():
            fresh, first = np.unique(flat[missing], return_index=True)
            for f, j in zip(fresh.tolist(), idx[missing][first].tolist()):
                edge, head = t._edge(j), t.sites[t.head[j]]
                i1, i2 = int(self.i1[j]) + tab.lo, int(self.i2[j]) + tab.lo
                gap = int(self.offset[j]) - k
                d = _deficit(self.pot, {edge[0]: 0, head: i1}, {edge[0]: gap, head: gap + i2}, edge)
                tab.ceiling[f], tab.exact[f] = _float_ceiling(d), d
            ceiling = np.take(tab.ceiling, flat, mode="clip")
        ceiling = np.where(reach, ceiling, INF)
        closed = t.r[idx] >= ceiling
        for j in np.flatnonzero(np.isnan(t.r[idx])).tolist():  # the exact residuals
            d = tab.exact[int(flat[j])] if reach[j] else INF
            closed[j] = d != INF and t.exact[int(idx[j])] >= d
        return closed

    def swappable(self, c) -> SwappableSet:
        """The swappable set of (phi1 + c, phi2, r)."""
        t = self.triplet
        zeta = self._zeta(c)
        idx = np.flatnonzero((zeta[t.base] != 0) & (zeta[t.head] != 0))
        is_open = np.zeros(len(t.base), dtype=bool)
        is_open[idx[~self._closed(c, idx)]] = True
        a, b = t.base[is_open], t.head[is_open]
        roots = _components(len(zeta), a, b)
        mixed = zeta[a] != zeta[b]
        if mixed.any():
            anchor = int(roots[a[mixed]].min())
            signs = sorted(set(zeta[roots == anchor].tolist()))
            raise MixedClusterSign(f"open cluster at {t.sites[anchor]} has zeta values {signs}")
        is_root = roots == np.arange(len(roots))
        label = (np.cumsum(is_root) - 1)[roots]
        count = int(is_root.sum())
        size = np.bincount(label, minlength=count)
        inside = np.bincount(label[self.window], minlength=count) == size
        touches = np.bincount(label[self.rim], minlength=count) > 0
        return SwappableSet(self, is_open, label, zeta[is_root], inside, touches)

    def analysis(self, c) -> tuple[SwappableSet, int | float, int | float]:
        """The swappable set of (phi1 + c, phi2, r) and the crossing bounds
        b+ and b- (see ``shifted_analysis``).  Raises InfiniteEnergy for the
        first edge on which either surface has infinite energy, and
        MixedClusterSign on a nonconvex potential."""
        ss = self.swappable(c)
        self._check_pairs(np.arange(len(self.triplet.base)))
        nonconvex = sorted(cls for cls, r in validate_sap(self.pot).per_class.items() if not r.convex)
        if nonconvex:
            raise MixedClusterSign(f"classes {nonconvex} are nonconvex, so open clusters may mix signs")
        return (ss, *self._bounds())

    def _bounds(self):
        """b+, the least level s of ``_scan_levels`` with no rim site where
        phi1 + s < phi2, and b-, the greatest with none where phi1 + s >
        phi2; +-inf without such a level.  With integer heights they are
        the extremes of phi2 - phi1 on the rim."""
        t = self.triplet
        if t.h1.dtype == t.h2.dtype == np.int64 and self.rim.any():
            d = (t.h2 - t.h1)[self.rim]
            return int(d.max()), int(d.min())
        h1, h2 = t.h1.astype(object), t.h2.astype(object)
        levels = _scan_levels((h2 - h1)[self.window].tolist(), self.pot.discrete)
        a, b = h1[self.rim], h2[self.rim]
        # the comparisons of _zeta, so real heights round alike
        b_plus = next((lv for lv in levels if not (a + lv < b).any()), INF)
        b_minus = next((lv for lv in reversed(levels) if not (a + lv > b).any()), -INF)
        return b_plus, b_minus


def _exact_float(r):
    """The rational r as a float when that is exact, else None: a power-of-
    two denominator of at most 2^1074 and a numerator below 2^53 in
    magnitude (larger integers fall back to exact comparison)."""
    num, den = r.numerator, r.denominator
    if den & (den - 1) or den.bit_length() > 1075 or abs(num) >= 1 << 53:
        return None
    return num / den


def _float_ceiling(d) -> float:
    """The least float >= the exact deficit d (inf stays inf)."""
    f = float(d)
    return math.nextafter(f, math.inf) if f < d else f


class _DeficitTable:
    """Swap deficits of a discrete Lipschitz potential, each computed once
    by ``_deficit``.  A deficit depends only on the edge class c, the two
    surfaces' increments i1, i2 along the edge and the offset delta of
    phi2 over phi1 at its base.  Increments lie in [lo, lo + width); a
    swapped increment i1 - delta or i2 + delta leaves that range, and the
    deficit is infinite, unless |delta| < width.  ``ceiling`` holds, at
    ((c * width + i1 - lo) * width + i2 - lo) * (2 width - 1) + delta +
    width - 1, the least float at or above the exact deficit (NaN until
    computed), and ``exact`` the exact deficit; ``finite[c, 1 + i - lo]``
    says whether class c has finite energy at increment i, from the
    potential's ``_energy_table``.  Edge (v, axis) has class c = axis *
    index + ``lattice.cell`` of v, its row in that table.
    """

    def __init__(self, lo: int, energies):
        self.lo, self.width = lo, energies.shape[2] - 2
        self.finite = energies.reshape(-1, self.width + 2) < INF
        self.ceiling = np.full(len(self.finite) * self.width**2 * (2 * self.width - 1), math.nan)
        self.exact = {}


_TABLE_LIMIT = 1 << 20  # entries of one deficit table (8 MB)


def _deficit_table(pot) -> _DeficitTable | None:
    """The potential's deficit table; None unless it is discrete Lipschitz
    with at most _TABLE_LIMIT entries (such swaps use ``_deficit`` per edge)."""
    memo = pot._memo("_swap_deficits")
    if "table" not in memo:
        memo["table"] = None
        if pot.discrete and pot.is_lipschitz():
            lo, energies = _energy_table(pot)
            width = energies.shape[2] - 2
            if len(pot.class_potentials) * width**2 * (2 * width - 1) <= _TABLE_LIMIT:
                memo["table"] = _DeficitTable(lo, energies)
    return memo["table"]


def _components(size: int, a, b) -> np.ndarray:
    """Least vertex index of every vertex's component in the graph on
    range(size) with edges (a[k], b[k]).  Union-find in array passes: each
    round hooks the larger root of every edge whose roots differ onto the
    smaller one, then jumps pointers until each vertex points at its root.
    Roots only decrease, so the root of a component is its least vertex.
    """
    root = np.arange(size)
    while a.size:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            break
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return root


# ---------------------------------------------------------------------------
# Swaps


def _apply_swap(pot, triplet: Triplet, mask) -> Triplet:
    """Exchange the surfaces on the sites where the mask holds, preserving
    t per edge: only an edge with one swapped endpoint changes its pair
    energy, so only its residual is recomputed, exactly."""
    t = triplet
    h1, h2 = np.where(mask, t.h2, t.h1), np.where(mask, t.h1, t.h2)
    r, exact = t.r.copy(), dict(t.exact)
    o1, o2 = t.h1.tolist(), t.h2.tolist()
    cut = np.flatnonzero(mask[t.base] != mask[t.head])
    for j, k, m in zip(cut.tolist(), t.base[cut].tolist(), t.head[cut].tolist()):
        e = t._edge(j)
        p1, p2 = {e[0]: o1[k], t.sites[m]: o1[m]}, {e[0]: o2[k], t.sites[m]: o2[m]}
        new = _pair_energy(pot, p1, p2, e, swapped=True)  # exchanging either endpoint gives it
        if new == INF:
            raise NegativeResidual(f"swap made edge {e} inadmissible")
        q = (exact.pop(j) if j in exact else Fraction(float(r[j]))) + (_pair_energy(pot, p1, p2, e) - new)
        if q < 0:
            raise NegativeResidual(f"swap pushed residual below zero on {e}")
        f = _exact_float(q)
        r[j] = math.nan if f is None else f
        if f is None:
            exact[j] = q
    return t._with(h1=h1, h2=h2, r=r, exact=exact)


def cluster_swap_at(
    pot: PeriodicPotential,
    triplet: Triplet,
    window: Iterable[Vertex] | None,
    x: Vertex,
) -> Triplet:
    """Swap the open cluster containing x when it lies inside the window;
    MissingHeight when x has no height.

    An involution: the closed-edge set depends only on the totals, which
    are preserved, so applying the map twice restores every field exactly.
    """
    ss = swappable_set(pot, triplet, window)
    k = ss._label(x)
    if not ss.inside[k] or ss.zeta[k] == 0:
        return triplet.copy()
    return _apply_swap(pot, triplet, ss.label == k)


def swendsen_wang_update(
    pot: PeriodicPotential,
    triplet: Triplet,
    window: Iterable[Vertex] | None,
    rng,
) -> Triplet:
    """One cluster-swapping sweep preserving the product Gibbs law.

    Residuals are redrawn as independent Exp(1) in sorted edge order, the
    swappable set is recomputed, and an independent fair coin, in the
    order of the clusters' least vertices, decides whether each open
    cluster inside the window exchanges the two surfaces; residuals absorb
    the difference so every total energy is untouched.
    """
    fresh = triplet._with(r=rng.standard_exponential(len(triplet.base)), exact={})
    ss = swappable_set(pot, fresh, window)
    flip = np.zeros(len(ss.zeta), dtype=bool)
    flip[ss.inside] = rng.random(int(ss.inside.sum())) < 0.5
    flip &= ss.zeta != 0
    return _apply_swap(pot, fresh, flip[ss.label]) if flip.any() else fresh


# ---------------------------------------------------------------------------
# Shifted analysis and crossing-bound estimators


@dataclass
class ShiftedAnalysis:
    shift: Fraction | int
    swappable: SwappableSet  # of the shifted triplet (phi1 + shift, phi2, r)
    t_plus: frozenset[Vertex]
    t_minus: frozenset[Vertex]
    b_plus: int | float
    b_minus: int | float
    window_size: int


def shifted_analysis(
    pot: PeriodicPotential,
    triplet: Triplet,
    c,
    window: Iterable[Vertex] | None = None,
) -> ShiftedAnalysis:
    """Swappability of (phi1 + c, phi2, r) and finite-window T+/T- proxies.

    Boundary-touching open clusters stand in for infinite ones.  Every
    window-boundary site lies in such a cluster, and on a convex potential
    open clusters have one sign, so the plus proxy of level s is empty
    exactly when no boundary site has phi1 + s < phi2.  Over the levels
    between the observed height differences, b_plus is the least level
    emptying the plus proxy and b_minus the greatest emptying the minus
    proxy: the extremes of phi2 - phi1 on the window boundary, with no
    edge classified; an empty window has b_plus = +inf and b_minus = -inf.
    Raises InfiniteEnergy for the first edge on which either surface has
    infinite energy, MixedClusterSign on a nonconvex potential, whose open
    clusters may mix signs, and MissingHeight for the least window vertex
    without a height.
    """
    window = set(triplet.sites) if window is None else set(window)
    ss, b_plus, b_minus = _SwapArrays(pot, triplet, window).analysis(c)
    missing = window.difference(triplet.sites)
    if missing:
        raise MissingHeight(f"window vertex {min(missing)} has no height")
    # zeta of (phi1 + c, phi2) is +1 when phi1 + c > phi2
    return ShiftedAnalysis(
        shift=c,
        swappable=ss,
        t_plus=ss.vertices(ss.touches & (ss.zeta < 0)),
        t_minus=ss.vertices(ss.touches & (ss.zeta > 0)),
        b_plus=b_plus,
        b_minus=b_minus,
        window_size=len(window),
    )


def _scan_levels(diffs, discrete: bool):
    if not diffs:
        return []
    if discrete:
        return list(range(int(min(diffs)) - 1, int(max(diffs)) + 2))
    return sorted(set(diffs))


# ---------------------------------------------------------------------------
# Synchronized domination coupling


def coin_merge_coupling(
    pot: PeriodicPotential,
    triplet: Triplet,
    window: Iterable[Vertex],
    rng,
) -> tuple[HeightConfig, HeightConfig]:
    """Re-randomize every open cluster inside the window with a fair coin
    that sets both surfaces to the cluster's lower or upper values together.

    Each marginal already assigned its cluster sign by an independent fair
    coin, so the merge leaves both marginals untouched while forcing
    equality on interior clusters.  The coins come in the order of the
    clusters' least vertices.
    """
    t = triplet
    ss = swappable_set(pot, t, window)
    up = np.zeros(len(ss.zeta), dtype=bool)
    up[ss.inside] = rng.random(int(ss.inside.sum())) >= 0.5
    merge = (ss.inside & (ss.zeta != 0))[ss.label]
    pick = np.where(up[ss.label], np.maximum(t.h1, t.h2), np.minimum(t.h1, t.h2))
    out = t._with(h1=np.where(merge, pick, t.h1), h2=np.where(merge, pick, t.h2))
    return out.phi1, out.phi2


def synchronized_domination_coupling(
    pot: PeriodicPotential,
    region: Iterable[Vertex],
    boundary1: Mapping[Vertex, int],
    boundary2: Mapping[Vertex, int],
    rng_stream,
) -> tuple[HeightConfig, HeightConfig]:
    """Coupled Gibbs samples that are ordered whenever the boundaries are.

    Draws an independent exact pair from the two kernels, couples them with
    fresh residuals, and applies the coin merge on clusters inside the
    region.
    """
    from .sampler import cftp_sample  # local import avoids a cycle at load time

    region = sorted(region)
    phi1 = cftp_sample(pot, region, boundary1, rng_stream.substream(1))
    phi2 = cftp_sample(pot, region, boundary2, rng_stream.substream(2))
    trip = Triplet.build(phi1, phi2, rng=rng_stream.substream(3).at(0))
    return coin_merge_coupling(pot, trip, region, rng_stream.substream(4).at(0))
