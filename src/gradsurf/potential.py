"""Lattice-periodic simply attractive potentials.

A potential assigns to every lattice edge a convex function V of the height
increment along the edge, +infinity outside its finite-support interval.
The assignment is periodic under a full-rank sublattice of Z^2 and, per the
orientation convention, V is always evaluated on phi(head) - phi(base) for
the canonical edge (base, axis).

All edge potentials are normalized at construction so their minimum is 0;
the subtracted constants are retained so exact partition-function values
can refer to the potential as originally defined.
"""

from __future__ import annotations

import json
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import ConfigParse, DivergentNormalizer, EmptySupport, MissingHeight
from .lattice import (
    AXIS_VECTORS,
    Edge,
    Sublattice,
    Vertex,
    add,
    edges_within,
)

INF = math.inf

DISCRETE = "int"
CONTINUOUS = "real"

EdgeClass = tuple[int, Vertex]  # (axis, base reduced mod the sublattice)


# ---------------------------------------------------------------------------
# Edge potentials


@dataclass(frozen=True)
class TablePotential:
    """Finite table of values on integers; +inf elsewhere."""

    values: tuple[tuple[int, float], ...]

    @staticmethod
    def from_dict(d: Mapping[int, float]) -> "TablePotential":
        return TablePotential(tuple(sorted((int(k), float(v)) for k, v in d.items())))

    def __call__(self, eta) -> float:
        for k, v in self.values:
            if k == eta:
                return v
        return INF

    def as_dict(self) -> dict[int, float]:
        return dict(self.values)

    def support(self) -> tuple[float, float]:
        keys = [k for k, _ in self.values]
        return (min(keys), max(keys))

    def min_value(self) -> float:
        return min(v for _, v in self.values)

    def shifted(self, c: float) -> "TablePotential":
        return TablePotential(tuple((k, v + c) for k, v in self.values))


@dataclass(frozen=True)
class PiecewiseLinearPotential:
    """Convex piecewise-linear potential.

    Finite values at breakpoints ``xs`` with linear interpolation between;
    beyond the first/last breakpoint the potential continues with
    ``left_slope``/``right_slope`` when given and is +inf otherwise.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    left_slope: float | None = None
    right_slope: float | None = None

    def __call__(self, eta) -> float:
        xs, ys = self.xs, self.ys
        if eta < xs[0]:
            if self.left_slope is None:
                return INF
            return ys[0] + self.left_slope * (eta - xs[0])
        if eta > xs[-1]:
            if self.right_slope is None:
                return INF
            return ys[-1] + self.right_slope * (eta - xs[-1])
        lo, hi = 0, len(xs) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if xs[mid] <= eta:
                lo = mid
            else:
                hi = mid
        if eta == xs[lo]:
            return ys[lo]
        if len(xs) == 1:
            return ys[0]
        t = (eta - xs[lo]) / (xs[lo + 1] - xs[lo])
        return (1 - t) * ys[lo] + t * ys[lo + 1]

    def support(self) -> tuple[float, float]:
        lo = -INF if self.left_slope is not None else self.xs[0]
        hi = INF if self.right_slope is not None else self.xs[-1]
        return (lo, hi)

    def min_value(self) -> float:
        return min(self.ys)

    def shifted(self, c: float) -> "PiecewiseLinearPotential":
        return PiecewiseLinearPotential(
            self.xs, tuple(y + c for y in self.ys), self.left_slope, self.right_slope
        )


@dataclass(frozen=True)
class QuadraticPotential:
    """V(eta) = coeff * eta^2, kept exact for Gaussian conditionals."""

    coeff: float

    def __call__(self, eta) -> float:
        return self.coeff * eta * eta

    def support(self) -> tuple[float, float]:
        return (-INF, INF)

    def min_value(self) -> float:
        return 0.0

    def shifted(self, c: float):
        if c == 0:
            return self
        # a shifted quadratic is no longer of this exact form; fall back
        return _ShiftedPotential(self, c)


@dataclass(frozen=True)
class _ShiftedPotential:
    base: object
    shift: float

    def __call__(self, eta) -> float:
        return self.base(eta) + self.shift

    def support(self):
        return self.base.support()

    def min_value(self) -> float:
        return self.base.min_value() + self.shift

    def shifted(self, c: float):
        s = self.shift + c
        return self.base if s == 0 else _ShiftedPotential(self.base, s)


@dataclass(frozen=True)
class InterpolatedPotential:
    """Largest convex function agreeing with a discrete potential on Z.

    Linear on [j, j+1] wherever both endpoints are finite; +inf outside the
    finite integer span of the base potential.
    """

    base: object

    def __call__(self, eta) -> float:
        j = math.floor(eta)
        if eta == j:
            return self.base(j)
        lo, hi = self.base(j), self.base(j + 1)
        if lo == INF or hi == INF:
            return INF
        t = eta - j
        return (1 - t) * lo + t * hi

    def support(self):
        return self.base.support()

    def min_value(self) -> float:
        return self.base.min_value()

    def shifted(self, c: float):
        return InterpolatedPotential(self.base.shifted(c))


def sos_abs_potential() -> PiecewiseLinearPotential:
    """The linear solid-on-solid potential V(eta) = |eta|."""
    return PiecewiseLinearPotential(xs=(0.0,), ys=(0.0,), left_slope=-1.0, right_slope=1.0)


def convex_interpolation(pot) -> InterpolatedPotential:
    """Piecewise-linear extension of a discrete potential to the reals."""
    return InterpolatedPotential(pot)


# ---------------------------------------------------------------------------
# Periodic potentials


def parity_label(v: Vertex) -> int:
    """The 0,1,2,3 labeling of Z^2 by coordinate parities used by dominoes."""
    return {(0, 0): 0, (0, 1): 1, (1, 1): 2, (1, 0): 3}[(v[0] % 2, v[1] % 2)]


@dataclass(frozen=True)
class PeriodicPotential:
    """A simply attractive potential: domain, period lattice, edge tables.

    ``class_potentials`` maps each edge class (axis, reduced base) to a
    normalized edge potential (minimum value 0); ``offsets`` records the
    constant subtracted from each class during normalization.
    """

    domain: str
    lattice: Sublattice
    class_potentials: Mapping[EdgeClass, object]
    offsets: Mapping[EdgeClass, float] = field(default_factory=dict)

    @staticmethod
    def build(domain: str, period, class_potentials: Mapping[EdgeClass, object]) -> "PeriodicPotential":
        """Normalize raw class potentials (min -> 0) and record offsets."""
        lattice = period if isinstance(period, Sublattice) else Sublattice.from_matrix(period)
        normalized = {}
        offsets = {}
        for cls in sorted(class_potentials):
            axis, base = cls
            key = (axis, lattice.reduce(base))
            pot = class_potentials[cls]
            m = pot.min_value()
            if not m < INF:
                raise EmptySupport(f"edge class {key} has no finite value")
            normalized[key] = pot.shifted(-m) if m != 0 else pot
            offsets[key] = m
        expected = {(axis, b) for axis in (0, 1) for b in lattice.fundamental_domain()}
        if set(normalized) != expected:
            missing = sorted(expected - set(normalized))
            raise ConfigParse(f"edge classes not total; missing {missing}")
        return PeriodicPotential(domain, lattice, normalized, offsets)

    @staticmethod
    def isotropic(domain: str, pot) -> "PeriodicPotential":
        lattice = Sublattice(1, 1, 0)
        return PeriodicPotential.build(
            domain, lattice, {(0, (0, 0)): pot, (1, (0, 0)): pot}
        )

    # -- evaluation

    def edge_class(self, edge: Edge) -> EdgeClass:
        base, axis = edge
        return (axis, self.lattice.reduce(base))

    def edge_potential(self, edge: Edge):
        return self.class_potentials[self.edge_class(edge)]

    def edge_energy(self, edge: Edge, increment) -> float:
        """V_{x,y}(increment) for the edge's class; +inf outside support."""
        return self.class_potentials[self.edge_class(edge)](increment)

    def offset_per_site(self) -> float:
        """Sum of normalization offsets over one fundamental domain, per site."""
        return sum(self.offsets.values()) / self.lattice.index

    def edge_offset(self, edge: Edge) -> float:
        return self.offsets[self.edge_class(edge)]

    @property
    def discrete(self) -> bool:
        return self.domain == DISCRETE

    def is_lipschitz(self) -> bool:
        return all(
            pot.support()[0] > -INF and pot.support()[1] < INF
            for pot in self.class_potentials.values()
        )

    def _memo(self, name: str) -> dict:
        """A cache of local results that lives as long as this potential.

        Kept as a private attribute (the dataclass is frozen), so two
        potentials never share entries.  Callers store only immutable values.
        """
        memo = self.__dict__.get(name)
        if memo is None:
            memo = {}
            object.__setattr__(self, name, memo)
        return memo

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- serialization (documented external interface)

    def to_dict(self) -> dict:
        classes = []
        for (axis, base), pot in sorted(self.class_potentials.items()):
            raw = pot.shifted(self.offsets[(axis, base)]) if self.offsets[(axis, base)] else pot
            classes.append({"axis": axis, "base": list(base), "potential": _pot_to_dict(raw)})
        return {
            "domain": self.domain,
            "period": self.lattice.matrix(),
            "classes": classes,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def from_dict(spec: dict) -> "PeriodicPotential":
        try:
            return _potential_from_dict(spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigParse(f"bad potential spec: {exc}") from exc

    @staticmethod
    def load(path) -> "PeriodicPotential":
        try:
            with open(path) as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigParse(f"cannot read potential file {path}: {exc}") from exc
        return PeriodicPotential.from_dict(spec)


def _pot_to_dict(pot) -> dict:
    if isinstance(pot, TablePotential):
        return {"kind": "table", "values": {str(k): v for k, v in pot.values}}
    if isinstance(pot, PiecewiseLinearPotential):
        return {
            "kind": "pwl",
            "breakpoints": list(pot.xs),
            "values": list(pot.ys),
            "left_slope": pot.left_slope,
            "right_slope": pot.right_slope,
        }
    if isinstance(pot, QuadraticPotential):
        return {"kind": "quadratic", "coefficient": pot.coeff}
    if isinstance(pot, _ShiftedPotential):
        inner = _pot_to_dict(pot.base)
        inner["shift"] = inner.get("shift", 0.0) + pot.shift
        return inner
    raise ConfigParse(f"cannot serialize potential {pot!r}")


def _pot_from_dict(spec) -> object:
    if isinstance(spec, str):
        spec = {"preset": spec}
    if "preset" in spec:
        name = spec["preset"]
        if name == "sos-abs":
            pot = sos_abs_potential()
        elif name.startswith("gaussian"):
            coeff = float(name.split(":", 1)[1]) if ":" in name else 1.0
            pot = QuadraticPotential(coeff)
        else:
            raise ConfigParse(f"unknown edge potential preset {name!r}")
    else:
        kind = spec["kind"]
        if kind == "table" or kind == "tabulated":
            pot = TablePotential.from_dict({int(k): float(v) for k, v in spec["values"].items()})
        elif kind == "pwl":
            pot = PiecewiseLinearPotential(
                tuple(float(x) for x in spec["breakpoints"]),
                tuple(float(y) for y in spec["values"]),
                None if spec.get("left_slope") is None else float(spec["left_slope"]),
                None if spec.get("right_slope") is None else float(spec["right_slope"]),
            )
        elif kind == "quadratic":
            pot = QuadraticPotential(float(spec["coefficient"]))
        else:
            raise ConfigParse(f"unknown edge potential kind {kind!r}")
    if spec.get("shift"):
        pot = pot.shifted(float(spec["shift"]))
    return pot


def _potential_from_dict(spec: dict) -> PeriodicPotential:
    if spec.get("preset") == "domino":
        return domino_potential()
    domain = spec["domain"]
    if domain not in (DISCRETE, CONTINUOUS):
        raise ConfigParse(f"domain must be {DISCRETE!r} or {CONTINUOUS!r}")
    lattice = Sublattice.from_matrix(spec["period"])
    classes = spec["classes"]
    raw: dict[EdgeClass, object] = {}
    if isinstance(classes, (dict, str)):  # single spec applied to every class
        pot = _pot_from_dict(classes)
        for axis in (0, 1):
            for base in lattice.fundamental_domain():
                raw[(axis, base)] = pot
    else:
        for entry in classes:
            raw[(int(entry["axis"]), tuple(entry["base"]))] = _pot_from_dict(entry["potential"])
    return PeriodicPotential.build(domain, lattice, raw)


def domino_potential() -> PeriodicPotential:
    """The domino-tiling height potential: 2Z^2-periodic, values in {0, inf}.

    On the canonical edge (x, y): 0 at increment 0 always; 0 at +1 when the
    parity label of x exceeds that of y; 0 at -1 when it is smaller; +inf
    otherwise.
    """
    lattice = Sublattice(2, 2, 0)
    classes: dict[EdgeClass, object] = {}
    for axis in (0, 1):
        for base in lattice.fundamental_domain():
            head = add(base, AXIS_VECTORS[axis])
            ex, ey = parity_label(base), parity_label(head)
            table = {0: 0.0, (1 if ex > ey else -1): 0.0}
            classes[(axis, base)] = TablePotential.from_dict(table)
    return PeriodicPotential.build(DISCRETE, lattice, classes)


# ---------------------------------------------------------------------------
# Hamiltonians


def edge_energy(pot: PeriodicPotential, edge: Edge, increment) -> float:
    return pot.edge_energy(edge, increment)


def hamiltonian_interior(pot: PeriodicPotential, region, config) -> float:
    """Sum of edge energies over edges with both endpoints in the region."""
    values = config if isinstance(config, Mapping) or isinstance(config, dict) else config.values
    total = 0.0
    for edge in edges_within(region):
        base, axis = edge
        head = add(base, AXIS_VECTORS[axis])
        try:
            inc = values[head] - values[base]
        except KeyError as exc:
            raise MissingHeight(f"no height at {exc.args[0]}") from exc
        e = pot.edge_energy(edge, inc)
        if e == INF:
            return INF
        total += e
    return total


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ClassReport:
    convex: bool
    positive: bool
    diverges: bool
    lipschitz: bool

    @property
    def ok(self) -> bool:
        return self.convex and self.positive and self.diverges


@dataclass(frozen=True)
class SapReport:
    per_class: dict[EdgeClass, ClassReport]
    isotropic: bool
    lipschitz: bool

    @property
    def valid(self) -> bool:
        return all(r.ok for r in self.per_class.values())


def _check_convex(pot) -> bool:
    if isinstance(pot, QuadraticPotential):
        return pot.coeff >= 0
    if isinstance(pot, InterpolatedPotential) or isinstance(pot, _ShiftedPotential):
        return _check_convex(pot.base)
    if isinstance(pot, TablePotential):
        keys = [k for k, _ in pot.values]
        lo, hi = min(keys), max(keys)
        if set(keys) != set(range(lo, hi + 1)):
            return False  # +inf holes inside the finite span break convexity
        vals = [pot(k) for k in range(lo, hi + 1)]
        return all(vals[i + 1] + vals[i - 1] >= 2 * vals[i] for i in range(1, len(vals) - 1))
    if isinstance(pot, PiecewiseLinearPotential):
        slopes = []
        if pot.left_slope is not None:
            slopes.append(pot.left_slope)
        for i in range(len(pot.xs) - 1):
            slopes.append((pot.ys[i + 1] - pot.ys[i]) / (pot.xs[i + 1] - pot.xs[i]))
        if pot.right_slope is not None:
            slopes.append(pot.right_slope)
        return all(s2 >= s1 - 1e-12 for s1, s2 in zip(slopes, slopes[1:]))
    raise TypeError(f"unknown potential type {pot!r}")


def _check_diverges(pot) -> bool:
    lo, hi = pot.support()
    ok = True
    if hi == INF:
        ok = ok and pot(10**6) > pot.min_value() + 1  # nonzero growth at the right
    if lo == -INF:
        ok = ok and pot(-(10**6)) > pot.min_value() + 1
    return ok


def _is_symmetric(pot) -> bool:
    if isinstance(pot, TablePotential):
        d = pot.as_dict()
        return all(-k in d and d[-k] == v for k, v in d.items())
    if isinstance(pot, (InterpolatedPotential, _ShiftedPotential)):
        return _is_symmetric(pot.base)
    if isinstance(pot, QuadraticPotential):
        return True
    lo, hi = pot.support()
    if (lo == -INF) != (hi == INF):
        return False
    if lo == -INF:
        probes = [0.5, 1, 2, 5, 17]
    else:
        if lo != -hi:
            return False
        probes = [hi * k / 7 for k in range(8)]
    return all(abs(pot(p) - pot(-p)) <= 1e-12 * max(1.0, abs(pot(p))) for p in probes if pot(p) < INF)


def validate_sap(pot: PeriodicPotential) -> SapReport:
    """Check convexity, positivity, divergence, and shape flags per class."""
    per_class = {}
    for cls in sorted(pot.class_potentials):
        p = pot.class_potentials[cls]
        lo, hi = p.support()
        per_class[cls] = ClassReport(
            convex=_check_convex(p),
            positive=p.min_value() >= 0,  # guaranteed by normalization
            diverges=_check_diverges(p),
            lipschitz=lo > -INF and hi < INF,
        )
    pots = list(pot.class_potentials.values())
    isotropic = all(p == pots[0] for p in pots) and _is_symmetric(pots[0])
    return SapReport(
        per_class=per_class,
        isotropic=isotropic,
        lipschitz=all(r.lipschitz for r in per_class.values()),
    )


# ---------------------------------------------------------------------------
# Lipschitz truncation


def lipschitz_truncate(pot: PeriodicPotential, cutoff: float) -> PeriodicPotential:
    """Restrict every edge potential to the set where V <= cutoff."""
    if cutoff < 0:
        raise EmptySupport("cutoff must be nonnegative")
    if not pot.discrete:
        raise ValueError("truncation is defined for the discrete domain")
    new_classes: dict[EdgeClass, object] = {}
    for cls, p in pot.class_potentials.items():
        offset = pot.offsets.get(cls, 0.0)
        table = {}
        # scan outward from an integer argmin; convex V makes the region contiguous
        lo, hi = p.support()
        start = 0
        if p(start) > cutoff or p(start) == INF:
            start = _integer_argmin(p)
        eta = start
        while eta >= lo and p(eta) <= cutoff:
            table[eta] = p(eta) + offset
            eta -= 1
        eta = start + 1
        while eta <= hi and p(eta) <= cutoff:
            table[eta] = p(eta) + offset
            eta += 1
        if not table:
            raise EmptySupport(f"no increment of class {cls} satisfies V <= {cutoff}")
        new_classes[cls] = TablePotential.from_dict(table)
    # build() re-subtracts the carried offsets, so normalization is preserved
    return PeriodicPotential.build(pot.domain, pot.lattice, new_classes)


def _integer_argmin(p) -> int:
    lo, hi = p.support()
    a = int(max(lo, -(10**6)))
    b = int(min(hi, 10**6))
    # ternary search over the convex sequence
    while b - a > 2:
        m1 = a + (b - a) // 3
        m2 = b - (b - a) // 3
        if p(m1) <= p(m2):
            b = m2
        else:
            a = m1
    return min(range(a, b + 1), key=lambda k: p(k))


# ---------------------------------------------------------------------------
# Wedge normalization


def _adaptive_trapezoid(
    f: Callable[[float], float],
    a: float,
    b: float,
    rtol: float = 1e-10,
    seed: int = 8,
    atol: float = 0.0,
) -> float:
    """Adaptive trapezoid quadrature with relative tolerance."""

    def recurse(x0, x2, f0, f2, whole, depth):
        x1 = 0.5 * (x0 + x2)
        f1 = f(x1)
        left = 0.5 * (x1 - x0) * (f0 + f1)
        right = 0.5 * (x2 - x1) * (f1 + f2)
        if depth > 48:
            return left + right
        if abs(left + right - whole) <= max(rtol * abs(left + right), atol, 1e-300):
            return left + right
        return recurse(x0, x1, f0, f1, left, depth + 1) + recurse(x1, x2, f1, f2, right, depth + 1)

    # seed with a uniform mesh so narrow features are not missed
    xs = [a + (b - a) * i / seed for i in range(seed + 1)]
    fs = [f(x) for x in xs]
    total = 0.0
    for i in range(seed):
        whole = 0.5 * (xs[i + 1] - xs[i]) * (fs[i] + fs[i + 1])
        total += recurse(xs[i], xs[i + 1], fs[i], fs[i + 1], whole, 0)
    return total


_WEIGHT_FLOOR = 1e-16  # integrand truncation threshold for exp(-V)


def _truncation_window(v) -> tuple[float, float]:
    lo, hi = v.support()
    cut = -math.log(_WEIGHT_FLOOR)

    def expand(direction: int) -> float:
        x = direction * 1.0
        for _ in range(80):
            if v(x) >= cut:
                return x
            x *= 2
        raise DivergentNormalizer("exp(-V) does not decay; normalizer diverges")

    right = hi if hi < INF else expand(+1)
    left = lo if lo > -INF else expand(-1)
    return (left, right)


@dataclass(frozen=True)
class WedgePotential:
    """Wedge-normalized potential: V minus the log of a tent reweighting.

    Tabulated on a symmetric grid; linear interpolation between grid points,
    +inf beyond the grid.
    """

    base: object
    grid: tuple[float, ...]
    values: tuple[float, ...]

    def _table(self) -> PiecewiseLinearPotential:
        table = getattr(self, "_cached", None)
        if table is None:
            table = PiecewiseLinearPotential(self.grid, self.values)
            object.__setattr__(self, "_cached", table)
        return table

    def __call__(self, eta) -> float:
        if eta < self.grid[0] or eta > self.grid[-1]:
            return INF
        return self._table()(eta)


def wedge_normalize(v, num_points: int = 513) -> WedgePotential:
    """Tabulate V(eta) - log g(F(eta)) with g the tent density 2-4|t-1/2|.

    F is the normalized left-mass of exp(-V), computed by adaptive
    quadrature at relative tolerance 1e-10.
    """
    if isinstance(v, PeriodicPotential):
        pots = set(v.class_potentials.values())
        if len(pots) != 1:
            raise ValueError("wedge normalization requires an isotropic potential")
        v = next(iter(pots))
    left, right = _truncation_window(v)
    weight = lambda x: math.exp(-min(v(x), 745.0))
    grid = [left + (right - left) * i / (num_points - 1) for i in range(num_points)]
    rough = sum(
        0.5 * (grid[i + 1] - grid[i]) * (weight(grid[i]) + weight(grid[i + 1]))
        for i in range(num_points - 1)
    )
    atol = 1e-10 * rough / (num_points - 1)
    pieces = [
        _adaptive_trapezoid(weight, grid[i], grid[i + 1], seed=2, atol=atol)
        for i in range(num_points - 1)
    ]
    z = sum(pieces)
    if not (z > 0 and math.isfinite(z)):
        raise DivergentNormalizer(f"normalizer Z = {z}")
    # directed cumulative masses keep full relative precision in both tails:
    # g(F) = 4 * min(F, 1 - F), so only the smaller tail mass is ever needed
    lower = [0.0]
    for p in pieces:
        lower.append(lower[-1] + p)
    upper = [0.0]
    for p in reversed(pieces):
        upper.append(upper[-1] + p)
    upper.reverse()
    values = []
    kept_grid = []
    for x, lo_mass, hi_mass in zip(grid, lower, upper):
        tail = min(lo_mass, hi_mass)
        if tail <= 0.0:
            continue  # V-bar is +inf at the extreme grid ends
        kept_grid.append(x)
        values.append(v(x) - math.log(4.0 * tail / z))
    return WedgePotential(base=v, grid=tuple(kept_grid), values=tuple(values))
