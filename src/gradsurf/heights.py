"""Height configurations on finite regions and slope-tagged tori."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import AXIS_VECTORS, Vertex, add


@dataclass(frozen=True)
class TorusInfo:
    """An n x n torus carrying a homology-class slope tag.

    The tag is the rounded slope u' with n*u' integral, so heights extend
    quasi-periodically: phi(v + n*e_i) = phi(v) + n*u'_i.
    """

    n: int
    slope: tuple[Fraction, Fraction]

    def holonomy(self) -> tuple:
        """Total height change around each fundamental cycle, n * u'_i.

        Integers in the discrete setting; general numerics otherwise.
        """
        cached = getattr(self, "_holonomy", None)
        if cached is None:
            out = []
            for comp in self.slope:
                h = Fraction(comp) * self.n
                out.append(int(h) if h.denominator == 1 else float(h))
            cached = (out[0], out[1])
            object.__setattr__(self, "_holonomy", cached)
        return cached

    def wrap(self, v: Vertex) -> Vertex:
        return (v[0] % self.n, v[1] % self.n)


@dataclass
class HeightConfig:
    """Heights on a region or torus with a designated reference vertex.

    Sampler-produced configs are pinned (height 0 at the reference); call
    ``pin()`` to normalize.  Boundary extensions keep their absolute values.
    """

    values: dict[Vertex, int | float]
    reference: Vertex
    torus: TorusInfo | None = None

    def __post_init__(self):
        if self.reference not in self.values:
            raise ValueError(f"reference vertex {self.reference} has no height")

    def pin(self) -> "HeightConfig":
        ref = self.values[self.reference]
        if ref != 0:
            self.values = {v: h - ref for v, h in self.values.items()}
        return self

    def height(self, v: Vertex):
        """Height at any vertex; torus configs extend quasi-periodically."""
        if self.torus is None:
            return self.values[v]
        n = self.torus.n
        k1, k2 = v[0] // n, v[1] // n
        h1, h2 = self.torus.holonomy()
        return self.values[(v[0] - k1 * n, v[1] - k2 * n)] + k1 * h1 + k2 * h2

    def increment(self, base: Vertex, axis: int):
        """phi(base + e_axis) - phi(base)."""
        return self.height(add(base, AXIS_VECTORS[axis])) - self.height(base)

    def copy(self) -> "HeightConfig":
        return HeightConfig(dict(self.values), self.reference, self.torus)

    def sorted_items(self):
        return sorted(self.values.items())
