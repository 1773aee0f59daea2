"""Exception hierarchy.

Every error carries a stable ``kind`` name so the CLI can emit
machine-readable error JSON without string parsing.
"""

from __future__ import annotations


class GradsurfError(Exception):
    """Base class for all library errors."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class MissingHeight(GradsurfError):
    """A vertex of the requested region has no height value."""


class EmptySupport(GradsurfError):
    """No height (or increment) has finite energy."""


class DivergentNormalizer(GradsurfError):
    """The integral of exp(-V) does not converge."""


class NegativeCycle(GradsurfError):
    """No finite-energy configuration exists on the region.

    ``witness`` is a vertex sequence (closed) whose arc weights sum to a
    negative value.
    """

    def __init__(self, witness, weight):
        super().__init__(f"negative cycle of weight {weight}: {witness}")
        self.witness = list(witness)
        self.weight = weight


class Infeasible(GradsurfError):
    """The requested boundary data or slope admits no finite-energy config."""

    def __init__(self, detail=None):
        super().__init__(f"infeasible: {detail}")
        self.detail = detail


class StateSpaceTooLarge(GradsurfError):
    """Exact enumeration would exceed the configured state-space bound."""


class NoCoalescence(GradsurfError):
    """CFTP exhausted its epoch budget without coalescing; ``span`` is the
    last span tried (0 for none) and ``sweeps`` the coupled sweeps run."""

    def __init__(self, budget, span, sweeps):
        super().__init__(f"no coalescence within epoch budget {budget} (last span {span}, {sweeps} coupled sweeps)")
        self.budget = budget
        self.span = span
        self.sweeps = sweeps


class NonMonotoneCoupling(GradsurfError):
    """Coupled CFTP chains crossed: the potential is not convex, so its site
    conditionals are not stochastically ordered in the neighbor heights."""


class NotErgodic(GradsurfError):
    """Single-site moves cannot reach every configuration of the slope
    class: a cycle of edges is tight, so the sites on it never move."""


class MixedClusterSign(GradsurfError):
    """An open cluster joins sites where the two surfaces are ordered
    oppositely.  Convex edge potentials always make such edges swappable, so
    the potential is not convex."""


class NegativeResidual(GradsurfError):
    """Total energy undershoots the potential energy on some edge."""


class InfiniteEnergy(GradsurfError):
    """The configuration pair is inadmissible (aligned energy is infinite)."""


class InconsistentCycle(GradsurfError):
    """Height increments fail to close around a face (corrupted matching)."""


class NotAHeightFunction(GradsurfError):
    """A purported domino height function violates the increment law."""


class RegionTooLarge(GradsurfError):
    """Brute-force region size bound exceeded."""


class Untileable(GradsurfError):
    """The region admits no domino tiling."""


class NotSimplyConnected(GradsurfError):
    """The region has holes.  A tiling fixes the heights on each boundary
    component only up to an offset of its own, which the fixed-boundary
    sampler cannot draw; ``holes`` is their number."""

    def __init__(self, holes):
        super().__init__(f"region has {holes} hole(s); uniform sampling needs a simply connected region")
        self.holes = holes


class SlopeMismatch(GradsurfError):
    """Convexity margin inputs are not a collinear slope triple."""


class BoxExceedsSupport(GradsurfError):
    """A requested averaging box is not contained in the config support."""


class NotIncreasing(GradsurfError):
    """An event predicate fails exhaustive monotonicity checking."""


class InsufficientBudget(GradsurfError):
    """Estimator stderr exceeds the requested tolerance at the given budget;
    ``stderr`` is the error reached, ``tolerance`` the one asked for and
    ``budget`` the sweep budget spent."""

    def __init__(self, stderr, tolerance, budget):
        super().__init__(f"stderr {stderr} exceeds tolerance {tolerance}")
        self.stderr = stderr
        self.tolerance = tolerance
        self.budget = budget


class ConfigParse(GradsurfError):
    """Malformed potential or experiment configuration file."""
