"""Per-layer tracing by wrapping gradsurf's public functions from outside.

The layers are the modules the workloads drive.  Every public function and
public method of a layer module is replaced, wherever gradsurf looks the
name up, by a wrapper that records a span: name, start, end, parent span
and op id.  A few hot leaf functions, called up to a million times per
op, only count calls, because a span would cost more than their work.
Spans stay in memory and are written once at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("cli", "potential", "feasibility", "sampler", "cluster_swap", "tilings", "observables")

# Hot leaf functions: counted, never spanned.  Their time stays with the
# calling span.  ``rng.RngStream.at`` is a helper counted to measure CFTP
# sweeps.
COUNT_ONLY = frozenset(
    {
        "potential.parity_label",
        "potential.edge_energy",
        "potential.PeriodicPotential.edge_class",
        "potential.PeriodicPotential.edge_potential",
        "potential.PeriodicPotential.edge_energy",
        "potential.PeriodicPotential.edge_offset",
        "potential.PeriodicPotential.is_lipschitz",
        "potential.PeriodicPotential.offset_per_site",
        "potential.TablePotential.support",
        "potential.TablePotential.min_value",
        "potential.PiecewiseLinearPotential.support",
        "potential.PiecewiseLinearPotential.min_value",
        "potential.QuadraticPotential.support",
        "potential.QuadraticPotential.min_value",
        "potential.InterpolatedPotential.support",
        "potential.InterpolatedPotential.min_value",
        "feasibility.increment_bounds",
        "feasibility.FeasibilityGraph.distances_from",
        "feasibility.FeasibilityGraph.negative_cycle",
        "feasibility.Halfspace.holds",
        "feasibility.SlopePolytope.contains",
        "sampler.DiscreteDistribution.quantile",
        "sampler.DiscreteDistribution.prob",
        "sampler.GaussianDistribution.quantile",
        "sampler.TabulatedDistribution.quantile",
        "cluster_swap.swap_deficit",
        "cluster_swap.edge_coupling_constant",
        "cluster_swap.Triplet.edges",
        "cluster_swap.SwappableSet.cluster_of",
        "tilings.square_corners",
        "tilings.region_vertices",
        "rng.RngStream.at",
    }
)

# Per-layer metrics: (name, unit, better).  Every name is reported on every
# workload; a layer a workload never reaches reads 0.
PER_LAYER = [
    ("sampler.heat_bath_sweep.calls", "count", "lower"),
    ("sampler.heat_bath_sweep.self_s", "s", "lower"),
    ("sampler.heat_bath_sweep.us_per_site", "us/site", "lower"),
    ("sampler.cftp_sample.calls", "count", "lower"),
    ("sampler.cftp_sample.self_s", "s", "lower"),
    ("sampler.cftp_sample.sweeps", "count", "lower"),
    ("sampler.cftp_sample.useful_sweep_frac", "ratio", "higher"),
    ("sampler.cftp_sample.us_per_site_sweep", "us/site", "lower"),
    ("feasibility.extend_boundary.calls", "count", "lower"),
    ("feasibility.extend_boundary.self_s", "s", "lower"),
    ("feasibility.extend_boundary_min.calls", "count", "lower"),
    ("feasibility.extend_boundary_min.self_s", "s", "lower"),
    ("feasibility.FeasibilityGraph.distances_from.calls", "count", "lower"),
    ("feasibility.FeasibilityGraph.negative_cycle.calls", "count", "lower"),
    ("feasibility.distance_queries_per_extension", "ratio", "lower"),
    ("feasibility.shortest_distances.self_s", "s", "lower"),
    ("feasibility.ground_state_energy.calls", "count", "lower"),
    ("feasibility.ground_state_energy.self_s", "s", "lower"),
    ("cluster_swap.swappable_set.calls", "count", "lower"),
    ("cluster_swap.swappable_set.self_s", "s", "lower"),
    ("cluster_swap.swappable_set.us_per_edge", "us/edge", "lower"),
    ("cluster_swap.shifted_analysis.calls", "count", "lower"),
    ("cluster_swap.shifted_analysis.self_s", "s", "lower"),
    ("cluster_swap.swappable_sets_per_analysis", "ratio", "lower"),
    ("cluster_swap.Triplet.build.self_s", "s", "lower"),
    ("tilings.count_tilings_kasteleyn.calls", "count", "lower"),
    ("tilings.count_tilings_kasteleyn.self_s", "s", "lower"),
    ("tilings.count_tilings_bruteforce.self_s", "s", "lower"),
    ("tilings.uniform_tiling_sample.self_s", "s", "lower"),
    ("tilings.height_to_matching.self_s", "s", "lower"),
    ("tilings.matching_to_height.self_s", "s", "lower"),
    ("tilings.boundary_heights.self_s", "s", "lower"),
    ("observables.log_partition_exact.calls", "count", "lower"),
    ("observables.log_partition_exact.self_s", "s", "lower"),
    ("observables.sigma_estimate.calls", "count", "lower"),
    ("observables.sigma_estimate.self_s", "s", "lower"),
    ("potential.PeriodicPotential.edge_energy.calls", "count", "lower"),
    ("potential.PeriodicPotential.edge_potential.calls", "count", "lower"),
    ("potential.validate_sap.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
]
for _layer in LAYERS:
    PER_LAYER += [
        (f"{_layer}.self_s", "s", "lower"),
        (f"{_layer}.share", "ratio", "lower"),
        (f"{_layer}.errors", "count", "lower"),
    ]
PER_LAYER.append(("trace.overhead_frac", "ratio", "lower"))


def _public_callables(module):
    """(qualified name, owner, attribute, function, wrap kind) for a layer module."""
    short = module.__name__.split(".", 1)[1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", module, name, obj, None
        elif inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    yield f"{short}.{name}.{attr}", obj, attr, member.__func__, type(member)
                elif inspect.isfunction(member):
                    yield f"{short}.{name}.{attr}", obj, attr, member, None


class Tracer:
    """Span recorder; ``install`` patches gradsurf in place for the process."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.errors: list[int] = []
        self.spans: list[tuple] = []  # (id, parent, name id, start ns, end ns, op id)
        self.op_id = -1
        self._stack: list[list] = []  # [span id, child ns, at-calls at entry]
        self._next_id = 0
        self._last_exc = None
        self.at_calls = 0
        # work counts measured at the span boundaries
        self.sweep_sites = 0
        self.cftp_sweeps = 0
        self.cftp_useful = 0.0
        self.cftp_site_sweeps = 0
        self.swappable_edges = 0
        self.swappable_in_analysis = 0
        self._analysis_depth = 0

    def _nid(self, name: str) -> int:
        self.names.append(name)
        for col in (self.calls, self.total_ns, self.self_ns, self.errors):
            col.append(0)
        return len(self.names) - 1

    def _counter(self, nid, fn, is_at):
        calls = self.calls
        tracer = self

        def counted(*args, **kwargs):
            calls[nid] += 1
            if is_at:
                tracer.at_calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span(self, nid, fn, name):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns
        on_enter, on_exit = _HOOKS.get(name, (None, None))

        def spanned(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0, tracer.at_calls]
            stack.append(frame)
            if on_enter is not None:
                on_enter(tracer, args, kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._last_exc:
                    tracer._last_exc = exc
                    tracer.errors[nid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.calls[nid] += 1
                tracer.total_ns[nid] += dur
                tracer.self_ns[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer.spans.append((sid, parent, nid, t0, t1, tracer.op_id))
                if on_exit is not None:
                    on_exit(tracer, args, kwargs, frame)

        spanned.__wrapped__ = fn
        return spanned

    def install(self) -> None:
        """Wrap every public callable of the layers where gradsurf binds it."""
        modules = [importlib.import_module(f"gradsurf.{m}") for m in LAYERS]
        targets = [t for m in modules for t in _public_callables(m)]
        rng = importlib.import_module("gradsurf.rng")
        targets.append(("rng.RngStream.at", rng.RngStream, "at", rng.RngStream.at, None))
        replaced = {}
        for name, owner, attr, fn, kind in targets:
            if name.startswith("cli.") and name != "cli.main":
                continue  # the command bodies are cli.main's own work
            nid = self._nid(name)
            if name in COUNT_ONLY:
                wrapper = self._counter(nid, fn, name == "rng.RngStream.at")
            else:
                wrapper = self._span(nid, fn, name)
            replaced[id(fn)] = wrapper
            setattr(owner, attr, kind(wrapper) if kind else wrapper)
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("gradsurf"):
                continue
            for attr, val in list(vars(module).items()):
                if inspect.isfunction(val) and id(val) in replaced:
                    setattr(module, attr, replaced[id(val)])

    # -- results

    def _stat(self, name: str, col: list) -> int:
        try:
            return col[self.names.index(name)]
        except ValueError:
            return 0

    def metrics(self, op_wall_s: float, overhead_frac: float) -> dict:
        """Per-layer metric values, keyed as in PER_LAYER.

        ``op_wall_s`` is the traced ops' total time, the base of each share.
        """
        calls = lambda n: self._stat(n, self.calls)  # noqa: E731
        self_s = lambda n: self._stat(n, self.self_ns) / 1e9  # noqa: E731
        total_s = lambda n: self._stat(n, self.total_ns) / 1e9  # noqa: E731
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        out = {}
        for name, _, _ in PER_LAYER:
            stem, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = calls(stem)
            elif stat == "self_s" and stem not in LAYERS:
                out[name] = self_s(stem)
        hbs = "sampler.heat_bath_sweep"
        out[f"{hbs}.us_per_site"] = ratio(total_s(hbs) * 1e6, self.sweep_sites)
        cftp = "sampler.cftp_sample"
        out[f"{cftp}.sweeps"] = self.cftp_sweeps
        out[f"{cftp}.useful_sweep_frac"] = ratio(self.cftp_useful, self.cftp_sweeps)
        out[f"{cftp}.us_per_site_sweep"] = ratio(self_s(cftp) * 1e6, self.cftp_site_sweeps)
        extensions = calls("feasibility.extend_boundary") + calls("feasibility.extend_boundary_min")
        out["feasibility.distance_queries_per_extension"] = ratio(
            calls("feasibility.FeasibilityGraph.distances_from"), extensions
        )
        sws = "cluster_swap.swappable_set"
        out[f"{sws}.us_per_edge"] = ratio(total_s(sws) * 1e6, self.swappable_edges)
        out["cluster_swap.swappable_sets_per_analysis"] = ratio(
            self.swappable_in_analysis, calls("cluster_swap.shifted_analysis")
        )
        for layer in LAYERS:
            layer_self = sum(self.self_ns[i] for i in self._layer_ids(layer)) / 1e9
            out[f"{layer}.self_s"] = layer_self
            out[f"{layer}.share"] = ratio(layer_self, op_wall_s)
        out.update(self.layer_errors())
        out["trace.overhead_frac"] = overhead_frac
        return out

    def _layer_ids(self, layer: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]

    def layer_errors(self) -> dict:
        """Exceptions first seen leaving a span of each layer."""
        return {f"{layer}.errors": sum(self.errors[i] for i in self._layer_ids(layer)) for layer in LAYERS}

    def dump(self, path: Path) -> None:
        """Write the name table and every span as one JSON document."""
        doc = {
            "fields": ["id", "parent", "name", "start_ns", "end_ns", "op"],
            "names": self.names,
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


# Work counts taken where the work happens: (on_enter, on_exit) per span name.


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _sweep_exit(tr, args, kwargs, frame):
    tr.sweep_sites += len(_arg(args, kwargs, 1, "config").values)


def _cftp_exit(tr, args, kwargs, frame):
    sweeps = tr.at_calls - frame[2]
    tr.cftp_sweeps += sweeps
    tr.cftp_useful += (sweeps + 1) / 2  # spans 1, 2, ..., S use 2S - 1 sweeps
    tr.cftp_site_sweeps += sweeps * len(_arg(args, kwargs, 1, "region"))


def _swappable_exit(tr, args, kwargs, frame):
    tr.swappable_edges += len(_arg(args, kwargs, 1, "triplet").residual)
    if tr._analysis_depth:
        tr.swappable_in_analysis += 1


def _analysis_enter(tr, args, kwargs):
    tr._analysis_depth += 1


def _analysis_exit(tr, args, kwargs, frame):
    tr._analysis_depth -= 1


_HOOKS = {
    "sampler.heat_bath_sweep": (None, _sweep_exit),
    "sampler.cftp_sample": (None, _cftp_exit),
    "cluster_swap.swappable_set": (None, _swappable_exit),
    "cluster_swap.shifted_analysis": (_analysis_enter, _analysis_exit),
}
