"""The benchmark tracer (``bench/tracer.py``) names gradsurf callables by
string; a rename in gradsurf would silently zero its metrics.  The tracer
file is parsed, never imported or changed."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_literals():
    """COUNT_ONLY and PER_LAYER as the tracer assigns them."""
    literals = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            literals[node.targets[0].id] = node.value
    count_only = ast.literal_eval(literals["COUNT_ONLY"].args[0])  # frozenset({...})
    return count_only, ast.literal_eval(literals["PER_LAYER"])


def test_tracer_hook_names_resolve_to_gradsurf_callables():
    # each COUNT_ONLY name and the <module>.<name> stem of each .calls and
    # .self_s metric must be defined where the tracer looks: in the module's
    # or the class's own namespace, as the tracer wraps it
    count_only, per_layer = _tracer_literals()
    stems = {name.rpartition(".")[0] for name, _, _ in per_layer if name.endswith((".calls", ".self_s"))}
    names = sorted(count_only | {stem for stem in stems if "." in stem})
    assert "feasibility.FeasibilityGraph.distances_from" in names
    for name in names:
        module, *attrs = name.split(".")
        owner = importlib.import_module(f"gradsurf.{module}")
        for attr in attrs:
            assert attr in vars(owner), name
            owner = getattr(owner, attr)
        assert callable(owner), name
