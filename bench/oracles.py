"""Output checks written independently of the code under test.

Each checker reads the files one CLI op wrote and returns a list of
problems (empty when the output is right).  The checks re-derive what they
need from the model definitions: domino parity labels, edge supports, a
column-profile transfer matrix for tiling counts and Dijkstra for distance
tables.  None of them imports gradsurf.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
from fractions import Fraction
from pathlib import Path

# Tolerances.  ExactSum and TransferMatrix are both exact methods, so they
# must agree to rounding.  Thermodynamic integration is judged by an
# absolute error against the exact class value, because its reported
# stderr ignores autocorrelation and understates the error several times.
# At budget 16 on the 4-torus its error has a standard deviation of about
# 0.011, so the tolerance sits six of those out, below the 0.09 between
# the slope classes it is run at.
EXACT_AGREEMENT = 1e-9
TI_ABS_TOLERANCE = 0.07


# ---------------------------------------------------------------------------
# Model definitions


def parity_label(x: int, y: int) -> int:
    """Domino parity label: 0, 1, 2, 3 on parities (0,0), (0,1), (1,1), (1,0)."""
    return ((0, 1), (3, 2))[x % 2][y % 2]


def in_support(pot: str, base, axis: int, inc) -> bool:
    """Whether h(base + e_axis) - h(base) = inc has finite energy.

    ``pot`` is "domino", "abs<k>" (|eta| truncated at k), "abs" (|eta|)
    or "gaussian".
    """
    if pot == "gaussian":
        return math.isfinite(inc)
    if inc != int(inc):
        return False
    if pot == "domino":
        head = (base[0] + 1, base[1]) if axis == 0 else (base[0], base[1] + 1)
        up = parity_label(*base) > parity_label(*head)
        return inc in ((0, 1) if up else (-1, 0))
    return pot == "abs" or abs(inc) <= int(pot[3:])


def support_bounds(pot: str, base, axis: int) -> tuple[int, int]:
    """Least and greatest increment of a support within [-2, 2]."""
    inside = [i for i in range(-2, 3) if in_support(pot, base, axis, i)]
    return inside[0], inside[-1]


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def _heights_by_sample(path: Path) -> dict[int, dict[tuple[int, int], int]]:
    out: dict[int, dict[tuple[int, int], int]] = {}
    for s, x, y, h in _read_rows(path):
        out.setdefault(int(s), {})[(int(x), int(y))] = float(h) if "." in h or "e" in h else int(h)
    return out


# ---------------------------------------------------------------------------
# Domino tilings


def count_tilings_profile(cells) -> int:
    """Domino tilings of a set of unit squares by a column-profile DP.

    Columns run along the longer side of the bounding box; the state is
    the bitmask of cells in the current column already covered by
    dominoes reaching in from the previous column.  Works for any region,
    holes included.
    """
    cells = set(map(tuple, cells))
    if not cells:
        return 1
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    if max(xs) - min(xs) < max(ys) - min(ys):
        cells = {(y, x) for x, y in cells}
        xs, ys = ys, xs
    x0, y0 = min(xs), min(ys)
    width = max(xs) - x0 + 1
    height = max(ys) - y0 + 1
    inside = [[(x0 + i, y0 + j) in cells for j in range(height)] for i in range(width + 1)]
    states = {0: 1}
    for i in range(width):
        col, nxt_col = inside[i], inside[i + 1]
        nxt: dict[int, int] = {}

        def fill(j, mask, out_mask, ways):
            while j < height and (mask >> j & 1 or not col[j]):
                j += 1
            if j == height:
                nxt[out_mask] = nxt.get(out_mask, 0) + ways
                return
            if nxt_col[j]:  # horizontal domino into the next column
                fill(j + 1, mask | 1 << j, out_mask | 1 << j, ways)
            if j + 1 < height and col[j + 1] and not mask >> (j + 1) & 1:
                fill(j + 2, mask | 3 << j, out_mask, ways)

        for mask, ways in states.items():
            fill(0, mask, 0, ways)
        states = nxt
    return states.get(0, 0)


def _tiling_problems(cells: set, dominoes: list) -> list[str]:
    covered: set = set()
    for a, b in dominoes:
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            return [f"domino {a}-{b} is not an adjacent pair"]
        for s in (a, b):
            if s not in cells:
                return [f"domino square {s} outside the region"]
            if s in covered:
                return [f"square {s} covered twice"]
            covered.add(s)
    if covered != cells:
        return [f"{len(cells - covered)} squares uncovered"]
    return []


def _tile_height_problems(cells: set, dominoes: list, heights: dict) -> list[str]:
    """Heights of a tiling: psi = 4h + label steps by 3 exactly across dominoes."""
    verts = {(x + dx, y + dy) for x, y in cells for dx in (0, 1) for dy in (0, 1)}
    if set(heights) != verts:
        return ["height vertices differ from the region's corners"]
    pairs = {frozenset(d) for d in dominoes}
    for (x, y), h in heights.items():
        for axis, head in ((0, (x + 1, y)), (1, (x, y + 1))):
            if head not in heights:
                continue
            step = 4 * heights[head] + parity_label(*head) - 4 * h - parity_label(x, y)
            if axis == 0:  # horizontal edge separates the squares below and above
                s1, s2 = (x, y - 1), (x, y)
            else:
                s1, s2 = (x - 1, y), (x, y)
            crosses = frozenset((s1, s2)) in pairs
            if abs(step) != (3 if crosses else 1):
                return [f"height step {step} on edge {(x, y)}-{head}"]
    return []


def check_tile(out: Path, spec: dict, stdout: str, count_cache: dict) -> list[str]:
    cells = {tuple(c) for c in spec["cells"]}
    problems = []
    key = frozenset(cells)
    if key not in count_cache:
        count_cache[key] = count_tilings_profile(cells)
    expected = count_cache[key]
    if spec.get("count", True):
        counts = json.loads((out / "counts.json").read_text())
        if counts["count_kasteleyn"] != expected:
            problems.append(f"Kasteleyn count {counts['count_kasteleyn']} != {expected}")
        if counts["count_bruteforce"] not in (None, expected):
            problems.append(f"brute-force count {counts['count_bruteforce']} != {expected}")
        lines = stdout.strip().splitlines()
        if not lines or lines[-1] != str(counts["count_kasteleyn"]):
            problems.append("printed count differs from counts.json")
    samples = spec.get("samples", 0)
    if samples:
        tilings: dict[int, list] = {}
        for s, ax, ay, bx, by in _read_rows(out / "tilings.csv"):
            tilings.setdefault(int(s), []).append(((int(ax), int(ay)), (int(bx), int(by))))
        heights = _heights_by_sample(out / "heights.csv")
        if sorted(tilings) != list(range(samples)) or sorted(heights) != list(range(samples)):
            return problems + ["wrong number of samples"]
        for s in range(samples):
            problems += _tiling_problems(cells, tilings[s])
            problems += _tile_height_problems(cells, tilings[s], heights[s])
    return problems


# ---------------------------------------------------------------------------
# Height functions on regions and tori


def _box_edges(verts):
    for (x, y) in verts:
        for axis, head in ((0, (x + 1, y)), (1, (x, y + 1))):
            if head in verts:
                yield (x, y), axis, head


def check_cftp(out: Path, spec: dict) -> list[str]:
    """Exact samples: boundary held at its level, every increment in support."""
    region = {tuple(v) for v in spec["vertices"]}
    level = spec["boundary_level"]
    boundary = {
        w
        for (x, y) in region
        for w in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
        if w not in region
    }
    samples = _heights_by_sample(out / "samples.csv")
    if sorted(samples) != list(range(spec["samples"])):
        return ["wrong number of samples"]
    for s, h in samples.items():
        if set(h) != region | boundary:
            return [f"sample {s} covers the wrong vertices"]
        if any(h[v] != level for v in boundary):
            return [f"sample {s} moved the boundary"]
        for base, axis, head in _box_edges(h):
            if not in_support(spec["pot"], base, axis, h[head] - h[base]):
                return [f"sample {s}: increment {h[head] - h[base]} at {base} axis {axis}"]
    return []


def torus_height_problems(h: dict, n: int, slope, pot: str) -> list[str]:
    """Torus heights: wrap edges carry the holonomy n * u."""
    hol = [Fraction(c) * n for c in slope]
    if any(q.denominator != 1 for q in hol):
        return [f"slope {slope} has non-integral holonomy on the {n}-torus"]
    if set(h) != {(i, j) for i in range(n) for j in range(n)}:
        return ["torus sample covers the wrong vertices"]
    for (x, y), hv in h.items():
        for axis in (0, 1):
            hx, hy = (x + 1, y) if axis == 0 else (x, y + 1)
            shift = 0
            if hx == n or hy == n:
                shift = int(hol[axis])
            inc = h[(hx % n, hy % n)] + shift - hv
            if not in_support(pot, (x, y), axis, inc):
                return [f"increment {inc} at {(x, y)} axis {axis}"]
    return []


def check_sample(out: Path, spec: dict) -> list[str]:
    samples = _heights_by_sample(out / "samples.csv")
    if sorted(samples) != list(range(spec["samples"])):
        return ["wrong number of samples"]
    problems = []
    for h in samples.values():
        problems += torus_height_problems(h, spec["n"], spec["slope"], spec["pot"])
    return problems


# ---------------------------------------------------------------------------
# Distance tables


def _dijkstra(verts, pot, source):
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        x, y = v
        arcs = []
        for axis, head in ((0, (x + 1, y)), (1, (x, y + 1))):
            if head in verts:  # phi(head) - phi(v) <= greatest increment
                arcs.append((head, support_bounds(pot, v, axis)[1]))
        for axis, base in ((0, (x - 1, y)), (1, (x, y - 1))):
            if base in verts:  # phi(base) - phi(v) <= -least increment
                arcs.append((base, -support_bounds(pot, base, axis)[0]))
        for w, c in arcs:
            nd = d + c
            if nd < dist.get(w, math.inf):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def check_feasibility(out: Path, spec: dict) -> list[str]:
    verts = {tuple(v) for v in spec["vertices"]}
    table: dict = {}
    for sx, sy, tx, ty, d in _read_rows(out / "distances.csv"):
        table.setdefault((int(sx), int(sy)), {})[(int(tx), int(ty))] = float(d)
    if set(table) != verts:
        return ["distance table has the wrong sources"]
    for s in sorted(verts):
        if table[s] != _dijkstra(verts, spec["pot"], s):
            return [f"distances from {s} differ from Dijkstra"]
    feas = json.loads((out / "feasibility.json").read_text())
    if not feas["feasible_at_zero"]:
        return ["slope 0 reported infeasible"]
    return []


# ---------------------------------------------------------------------------
# Cluster maps


def check_swap(out: Path, spec: dict) -> list[str]:
    """clusters.csv partitions the window into connected clusters of constant zeta."""
    n = spec["n"]
    window = {(i, j) for i in range(n) for j in range(n)}
    by_trial: dict[int, dict] = {}
    for t, x, y, zeta, cl, touch in _read_rows(out / "clusters.csv"):
        by_trial.setdefault(int(t), {}).setdefault(int(cl), []).append(
            ((int(x), int(y)), int(zeta), int(touch))
        )
    if sorted(by_trial) != list(range(spec["trials"])):
        return ["wrong number of trials in clusters.csv"]
    for t, clusters in by_trial.items():
        seen: set = set()
        for rows in clusters.values():
            verts = [r[0] for r in rows]
            if len({r[1] for r in rows}) != 1 or len({r[2] for r in rows}) != 1:
                return [f"trial {t}: zeta or boundary flag varies within a cluster"]
            if rows[0][1] not in (-1, 0, 1):
                return [f"trial {t}: zeta {rows[0][1]}"]
            vset = set(verts)
            if len(vset) != len(verts) or vset & seen:
                return [f"trial {t}: a vertex lies in two clusters"]
            seen |= vset
            if not _connected(vset):
                return [f"trial {t}: a cluster is not connected"]
            edge = any(v[0] in (0, n - 1) or v[1] in (0, n - 1) for v in vset)
            if edge != bool(rows[0][2]):
                return [f"trial {t}: boundary flag wrong"]
        if seen != window:
            return [f"trial {t}: clusters do not cover the window"]
    scans = json.loads((out / "swap.json").read_text())["scans"]
    if [s["trial"] for s in scans] != list(range(spec["trials"])):
        return ["swap.json has the wrong trials"]
    if any(s["gap"] != s["b_plus"] - s["b_minus"] for s in scans):
        return ["swap.json gap differs from b_plus - b_minus"]
    return []


def _connected(vset: set) -> bool:
    start = next(iter(vset))
    stack, seen = [start], {start}
    while stack:
        x, y = stack.pop()
        for w in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if w in vset and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vset


# ---------------------------------------------------------------------------
# Surface tension


def sigma_values(out: Path) -> list[dict]:
    return json.loads((out / "sigma.json").read_text())["estimates"]


def check_sigma(out: Path, spec: dict) -> list[str]:
    """Per-op checks; cross-method agreement is checked by ``check_sigma_pairs``."""
    est = sigma_values(out)
    if [e["inputs"]["slope"] for e in est] != [list(s) for s in spec["slopes"]]:
        return ["sigma.json slopes differ from the config"]
    for e in est:
        if not math.isfinite(e["value"]):
            return [f"sigma {e['value']} at {e['inputs']['slope']}"]
        if spec["pot"] == "domino" and e["method"] != "ThermodynamicIntegration":
            # domino weights are 0/1, so exp(-n^2 sigma) counts class configs
            n = spec["n"]
            z = math.exp(-n * n * e["value"])
            if abs(z - round(z)) > 1e-6 * z or round(z) < 1:
                return [f"domino class sum {z} is not a positive integer"]
        if e["method"] == "ThermodynamicIntegration" and not e["stderr"] > 0:
            return ["thermodynamic integration reported no stderr"]
    return []


def check_sigma_pairs(results: dict) -> tuple[list[str], list[dict]]:
    """Compare ops that share a pair key: exact methods agree, TI stays near them.

    ``results`` maps a pair key to a list of (method, estimates) tuples.
    Returns problems and, per TI estimate, its error TI - exact and the
    z-score error / stderr.
    """
    problems, errors = [], []
    for key, entries in sorted(results.items()):
        exact = [est for method, est in entries if method != "ThermodynamicIntegration"]
        ti = [est for method, est in entries if method == "ThermodynamicIntegration"]
        if not exact:
            continue
        ref = [e["value"] for e in exact[0]]
        for other in exact[1:]:
            for a, b in zip(ref, (e["value"] for e in other)):
                if abs(a - b) > EXACT_AGREEMENT:
                    problems.append(f"{key}: exact methods differ, {a} vs {b}")
        for est in ti:
            for a, e in zip(ref, est):
                err = e["value"] - a
                errors.append({"pair": key, "error": err, "z": err / e["stderr"]})
                if abs(err) > TI_ABS_TOLERANCE:
                    problems.append(f"{key}: TI {e['value']} vs exact {a}")
    return problems, errors
