"""Per-layer spans for the traced run, recorded from outside the program.

Entering a ``Tracer`` replaces each public function of the package with a
wrapper at every module attribute that binds it (``packings.cli``,
``packings.codes`` and ``packings.solve`` import names directly, so one
function can be bound in several modules).  A wrapper opens a span only
when the call crosses from one group into another, so the inner loops of a
layer (the LCS calls of one pairwise scan, the feasibility tests of one
bound scan) add counts but no spans.  Spans stay in memory and are written
out when the run ends; self time is computed from them afterwards.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import defaultdict
from functools import wraps
from inspect import isfunction
from time import perf_counter

import packings
from packings import cli, codes, construct, core, directing, solve
from packings import bounds as pk_bounds
from packings import io as pk_io

LAYERS = (cli, pk_io, pk_bounds, construct, core, directing, codes, solve)

# Functions that form a group of their own inside their layer.  Every other
# public function belongs to the group named after its layer.
GROUPS = {
    "direct_packing": "directing.direct",
    "insert_point": "directing.insert",
    "compute_state": "directing.insert",
    "validate_packing": "core.validate",
    "validate_directed": "core.validate",
    "to_constant_weight": "codes.export",
    "to_indel_code": "codes.export",
    "add_constant_words": "codes.export",
    "lcs_length": "codes.lcs",
    "max_pairwise_lcs": "codes.lcs",
    "deletion_channel_check": "codes.check",
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("directing.direct.calls", "count", "lower"),
    ("directing.direct.self_s", "s", "lower"),
    ("directing.insert.calls", "count", "lower"),
    ("directing.insert.self_s", "s", "lower"),
    ("core.validate.calls", "count", "lower"),
    ("core.validate.self_s", "s", "lower"),
    ("core.validate.tsets", "count", "lower"),
    ("core.validate.ns_per_tset", "ns", "lower"),
    ("codes.export.self_s", "s", "lower"),
    ("codes.lcs.calls", "count", "lower"),
    ("codes.lcs.self_s", "s", "lower"),
    ("codes.lcs.cells", "count", "lower"),
    ("codes.check.self_s", "s", "lower"),
    ("construct.calls", "count", "lower"),
    ("construct.self_s", "s", "lower"),
    ("construct.points_out", "count", "lower"),
    ("solve.calls", "count", "lower"),
    ("solve.self_s", "s", "lower"),
    ("solve.pool", "count", "lower"),
    ("solve.budget_exhausted", "count", "lower"),
    ("solve.certified_ratio", "ratio", "higher"),
    ("bounds.calls", "count", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("bounds.scan_len", "count", "lower"),
    ("io.calls", "count", "lower"),
    ("io.self_s", "s", "lower"),
    ("io.bytes", "B", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def public_functions() -> dict[str, object]:
    """What the package exports, plus every public function of cli and io.

    Helpers the package does not export (``core.choose``,
    ``bounds.sj_quadratic_feasible``) run inside tight loops of other
    layers; wrapping them would turn arithmetic into spans.
    """
    found = {}
    for name, obj in vars(packings).items():
        if isfunction(obj) and obj.__module__.startswith("packings."):
            found[name] = obj
    for module in (cli, pk_io):
        for name, obj in vars(module).items():
            if isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__:
                found[name] = obj
    return found


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Counters kept at the wrappers: hook(counters, args, result, entry), where
# entry says whether the call opened a span (came from another group).
def _count_tsets(c, args, result, entry):
    design, params = args[0], args[1]
    c["core.validate.tsets"] += sum(math.comb(len(b), params.t) for b in design.blocks)


def _count_lcs(c, args, result, entry):
    c["codes.lcs.calls"] += 1
    c["codes.lcs.cells"] += len(args[0]) * len(args[1])


def _count_points(c, args, result, entry):
    if entry:
        design = result[0] if isinstance(result, tuple) else result
        c["construct.points_out"] += sum(len(b) for b in design.blocks)


def _count_search(c, args, result, entry):
    if args and isinstance(args[0], core.DesignParams):
        c["solve.pool"] += math.comb(args[0].v, args[0].k)
    else:
        c["solve.pool"] += math.perm(args[0], args[1])
    c["solve.certified"] += result.certificate == solve.OPTIMAL
    c["solve.budget_exhausted"] += result.certificate != solve.OPTIMAL


def _count_scan(c, args, result, entry):
    detail = result.detail
    c["bounds.scan_len"] += detail.get("first_infeasible") or detail.get("scanned_to") or 0


def _count_file(c, args, result, entry):
    if entry:
        c["io.bytes"] += _file_size(args[0])


def _count_text(c, args, result, entry):
    if entry:
        c["io.bytes"] += len(result.encode("utf-8"))


def _count_exit(c, args, result, entry):
    c["cli.exit_nonzero"] += result != 0


HOOKS = {
    "validate_packing": _count_tsets,
    "validate_directed": _count_tsets,
    "lcs_length": _count_lcs,
    "construct_optimal": _count_points,
    "general_construction": _count_points,
    "balanced_packing": _count_points,
    "pdn_exact": _count_search,
    "dpdn_exact": _count_search,
    "second_johnson": _count_scan,
    "gen_second_johnson_bound": _count_scan,
    "load_design": _count_file,
    "save_design": _count_file,
    "load_code": _count_file,
    "save_code": _count_file,
    "dumps_design": _count_text,
    "main": _count_exit,
}


class Tracer:
    """Spans and counters of the calls made while installed (``with tracer:``)."""

    def __init__(self):
        self.names: list[str] = []
        self.group_names: list[str] = []
        self.span_fn = array("i")
        self.span_group = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters: defaultdict = defaultdict(int)
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = [packings, *LAYERS]
        for name, fn in public_functions().items():
            group = GROUPS.get(name, fn.__module__.rsplit(".", 1)[1])
            if group not in self.group_names:
                self.group_names.append(group)
            self.names.append(name)
            wrapper = self._wrap(fn, len(self.names) - 1, self.group_names.index(group), HOOKS.get(name))
            for module in modules:
                for attr, value in vars(module).items():
                    if value is fn:
                        self._bindings.append((module, attr, fn, wrapper))

    def __enter__(self) -> "Tracer":
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn, _ in self._bindings:
            setattr(module, attr, fn)

    def _wrap(self, fn, fid: int, gid: int, hook):
        stack, groups = self.stack, self.span_group
        fns, parents, starts, ends = self.span_fn, self.span_parent, self.span_start, self.span_end
        counters = self.counters

        @wraps(fn)
        def traced(*args, **kwargs):
            if stack and groups[stack[-1]] == gid:
                result = fn(*args, **kwargs)
                if hook:
                    hook(counters, args, result, False)
                return result
            idx = len(starts)
            fns.append(fid)
            groups.append(gid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook:
                hook(counters, args, result, True)
            return result

        return traced

    def group_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Spans and self time per group; self time excludes child spans."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            group = self.group_names[self.span_group[i]]
            calls[group] += 1
            self_s[group] += self.span_end[i] - self.span_start[i] - child[i]
        return calls, self_s

    def metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric, per traced pass; the overhead is left at 0."""
        calls, self_s = self.group_totals()
        c = self.counters
        totals = dict(c)
        for group, count in calls.items():
            totals[f"{group}.calls"] = count
        for name, _, _ in PER_LAYER:
            prefix, _, kind = name.rpartition(".")
            if kind == "self_s":  # a layer's figure covers all of its groups
                totals[name] = sum(
                    s for g, s in self_s.items() if g == prefix or g.startswith(prefix + ".")
                )
        totals["codes.lcs.calls"] = c["codes.lcs.calls"]  # LCS tables, not spans
        out = {name: totals.get(name, 0) / passes for name, _, _ in PER_LAYER}
        tsets = c["core.validate.tsets"]
        out["core.validate.ns_per_tset"] = 1e9 * totals["core.validate.self_s"] / tsets if tsets else 0.0
        out["solve.certified_ratio"] = c["solve.certified"] / calls["solve"] if calls.get("solve") else 0.0
        out["trace.overhead_s"] = 0.0
        return out

    def write(self, path) -> None:
        """One line per span: index, parent, group, function, start and end in seconds."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tgroup\tfunction\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.group_names[self.span_group[i]]}\t"
                    f"{self.names[self.span_fn[i]]}\t{self.span_start[i] - origin:.9f}\t"
                    f"{self.span_end[i] - origin:.9f}\n"
                )
