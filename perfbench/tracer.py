"""In-memory span tracer that wraps gaindex's public functions from outside.

Nothing in the package is edited: :meth:`Tracer.install` replaces each public
function (and a few ``RadicalNumber`` / ``CheckReport`` / ``SweepResult``
methods) with a wrapper, in every gaindex module namespace that holds the
same object, and :meth:`Tracer.uninstall` puts the originals back.  Each call
becomes one span (name, start, end, parent span); spans are kept in flat
arrays and turned into per-name call counts, inclusive time and self
time (duration minus the time covered by child spans) after the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

LAYERS = (
    "graphs",
    "enumeration",
    "linegraph",
    "indices",
    "radicals",
    "report",
    "checks",
    "sweeps",
    "formats",
    "cli",
)

ARITH_METHODS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__neg__",
    "__truediv__",
)

# (module, class, attribute, span name)
METHODS = tuple(
    [("radicals", "RadicalNumber", name, "radicals.arith") for name in ARITH_METHODS]
    + [
        ("radicals", "RadicalNumber", "sign", "radicals.sign"),
        ("radicals", "RadicalNumber", "float_with_error", "radicals.float_with_error"),
        ("report", "CheckReport", "to_dict", "report.to_dict"),
        ("sweeps", "SweepResult", "absorb", "sweeps.absorb"),
    ]
)

INDEX_FUNCTIONS = ("ga1", "m1", "m2", "m1_alpha", "chi_alpha")
RECHECK_NOTE = "re-checked at 256-bit precision"


def public_functions(module) -> dict[str, object]:
    """Callables a module defines and exports (``__all__``, else no leading _)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if (
            callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            out[name] = obj
    return out


def span_stats(names, parents, starts, ends) -> dict[int, list]:
    """Per span-name id: [calls, inclusive seconds, self seconds].

    A span's self time is its duration minus the durations of its direct
    children.  Spans nest strictly (one thread, wrappers enter and leave in
    stack order), so the children never overlap and their summed durations
    are exactly the part of the parent's interval they cover.
    """
    covered = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    stats: dict[int, list] = {}
    for i, nid in enumerate(names):
        dur = ends[i] - starts[i]
        entry = stats.get(nid)
        if entry is None:
            entry = stats[nid] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - covered[i]
    return stats


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.check_verdicts: dict[str, int] = {}
        self.mode_verdicts = {"exact": 0, "float": 0, "skipped": 0}
        self.float_rechecks = 0
        self.checked_graphs = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(self.name_id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def wrap_run_checks(self, run_checks, check_ids):
        """``run_checks`` split into one ``run_checks(g, ids=[id])`` per id.

        The concatenation equals one call with every id, because run_checks
        runs the selected ids in order and concatenates their reports; the
        split gives each check its own span and verdict count.
        """
        tracer = self

        def traced(g, ids=None, alphas=None):
            extra = {} if alphas is None else {"alphas": alphas}
            selected = list(check_ids if ids is None else ids)
            tracer.checked_graphs += 1
            outer = tracer.open("checks.run_checks")
            try:
                out = []
                for check_id in selected:
                    span = tracer.open(f"checks.{check_id}")
                    try:
                        reports = run_checks(g, ids=[check_id], **extra)
                    finally:
                        tracer.close(span)
                    tracer.count(check_id, reports)
                    out.extend(reports)
                return out
            finally:
                tracer.close(outer)

        return functools.update_wrapper(traced, run_checks)

    def count(self, check_id: str, reports) -> None:
        self.check_verdicts[check_id] = self.check_verdicts.get(check_id, 0) + len(reports)
        for r in reports:
            self.mode_verdicts[r.mode] = self.mode_verdicts.get(r.mode, 0) + 1
            if RECHECK_NOTE in r.notes:
                self.float_rechecks += 1

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"gaindex.{layer}") for layer in LAYERS}
        checks = modules["checks"]
        replacements: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            for name, fn in public_functions(module).items():
                if fn is checks.run_checks:
                    wrapped = self.wrap_run_checks(fn, checks.CHECK_IDS)
                else:
                    wrapped = self.wrap(f"{layer}.{name}", fn)
                replacements[id(fn)] = (fn, wrapped)
        for module in [importlib.import_module("gaindex"), *modules.values()]:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr, self.wrap(span, vars(cls)[attr]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, inclusive seconds, self seconds)."""
        raw = span_stats(self.names, self.parents, self.starts, self.ends)
        return {self.span_names[nid]: tuple(v) for nid, v in raw.items()}

    def layer_metrics(self, graphs: int, classes: int, check_ids) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, zero where unused."""
        stats = self.stats()

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def incl(name):
            return stats.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return stats.get(name, (0, 0.0, 0.0))[2]

        per_graph = max(graphs, 1)
        ck_calls = calls("graphs.canonical_key")
        out: dict[str, float] = {
            "graphs.canonical_key.calls": ck_calls,
            "graphs.canonical_key.self_s": own("graphs.canonical_key"),
            "enumeration.useful_ratio": classes / ck_calls if ck_calls else 0.0,
            "graphs.from_edge_list.calls": calls("graphs.from_edge_list"),
            "graphs.from_edge_list.self_s": own("graphs.from_edge_list"),
            "graphs.components.calls_per_graph": calls("graphs.components") / per_graph,
            "graphs.components.self_s": own("graphs.components"),
            "linegraph.line_graph.calls_per_graph": calls("linegraph.line_graph")
            / per_graph,
            "linegraph.line_graph.self_s": own("linegraph.line_graph"),
            "indices.calls_per_graph": sum(
                calls(f"indices.{f}") for f in INDEX_FUNCTIONS
            )
            / per_graph,
            "indices.self_s": sum(own(f"indices.{f}") for f in INDEX_FUNCTIONS),
        }
        for name in ("compare", "sign", "arith", "float_with_error"):
            out[f"radicals.{name}.calls"] = calls(f"radicals.{name}")
            out[f"radicals.{name}.self_s"] = own(f"radicals.{name}")
        for name in ("exact_report", "float_report"):
            out[f"report.{name}.calls"] = calls(f"report.{name}")
            out[f"report.{name}.self_s"] = own(f"report.{name}")
        out["report.float_recheck.count"] = self.float_rechecks
        out["report.to_dict.self_s"] = own("report.to_dict")
        for check_id in check_ids:
            out[f"checks.{check_id}.s"] = incl(f"checks.{check_id}")
            out[f"checks.{check_id}.verdicts"] = self.check_verdicts.get(check_id, 0)
        for mode in ("exact", "float", "skipped"):
            out[f"checks.verdicts.{mode}"] = self.mode_verdicts.get(mode, 0)
        out["sweeps.absorb.self_s"] = own("sweeps.absorb")
        out["formats.iter_graph6.s"] = incl("formats.iter_graph6")
        out["formats.to_graph6.self_s"] = own("formats.to_graph6")
        out["cli.self_s"] = sum(
            (v[2] for k, v in stats.items() if k.startswith("cli.")), 0.0
        )
        return out
