"""One cold gaindex process running one workload once.

Usage: ``python3 perfbench/child.py WORKLOAD MODE [INPUT]`` from the root of
a checkout, with ``src`` on ``PYTHONPATH``.  ``MODE`` is ``work`` (timed,
untraced, with the :mod:`speed` clock sampling), ``probe`` (stop as soon as
gaindex is imported and the inputs are loaded) or ``trace`` (every public
gaindex function wrapped by :mod:`tracer`).  The measurements go to stderr as
one line starting with ``MARKER``; stdout belongs to the program (the CLI's
JSON for ``check_json_n7``).

Timed intervals are reported twice: in wall seconds and, under ``ref_*``,
in reference-speed seconds (:meth:`speed.SpeedClock.seconds`).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedClock, kernel_seconds
from tracer import Tracer

MARKER = "PERFBENCH_CHILD "
ORDERS = range(1, 8)
clock = time.perf_counter


def peak_rss_mb() -> float:
    """This process's own peak RSS.

    ``ru_maxrss`` would do, but Linux carries it across ``execve`` from the
    parent's address space, so a child of a large parent reads large.
    ``VmHWM`` covers only the current address space.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe(ready: float) -> dict:
    """A set-up probe's record: when set-up ended, and the machine's speed
    right after, for rescaling the set-up time to the reference speed."""
    return {"ready": ready, "kernel_s": kernel_seconds()}


def emit(record: dict) -> None:
    record["rss_mb"] = peak_rss_mb()
    sys.stderr.write(MARKER + json.dumps(record) + "\n")
    sys.stderr.flush()


class Meter:
    """The work-mode speed clock or the trace-mode tracer, started and stopped
    around the timed section.  ``kernel_s`` is the kernel's time just before
    and just after it, for comparing a traced with an untraced process."""

    def __init__(self, mode: str):
        self.speed = SpeedClock(clock) if mode == "work" else None
        self.tracer = Tracer(clock) if mode == "trace" else None
        self.kernel_s = 0.0

    def start(self) -> None:
        self.kernel_s = kernel_seconds() / 2
        if self.speed:
            self.speed.start()
        if self.tracer:
            self.tracer.install()

    def stop(self) -> None:
        if self.speed:
            self.speed.stop()
        if self.tracer:
            self.tracer.uninstall()
        self.kernel_s += kernel_seconds() / 2

    def ref(self, spans: list[tuple[float, float]]) -> list[float] | None:
        if not self.speed:
            return None
        return [self.speed.seconds(t0, t1) for t0, t1 in spans]

    def layers(self, graphs: int, classes: int) -> dict | None:
        if not self.tracer:
            return None
        from gaindex.checks import CHECK_IDS

        return self.tracer.layer_metrics(graphs=graphs, classes=classes, check_ids=CHECK_IDS)


def durations(spans: list[tuple[float, float]]) -> list[float]:
    return [t1 - t0 for t0, t1 in spans]


def run_enum(mode: str, path: str | None) -> dict:
    from gaindex.enumeration import enumerate_connected

    if mode == "probe":
        return probe(time.monotonic())
    meter = Meter(mode)
    classes = []
    counts = []
    spans = []
    meter.start()
    for n in ORDERS:
        t0 = clock()
        found = enumerate_connected(n)
        spans.append((t0, clock()))
        counts.append(len(found))
        classes.extend(found)
    meter.stop()

    from gaindex.indices import ga1

    rows = sorted((g.n, g.m, str(ga1(g).exact) if g.m else "") for g in classes)
    return {
        "work_s": spans[-1][1] - spans[0][0],
        "kernel_s": meter.kernel_s,
        "counts": counts,
        "order_s": durations(spans),
        "ref_order_s": meter.ref(spans),
        "digest": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        "layers": meter.layers(graphs=len(classes), classes=len(classes)),
    }


def verdict_line(report, fmt) -> str:
    sides = [
        "" if side.exact is None else fmt(side.exact)
        for side in (report.lhs, report.rhs)
    ]
    flags = (
        report.holds,
        report.equality,
        report.predicted_equality,
        report.characterization_consistent,
        report.preconditions_met,
        report.mode,
    )
    return "|".join([report.check_id, *map(str, flags), *sides]) + "\n"


def run_sweep(mode: str, path: str | None) -> dict:
    import gaindex.checks
    from gaindex.graphs import from_edge_list
    from gaindex.radicals import format_radical
    from gaindex.sweeps import SweepResult

    spec = json.loads(Path(path).read_text())
    graphs = [from_edge_list(n, [tuple(e) for e in edges]) for n, edges in spec]
    if mode == "probe":
        return probe(time.monotonic())
    meter = Meter(mode)
    result = SweepResult()
    digest = hashlib.sha256()
    spans = []
    failed = 0
    meter.start()
    # Looked up after start() so that a traced run calls the wrapper;
    # format_radical was bound before, so the digest records no spans.
    run_checks = gaindex.checks.run_checks
    started = clock()
    for i, g in enumerate(graphs):
        before = len(result.failures)
        t0 = clock()
        try:
            reports = run_checks(g)
            result.absorb(f"random[{i}]", reports)
        except Exception:
            spans.append((t0, clock()))
            failed += 1
            digest.update(f"{i}|raised\n".encode())
            traceback.print_exc()
            continue
        spans.append((t0, clock()))
        failed += len(result.failures) > before
        for report in reports:
            digest.update(verdict_line(report, format_radical).encode())
    work_s = clock() - started
    meter.stop()
    return {
        "work_s": work_s,
        "kernel_s": meter.kernel_s,
        "graph_s": durations(spans),
        "ref_graph_s": meter.ref(spans),
        "graphs": len(graphs),
        "failed": failed,
        "violations": sum(a.violations for a in result.aggregates.values()),
        "mismatches": sum(a.mismatches for a in result.aggregates.values()),
        "digest": digest.hexdigest(),
        "layers": meter.layers(graphs=len(graphs), classes=0),
    }


def run_check_json(mode: str, path: str | None) -> dict:
    from gaindex import cli

    spans: list[tuple[float, float]] = []
    meter = Meter(mode)
    if mode != "trace":
        original = cli.run_checks

        def timed_run_checks(*args, **kwargs):
            if mode == "probe":
                emit(probe(time.monotonic()))
                os._exit(0)
            t0 = clock()
            out = original(*args, **kwargs)
            spans.append((t0, clock()))
            return out

        cli.run_checks = timed_run_checks
    meter.start()
    started = clock()
    code = cli.main(["check", "-i", path, "--format", "json"])
    sys.stdout.flush()
    ended = clock()
    meter.stop()
    graphs = meter.tracer.checked_graphs if meter.tracer else len(spans)
    # The timed section starts when the inputs are loaded: at the first check.
    timed = [(spans[0][0] if spans else started, ended)]
    return {
        "work_s": ended - started,
        "kernel_s": meter.kernel_s,
        "timed_s": durations(timed)[0],
        "ref_timed_s": (meter.ref(timed) or [None])[0],
        "graph_s": durations(spans),
        "ref_graph_s": meter.ref(spans),
        "graphs": graphs,
        "exit_code": code,
        "layers": meter.layers(graphs=graphs, classes=0),
    }


RUNNERS = {"enum_n7": run_enum, "sweep_random": run_sweep, "check_json_n7": run_check_json}


def main() -> int:
    workload, mode = sys.argv[1], sys.argv[2]
    path = sys.argv[3] if len(sys.argv) > 3 else None
    record = RUNNERS[workload](mode, path)
    emit(record)
    return record.get("exit_code") or 0


if __name__ == "__main__":
    raise SystemExit(main())
