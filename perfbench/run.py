"""gaindex benchmark: cold single-threaded processes on three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each child is a fresh interpreter, one thread, run one at a time):

* ``enum_n7``: ``enumerate_connected(n)`` for n = 1..7.  Canonical labeling
  does nearly all of the work; radicals, line graphs and checks do none.
* ``sweep_random``: ``run_checks`` plus ``SweepResult.absorb`` on each of
  1000 seeded random connected graphs with 3 <= n <= 12, the verdict-only
  path of the random half of the criterion-4 campaign.
* ``check_json_n7``: the CLI, ``gaindex check -i FILE --format json``, on every
  connected graph with 2 <= n <= 7 (995 graph6 lines, order permuted by the
  seed); its stdout is read through a pipe and hashed.

With ``--trace 0`` the run starts set-up probes and then untraced work
processes, at least two and more while another fits in ``--seconds``, and
reports the end-to-end metrics (medians over processes).  With ``--trace 1`` it runs one untraced and one
traced process and reports the per-layer metrics of :mod:`tracer`.  The last
stdout line is the result object; the line before it records the machine,
the sample counts and the digests seen.  Exit code 2 means the run could not
start (for example, no gaindex sources under ``src``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
import speed
import verify
from child import MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
CHILD = BENCH / "child.py"

WORKLOADS = ("enum_n7", "sweep_random", "check_json_n7")
SWEEP_GRAPHS = 1000
SETUP_PROBES = 10
# Each graph's time is its fastest over the run's processes, so with two a
# stall that hits one process does not reach the percentiles.
MIN_PROCESSES = 2
# The whole run must end within 180 s; a process still running at this
# point is killed and counted as failed.
RUN_LIMIT_S = 170.0


@dataclass
class Child:
    spawned: float
    wall_s: float
    code: int
    stdout: bytes
    record: dict | None


def spawn(
    workload: str, mode: str, input_path: Path | None, keep_stdout: bool, deadline: float
) -> Child:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    argv = [sys.executable, str(CHILD), workload, mode]
    if input_path is not None:
        argv.append(str(input_path))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if keep_stdout else subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        print(f"error: {workload} {mode} process killed at the time limit", file=sys.stderr)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall_s = time.monotonic() - spawned
    record = None
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith(MARKER):
            record = json.loads(line[len(MARKER):])
        else:
            sys.stderr.write(line + "\n")
    return Child(spawned, wall_s, proc.returncode, stdout or b"", record)


def write_inputs(workload: str, seed: int, workdir: Path) -> tuple[Path | None, list[str]]:
    if workload == "sweep_random":
        path = workdir / "graphs.json"
        path.write_text(json.dumps(inputs.random_graphs(seed, SWEEP_GRAPHS)))
        return path, []
    if workload == "check_json_n7":
        lines = inputs.permuted_graph6(seed)
        path = workdir / "graphs.g6"
        path.write_text("".join(line + "\n" for line in lines))
        return path, lines
    return None, []


def setup_seconds(child: Child) -> float | None:
    """Spawn to set-up done, in reference-speed seconds (:mod:`speed`)."""
    if child.code != 0 or not child.record:
        return None
    slowdown = child.record["kernel_s"] / speed.NOMINAL_KERNEL_S
    return (child.record["ready"] - child.spawned) / slowdown


def timings(workload: str, record: dict, prefix: str) -> tuple[float, list[float]]:
    """Graphs per second and seconds-per-graph samples of one work process;
    ``prefix`` "ref_" selects reference-speed seconds, "" wall seconds.

    Enumeration returns a whole order at once, so each class produced is
    charged its order's time divided by the order's class count.
    """
    if workload == "enum_n7":
        per_order = record[prefix + "order_s"]
        counts = record["counts"]
        samples = [t / c for t, c in zip(per_order, counts) for _ in range(c)]
        return sum(counts) / sum(per_order), samples
    samples = record[prefix + "graph_s"]
    timed = sum(samples) if workload == "sweep_random" else record[prefix + "timed_s"]
    return record["graphs"] / timed, samples


def end_to_end(workload: str, records: list[dict], prefix: str) -> dict:
    """The timing metrics of one run.

    Every process runs the same inputs in the same order, so each graph's
    time is its minimum over the run's processes: interference from other
    work on the machine only ever adds time.  The percentiles are taken over
    those per-graph times.
    """
    rates, columns = [], []
    for record in records:
        rate, per_graph = timings(workload, record, prefix)
        rates.append(rate)
        columns.append(per_graph)
    samples = [min(times) for times in zip(*columns)]
    return {
        "graphs_per_s": statistics.median(rates),
        "graph_p50_ms": 1000 * statistics.median(samples),
        "graph_p99_ms": 1000 * statistics.quantiles(samples, n=100)[98],
    }


def verify_run(workload: str, seed: int, children: list[Child], lines: list[str]):
    reference = json.loads(REFERENCE.read_text())[workload]
    pairs = [(c.code, c.record) for c in children]
    if workload == "enum_n7":
        return verify.check_enum(pairs, reference)
    if workload == "sweep_random":
        digest = reference["digest_by_seed"].get(str(seed))
        return verify.check_sweep(pairs, SWEEP_GRAPHS, digest)
    return verify.check_json_output(
        [(c.code, c.stdout) for c in children],
        lines,
        reference,
        reference["stdout_sha256_by_seed"].get(str(seed)),
    )


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.decode().strip() if done.returncode == 0 else None


def measure(args, input_path: Path | None, deadline: float) -> tuple[dict, dict, list[Child]]:
    keep = args.workload == "check_json_n7"
    info: dict = {}
    if args.trace:
        plain = spawn(args.workload, "work", input_path, keep, deadline)
        traced = spawn(args.workload, "trace", input_path, keep, deadline)
        metrics = {}
        if plain.record and traced.record and traced.record.get("layers"):
            metrics = dict(traced.record["layers"])
            # Each process's work time in units of its own kernel time, so
            # that a change in machine speed between them cancels.
            metrics["trace.overhead_frac"] = (
                traced.record["work_s"] / traced.record["kernel_s"]
            ) / (plain.record["work_s"] / plain.record["kernel_s"]) - 1
        return metrics, info, [plain, traced]

    started = time.monotonic()
    probes = [
        spawn(args.workload, "probe", input_path, False, deadline) for _ in range(SETUP_PROBES)
    ]
    children: list[Child] = []
    while True:
        children.append(spawn(args.workload, "work", input_path, keep, deadline))
        typical = statistics.median(c.wall_s for c in children)
        fits = time.monotonic() - started + typical <= args.seconds
        if len(children) >= MIN_PROCESSES and not fits:
            break
    setups = [s for s in map(setup_seconds, probes) if s is not None]
    records = [c.record for c in children if c.code == 0 and c.record]
    metrics = {}
    if setups and records:
        metrics = end_to_end(args.workload, records, "ref_")
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in records)
        info["wall_clock"] = end_to_end(args.workload, records, "")
        info["graph_samples"] = len(timings(args.workload, records[0], "")[1])
    info["setup_samples"] = len(setups)
    return metrics, info, children


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaindex" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: needs gaindex sources under {SRC} and {SPEC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    # Unmeasured: compiles the bytecode cache and proves the import works.
    if spawn("enum_n7", "probe", None, False, deadline).code != 0:
        print("error: gaindex does not import", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        input_path, lines = write_inputs(args.workload, args.seed, workdir)
        wall = time.monotonic()
        metrics, info, children = measure(args, input_path, deadline)
        wall = time.monotonic() - wall
        outcome = verify_run(args.workload, args.seed, children, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics and set(metrics) != set(units):
        outcome.problems.append(f"metrics differ from {SPEC.name}: {sorted(set(metrics) ^ set(units))}")

    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        processes=len(children),
        wall_s=wall,
        nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        git_sha=git_sha(),
        src_sha256=source_digest(),
        record_digests=[c.record.get("digest") for c in children if c.record],
        stdout_sha256=sorted({hashlib.sha256(c.stdout).hexdigest() for c in children if c.stdout}),
        problems=outcome.problems,
    )
    result = {
        "correct": outcome.correct and bool(metrics),
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()
        },
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
