"""Run the benchmark over several seeds and collect the results in one file.

Usage (from the root of a checkout)::

    python3 perfbench/campaign.py --out RESULTS.json [--runs 10] [--first-seed 1]
        [--workloads enum_n7,sweep_random] [--trace 0|1]

Seeds ``first-seed .. first-seed + runs - 1`` run in turn, every workload per
seed, with ``run_seconds`` from ``BENCHMARK.json``.  The file is rewritten
after each run and holds, per run, the workload, the seed, the info line
(nproc, Python version, git sha, sample counts) and the result line.
Summarise or compare files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        timeout=600,
    )
    lines = done.stdout.decode().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr.decode()}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "info": json.loads(lines[-2])["info"],
        "result": json.loads(lines[-1]),
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results: dict = {"runs": []}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workloads.split(","):
            run = run_once(workload, seed, spec["run_seconds"], args.trace)
            results["runs"].append(run)
            Path(args.out).write_text(json.dumps(results, indent=1))
            status = "ok" if run["result"]["correct"] else "INCORRECT"
            print(f"{workload} seed={seed} {status} wall={run['info']['wall_s']:.1f}s",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
