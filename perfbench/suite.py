"""Run every workload of the benchmark and collect a result set.

    python3 perfbench/suite.py --seeds 1-10 --out perfbench/out/head.json

Each run is one ``run.py`` process, ``run_seconds`` long as
``BENCHMARK.json`` sets it.  For every workload of ``BENCHMARK.json`` the
suite makes one untraced run per seed and one traced run (first seed),
prints every end-to-end metric by name and unit (median, quartiles and
spread against the metric's bound, plus the verdict mismatches and fault
error rate) and writes all results, with the run length, to the ``--out``
file that ``compare.py`` reads.  It exits non-zero when any run
failed, any verdict mismatched or any counter drifted.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

from compare import quartiles, spread

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    run = {"workload": workload, "seed": seed, "trace": trace,
           "exit": completed.returncode, "result": None, "env": None,
           "wall_s": time.monotonic() - start}
    for line in lines:
        if line.startswith("env "):
            run["env"] = json.loads(line[4:])
        elif line.split()[:1] == ["verdict_mismatches"]:
            run["verdict_mismatches"] = int(line.split()[1])
    if lines and lines[-1].startswith("{"):
        run["result"] = json.loads(lines[-1])
    if completed.returncode != 0:
        run["stderr"] = completed.stderr[-2000:]
    return run


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    result_set = {"env": {}, "run_seconds": seconds, "runs": []}
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        runs.append(run_once(workload, seeds[0], seconds, 1))
        result_set["runs"] += runs
        result_set["env"] = next((r["env"] for r in runs if r["env"]),
                                 result_set["env"])
        print(f"{workload} ({len(seeds)} seeds, "
              f"{sum(r['wall_s'] for r in runs):.0f} s for "
              f"{len(runs)} runs)")
        for run in runs:
            result = run["result"]
            if run["exit"] != 0 or not result or not result["correct"]:
                failed = True
                print(f"  FAIL seed {run['seed']} trace {run['trace']} "
                      f"exit {run['exit']}\n{run.get('stderr', '')}")
        untraced = [r["result"] for r in runs
                    if r["trace"] == 0 and r["result"]]
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in untraced]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            print(f"  {metric['name']:18s} median {median:.6g} "
                  f"[{q1:.6g}, {q3:.6g}] {metric['unit']}  spread "
                  f"{spread(values):.2%} (bound {metric['bound']:.0%})")
        attempted = sum(r["attempted"] for r in untraced)
        errors = sum(r["failed"] for r in untraced)
        mismatches = sum(r.get("verdict_mismatches", 0) for r in runs)
        print(f"  {'verdict_mismatches':18s} {mismatches} count")
        print(f"  {'fault_error_rate':18s} "
              f"{errors / attempted if attempted else 0:.6g} fraction "
              f"({errors} of {attempted} faults)")
        sys.stdout.flush()
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result_set, indent=1) + "\n",
                            encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
