"""Campaign benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fig5-serial --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run measures the
end-to-end metrics (set-up time as the median of three process starts,
campaign throughput and peak memory); with ``--trace 1`` it measures the
per-layer metrics from traced campaigns.  Every record is checked against
the committed references; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every verdict and every
deterministic counter matched.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Thread pools pinned to one thread each, so that the two pool workers do
#: not oversubscribe two cores.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Extra processes that only set the workload up; with the measuring
#: process they give three set-up samples per run.
SETUP_SAMPLES = 2

#: Seconds a set-up-only child and the measuring child may take; a run
#: stays below 180 s even when every child runs into its limit.
SETUP_TIMEOUT = 25
RUN_TIMEOUT = 100


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def child_environment() -> dict:
    environment = dict(os.environ)
    for name in THREAD_VARIABLES:
        environment[name] = "1"
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH")
           else []))
    return environment


def _read(command: list[str]) -> str:
    # The ceiling keeps git from reporting an enclosing repository when
    # the checkout itself is not one.
    environment = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        return subprocess.run(command, capture_output=True, text=True,
                              env=environment, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment_stamp() -> dict:
    """Commit, machine and library versions the result was measured on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = _read([sys.executable, "-c",
                      "import numpy, scipy; "
                      "print(numpy.__version__, scipy.__version__)"])
    numpy_version, _, scipy_version = versions.partition(" ")
    commit = _read(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    return {"commit": commit if len(commit) == 40 else "unknown",
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy_version, "scipy": scipy_version or "unknown",
            "threads": {name: "1" for name in THREAD_VARIABLES}}


def run_child(arguments: list[str], timeout: float) -> dict:
    """Run ``campaign.py`` with ``arguments``; its last output line."""
    command = [sys.executable, str(HERE / "campaign.py"), *arguments,
               "--launched", repr(time.monotonic())]
    completed = subprocess.run(command, capture_output=True, text=True,
                               env=child_environment(), cwd=ROOT,
                               timeout=timeout)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"campaign.py exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns the raw measurement and the result."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds",
              str(seconds)]
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setup.append(run_child(common + ["--setup-only"],
                                   SETUP_TIMEOUT)["setup_s"])
    raw = run_child(common + ["--trace", str(trace)], RUN_TIMEOUT)
    setup.append(raw["setup_s"])
    raw["setup_samples"] = setup
    if trace:
        values = raw["layers"]
    else:
        values = {"setup_s": statistics.median(setup),
                  "faults_per_s": raw["faults_per_s"],
                  "peak_rss_mb": raw["peak_rss_mb"]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in metric_units(
                   "per_layer" if trace else "end_to_end").items()}
    correct = (raw["verdict_mismatches"] == 0 and not raw["counter_drift"]
               and not raw["problems"])
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return {"raw": raw, "result": result}


def main(argv=None) -> int:
    from tracing import span_metrics
    from workloads import add_run_arguments

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    add_run_arguments(parser)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library source under {ROOT / 'src'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    try:
        measured = measure(args.workload, args.seed, args.seconds,
                           args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"perfbench: {args.workload} seed {args.seed} failed: {exc}",
              file=sys.stderr)
        return 1
    raw, result = measured["raw"], measured["result"]
    print("env " + json.dumps(environment_stamp()))
    print(f"{args.workload} seed {args.seed}: {raw['campaigns']} campaigns "
          f"of {raw['faults']} faults")
    setup_metrics = set(span_metrics(setup=True).values())
    for name, metric in result["metrics"].items():
        share = ""
        if (args.trace and metric["unit"] == "s"
                and name not in setup_metrics):
            share = (f"  ({metric['value'] / raw['traced_campaign_s']:.1%} "
                     "of a traced campaign)")
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}{share}")
    if not args.trace:
        print(f"  {'(faults per wall second)':34s} "
              f"{raw['faults_per_wall_s']:.6g} faults/s")
        rate = raw["failed"] / raw["attempted"]
        print(f"  {'verdict_mismatches':34s} {raw['verdict_mismatches']} "
              "count")
        print(f"  {'fault_error_rate':34s} {rate:.6g} fraction")
    for line in raw["counter_drift"] + raw["problems"]:
        print(f"  FAIL {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
