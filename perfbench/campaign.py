"""One benchmark run of one workload, in one process.

Sets the workload up from its seed, runs its campaign again and again for
the requested number of seconds, checks every record against the
committed references and prints one JSON object (the raw measurements)
on the last line of standard output.  ``run.py`` launches this script and
turns its output into the benchmark result; ``--setup-only`` stops right
before the first ``FaultSimulator.run`` call, which is how ``run.py``
takes extra set-up samples.

Times are measured in reference seconds (:mod:`speed`).  With
``--trace 1`` the library's public functions are wrapped (:mod:`tracing`);
campaigns alternate untraced and traced so that the run also measures the
tracing overhead, and the per-layer metrics come from the traced
campaigns.
"""

from __future__ import annotations

import time

#: Process start, taken before the library imports (set-up time counts
#: them when the launcher gives no earlier launch time).
PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from speed import Monitor, probe_burst, reference_seconds  # noqa: E402
from references import COUNTERS  # noqa: E402
from tracing import FROZEN_SOLVE, Tracer, span_metrics  # noqa: E402
from workloads import (OUT, WORKLOADS, add_run_arguments,  # noqa: E402
                       use_source_tree)

#: Campaign span -> metric of its self time.  The self time of every other
#: span inside a campaign is ``anafault.other_s``.
LAYER_SPANS = span_metrics(setup=False)
#: Set-up span -> metric of its self time.
SETUP_SPANS = span_metrics(setup=True)

#: Allowed difference between the traced and the outside-timed campaign
#: time: per campaign (the calls between the clock and the span) plus a
#: share of the wall time.
ACCOUNTING_SLACK_S = 2e-3
ACCOUNTING_SLACK = 2e-3

#: Niceness of the program once the monitor is forked: a probe then runs
#: as soon as the monitor wakes and is not cut short by the program's
#: threads, so the threads the program keeps busy do not slow it.
PROGRAM_NICENESS = 10

#: Set-up counters a workload's inputs may carry (0 when absent).
SETUP_COUNTS = ("cat.faults", "faultgen.candidates", "faultgen.collapsed",
                "faultgen.sampled")


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for
    shared-memory campaigns, so that no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def load_references(workload) -> tuple[dict, dict, list[str]]:
    from references import check_pins, load

    verdicts = load(workload.verdicts)
    counters = load(workload.counters)
    problems = check_pins(workload.verdicts, verdicts)
    if workload.counters != workload.verdicts:
        problems += check_pins(workload.counters, counters)
    return verdicts, counters, problems


def check_result(result, workload, verdicts: dict, counters: dict) -> dict:
    """Verdict mismatches, counter drift and fault errors of one campaign."""
    mismatches, errors, drift = 0, 0, []
    tolerance = workload.time_tolerance
    for record in result.records:
        if record is None:
            mismatches += 1
            drift.append("a fault has no record")
            continue
        key = str(record.fault.fault_id)
        verdict = verdicts["faults"].get(key)
        expected = counters["faults"].get(key)
        if verdict is None or expected is None:
            mismatches += 1
            drift.append(f"fault {key} has no reference")
            continue
        if record.message:
            errors += 1
        if record.status != verdict["status"]:
            mismatches += 1
        elif (record.detection_time is None) != (verdict["detection_time"]
                                                 is None):
            mismatches += 1
        elif record.detection_time is not None and (
                abs(record.detection_time - verdict["detection_time"])
                > tolerance if tolerance else
                record.detection_time != verdict["detection_time"]):
            mismatches += 1
        for name in COUNTERS:
            if int(getattr(record, name)) != expected[name]:
                drift.append(f"fault {key} {name} {getattr(record, name)} "
                             f"!= {expected[name]}")
    for name in COUNTERS:
        value = int(result.nominal_stats.get(name, 0))
        if value != counters["nominal"][name]:
            drift.append(f"nominal {name} {value} != "
                         f"{counters['nominal'][name]}")
    return {"mismatches": mismatches, "errors": errors, "drift": drift}


def run_campaign(inputs, campaign: int):
    """Campaign ``campaign`` of the run: one ``FaultSimulator.run``;
    returns the result, its wall time and the size of its checkpoint
    file."""
    from repro.anafault import FaultSimulator

    checkpoint = None
    if inputs.checkpoint:
        OUT.mkdir(parents=True, exist_ok=True)
        checkpoint = OUT / f"checkpoint-{os.getpid()}-{campaign}.jsonl"
        checkpoint.unlink(missing_ok=True)
    simulator = FaultSimulator(inputs.circuit,
                               inputs.campaign_faults(campaign),
                               inputs.settings)
    start = time.monotonic()
    result = simulator.run(executor=inputs.make_executor(),
                           checkpoint=checkpoint)
    wall = time.monotonic() - start
    size = 0
    if checkpoint is not None:
        size = checkpoint.stat().st_size
        checkpoint.unlink()
    return result, wall, size


def accounting_error(tracer, traced: list) -> float:
    """Traced campaign time minus the same campaigns timed from outside
    the tracer [s].

    The layer self times and ``anafault.other_s`` add up to the
    ``anafault.run`` spans by construction; this checks those spans
    against the clock read around each traced ``FaultSimulator.run`` call.
    """
    return (sum(tracer.span_durations("anafault.run"))
            - sum(item["wall"] for item in traced))


def layer_metrics(tracer, traced: list, setup: dict, inputs,
                  untraced_reference: list[float]) -> dict:
    """Per-layer metrics, per campaign, from the traced campaigns."""
    count = len(traced)
    metrics: dict[str, float] = {name: 0.0 for name in
                                 set(LAYER_SPANS.values())}
    for span, metric in LAYER_SPANS.items():
        metrics[metric] += tracer.self_time.get(span, 0.0) / count
    for span, metric in SETUP_SPANS.items():
        metrics[metric] = setup.get(span, 0.0)
    calls = tracer.calls
    run_span = sum(tracer.span_durations("anafault.run")) / count
    covered = sum(value for span, value in tracer.self_time.items()
                  if span in LAYER_SPANS) / count
    metrics["anafault.other_s"] = run_span - covered

    # Counters are identical in every campaign (checked against the
    # references), so the first traced campaign gives them.
    results = [item["result"] for item in traced]
    telemetry = results[0].telemetry()
    solves = telemetry["newton_iterations_total"]
    accepted = telemetry["steps_accepted_total"]
    rejected = telemetry["steps_rejected_total"]
    histogram = telemetry["order_histogram_total"]
    workers = max(1, results[0].workers)
    pool = results[0].executor == "pool"
    worker_seconds = [sum(r.elapsed_seconds for r in result.records)
                      for result in results]
    transient = tracer.span_durations("spice.transient")
    nominal = tracer.span_durations("anafault.nominal")
    fault_spans = list(transient)
    if pool:
        fault_spans += [r.elapsed_seconds for result in results
                        for r in result.records]
    rows = len(next(iter(results[0].nominal.values())))
    compared = calls.get("anafault.compare", 0) / count
    if pool:
        compared += sum(1 for r in results[0].records if not r.message)
    fed = calls.get("anafault.detector_feed", 0) / count + compared * rows
    plan = (tracer.self_time.get("anafault.plan", 0.0)
            + tracer.self_time.get("lint.preflight", 0.0)) / count
    executor_wall = run_span - plan - sum(nominal) / count
    deciles = statistics.quantiles(fault_spans, n=10, method="inclusive")

    metrics.update({
        "spice.backends.solves": (calls.get("spice.backends.solve", 0)
                                  + calls.get(FROZEN_SOLVE, 0))
        / count,
        "spice.backends.factorizations": (
            calls.get("spice.backends.solve", 0)
            + calls.get("spice.backends.factorize", 0)) / count,
        "spice.transient_s": sum(transient) / count
        + (sum(worker_seconds) / count if pool else 0.0),
        "spice.transient_ms_p50": 1e3 * deciles[4],
        "spice.transient_ms_p90": 1e3 * deciles[8],
        "spice.newton_solves": solves,
        "spice.newton_per_step": solves / accepted if accepted else 0.0,
        "spice.steps_accepted": accepted,
        "spice.steps_rejected": rejected,
        "spice.step_accept_ratio": accepted / (accepted + rejected)
        if accepted + rejected else 0.0,
        "spice.order_ge3_frac": sum(v for k, v in histogram.items()
                                    if int(k) >= 3)
        / max(1, sum(histogram.values())),
        "anafault.rows_fed_frac": fed / (rows * len(inputs.faults)),
        "anafault.early_aborted": telemetry["early_aborted"],
        "anafault.nominal_s": sum(nominal) / count,
        "anafault.checkpoint_bytes": sum(item["checkpoint_bytes"]
                                         for item in traced) / count,
        "anafault.pool.worker_busy_frac": (sum(worker_seconds) / count)
        / (workers * executor_wall) if executor_wall > 0 else 0.0,
        "anafault.pool.nominal_ipc_bytes": telemetry["nominal_ipc_bytes"],
        "anafault.pool.record_ipc_bytes": telemetry["record_ipc_bytes_total"],
        "tracing.overhead_frac": statistics.median(
            item["reference"] for item in traced)
        / statistics.median(untraced_reference) - 1.0,
    })
    for name in SETUP_COUNTS:
        metrics[name] = inputs.setup_counts.get(name, 0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    add_run_arguments(parser)
    parser.add_argument("--launched", type=float, default=None,
                        help="time.monotonic() at which the launcher "
                        "started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    launched = PROCESS_START if args.launched is None else args.launched

    use_source_tree()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        output = measure(args, launched, tracer)
    finally:
        stop_resource_tracker()
    print(json.dumps(output))
    return 0


def run_campaigns(args, workload, inputs, monitor, tracer, verdicts: dict,
                  counters: dict) -> dict:
    """Run campaigns back to back until the next one would end more than
    half a campaign past the deadline; check and time each of them."""
    runs: dict = {"attempted": 0, "errors": 0, "mismatches": 0, "drift": [],
                  "untraced_walls": [], "reference_walls": [], "traced": [],
                  "probes": []}
    deadline = time.monotonic() + args.seconds
    campaign = 0
    while True:
        trace_this = tracer is not None and campaign % 2 == 1
        if trace_this:
            tracer.install()
        monitor.start()
        result, wall, size = run_campaign(inputs, campaign)
        speed = monitor.reading()
        runs["probes"].append(speed)
        reference = reference_seconds(wall, speed)
        if trace_this:
            tracer.uninstall()
            runs["traced"].append({"result": result, "wall": wall,
                                   "reference": reference,
                                   "checkpoint_bytes": size})
        else:
            runs["untraced_walls"].append(wall)
            runs["reference_walls"].append(reference)
        verdict = check_result(result, workload, verdicts, counters)
        runs["attempted"] += len(inputs.faults)
        runs["errors"] += verdict["errors"]
        runs["mismatches"] += verdict["mismatches"]
        runs["drift"] += verdict["drift"]
        campaign += 1
        if (time.monotonic() + wall / 2 >= deadline
                and (tracer is None or runs["traced"])):
            runs["campaigns"] = campaign
            # Read while the monitor runs: only children that have ended
            # count, and the monitor is not the program's.
            runs["peak_rss_mb"] = peak_rss_mb()
            return runs


def measure(args, launched: float, tracer) -> dict:
    """Set the workload up, run its campaigns, check and measure them."""
    from repro.anafault import FaultSimulator

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    FaultSimulator(inputs.circuit, inputs.campaign_faults(0), inputs.settings)
    setup_wall = time.monotonic() - launched
    speed = probe_burst()
    setup_s = reference_seconds(setup_wall, speed)
    if args.setup_only:
        return {"setup_s": setup_s, "setup_wall_s": setup_wall}

    verdicts, counters, problems = load_references(workload)
    setup_totals = {}
    if tracer is not None:
        setup_totals = dict(tracer.self_time)
        tracer.reset_totals()
        tracer.uninstall()

    # The monitor probes the cores the campaigns run on: a campaign in one
    # process is pinned to one vCPU together with the monitor, a pool
    # campaign runs on every vCPU and the monitor samples them all.
    if inputs.busy_processes == 1:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    monitor = Monitor()
    os.nice(PROGRAM_NICENESS)
    try:
        runs = run_campaigns(args, workload, inputs, monitor, tracer,
                             verdicts, counters)
    finally:
        monitor.stop()
    traced, reference_walls = runs["traced"], runs["reference_walls"]

    output = {
        "workload": workload.name,
        "seed": args.seed,
        "faults": len(inputs.faults),
        "campaigns": runs["campaigns"],
        "attempted": runs["attempted"],
        "failed": runs["errors"],
        "verdict_mismatches": runs["mismatches"],
        "counter_drift": runs["drift"][:20],
        "problems": problems,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "campaign_walls": runs["untraced_walls"],
        "campaign_reference_s": reference_walls,
        "probe_s": runs["probes"],
        "faults_per_s": len(inputs.faults) / statistics.median(
            reference_walls),
        "faults_per_wall_s": len(inputs.faults) / statistics.median(
            runs["untraced_walls"]),
        "peak_rss_mb": runs["peak_rss_mb"],
    }
    if tracer is not None:
        error = accounting_error(tracer, traced)
        tolerance = (ACCOUNTING_SLACK_S * len(traced)
                     + ACCOUNTING_SLACK * sum(item["wall"] for item in traced))
        if abs(error) > tolerance:
            problems.append(f"traced campaign time misses the campaign wall "
                            f"time by {error:.3g} s")
        output["layers"] = layer_metrics(tracer, traced, setup_totals,
                                         inputs, reference_walls)
        output["traced_campaign_s"] = statistics.mean(
            item["wall"] for item in traced)
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.dump(trace_path)
        output["trace_file"] = str(trace_path.relative_to(OUT.parent.parent))
    return output


if __name__ == "__main__":
    sys.exit(main())
