"""Reference verdicts and counters of the benchmark workloads.

A reference file holds, per fault of a workload's fault set, the verdict
(status, detection time) and the deterministic kernel counters (Newton
solves, accepted and rejected steps) of one campaign, plus the nominal
run's counters.  Every benchmark run checks its records against them.

Regenerate (never overwrites silently)::

    python3 perfbench/references.py --workload fig5-serial          # check
    python3 perfbench/references.py --workload fig5-serial --write  # new file
    python3 perfbench/references.py --workload fig5-serial --write --force

Without ``--write`` the campaign is run and compared with the committed
file (exit 1 on any difference).  ``--write`` creates a missing file and
refuses to replace an existing one that differs unless ``--force`` is
given; either way the differences are printed first.  The fig5 references
cover the full 99-fault list; the run takes about a minute for
``fig5-serial`` and 40 s for ``fig5-batched`` on a two-core machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from workloads import OUT, REFERENCES, WORKLOADS, use_source_tree

#: Full-size totals the fig5 references must reproduce (Newton solves
#: include the nominal run): the ROADMAP baseline of the 99-fault campaign.
FULL_SIZE_PINS = {
    "fig5-serial": {"newton_solves": 136624, "detected": 75,
                    "undetected": 24},
    "fig5-batched": {"newton_solves": 77563, "detected": 75,
                     "undetected": 24},
}

COUNTERS = ("newton_iterations", "steps_accepted", "steps_rejected")


def load(name: str) -> dict:
    """The committed reference ``name`` (raises if missing)."""
    path = REFERENCES / f"{name}.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def reference_from_result(workload: str, result) -> dict:
    """Reference document of one complete campaign result."""
    faults = {}
    for record in result.records:
        entry = {"status": record.status,
                 "detection_time": record.detection_time}
        entry.update({name: int(getattr(record, name)) for name in COUNTERS})
        faults[str(record.fault.fault_id)] = entry
    stats = result.nominal_stats
    counts = result.count_by_status()
    return {
        "workload": workload,
        "executor": result.executor,
        "nominal": {"newton_iterations": int(stats.get("newton_iterations",
                                                       0)),
                    "steps_accepted": int(stats.get("steps_accepted", 0)),
                    "steps_rejected": int(stats.get("steps_rejected", 0))},
        "totals": {"newton_solves": result.total_newton_iterations(),
                   "detected": counts.get("detected", 0),
                   "undetected": counts.get("undetected", 0)},
        "faults": dict(sorted(faults.items(), key=lambda kv: int(kv[0]))),
    }


def check_pins(name: str, reference: dict) -> list[str]:
    """Differences between a reference's totals and its full-size pins."""
    pins = FULL_SIZE_PINS.get(name, {})
    return [f"{name}: {key} is {reference['totals'].get(key)}, "
            f"pinned {value}"
            for key, value in pins.items()
            if reference["totals"].get(key) != value]


def diff(old: dict, new: dict) -> list[str]:
    """Human-readable differences between two reference documents."""
    lines = []
    for section in ("nominal", "totals"):
        if old.get(section) != new.get(section):
            lines.append(f"{section}: {old.get(section)} -> "
                         f"{new.get(section)}")
    ids = sorted(set(old.get("faults", {})) | set(new.get("faults", {})),
                 key=int)
    for fault_id in ids:
        before = old.get("faults", {}).get(fault_id)
        after = new.get("faults", {}).get(fault_id)
        if before != after:
            lines.append(f"fault {fault_id}: {before} -> {after}")
    return lines


def regenerate(name: str) -> dict:
    """Run the reference campaign of ``name`` over its whole fault set on
    the workload's executor (serial for the verdict references)."""
    from repro.anafault import FaultSimulator

    inputs = WORKLOADS[name].build(0, True)
    checkpoint = None
    if inputs.checkpoint:
        OUT.mkdir(parents=True, exist_ok=True)
        checkpoint = OUT / f"reference-{name}.jsonl"
        checkpoint.unlink(missing_ok=True)
    start = time.perf_counter()
    # Verdict references come from the serial path; fig5-batched's file
    # holds the counters of its own (early-abort) executor.
    if name == "fig5-batched":
        executor = inputs.make_executor()
    else:
        from repro.anafault import SerialExecutor
        executor = SerialExecutor()
    result = FaultSimulator(inputs.circuit, inputs.faults,
                            inputs.settings).run(executor=executor,
                                                 checkpoint=checkpoint)
    if checkpoint is not None:
        checkpoint.unlink(missing_ok=True)
    print(f"{name}: {len(result.records)} faults in "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return reference_from_result(name, result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted({w.counters for w in
                                        WORKLOADS.values()}))
    parser.add_argument("--write", action="store_true",
                        help="write the reference file if it is missing")
    parser.add_argument("--force", action="store_true",
                        help="with --write, replace a differing file")
    args = parser.parse_args(argv)

    use_source_tree()
    new = regenerate(args.workload)
    problems = check_pins(args.workload, new)
    for line in problems:
        print(f"PIN MISMATCH {line}", file=sys.stderr)
    path = REFERENCES / f"{args.workload}.json"
    differences = []
    if path.exists():
        differences = diff(load(args.workload), new)
        for line in differences:
            print(f"DIFF {line}", file=sys.stderr)
        if not differences:
            print(f"{path.name}: identical", file=sys.stderr)
    if args.write and (not path.exists() or (differences and args.force)):
        REFERENCES.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
        return 1 if problems else 0
    if args.write and differences:
        print(f"{path.name} differs; not replaced (add --force)",
              file=sys.stderr)
    return 1 if (differences or problems or not path.exists()) else 0


if __name__ == "__main__":
    sys.exit(main())
