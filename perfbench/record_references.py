"""Record the reference cycles that worker.py checks every operation against.

    PYTHONPATH=src python3 perfbench/record_references.py SEED [SEED ...]

Runs every experiment point of every workload on the per-cycle
``naive`` engine, the project's differential oracle, and stores the
simulated cycles under each seed in ``references.json``. Points already
recorded for a seed are kept, and points no workload runs any more are
dropped. Record once, and again (after deleting the file's seeds) only
for a change that is meant to alter simulated cycles.
"""

from __future__ import annotations

import json
import sys

from worker import REFERENCES, WORKLOADS


def record(seed: int, recorded: dict) -> dict:
    from repro.harness import prepare_input, run_experiment
    points = sorted({(op.app, op.code, op.system)
                     for workload in WORKLOADS.values()
                     for op in workload.ops if op.simulates})
    inputs: dict = {}
    table = {}
    for app, code, system in points:
        key = f"{app}/{code}/{system}"
        if key in recorded:
            table[key] = recorded[key]
            continue
        if (app, code) not in inputs:
            inputs[app, code] = prepare_input(app, code, seed=seed)
        result = run_experiment(app, code, system, seed=seed,
                                prepared=inputs[app, code], engine="naive")
        table[key] = result.cycles
    return table


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    document = json.loads(REFERENCES.read_text())
    for seed in map(int, argv):
        document["seeds"][str(seed)] = record(
            seed, document["seeds"].get(str(seed), {}))
        print(f"seed {seed}: {len(document['seeds'][str(seed)])} points",
              file=sys.stderr)
    document["seeds"] = dict(sorted(document["seeds"].items(),
                                    key=lambda item: int(item[0])))
    REFERENCES.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
