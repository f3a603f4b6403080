"""Record the per-call stdout digests that ``digests.json`` pins.

    PYTHONPATH=src python3 perfbench/record_digests.py

Runs every scan call of seeds 0-15 of both scan workloads once through
``rangetunnel.cli.main`` and stores the sha256 of each call's stdout. Run it
only on a commit whose scan output is known to be right: the stored digests
are what later commits must reproduce byte for byte. It stops with an error
if a call exits non-zero or disagrees with the independent oracle.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import oracle
import workloads
from worker import call

SEEDS = range(16)


def main() -> int:
    digests: dict = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for workload in ("scan_long", "scan_dense"):
            digests[workload] = {}
            for seed in SEEDS:
                plan = workloads.write_inputs(workload, seed, Path(tmp) / f"{workload}-{seed}")
                row = []
                for argv, history in zip(plan["calls"], plan["history"]):
                    record = call(argv)
                    want = oracle.expected_stdout(history, float(workloads.RATE),
                                                  workloads.START_DATE)
                    if record["exit"] != 0 or record["sha256"] != hashlib.sha256(want).hexdigest():
                        print(f"error: {workload} seed {seed} {argv}: exit {record['exit']}, "
                              "output differs from the oracle", file=sys.stderr)
                        return 1
                    row.append(record["sha256"])
                digests[workload][str(seed)] = row
                print(f"{workload} seed {seed}: {len(row)} calls", file=sys.stderr)
    out = Path(__file__).resolve().parent / "digests.json"
    out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
