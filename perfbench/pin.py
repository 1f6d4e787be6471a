"""Write perfbench/expected.json: the exit code and stdout sha256 of every
command line any workload can make, hopf-batch's for all ordered pairs
of HOPF_DEGREES.

    python3 perfbench/pin.py

Pins are written only when every oracle of checks.py accepts the
outputs, so a pin never records an answer the oracles reject.  Re-pin
only when a change of output bytes is intended and recorded.
"""

from __future__ import annotations

import json
import os
import sys
import time

import checks
import run
import workloads


def all_calls() -> list[list[str]]:
    out = []
    for name in ("loop-transfer", "cobar-cpn", "moduli-search"):
        out += workloads.calls(name, 0)
    out += [workloads.homotopic_call(j, k)
            for j in workloads.HOPF_DEGREES for k in workloads.HOPF_DEGREES]
    return out


def main() -> int:
    spawn = run.Spawner(time.monotonic())
    os.makedirs(run.WORKDIR, exist_ok=True)
    paths = workloads.write_inputs(run.WORKDIR)
    logical = all_calls()
    sample = spawn({"mode": "time",
                    "calls": [workloads.resolve(a, paths) for a in logical]})
    pins = {" ".join(argv): {"exit": rc, "sha256": checks.sha256_text(out)}
            for argv, (rc, out) in zip(logical, sample["results"])}
    attempted, failed, reasons = run.check_all(spawn, logical, [sample], pins)
    if failed:
        for reason in reasons:
            print(reason, file=sys.stderr)
        return 1
    with open(run.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {attempted} calls to {run.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
