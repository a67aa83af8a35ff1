"""Regenerate pins.json: exit code and stdout sha256 of every command of
every workload at the default seed, from one untraced pass each.

    python3 perfbench/pin.py

Run it from the root of a checkout, only when the command set changes;
each command must first pass its own output checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    root = os.getcwd()
    pins = {}
    for name in workloads.NAMES:
        workload = workloads.build(name, run.DEFAULT_SEED)
        workdir = os.path.join(root, run.WORK_ROOT, f"pin-{name}")
        os.makedirs(workdir, exist_ok=True)
        try:
            bench = run.Bench(root, workload, run.DEFAULT_SEED, workdir, None)
            bench.probe()
            bench.files = workloads.generate(workload, run.DEFAULT_SEED, workdir)
            _, procs = bench.run_pass("pin")
            bench.check_pass(procs)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if bench.failures:
            print("\n".join(bench.failures), file=sys.stderr)
            return 1
        pins[name] = {
            cmd.label: {"rc": p.rc, "sha256": hashlib.sha256(p.stdout).hexdigest()}
            for cmd, p in zip(workload.commands, procs)
        }
        print(f"{name}: {len(procs)} commands pinned")
    with open(run.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
