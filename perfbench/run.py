"""chordlab benchmark: cold CLI passes over one workload, or a traced pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a chordlab checkout; it imports chordlab from
./src and reads and writes only inside the checkout.

Each workload (see workloads.py) is a fixed list of CLI commands.  A
pass runs them one at a time, each in a fresh interpreter with the
default ``--jobs 1``, so every pass starts with empty memo tables, as
every CLI user does.  Every command's output is checked: exit code,
"violations": 0, `checked` equal to the planned count, one `eval` row
per input, and, for the default seed or for output that does not depend
on the seed, the pinned sha256 of stdout (pins.json).

--trace 0 repeats passes for S seconds and reports the end-to-end
metrics.  --trace 1 runs one untraced pass, then one pass through
tracer.py, which calls ``chordlab.cli.main`` in-process with every layer
wrapped; it checks that traced stdout is byte-identical and reports the
per-layer metrics and the tracing overhead.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Without ./src/chordlab the run exits 2
and prints no result.
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
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_SAMPLES = 9
# every run must end within 180 s; commands still running then are killed
RUN_DEADLINE_S = 170.0
PINS = os.path.join(HERE, "pins.json")
WORK_ROOT = ".perfbench_work"
TRACER = os.path.join(HERE, "tracer.py")


class SetupError(Exception):
    """The checkout cannot be benchmarked (no chordlab source)."""


@dataclass
class Proc:
    rc: int
    wall: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("CHORDLAB_JOBS", None)  # the default --jobs 1 path only
    return env


def spawn(argv: list[str], env: dict, out_path: str, deadline: float) -> Proc:
    """Run argv to completion; wall time from spawn to reap, max RSS from
    wait4.  The process is killed at the run deadline."""
    err_path = out_path + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Proc(p.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr)


class Bench:
    """One run over one workload: its inputs, its checks and its counts."""

    def __init__(self, root: str, workload: workloads.Workload, seed: int,
                 workdir: str, pins: dict | None):
        """``pins`` maps command labels to pinned digests; None skips the
        digest check (tiny scale, or while pinning)."""
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.pins = pins
        self.env = child_env(root)
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.files: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    # -- set-up ------------------------------------------------------------

    def probe(self) -> str:
        """Check that chordlab imports from this checkout and compile it;
        return the numpy version it runs with."""
        code = ("import chordlab.cli, numpy; "
                "print(chordlab.cli.__file__); print(numpy.__version__)")
        res = spawn([sys.executable, "-c", code], self.env,
                    self._path("probe.out"), self.deadline)
        lines = res.stdout.decode().split()
        src = os.path.join(self.root, "src", "chordlab")
        if res.rc != 0 or not lines or os.path.dirname(lines[0]) != src:
            raise SetupError(f"chordlab does not import from {src}: "
                             f"{res.stderr.decode()[-300:]}")
        return lines[1]

    def setup_samples(self) -> list[float]:
        """Interpreter start plus `import chordlab.cli`, fresh each time."""
        argv = [sys.executable, "-c", "import chordlab.cli"]
        return [spawn(argv, self.env, self._path("setup.out"), self.deadline).wall
                for _ in range(SETUP_SAMPLES)]

    # -- passes ------------------------------------------------------------

    def run_pass(self, tag: str, traced: bool = False) -> tuple[float, list[Proc]]:
        procs = []
        t0 = time.perf_counter()
        for i, cmd in enumerate(self.workload.commands):
            if traced:
                prefix = [sys.executable, TRACER, self._path(f"{tag}-{i}.trace")]
            else:
                prefix = [sys.executable, "-m", "chordlab.cli"]
            procs.append(spawn(prefix + cmd.resolve(self.files), self.env,
                               self._path(f"{tag}-{i}.out"), self.deadline))
        return time.perf_counter() - t0, procs

    def check_pass(self, procs: list[Proc]) -> None:
        for cmd, proc in zip(self.workload.commands, procs):
            why = workloads.check_output(cmd, proc.rc, proc.stdout)
            if why is None:
                why = self._check_pin(cmd, proc)
            self._count(cmd.label, why, proc)

    def _check_pin(self, cmd: workloads.Command, proc: Proc) -> str | None:
        if self.pins is None or not (cmd.seed_free or self.seed == DEFAULT_SEED):
            return None
        pin = self.pins.get(cmd.label)
        if pin is None:
            return "no pinned digest"
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if (proc.rc, digest) != (pin["rc"], pin["sha256"]):
            return f"stdout sha256 {digest} != pinned {pin['sha256']}"
        return None

    def check_oracle(self, procs: list[Proc]) -> None:
        """The contraction oracle and the recurrence agree on its inputs."""
        if self.workload.oracle_check is None:
            return
        index, cmd = self.workload.oracle_check
        ref = spawn([sys.executable, "-m", "chordlab.cli", *cmd.resolve(self.files)],
                    self.env, self._path("oracle-check.out"), self.deadline)
        why = workloads.check_output(cmd, ref.rc, ref.stdout)
        if why is None and ref.stdout != procs[index].stdout:
            why = "sl2 oracle and sl2-recursive disagree"
        self._count(cmd.label, why, ref)

    def _count(self, label: str, why: str | None, proc: Proc) -> None:
        self.attempted += 1
        if why is not None:
            tail = proc.stderr.decode("utf-8", "replace").strip()[-300:]
            self.failures.append(f"{label}: {why} {tail}".strip())

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    # -- the two kinds of run ------------------------------------------------

    def measure(self, seconds: float) -> tuple[dict, dict]:
        setup = self.setup_samples()
        walls, peaks = [], []
        command_walls = [[] for _ in self.workload.commands]
        start = time.perf_counter()
        while True:
            wall, procs = self.run_pass(f"pass{len(walls)}")
            self.check_pass(procs)
            walls.append(wall)
            peaks.append(max(p.maxrss_mb for p in procs))
            for cw, p in zip(command_walls, procs):
                cw.append(p.wall)
            elapsed = time.perf_counter() - start
            if (elapsed + statistics.median(walls) > seconds
                    or time.monotonic() >= self.deadline):
                break
        self.check_oracle(procs)
        wall_s = statistics.median(walls)
        metrics = {
            "wall_s": (wall_s, "s"),
            "items_per_s": (self.workload.items / wall_s, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
            "ok_ratio": ((self.attempted - len(self.failures)) / self.attempted, "ratio"),
        }
        detail = {"pass_walls_s": walls, "setup_samples_s": setup,
                  "command_walls_s": command_walls}
        return metrics, detail

    def trace(self) -> tuple[dict, dict]:
        base_wall, base = self.run_pass("base")
        self.check_pass(base)
        self.check_oracle(base)
        traced_wall, traced = self.run_pass("traced", traced=True)
        records = []
        for i, (cmd, b, t) in enumerate(zip(self.workload.commands, base, traced)):
            why = None
            if (t.rc, t.stdout) != (b.rc, b.stdout):
                why = "traced stdout or exit code differs from untraced"
            try:
                with open(self._path(f"traced-{i}.trace")) as fh:
                    records.append(json.load(fh))
            except (OSError, ValueError):
                why = why or "no trace record"
            self._count(cmd.label + " [traced]", why, t)
        metrics, edges = aggregate(records)
        metrics["trace.untraced_wall_s"] = (base_wall, "s")
        metrics["trace.traced_wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - base_wall, "s")
        return metrics, {"edges": edges}


def aggregate(records: list[dict]) -> tuple[dict, list]:
    """Sum the per-command span records into the per-layer metrics."""
    edges: dict[tuple[str, str], list] = {}
    hits: dict[str, int] = {}
    memo: dict[str, list[int]] = {}
    bulk = {"rows": 0, "bytes_computed": 0, "ops_computed": 0}
    for rec in records:
        for caller, callee, calls, total, self_s in rec["edges"]:
            e = edges.setdefault((caller, callee), [0, 0.0, 0.0])
            e[0] += calls
            e[1] += total
            e[2] += self_s
        for key, n in rec["hits"].items():
            hits[key] = hits.get(key, 0) + n
        for key, (before, after) in rec["memo"].items():
            m = memo.setdefault(key, [0, 0])
            m[0] += before
            m[1] += after
        for key, n in rec["bulk"].items():
            bulk[key] += n
    per_fn: dict[str, list] = {}
    for (_, callee), (calls, total, self_s) in edges.items():
        f = per_fn.setdefault(callee, [0, 0.0, 0.0])
        f[0] += calls
        f[1] += total
        f[2] += self_s
    metrics = {}
    for module, name, _ in tracer.LAYERS:
        key = tracer.layer_key(module, name)
        p = tracer.metric_prefix(key)
        calls, total, self_s = per_fn.get(key, [0, 0.0, 0.0])
        metrics[f"{p}.calls"] = (calls, "count")
        metrics[f"{p}.total_s"] = (total, "s")
        metrics[f"{p}.self_s"] = (self_s, "s")
        if key in tracer.MEMOS:
            before, after = memo.get(key, [0, 0])
            metrics[f"{p}.hit_ratio"] = (hits.get(key, 0) / calls if calls else 0.0, "ratio")
            metrics[f"{p}.memo_before"] = (before, "count")
            metrics[f"{p}.memo_after"] = (after, "count")
        if key == tracer.BULK:
            for stat, unit in (("rows", "count"), ("bytes_computed", "B"),
                               ("ops_computed", "count")):
                metrics[f"{p}.{stat}"] = (bulk[stat], unit)
    edge_list = sorted(([c, k, *v] for (c, k), v in edges.items()),
                       key=lambda e: -e[4])
    return metrics, edge_list


def src_loc(root: str) -> int:
    src = os.path.join(root, "src", "chordlab")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def report(bench: Bench, trace: int, metrics: dict, detail: dict, context: dict) -> None:
    w = bench.workload
    print(f"workload {w.name} seed {bench.seed}: {len(w.commands)} commands, "
          f"{w.items} items per pass")
    for cmd in w.commands:
        print(f"  chordlab {cmd.label}  ({cmd.items} items)")
    if trace:
        print(f"{'layer':<42}{'calls':>10}{'total_s':>10}{'self_s':>10}  moves")
        for module, name, why in tracer.LAYERS:
            prefix = tracer.metric_prefix(tracer.layer_key(module, name))
            print(f"{prefix:<42}{metrics[prefix + '.calls'][0]:>10}"
                  f"{metrics[prefix + '.total_s'][0]:>10.3f}"
                  f"{metrics[prefix + '.self_s'][0]:>10.3f}  {why}")
        print("top caller -> callee edges by self time:")
        for caller, callee, calls, total, self_s in detail["edges"][:20]:
            print(f"  {caller} -> {callee}: {calls} calls, "
                  f"{total:.3f} s total, {self_s:.3f} s self")
    else:
        print(f"pass walls (s): {[round(x, 3) for x in detail['pass_walls_s']]}")
        for cmd, cw in zip(w.commands, detail["command_walls_s"]):
            print(f"  median {statistics.median(cw):.3f} s  chordlab {cmd.label}")
        print(f"setup samples (s): {[round(x, 4) for x in detail['setup_samples_s']]}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name} = {value} {unit}")
    fail_ratio = len(bench.failures) / bench.attempted
    print(f"fail_ratio = {fail_ratio} ({len(bench.failures)} of {bench.attempted} "
          f"commands failed)")
    for line in bench.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full",
                    help="'tiny' shrinks every command, for the self-tests")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chordlab", "cli.py")):
        print(f"error: no chordlab source under {root}/src", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, args.scale)
    workdir = os.path.join(root, WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        pins = None
        if args.scale == "full":
            with open(PINS) as fh:
                pins = json.load(fh)[workload.name]
        bench = Bench(root, workload, args.seed, workdir, pins)
        numpy_version = bench.probe()
        bench.files = workloads.generate(workload, args.seed, workdir)
        if args.trace:
            metrics, detail = bench.trace()
        else:
            metrics, detail = bench.measure(args.seconds)
        context = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "machine": platform.machine(),
            "src_loc": src_loc(root),
            "workload": workload.name,
            "items_per_pass": workload.items,
            "items_per_command": {c.label: c.items for c in workload.commands},
            "scale": args.scale,
            "jobs": "1 (the --jobs sharded path is deliberately unmeasured)",
        }
        report(bench, args.trace, metrics, detail, context)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_ROOT))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
