"""Benchmark of convmc through its command line entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is this file's parent directory,
and the package is imported from its `src/`.  Each sample is a fresh
interpreter (sample.py) that imports convmc.cli and makes the workload's
calls to convmc.cli.main one after another, so no sample inherits a warm
loop-model cache or an initialised sympy from another.  Generated inputs,
certificates and span dumps go to `.perfbench/` under the root.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
as medians over the samples that fit in S seconds (at least MIN_SAMPLES).
Between samples it times the reference kernel (reference.py) in its own
interpreter.  wall_ref_ratio is a sample's wall time over the mean of the
kernel times on either side of it, which cancels the host's drift in CPU
speed; setup_s scales each set-up time the same way, to the speed at which
the kernel takes REF_NOMINAL_S.  Raw times are printed above the result.  With --trace 1 it
alternates untraced and traced samples and reports the per-layer metrics
of the median traced sample.  Every call of every sample is checked
(checks.py) after the timed region; the last line of stdout is the JSON
result.  Exit 1, without a result, when the run itself cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import checks
import inputs
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
REFERENCE = os.path.join(HERE, "reference.py")
PINS = os.path.join(HERE, "expected.json")
WORKDIR = os.path.join(ROOT, ".perfbench")

MIN_SAMPLES = 3
MIN_TRACED = 1
RUN_LIMIT_S = 170.0  # the whole run, checks included
# setup_s is reported in seconds at the host speed at which the reference
# kernel takes this long, its typical time on a quiet shared 2-vCPU host.
REF_NOMINAL_S = 0.4


class BenchError(Exception):
    pass


class Spawner:
    """Starts interpreters, one at a time, within the run's limit."""

    def __init__(self, started: float):
        self.deadline = started + RUN_LIMIT_S

    def _run(self, script: str, stdin: str, what: str):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run limit reached")
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-I", script], cwd=ROOT,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(stdin, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{what} exceeded the run limit") from None
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"{what} exited {proc.returncode}: "
                             f"{err.strip()[-2000:]}")
        return start, out.strip().splitlines()[-1]

    def __call__(self, job: dict) -> dict:
        """Run one sample.py job; its result gains `setup_s`."""
        start, line = self._run(SAMPLE, json.dumps(job),
                                f"{job['mode']} sample")
        result = json.loads(line)
        result["setup_s"] = result["ready"] - start
        return result

    def reference(self) -> float:
        """Seconds the reference kernel takes right now."""
        return float(self._run(REFERENCE, "", "reference kernel")[1])


def measure(spawn: Spawner, calls, seconds: int, trace: bool):
    """Untraced samples, traced samples, set-up times and, in an untraced
    run, the reference kernel's time before the first sample and after
    each, so that every sample has a kernel time on either side."""
    spawn({"mode": "setup"})  # compiles byte code and warms the page cache
    deadline = time.monotonic() + seconds
    untraced, traced, setups = [], [], []
    refs = [] if trace else [spawn.reference()]
    spans_path = os.path.join(WORKDIR, "spans.json")
    longest = 0.0
    while True:
        before = time.monotonic()
        untraced.append(spawn({"mode": "time", "calls": calls}))
        setups.append(untraced[-1]["setup_s"])
        if trace:
            traced.append(spawn({"mode": "trace", "calls": calls,
                                 "spans_path": spans_path}))
        else:
            refs.append(spawn.reference())
        longest = max(longest, time.monotonic() - before)
        enough = len(traced) >= MIN_TRACED if trace \
            else len(untraced) >= MIN_SAMPLES
        if enough and time.monotonic() + longest > deadline:
            return untraced, traced, setups, refs


def check_all(spawn: Spawner, logical, samples, pins):
    """(attempted, failed, reasons) over every call of every sample."""
    outputs = {}
    for sample in samples:
        for argv, (rc, out) in zip(logical, sample["results"]):
            outputs.setdefault(checks.sha256_text(out), (argv, out))
    tasks = [{"kind": kind, "sha256": sha, "out": out}
             for sha, (argv, out) in outputs.items()
             if (kind := checks.needs_verdict(argv))]
    verdicts = spawn({"mode": "verify", "tasks": tasks,
                      "workdir": WORKDIR})["verdicts"] if tasks else {}
    attempted = failed = 0
    reasons: Counter = Counter()
    for sample in samples:
        for argv, (rc, out) in zip(logical, sample["results"]):
            sha = checks.sha256_text(out)
            attempted += 1
            why = checks.check_call(argv, rc, out, pins.get(" ".join(argv)),
                                    verdicts.get(sha))
            if why:
                failed += 1
                reasons.update(f"{' '.join(argv)}: {w}" for w in why)
    return attempted, failed, reasons


def _spread(name: str, values, unit: str) -> str:
    if len(values) < 2:
        return f"{name}: {values[0]:.6g} {unit} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"{name}: median {statistics.median(values):.6g} {unit}, "
            f"quartiles {q1:.6g}..{q3:.6g}, n={len(values)}: "
            + " ".join(f"{v:.4g}" for v in values))


def end_to_end(untraced, setups, refs) -> tuple[dict, list[str]]:
    around = [(refs[i] + refs[i + 1]) / 2 for i in range(len(untraced))]
    walls = [s["wall_s"] for s in untraced]
    series = {
        "wall_ref_ratio": ([w / r for w, r in zip(walls, around)],
                           "x reference"),
        "setup_s": ([t * REF_NOMINAL_S / r for t, r in zip(setups, around)],
                    "s at nominal speed"),
        "peak_rss_mb": ([s["peak_rss_mb"] for s in untraced], "MB")}
    lines = [_spread("wall_s", walls, "s"),
             _spread("setup_raw_s", setups, "s"),
             _spread("reference_s", refs, "s")]
    lines += [_spread(k, v, unit) for k, (v, unit) in series.items()]
    return {k: statistics.median(v) for k, (v, _) in series.items()}, lines


def per_layer(untraced, traced) -> tuple[dict, list[str]]:
    """The layers of the traced sample with the median wall time (the
    lower one of two), so that its self times add up to its wall time."""
    chosen = sorted(traced, key=lambda t: t["wall_s"])[(len(traced) - 1) // 2]
    values = dict(chosen["layers"])
    plain = statistics.median(s["wall_s"] for s in untraced)
    values["trace.untraced_wall_s"] = plain
    values["trace.overhead_ratio"] = chosen["wall_s"] / plain
    return values, [_spread("untraced wall_s",
                            [s["wall_s"] for s in untraced], "s"),
                    _spread("traced wall_s",
                            [t["wall_s"] for t in traced], "s")]


def declared(spec: dict, section: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares for this section, with units;
    the run and the declaration must name the same metrics."""
    names = {m["name"] for m in spec[section]}
    if names != set(values):
        raise BenchError(f"{section}: declared but not measured "
                         f"{sorted(names - set(values))}, measured but not "
                         f"declared {sorted(set(values) - names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[section]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def run(args) -> dict:
    spawn = Spawner(time.monotonic())
    if not os.path.isfile(os.path.join(ROOT, "src", "convmc", "cli.py")):
        raise BenchError(f"no convmc sources under {ROOT}/src")
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    pins = load_json(PINS)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if inputs.sha256_file(inputs.S2VS3_LOOPS) != inputs.S2VS3_LOOPS_SHA256:
        raise BenchError(f"{inputs.S2VS3_LOOPS} differs from its pinned sha256")
    os.makedirs(WORKDIR, exist_ok=True)
    paths = workloads.write_inputs(WORKDIR)
    logical = workloads.calls(args.workload, args.seed)
    calls = [workloads.resolve(argv, paths) for argv in logical]

    untraced, traced, setups, refs = measure(spawn, calls, args.seconds,
                                             bool(args.trace))
    attempted, failed, reasons = check_all(spawn, logical,
                                           untraced + traced, pins)
    if args.trace:
        values, lines = per_layer(untraced, traced)
        metrics = declared(spec, "per_layer", values)
    else:
        values, lines = end_to_end(untraced, setups, refs)
        metrics = declared(spec, "end_to_end", values)
    for line in lines:
        print(line)
    for reason, n in reasons.most_common(10):
        print(f"FAILED x{n}: {reason}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
