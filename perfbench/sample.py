"""One benchmark sample, run in a fresh interpreter by run.py.

Set-up ends when `convmc.cli` is imported: the sample reports that
moment on the monotonic clock, which run.py compares with the moment it
started the process.  The job then arrives as JSON on stdin and one JSON
result goes to stdout.  Modes:

- setup: nothing more;
- time: run the command lines through convmc.cli.main, timed as a whole,
  and report the wall time, peak RSS and every call's exit code and
  stdout;
- trace: the same with tracer spans installed, plus per-layer metrics;
- verify: compute the verdicts some oracles need (see checks.py).
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import convmc.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def call(argv):
    """Exit code and stdout of one CLI call; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = convmc.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # reported as a failed call, not a crash
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def run_calls(calls):
    start = time.perf_counter()
    results = [call(argv) for argv in calls]
    wall_s = time.perf_counter() - start
    return wall_s, results


def verify(tasks, workdir):
    from convmc import modelio
    verdicts = {}
    for task in tasks:
        rec = json.loads(task["out"])
        if task["kind"] == "freelie_dims":
            space = modelio.quillen_from_record(rec).fl.space
            verdicts[task["sha256"]] = {
                "dims": {str(d): space.dim(d) for d in space.degrees()}}
        elif task["kind"] == "gauge_check":
            path = os.path.join(workdir, f"cert-{task['sha256']}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(rec["certificate"], fh)
            rc, out = call(["gauge-check", path])
            report = json.loads(out) if out else {}
            verdicts[task["sha256"]] = {"rc": rc,
                                        "valid": report.get("valid"),
                                        "outcome": report.get("outcome")}
    return verdicts


def main():
    job = json.loads(sys.stdin.read())
    result = {"ready": READY}
    mode = job["mode"]
    if mode == "time":
        wall_s, results = run_calls(job["calls"])
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(wall_s=wall_s, peak_rss_mb=peak_kb / 1024,
                      results=results)
    elif mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tr
        tracer = tr.Tracer()
        tr.install(tracer)
        wall_s, results = run_calls(job["calls"])
        out_bytes = sum(len(out.encode("utf-8")) for _, out in results)
        result.update(wall_s=wall_s, results=results,
                      layers=tr.layer_metrics(tracer, wall_s, out_bytes))
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    elif mode == "verify":
        result["verdicts"] = verify(job["tasks"], job["workdir"])
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    # Skip interpreter teardown: it frees the heap the calls built, which
    # no sample measures, and would only lengthen the run.
    os._exit(0)


if __name__ == "__main__":
    main()
