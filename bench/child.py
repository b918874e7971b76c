"""One benchmark run inside a fresh interpreter: ``child.py PLAN OUT``.

PLAN is a JSON file written by run.py: the checkout's ``src`` directory, the
ops (argv and expected exit code), the seconds to measure and whether to
trace.  Each op calls ``hderlab.cli.main(argv + ["--json"])`` in this
process, with stdout captured, after clearing every ``functools`` cache in
the package, since each CLI call a user makes starts a fresh process.

Untraced, the op list runs in as many whole passes as come nearest to the
requested seconds at reference speed, while a ``probe.Probe`` times a fixed
piece of work every ``probe.PERIOD_S``; each op's latency leaves out the
probe's time.  Traced, it runs one untraced pass and then one traced pass,
without probes, so the counts repeat exactly and the two passes give the
tracing overhead.

OUT receives every execution (op index, pass, latency, exit code, stdout
digest, problem found); untraced, the start and end of each execution and
the probe samples; traced, the layer table and per-op counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import pkgutil
import resource
import sys
import time
from pathlib import Path

from probe import MIN_PROBES, Probe, at_reference_speed


def _caches(package) -> list:
    """Every lru_cache object defined in the package, once each."""
    found = {}
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                found[id(obj)] = obj
    return list(found.values())


def _problem(argv: list[str], code: int, expect: int, out: str) -> str | None:
    """Why a report is wrong, or None.  Checks what holds for every input."""
    if code != expect:
        return f"exit {code}, expected {expect}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if set(report) != {"ok", "command", "results", "violations", "timing_ms"}:
        return "report keys differ"
    if report["command"] != argv[0] or report["ok"] != (code == 0):
        return "report command or ok flag disagrees with the call"
    if code != 0:
        return None
    res = report["results"]
    try:
        if argv[0] == "cohomology" and (
                res["betti"] != res["dim_cocycles"] - res["dim_coboundaries"]
                or len(res["cocycle_basis"]) != res["dim_cocycles"]):
            return "cohomology counts are inconsistent"
        if argv[0] == "classify-central" and len(res["classes"]) != res["betti"] + 1:
            return "classify-central gives a class count other than betti + 1"
        if argv[0] == "deform-extend" and "--to" in argv and (
                res["reached_order"] != int(argv[argv.index("--to") + 1])):
            return "deform-extend stopped short of --to"
    except (KeyError, TypeError) as exc:
        return f"report results lack a field: {exc!r}"
    return None


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    out_path = Path(sys.argv[2])
    sys.path.insert(0, plan["src"])
    import hderlab
    import hderlab.cli
    import hderlab.cochain

    caches = _caches(hderlab)
    dm = hderlab.cochain.differential_matrix
    dm_info = dm.cache_info if hasattr(dm, "cache_info") else None
    ops = plan["ops"]
    executions = []

    probe = None
    spans = []  # (start, end, latency) per execution, untraced runs only

    def run_op(index: int, pass_no: int, tracer=None) -> float:
        op = ops[index]
        for cache in caches:
            cache.cache_clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        code = None
        if tracer is not None:
            tracer.begin_op(index)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            paused = probe.paused if probe is not None else 0.0
            start = time.perf_counter()
            try:
                code = hderlab.cli.main(op["argv"] + ["--json"])
            except SystemExit as exc:  # argparse rejects the argv
                error = f"SystemExit({exc.code})"
            except Exception as exc:  # a crash is a failed op, not a failed run
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            latency = end - start
            if probe is not None:
                latency -= probe.paused - paused
                spans.append((start, end, latency))
        if tracer is not None:
            info = dm_info() if dm_info else None
            tracer.end_op(info.hits if info else 0, info.misses if info else 0)
        out = stdout.getvalue()
        if error is None:
            error = _problem(op["argv"], code, op["expect"], out)
        if error is not None and stderr.getvalue().strip():
            error += " | " + stderr.getvalue().strip().splitlines()[-1]
        executions.append([index, pass_no, latency, code,
                           hashlib.sha256(out.encode()).hexdigest(), error])
        return latency

    result: dict = {}
    if not plan["trace"]:
        # The first pass (or the first few, until the probe has fired
        # MIN_PROBES times), timed at reference speed, sets how many whole
        # passes come nearest to the requested seconds.  A run then keeps
        # the op mix of whole passes, and a slow stretch of the machine
        # makes it longer rather than changing how many samples it takes.
        probe = Probe()
        probe.start()
        start = time.perf_counter()
        passes = 0
        while passes == 0 or len(probe.samples) < MIN_PROBES:
            for index in range(len(ops)):
                run_op(index, passes)
            passes += 1
        per_pass = sum(at_reference_speed(spans, probe.samples)) / passes
        while passes < round(plan["seconds"] / per_pass):
            for index in range(len(ops)):
                run_op(index, passes)
            passes += 1
        probe.stop()
        result["window_s"] = time.perf_counter() - start
        result["passes"] = passes
        result["spans"] = spans
        result["probes"] = probe.samples
    else:
        from spans import Tracer
        untraced = sum(run_op(index, 0) for index in range(len(ops)))
        tracer = Tracer()
        tracer.install()
        traced = sum(run_op(index, 1, tracer) for index in range(len(ops)))
        result["untraced_s"] = untraced
        result["traced_s"] = traced
        result["functions"] = tracer.function_table()
        result["op_stats"] = {str(k): v for k, v in tracer.op_stats.items()}
        result["span_count"] = len(tracer.spans)
        tracer.write(plan["spans_path"])
    result["cap"] = hderlab.cli._cap()
    result["executions"] = executions
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
