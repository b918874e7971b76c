"""hderlab benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout.  The run

1. writes the workload's problem files for the seed under ``bench/work``
   and checks every generated problem with ``hderlab check`` (exit 0);
2. starts one child interpreter (bench/child.py) that runs the op list
   through ``hderlab.cli.main`` in-process and times each op from outside,
   while a speed probe (bench/probe.py) times a fixed piece of work;
3. checks every op: exit code as built, report sanity, the same stdout on
   every pass, and for the default seed the pinned digest in
   bench/digests.json;
4. untraced, measures set-up (the median cold ``import hderlab.cli`` in
   fresh interpreters) and reports the end-to-end metrics, with every time
   scaled to the probe's reference speed; traced, reports the per-layer
   metrics;
5. writes a result file with provenance under ``bench/results`` and prints
   one JSON line last: ``{"correct", "attempted", "failed", "metrics"}``.

``HDERLAB_MAX_DIM`` is removed from the environment, so every op runs
under the default cap.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
from spans import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
IMPORT_SAMPLES = 6  # on each side of the child
IMPORT_PROBES = 15  # probe.work() calls after each import
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The run cannot produce a result."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run only the last N ops (smoke tests)")
    parser.add_argument("--pin-digests", action="store_true",
                        help="store this run's report digests as the reference "
                             "(default seed, full op list only)")
    return parser.parse_args(argv)


def _validate(problems, workdir: Path) -> None:
    """Every generated problem must pass the package's own verifiers."""
    from hderlab import cli
    for p in problems:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["check", str(workdir / p.file), "--json"])
        if code != 0:
            raise BenchError(f"generated problem {p.file} fails `hderlab check` (exit {code})")


def _run_child(plan_path: Path, out_path: Path) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(plan_path), str(out_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(out_path.read_text())


def _import_seconds(count: int) -> list[tuple[float, float]]:
    """Cold ``import hderlab.cli`` times, each in a fresh interpreter.

    Each sample is the import's wall time and that time at reference speed:
    the same interpreter times ``probe.work()`` right after the import.
    """
    code = ("import sys, time, statistics; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import hderlab.cli; t = time.perf_counter() - t; "
            "sys.path.insert(0, sys.argv[2]); import probe; "
            "print(repr(t), repr(statistics.median(probe.time_work(int(sys.argv[3])))))")
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH), str(IMPORT_PROBES)],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import hderlab.cli failed: {proc.stderr.strip()[-500:]}")
        wall, probe_s = map(float, proc.stdout.split())
        samples.append((wall, wall * probe.NOMINAL_S / probe_s))
    return samples


def _provenance(args, cap, op_digest) -> dict:
    # The ceiling keeps git from reading a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "hderlab").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed, "hderlab_max_dim": cap, "workload": args.workload,
            "op_list_sha256": op_digest, "seconds": args.seconds, "trace": args.trace}


def _tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its rank."""
    ordered = sorted(latencies)
    i = max(len(ordered) - 11, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def _check(executions, ops, pinned) -> tuple[int, list[str]]:
    """Count failed executions: a problem the child found, or other stdout bytes."""
    first = {}
    failed, notes = 0, []
    for index, pass_no, _lat, _code, digest, error in executions:
        name = ops[index].name
        reference = pinned.get(name) if pinned is not None else first.setdefault(name, digest)
        if error is None and reference is None:
            error = "no pinned digest for this op"
        elif error is None and digest != reference:
            error = "stdout differs from " + ("its pinned digest" if pinned is not None else "its first pass")
        if error is not None:
            failed += 1
            if len(notes) < 20:
                notes.append(f"pass {pass_no}: {name}: {error}")
    return failed, notes


def _layer_metrics(child: dict) -> dict:
    table = child["functions"]
    stats = list(child["op_stats"].values())
    wall = child["traced_s"]

    def fn(name, key):
        return table.get(name, {"calls": 0, "self_s": 0.0})[key]

    out = {}
    for layer in LAYERS:
        rows = [row for name, row in table.items() if name.split(".")[0] == layer]
        self_s = sum(r["self_s"] for r in rows)
        out[f"{layer}.calls"] = (sum(r["calls"] for r in rows), "count")
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.share"] = (self_s / wall, "ratio")
    rref_calls = sum(s["rref_calls"] for s in stats)
    out["exactlin.rref.calls"] = (rref_calls, "count")
    out["exactlin.rref.self_s"] = (fn("exactlin.rref", "self_s"), "s")
    out["exactlin.rref.cells"] = (sum(s["rref_cells"] for s in stats), "count")
    out["exactlin.rref.nnz_in"] = (sum(s["rref_nnz_in"] for s in stats), "count")
    out["exactlin.rref.max_entry_bits"] = (max((s["rref_max_entry_bits"] for s in stats),
                                               default=0), "bits")
    out["exactlin.rref.repeat_ratio"] = (
        sum(s["rref_repeats"] for s in stats) / rref_calls if rref_calls else 0.0, "ratio")
    for name in ("exactlin.solve_affine", "exactlin.matmul", "cochain.differential",
                 "deform.verify_deformation"):
        out[f"{name}.calls"] = (fn(name, "calls"), "count")
        out[f"{name}.self_s"] = (fn(name, "self_s"), "s")
    hits = sum(s["dm_hits"] for s in stats)
    misses = sum(s["dm_misses"] for s in stats)
    out["cochain.differential_matrix.self_s"] = (fn("cochain.differential_matrix", "self_s"), "s")
    out["cochain.differential_matrix.misses"] = (misses, "count")
    out["cochain.differential_matrix.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["cochain.differential_matrix.nnz"] = (sum(s["dm_nnz"] for s in stats), "count")
    for name in ("deform.obstruction", "deform.apply_gauge", "algebras.verify_algebra",
                 "algebras.verify_bimodule", "hder.verify_hder", "serialize.parse",
                 "serialize.emit"):
        out[f"{name}.self_s"] = (fn(name, "self_s"), "s")
    out["trace.overhead_ratio"] = (child["traced_s"] / child["untraced_s"], "ratio")
    return out


def _op_summary(child, ops, scaled=None) -> list[dict]:
    """One row per op; ``scaled`` holds the untraced latencies at reference speed."""
    lat, digest, ref = {}, {}, {}
    for i, (index, pass_no, latency, _code, sha, _error) in enumerate(child["executions"]):
        lat.setdefault(index, {}).setdefault(pass_no, []).append(latency)
        digest.setdefault(index, sha)
        if scaled is not None:
            ref.setdefault(index, []).append(scaled[i])
    rows = []
    for index, op in enumerate(ops):
        row = {"op": op.name, "expect": op.expect, "stdout_sha256": digest[index],
               "median_s": statistics.median(x for v in lat[index].values() for x in v)}
        if scaled is not None:
            row["reference_median_s"] = statistics.median(ref[index])
        if "op_stats" in child:
            row["traced_s"] = lat[index][1][0]
            row.update(child["op_stats"].get(str(index), {}))
        rows.append(row)
    return rows


def run(args) -> dict:
    if not (SRC / "hderlab" / "cli.py").is_file():
        raise BenchError(f"no hderlab sources at {SRC}")
    os.environ.pop("HDERLAB_MAX_DIM", None)
    sys.path.insert(0, str(SRC))
    import workloads
    import hderlab
    if Path(hderlab.__file__).resolve().parent != (SRC / "hderlab").resolve():
        raise BenchError(f"imported hderlab from {hderlab.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    workdir = BENCH / "work" / f"{args.workload}-seed{args.seed}"
    ops, problems, file_digests = workloads.build(args.workload, args.seed, workdir)
    if args.ops is not None:
        ops = ops[max(len(ops) - args.ops, 0):]
    if not ops:
        raise BenchError("the op list is empty")
    _validate(problems, workdir)
    op_digest = workloads.op_list_digest(ops, file_digests)

    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    base = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    plan = {"src": str(SRC), "seconds": args.seconds, "trace": args.trace,
            "spans_path": str(base) + ".spans.jsonl",
            "ops": [{"argv": [op.argv[0], str(workdir / op.argv[1]), *op.argv[2:]],
                     "expect": op.expect} for op in ops]}
    plan_path = workdir / f"plan-{stamp}.json"
    plan_path.write_text(json.dumps(plan))
    child_out = workdir / f"child-{stamp}.json"
    # Set-up is sampled on both sides of the child, so that one slow stretch
    # of the machine does not set the median.  The first import compiles
    # the bytecode, as any installed copy would have it, and is not counted.
    setup_samples = [] if args.trace else _import_seconds(1 + IMPORT_SAMPLES)[1:]
    try:
        child = _run_child(plan_path, child_out)
        if not args.trace:
            setup_samples += _import_seconds(IMPORT_SAMPLES)
    finally:
        plan_path.unlink(missing_ok=True)
        child_out.unlink(missing_ok=True)

    pinned = None
    full_default = args.seed == DEFAULT_SEED and args.ops is None
    if full_default and not args.pin_digests:
        pinned = json.loads(DIGESTS.read_text()).get(args.workload, {})
    executions = child["executions"]
    failed, notes = _check(executions, ops, pinned)
    attempted = len(executions)

    extra: dict = {"fail_rate": failed / attempted, "failures": notes,
                   "ops_per_pass": len(ops),
                   "inputs": [{"file": p.file, **p.sizes} for p in problems]}
    if args.trace:
        extra["ops"] = _op_summary(child, ops)
        metrics = _layer_metrics(child)
        extra["span_count"] = child["span_count"]
        extra["functions"] = child["functions"]
    else:
        raw = [e[2] for e in executions]
        latencies = probe.at_reference_speed(child["spans"], child["probes"])
        extra["ops"] = _op_summary(child, ops, latencies)
        tail, tail_pct = _tail(latencies)
        values = {"ops_per_s": attempted / sum(latencies),
                  "op_p50_ms": 1000 * statistics.median(latencies),
                  "op_tail_ms": 1000 * tail,
                  "setup_s": statistics.median(s for _, s in setup_samples),
                  "peak_rss_mb": child["peak_rss_kb"] / 1024}
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
        probe_s = [d for _, d in child["probes"]]
        extra.update({"passes": child["passes"], "window_s": child["window_s"],
                      "op_tail_percentile": tail_pct, "op_samples": attempted,
                      "probe_count": len(probe_s),
                      "probe_median_s": statistics.median(probe_s),
                      "probe_quartiles_s": statistics.quantiles(probe_s, n=4),
                      "wall": {"ops_per_s": attempted / sum(raw),
                               "op_p50_ms": 1000 * statistics.median(raw),
                               "op_tail_ms": 1000 * _tail(raw)[0],
                               "setup_s": statistics.median(w for w, _ in setup_samples)},
                      "setup_samples_s": setup_samples})

    if args.pin_digests:
        if not full_default or failed:
            raise BenchError("pin digests only from a clean default-seed run of the full op list")
        doc = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        doc[args.workload] = {ops[e[0]].name: e[4] for e in executions}
        DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"provenance": _provenance(args, child["cap"], op_digest),
              "result": line, **extra}
    Path(str(base) + ".json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"result file: {base.relative_to(ROOT)}.json")
    for note in notes:
        print(f"FAILED {note}")
    return line


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        line = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
