"""Run one wignerlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-n64 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is taken from its ``src/``.
Every role runs in a fresh interpreter (``perfbench/child.py``), one after
another, with ``src/`` prepended to ``PYTHONPATH`` and the caller's
environment otherwise unchanged:

1. set-up: ``SETUP_CHILDREN`` children that import numpy and
   ``wignerlab.cli`` and build the workload's specs; ``setup_s`` is the median
   time from spawn to ready.
2. ``--trace 0``: one child runs the workload repeatedly for ``--seconds``
   and reports the end-to-end metrics (``BENCHMARK.json`` ``end_to_end``).
3. ``--trace 1``: one child alternates untraced and traced runs for two
   thirds of ``--seconds``, then a serial reference child (the ``measure``
   role with ``WIGNERLAB_THREADS=1`` and one BLAS thread) runs for the last
   third; together they give the ``per_layer`` metrics.  A metric whose span
   never ran is printed as ``absent`` and carries the value 0 in the result
   object.

The last line of standard output is the result object.  The full record, with
the environment, every run and the output checks, goes to
``perfbench/out/result-<workload>-trace<k>.json``; compare two such files with
``perfbench/compare.py``.  Exit status: 0 when every output check passed,
1 when one failed, 2 on a usage error or a checkout without ``src/wignerlab``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_CHILDREN = 17
DEADLINE_MARGIN_S = 100.0  # for set-up, imports and warm-up, beyond 2 * --seconds
SERIAL_ENV = {"WIGNERLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def _child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def _child_cmd(role: str, args, seconds: float | None = None) -> list:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), role, "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", repr(seconds if seconds is not None else args.seconds)]
    return cmd


def _last_json(text: str, role: str) -> dict:
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"{role} child printed no result") from None


def _remaining(args) -> float:
    left = args.deadline - time.monotonic()
    if left <= 0:
        raise ChildFailed(f"the run did not finish within {args.deadline_s} s")
    return left


def _setup_time(args) -> tuple[float, dict]:
    """Spawn-to-ready seconds of one fresh set-up child, and its import times."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        _child_cmd("setup", args), cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        if not select.select([proc.stdout], [], [], _remaining(args))[0]:
            raise ChildFailed("setup child never became ready")
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=_remaining(args))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"setup child exited {proc.returncode}")
    return ready, _last_json(line + rest, "setup")


def _run_child(role: str, args, seconds: float, extra_env: dict | None = None, spans: str | None = None) -> dict:
    cmd = _child_cmd(role, args, seconds) + (["--spans", spans] if spans else [])
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(extra_env), stdout=subprocess.PIPE, text=True, timeout=_remaining(args)
    )
    if proc.returncode != 0:
        raise ChildFailed(f"{role} child exited {proc.returncode}")
    return _last_json(proc.stdout, role)


def _ok(runs: list) -> list:
    return [r for r in runs if not r["problems"]]


def _median_rate(runs: list) -> float:
    return statistics.median(r["matrices"] / r["wall_s"] for r in _ok(runs))


def _setup_metrics(samples: list) -> dict:
    return {
        "setup_s": statistics.median(t for t, _ in samples),
        "setup.import_numpy_s": statistics.median(r["import_numpy_s"] for _, r in samples),
        "setup.import_wignerlab_s": statistics.median(r["import_wignerlab_s"] for _, r in samples),
    }


def _measure(args, setup: dict, record: dict) -> tuple[dict, list]:
    child = _run_child("measure", args, args.seconds)
    record.update(child)
    runs = child["runs"]
    metrics = {
        "matrices_per_s": _median_rate(runs) if _ok(runs) else 0.0,
        "setup_s": setup["setup_s"],
        "cpu_s_per_matrix": statistics.median(r["cpu_s"] / r["matrices"] for r in _ok(runs)) if _ok(runs) else 0.0,
        "peak_rss_mb": child["peak_rss_mb"],
        "success_rate": len(_ok(runs)) / len(runs),
    }
    return metrics, runs


def _trace(args, setup: dict, record: dict) -> tuple[dict, list]:
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{args.workload}.csv")
    child = _run_child("trace", args, args.seconds * 2.0 / 3.0, spans=spans)
    serial = _run_child("measure", args, args.seconds / 3.0, extra_env=SERIAL_ENV)
    record.update(child, serial=serial, spans_file=os.path.relpath(spans, ROOT))
    runs = child["runs"] + child["traced_runs"] + serial["runs"]
    metrics = dict(child["layers"])
    metrics.update({k: v for k, v in setup.items() if k != "setup_s"})
    if all(_ok(r) for r in (child["runs"], child["traced_runs"], serial["runs"])):
        default = _median_rate(child["runs"])
        traced_wall = statistics.median(r["wall_s"] for r in child["traced_runs"])
        plain_wall = statistics.median(r["wall_s"] for r in child["runs"])
        metrics["experiments.serial_matrices_per_s"] = _median_rate(serial["runs"])
        metrics["experiments.pool_speedup"] = default / metrics["experiments.serial_matrices_per_s"]
        metrics["trace.overhead"] = traced_wall / plain_wall - 1.0
    return metrics, runs


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wignerlab", "__init__.py")):
        print(f"error: no wignerlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    args.deadline_s = 2.0 * args.seconds + DEADLINE_MARGIN_S  # the whole run, children included
    args.deadline = time.monotonic() + args.deadline_s
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        setup = _setup_metrics([_setup_time(args) for _ in range(SETUP_CHILDREN)])
        metrics, runs = (_trace if args.trace else _measure)(args, setup, record)
        problems = [p for r in runs for p in r["problems"]]
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        metrics, runs, problems = {}, [], [str(exc)]

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    result = {
        "correct": not problems,
        "attempted": max(1, len(runs)),
        "failed": max(len([r for r in runs if r["problems"]]), 1 if problems else 0),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    record.update(result=result, problems=problems, absent_metrics=absent)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    _report(record, wanted, metrics, absent)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _report(record: dict, wanted: list, metrics: dict, absent: list) -> None:
    runs = record.get("runs", [])
    digests = [r.get("digest_check") for r in runs + record.get("traced_runs", []) if "digest_check" in r]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  runs {len(runs)}")
    print(f"env {json.dumps(record.get('env'))}")
    print(f"digest {digests[0] if digests else 'skipped: seed is not the pinned seed'}")
    for problem in record["problems"]:
        print(f"FAIL {problem}")
    for m in wanted:
        shown = "absent" if m["name"] in absent else f"{metrics[m['name']]:.6g}"
        print(f"  {m['name']:48s} {shown:>14s} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
