"""One fresh interpreter per benchmark role; prints one JSON object last.

    python3 perfbench/child.py ROLE --workload NAME --seed S --seconds T

Roles:

* ``setup``: import numpy, then ``wignerlab.cli``, build the workload's specs
  and report the import times.  Nothing is sampled.
* ``measure``: an untimed warm-up run, then timed runs at master seeds
  ``S, S+1, ...`` while the next run still fits in ``T`` seconds.  Each run
  is checked.
* ``trace``: like ``measure``, but each master seed runs twice, untraced then
  traced, and the two must give the same CSV bytes.  The spans of the first
  traced run are written to ``--spans``.

``src/`` of the checkout must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback

SEED_RANGE = 2**32


def _setup(args) -> dict:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import wignerlab.cli  # noqa: F401

    t2 = time.perf_counter()
    import workloads

    workload = workloads.get(args.workload)
    workload.specs(args.seed % SEED_RANGE, workload.samples)
    return {"import_numpy_s": t1 - t0, "import_wignerlab_s": t2 - t1}


def _timed_run(workload, seed: int) -> dict:
    """One checked run at master seed ``seed``: wall and CPU time and digest."""
    import workloads

    rec = {"seed": seed, "matrices": workload.matrices(), "problems": []}
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        outputs = workload.run(seed)
    except Exception as exc:  # a failing run is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        rec["problems"].append(f"{type(exc).__name__}: {exc}")
        return rec
    rec["wall_s"] = time.perf_counter() - t0
    rec["cpu_s"] = time.process_time() - c0
    rec["problems"] += workload.check(outputs)
    rec["digest"] = csv_digest(outputs)
    if seed == workloads.PINNED_SEED:
        rec["digest_check"] = digest_check(workload.name, rec["digest"])
        if rec["digest_check"] == "failed":
            rec["problems"].append(f"CSV digest {rec['digest']} differs from the pinned one")
    return rec


def csv_digest(outputs: list) -> str:
    return hashlib.sha256("".join(o.csv for o in outputs).encode()).hexdigest()


def digest_check(name: str, digest: str, pinned: dict | None = None) -> str:
    """``passed``, ``failed`` or ``skipped: ...`` against the digest pinned
    (in ``pinned``, by default ``digests.json``) for this process's build."""
    import environment

    if pinned is None:
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")) as fh:
            pinned = json.load(fh)
    key = environment.build_key(environment.record())
    expected = pinned.get(key, {}).get(name)
    if expected is None:
        return f"skipped: no digest pinned for build {key!r}"
    return "passed" if expected == digest else "failed"


def _loop(args, body) -> list:
    """Call ``body(master_seed)`` for seeds S, S+1, ... at least once, and
    again while the last call would still fit in ``--seconds``."""
    runs = []
    start = last = time.perf_counter()
    while True:
        runs.append(body((args.seed + len(runs)) % SEED_RANGE))
        now = time.perf_counter()
        if now + (now - last) - start > args.seconds:
            return runs
        last = now


def _warm(workload, args) -> None:
    workload.run(args.seed % SEED_RANGE, samples=workload.warm_samples)


def _measure(args) -> dict:
    import resource

    import environment
    import workloads

    workload = workloads.get(args.workload)
    _warm(workload, args)
    runs = _loop(args, lambda seed: _timed_run(workload, seed))
    return {
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment.record(),
    }


def _trace(args) -> dict:
    import environment
    import tracer
    import workloads

    workload = workloads.get(args.workload)
    _warm(workload, args)
    spans = tracer.Tracer()
    totals: dict = {}
    first: list = []

    def pair(seed):
        nonlocal totals
        plain = _timed_run(workload, seed)
        with spans:
            traced = _timed_run(workload, seed)
        batch = spans.take()
        totals = tracer.merge(totals, tracer.summarise(batch))
        first[:] = first or batch
        if "digest" in plain and "digest" in traced and plain["digest"] != traced["digest"]:
            traced["problems"].append("traced run changed the CSV bytes")
        return {"untraced": plain, "traced": traced}

    pairs = _loop(args, pair)
    if args.spans:
        _write_spans(args.spans, first)
    matrices = sum(p["traced"]["matrices"] for p in pairs)
    layers, absent = tracer.layer_metrics(totals, matrices)
    return {
        "runs": [p["untraced"] for p in pairs],
        "traced_runs": [p["traced"] for p in pairs],
        "layers": layers,
        "absent": absent,
        "env": environment.record(),
    }


def _write_spans(path: str, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,thread,size\n")
        origin = min(s[2] for s in spans)
        for sid, name, start, end, parent, thread, size in sorted(spans):
            fh.write(
                f"{sid},{name},{start - origin:.9f},{end - origin:.9f},"
                f"{'' if parent is None else parent},{thread},{size}\n"
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", help="file for the spans of the first traced run")
    args = parser.parse_args()
    role = {"setup": _setup, "measure": _measure, "trace": _trace}[args.role]
    print(json.dumps(role(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
