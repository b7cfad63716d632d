"""Span tracer that wraps wignerlab's layer entry points from outside.

Inside a ``with Tracer() as tracer:`` block these calls record a span each:
``SeedSpec.generator``, ``DistributionSpec.sample``, ``HermitianMatrix.dense``,
the functions ``wignerlab.experiments`` resolves (``sample_wigner``,
``eigvalsh``, ``minor``, ``counting``, ``unfolded_spacings``, ``good_event``,
``select_indices``), ``run_experiment`` and ``cli.main``.  Leaving the block
restores the originals.  No wignerlab source is changed.

A span is the tuple ``(id, name, start, end, parent_id, thread, size)``.  Each
thread keeps its own span stack, so ``parent_id`` is the enclosing span on the
same thread, or ``None``.  ``size`` is the matrix dimension for ``dense`` and
``eigvalsh`` and 0 otherwise.  Spans stay in memory until :func:`summarise`.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

RUN = "experiments.run_experiment"


def _matrix_n(args) -> int:
    return args[0].n


def _targets():
    """(owner, attribute, span name, size function) for every wrapped call."""
    from wignerlab import cli, distributions, ensembles, experiments, seeding

    return [
        (seeding.SeedSpec, "generator", "seeding.generator", None),
        (distributions.DistributionSpec, "sample", "distributions.sample", None),
        (ensembles.HermitianMatrix, "dense", "ensembles.dense", _matrix_n),
        (experiments, "sample_wigner", "ensembles.sample_wigner", None),
        (experiments, "eigvalsh", "eigensolver.eigvalsh", _matrix_n),
        (experiments, "minor", "eigensolver.minor", None),
        (experiments, "counting", "spectral.counting", None),
        (experiments, "unfolded_spacings", "spectral.unfolded_spacings", None),
        (experiments, "good_event", "diagnostics.good_event", None),
        (experiments, "select_indices", "diagnostics.select_indices", None),
        (experiments, "run_experiment", RUN, None),
        (cli, "run_experiment", RUN, None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        wrapped = {}
        for owner, attr, name, size_of in _targets():
            original = getattr(owner, attr)
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(name, original, size_of)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, size_of):
        ids, local, clock, ident = self._ids, self._local, time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                size = size_of(args) if size_of else 0
                self.spans.append((sid, name, start, end, parent, ident(), size))

        return traced


# -- reduction -----------------------------------------------------------------


def summarise(spans: list) -> dict:
    """Additive totals of one batch of spans.

    Per span name: ``calls``, inclusive seconds ``incl``, self seconds
    ``self`` (duration minus direct children on the same thread), modelled
    ``bytes`` (16 n^2 per ``dense``) and ``flops`` ((16/3) n^3 per
    ``eigvalsh``).  Under ``"experiments"``: ``wall`` (summed
    ``run_experiment`` durations) and ``busy`` (summed thread time working for
    it).

    Pool threads have their own stacks, so their top-level spans have no
    parent; those that start inside a ``run_experiment`` span count as its
    children.  A pool thread is taken as busy from its first such span's start
    to its last one's end; the calling thread is busy for the rest of the
    ``run_experiment`` interval, outside the union of the pool threads' busy
    intervals.  ``run_experiment`` self time is its busy time minus its
    children: inline observables, the sample loop, pool dispatch and the
    reduction.
    """
    child_time: dict = defaultdict(float)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0, "bytes": 0.0, "flops": 0.0})
    for sid, name, start, end, parent, _, size in spans:
        t = totals[name]
        t["calls"] += 1
        t["incl"] += end - start
        t["self"] += end - start - child_time[sid]
        if name == "ensembles.dense":
            t["bytes"] += 16.0 * size * size
        elif name == "eigensolver.eigvalsh":
            t["flops"] += 16.0 / 3.0 * size**3

    wall = busy = run_self = 0.0
    for sid, name, start, end, parent, thread, _ in spans:
        if name != RUN:
            continue
        pool = [s for s in spans if s[5] != thread and s[4] is None and start <= s[2] <= end]
        intervals = defaultdict(lambda: [float("inf"), float("-inf")])
        for s in pool:
            iv = intervals[s[5]]
            iv[0], iv[1] = min(iv[0], s[2]), max(iv[1], s[3])
        pool_busy = sum(hi - lo for lo, hi in intervals.values())
        caller_busy = (end - start) - _union_length(list(intervals.values()))
        work = caller_busy + pool_busy
        wall += end - start
        busy += work
        run_self += work - child_time[sid] - sum(s[3] - s[2] for s in pool)
    if RUN in totals:
        totals[RUN]["self"] = run_self
    out = {name: dict(t) for name, t in totals.items()}
    out["experiments"] = {"wall": wall, "busy": busy}
    return out


def _union_length(intervals: list) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def merge(a: dict, b: dict) -> dict:
    """Sum two :func:`summarise` results."""
    out = {k: dict(v) for k, v in a.items()}
    for name, fields in b.items():
        if name not in out:
            out[name] = dict(fields)
            continue
        for key, value in fields.items():
            out[name][key] += value
    return out


def layer_metrics(totals: dict, matrices: int) -> tuple[dict, list]:
    """Per-layer metrics from merged totals over ``matrices`` matrices.

    Returns ``(metrics, absent)``: a metric whose span never occurred is left
    out of ``metrics`` and its span name is listed in ``absent``.
    """
    metrics: dict = {}
    absent: list = []

    def span(name):
        if name in totals and totals[name]["calls"] > 0:
            return totals[name]
        absent.append(name)
        return None

    def per_matrix(name, key):
        t = span(name)
        if t is not None:
            metrics[f"{name}.{'self_us' if key == 'self' else 'us'}_per_matrix"] = t[key] / matrices * 1e6
        return t

    per_matrix("seeding.generator", "incl")
    per_matrix("distributions.sample", "incl")
    per_matrix("ensembles.sample_wigner", "self")
    dense = per_matrix("ensembles.dense", "incl")
    if dense is not None:
        metrics["ensembles.dense.calls_per_matrix"] = dense["calls"] / matrices
        metrics["ensembles.dense.bytes_per_matrix"] = dense["bytes"] / matrices
    eig = per_matrix("eigensolver.eigvalsh", "self")
    per_matrix("eigensolver.minor", "self")
    counting = per_matrix("spectral.counting", "incl")
    if counting is not None:
        metrics["spectral.counting.calls_per_matrix"] = counting["calls"] / matrices
    per_matrix("spectral.unfolded_spacings", "incl")
    per_matrix("diagnostics.good_event", "incl")
    per_matrix("diagnostics.select_indices", "incl")
    per_matrix(RUN, "self")
    busy, wall = totals["experiments"]["busy"], totals["experiments"]["wall"]
    if eig is not None and eig["self"] > 0.0:
        metrics["eigensolver.eigvalsh.gflops"] = eig["flops"] / eig["self"] / 1e9
        metrics["eigensolver.lapack_share"] = eig["self"] / busy
    if wall > 0.0:
        metrics["experiments.concurrency"] = busy / wall
    main = span("cli.main")
    if main is not None:
        metrics["cli.main.self_ms"] = main["self"] / main["calls"] * 1e3
    return metrics, absent
