"""The closed loop shared by every workload, and the metrics taken from it.

A workload object builds one seeded pass of operations: a list of
(label, function, args).  The loop calls them one after another, each one
waiting for the previous one, and times every call.  A label of None marks an
untimed step between operations (clearing a cache, say).  Passes repeat until
the next one would overrun the run's seconds; a run makes at least one.

Times are in reference seconds of refclock.CLOCK, which the caller starts:
wall time scaled by how fast the machine ran Python around each operation,
so that a shared host's slow and fast spells cancel.  The wall times are kept
beside them.

A library exception ends only its own operation: it is counted by type and
the loop goes on.  Any other exception is a fault of the benchmark or of the
program and ends the run.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from wittforge import cone, prismatic, rings, universal, witt

from refclock import CLOCK

LIBRARY_ERRORS = (
    universal.GenerationError,  # NotMaterialized is one
    rings.RingError,  # InexactDivision is one
    witt.WittError,  # EnumerationBudget is one
    prismatic.PrismaticError,
    cone.ConeError,
)


class Workload:
    """Hooks the loop calls besides setup(), ops(), counts() and check()."""

    def before_pass(self):
        """Untimed preparation before each pass."""

    def keep(self, label, result):
        """What of a result the checks need; called outside the timed call."""
        return result

    def layer_metrics(self, passes) -> dict:
        """Per-layer numbers only the workload can see."""
        return {}

    def close(self):
        """Remove what set-up made outside the process."""


@dataclass
class Pass:
    seconds: float = 0.0  # reference seconds: the sum of the latencies
    wall_s: float = 0.0  # wall seconds of the same operations
    latencies: list = field(default_factory=list)  # reference seconds of each timed op
    ok: int = 0
    failed: dict = field(default_factory=dict)  # exception type name -> count
    counts: dict = field(default_factory=dict)  # deterministic counts of this pass
    snap: tuple = ()  # tracer snapshots at the start and end of the pass


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def run_pass(wl, tracer=None):
    """One pass; returns the Pass and its outcomes (label, args, kept result, error).

    The workload's keep() reduces each result to what its checks need, outside
    the timed call, so that held results do not inflate the peak RSS.
    """
    p = Pass()
    outcomes, marks = [], []
    wl.before_pass()
    if tracer:
        p.snap = (tracer.snapshot(),)
    for i, (label, fn, args) in enumerate(wl.ops()):
        if label is None:
            fn(*args)
            continue
        if tracer:
            tracer.op_id = i
        error = result = None
        m0 = CLOCK.mark()
        try:
            result = fn(*args)
        except LIBRARY_ERRORS as e:
            error = type(e).__name__
        marks.append((m0, CLOCK.mark()))
        if error is None:
            p.ok += 1
        else:
            p.failed[error] = p.failed.get(error, 0) + 1
        outcomes.append((label, args, wl.keep(label, result), error))
    # after the pass, so that the probes that follow each operation count too
    p.latencies = [CLOCK.reference(m0, m1) for m0, m1 in marks]
    p.seconds = sum(p.latencies)
    p.wall_s = sum(CLOCK.wall(m0, m1) for m0, m1 in marks)
    counts = wl.counts(outcomes)
    if tracer:
        p.snap += (tracer.snapshot(),)
        counts.update(tracer.pass_counts(*p.snap))
    # through JSON, so that counts compare equal to those stored by earlier runs
    p.counts = json.loads(json.dumps(counts))
    return p, outcomes


def run_passes(wl, seconds, tracer=None):
    """Passes for about `seconds` of wall time; the outcomes of the first."""
    start = perf_counter()
    passes, first = [], None
    while True:
        t0 = perf_counter()
        p, outcomes = run_pass(wl, tracer)
        passes.append(p)
        if first is None:
            first = outcomes
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return passes, first


def drift(passes):
    """Keys of deterministic counts that differ between passes."""
    ref = passes[0].counts
    return sorted({k for p in passes[1:] for k in ref if p.counts.get(k) != ref[k]})


def end_to_end(passes, setup_s, peak_rss_mb):
    lat = [x for p in passes for x in p.latencies]
    attempted = len(lat)
    ok = sum(p.ok for p in passes)
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(p.seconds for p in passes),
        "ops_per_s": statistics.median(p.ok / p.seconds for p in passes),
        "op_p50_ms": 1e3 * percentile(lat, 0.50),
        "op_p99_ms": 1e3 * percentile(lat, 0.99),
        "success_rate": ok / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
