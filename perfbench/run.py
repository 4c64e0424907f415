"""Run one wittforge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload witt-arith --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from src/ beside this directory.
--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0 when
every output check passed, 1 when one failed, and 2 when the benchmark cannot
run (for instance without src/).  Full results, provenance and the spans of
a traced run go to .bench_out/ at the root of the checkout.

Times are in reference seconds (refclock.py): wall time scaled by how fast the
machine ran Python at that moment.  The wall times are in the provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from refclock import CLOCK, run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = {
    "witt-arith": ("witt_arith", "WittArith"),
    "universal-gen": ("universal_gen", "UniversalGen"),
    "points-enum": ("points_enum", "PointsEnum"),
    "verify-all": ("verify_all", "VerifyAll"),
}
# set-up is timed several times and its median reported: three times when
# one set-up takes over a second, else seven
SETUP_SLOW_S = 1.0
# the import of the package, the other part of an in-process workload's
# set-up, is timed in this many fresh interpreters
IMPORTS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "wittforge").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cross_run_drift(workload, seed, sources, counts):
    """Compare this run's deterministic counts with earlier runs of the seed.

    Runs are compared only with runs of the same sources (`sources` is their
    SHA-256): a change to the program may change the counts on purpose.
    """
    path = OUT / "determinism" / f"{workload}-seed{seed}-{sources[:16]}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    drifted = sorted(k for k in counts if k in stored and stored[k] != counts[k])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**counts, **stored}, sort_keys=True))
    return drifted


def import_marks():
    """Clock marks around IMPORTS imports of the package, each in a fresh child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    marks = []
    for _ in range(IMPORTS):
        m0 = CLOCK.mark()
        run_child(OUT / f"probes-{os.getpid()}.json", "import_all", env=env, check=True)
        marks.append((m0, CLOCK.mark()))
    return marks


def plain_run(cls, args, harness, rings):
    marks, wl = [], None
    while len(marks) < 3 or (len(marks) < 7 and CLOCK.wall(*marks[0]) <= SETUP_SLOW_S):
        if wl is not None:
            wl.close()
        wl = cls(args.seed, rings.make_ring, OUT, False)
        m0 = CLOCK.mark()
        wl.setup()
        marks.append((m0, CLOCK.mark()))
    try:
        passes, first = harness.run_passes(wl, args.seconds)
        problems = wl.check(first)
    finally:
        wl.close()
    # after the passes, so that the probes around each set-up are in
    return wl, passes, problems, [CLOCK.reference(*m) for m in marks]


def traced_run(cls, args, harness, rings, tracing):
    """Untraced passes for a third of the time, then traced ones."""
    wl = cls(args.seed, rings.make_ring, OUT, False)
    wl.setup()
    try:
        plain, first = harness.run_passes(wl, args.seconds / 3)
        problems = wl.check(first)
    finally:
        wl.close()
    tracer = tracing.Tracer()
    tracer.install()
    twl = cls(args.seed, tracer.make_ring, OUT, True)
    twl.setup()
    try:
        traced, _ = harness.run_passes(twl, args.seconds * 2 / 3, tracer)
    finally:
        twl.close()
    layer = tracer.layer_metrics(traced)
    layer.update(twl.layer_metrics(traced))
    layer["trace.overhead"] = (statistics.median(p.seconds for p in traced)
                               / statistics.median(p.seconds for p in plain))
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.spans.gz")
    return wl, plain, traced, problems, layer, len(tracer.s_name)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wittforge" / "__init__.py").is_file():
        print(f"error: no wittforge sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.pop("WITTFORGE_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    CLOCK.start()
    try:
        return measure(args, spec)
    finally:
        CLOCK.stop()


def measure(args, spec) -> int:
    from wittforge import rings

    import harness
    import tracing

    module, cls_name = WORKLOADS[args.workload]
    cls = getattr(importlib.import_module(module), cls_name)
    OUT.mkdir(exist_ok=True)

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "platform": platform.platform(),
        "commit": git_commit(), "src_sha256": src_sha256(),
        "loop": "closed, one caller, single thread",
    }
    if args.trace:
        wl, plain, traced, problems, layer, spans = traced_run(cls, args, harness, rings, tracing)
        passes = plain + traced
        # traced passes add ring and evaluate counts; the workload's own counts
        # must also agree between the two phases
        drifted = (harness.drift(plain) + harness.drift(traced)
                   + harness.drift([plain[0], traced[0]]))
        values = layer
        provenance.update(spans=spans, plain_pass_s=[p.seconds for p in plain],
                          traced_pass_s=[p.seconds for p in traced],
                          plain_pass_wall_s=[p.wall_s for p in plain],
                          traced_pass_wall_s=[p.wall_s for p in traced])
    else:
        child = getattr(cls, "runs_in_subprocess", False)
        imported = [] if child else import_marks()
        wl, passes, problems, samples = plain_run(cls, args, harness, rings)
        import_s = [CLOCK.reference(*m) for m in imported]
        drifted = harness.drift(passes)
        setup_s = statistics.median(samples)
        if import_s:
            setup_s += statistics.median(import_s)
        values = harness.end_to_end(passes, setup_s, peak_rss_mb(child))
        provenance.update(import_s=import_s, setup_samples_s=samples,
                          pass_s=[p.seconds for p in passes],
                          pass_wall_s=[p.wall_s for p in passes])
    drifted += cross_run_drift(args.workload, args.seed, provenance["src_sha256"],
                               passes[-1].counts)

    attempted = sum(len(p.latencies) for p in passes)
    failed = attempted - sum(p.ok for p in passes)
    by_type: dict = {}
    for p in passes:
        for e, n in p.failed.items():
            by_type[e] = by_type.get(e, 0) + n
    provenance.update(passes=len(passes), op_samples=attempted, failed_by_type=by_type,
                      checked=wl.checked, problems=problems[:20], drift=drifted[:20])

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing and not args.trace:
        print(f"error: end-to-end metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in names}
    correct = not problems and not drifted
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    extra = sorted(set(values) - set(metrics))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": provenance, "unlisted": {k: values[k] for k in extra}},
                   indent=1))

    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    for line in problems[:20]:
        print(f"check failed: {line}")
    for key in drifted[:20]:
        print(f"deterministic count drifted: {key}")
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
