"""verify-all: `python -m wittforge verify --suite all --seed S` as a subprocess.

The acceptance gate's end-to-end number (criterion 13), and the only
workload that covers the filtration, de Rham and suites modules.  The traced
run adds --timings, whose per-suite wall times are the suites layer.

The child runs under refclock.py, so that its time counts in reference
seconds like the in-process workloads: the child probes the machine's speed
while it runs and the parent adopts its probes.
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path

from wittforge import universal

from harness import Workload
from refclock import run_child

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 150


class VerifyAll(Workload):
    name = "verify-all"
    runs_in_subprocess = True  # set-up and peak RSS are the child's

    def __init__(self, seed, make_ring, scratch, traced):
        self.seed = seed
        self.probes = scratch / f"probes-{os.getpid()}.json"
        self.timings = traced
        self.suite_runs = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop(universal.CACHE_ENV, None)

    def _wittforge(self, *args):
        proc = run_child(self.probes, "wittforge", *args, cwd=ROOT, env=self.env,
                         capture_output=True, text=True, timeout=TIMEOUT_S)
        return proc.returncode, proc.stdout

    def setup(self):
        code, _ = self._wittforge("verify", "--list")
        if code != 0:
            raise RuntimeError(f"verify --list exited with {code}")

    def _verify(self):
        args = ["verify", "--suite", "all", "--seed", str(self.seed)]
        code, out = self._wittforge(*args, *(["--timings"] if self.timings else []))
        if self.timings and code in (0, 1):
            self.suite_runs.append({s["suite"]: s["seconds"] for s in json.loads(out)["suites"]})
        return code, out

    def ops(self):
        return [("verify", self._verify, ())]

    def counts(self, outcomes):
        code, out = outcomes[0][2]
        doc = json.loads(out) if code in (0, 1) else {}
        return {"exit": code, **{s["suite"]: s["cases"] for s in doc.get("suites", ())}}

    def check(self, outcomes):
        code, out = outcomes[0][2]
        self.checked = 1
        if code != 0:
            return [f"verify exited with {code}"]
        if json.loads(out).get("passed") is not True:
            return ['verify did not report "passed": true']
        return []

    def layer_metrics(self, passes):
        return {f"suites.{name}.s": statistics.median(run[name] for run in self.suite_runs)
                for name in self.suite_runs[0]} if self.suite_runs else {}
