"""universal-gen: cold generation of universal Witt families, then a reload.

Each pass points WITTFORGE_CACHE_DIR at an empty directory inside the
checkout, generates every family (which also writes the disk cache), clears
the memory cache and loads every family again from disk.  No Witt arithmetic
runs, so the workload shows the generation engine and whether the disk cache
still pays for itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

from wittforge import universal
from wittforge.indexset import index_set_make

from harness import Workload
from tracing import family_name

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned_universal.json"

# criterion 3 of the acceptance gate: 12 families
CRITERION_3 = [(s, op) for s in ("div:30", "ptyp:2:4", "ptyp:3:4", "ptyp:5:4")
               for op in ("sum", "product", "negation")]
# Every pass generates and then reloads all of these, in this order.  There
# is no seeded input: drawing the div:N families, or the order, would move
# the latency percentiles and the peak RSS (which families are in memory when
# the largest is generated or parsed) from seed to seed.
FAMILIES = (CRITERION_3
            + [("ptyp:2:12", op) for op in ("sum", "product", "negation")]
            + [("div:12", f"frobenius:{n}") for n in (2, 3, 4, 6, 12)]
            + [("div:30", f"frobenius:{n}") for n in (2, 3, 5, 6, 10, 15, 30)]
            + [(f"div:{n}", op) for n in (18, 20, 24, 28, 36, 40, 42)
               for op in ("sum", "product", "negation")])

# s_2 and m_2 over E = {1, 2}, variables (x1, x2, y1, y2)
S2 = {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (1, 0, 1, 0): -1}
M2 = {(2, 0, 0, 1): 1, (0, 1, 2, 0): 1, (0, 1, 0, 1): 2}


def entry_shape(entry):
    """Materialized levels with their term counts, and certified levels."""
    return {
        "terms": {str(n): p.num_terms() for n, p in entry.polys.items() if p is not None},
        "certified": list(entry.certified),
    }


def polys_sha256(entry):
    h = hashlib.sha256()
    for n, p in sorted(entry.polys.items()):
        h.update(repr((n, None if p is None else sorted(p.terms.items()))).encode())
    return h.hexdigest()


class UniversalGen(Workload):
    name = "universal-gen"

    def __init__(self, seed, make_ring, scratch: Path, traced):
        self.cache_dir = scratch / f"universal-cache-{os.getpid()}"

    def setup(self):
        universal.clear_memory_cache()
        self.families = [(s, op, index_set_make(s)) for s, op in FAMILIES]
        os.environ[universal.CACHE_ENV] = str(self.cache_dir)

    def before_pass(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        universal.clear_memory_cache()

    def keep(self, label, entry):
        return {"shape": entry_shape(entry), "sha256": polys_sha256(entry)}

    def ops(self):
        gen = [("generate", universal.get_universal, (E, op)) for _, op, E in self.families]
        reload = [("reload", universal.get_universal, (E, op)) for _, op, E in self.families]
        return gen + [(None, universal.clear_memory_cache, ())] + reload

    def counts(self, outcomes):
        return {f"{label}:{family_name(args[0], args[1])}": kept["shape"]
                for label, args, kept, error in outcomes if error is None}

    def check(self, outcomes):
        pinned = json.loads(PINNED.read_text())
        problems = []
        seen = {}
        for label, args, kept, error in outcomes:
            fam = family_name(args[0], args[1])
            if error is not None:
                problems.append(f"{label} {fam}: {error}")
                continue
            if kept["shape"] != pinned.get(fam):
                problems.append(f"{label} {fam}: levels or term counts differ from the pinned ones")
            if label == "generate":
                seen[fam] = kept["sha256"]
            elif kept["sha256"] != seen[fam]:
                problems.append(f"reload {fam}: polynomials differ from the generated ones")
        E2 = index_set_make("div:2")
        for op, want in (("sum", S2), ("product", M2)):
            if universal.get_universal(E2, op).poly(2).terms != want:
                problems.append(f"{op} at level 2 over div:2 is not the known polynomial")
        self.checked = len(outcomes) + 2
        return problems

    def close(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
