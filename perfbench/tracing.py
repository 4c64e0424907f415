"""Spans around the public functions of wittforge, recorded from outside.

Nothing under src/ knows about this module.  `Tracer.install()` replaces the
public functions listed in SPANS by timing wrappers, in their own module and
in every wittforge module that imported them by name.  Rings are counted
through subclasses of the ring classes (`Tracer.make_ring`), which the
workload passes in as its rings; they give aggregates per ring class, not
spans.

A span is (name, start, end, parent span, op id).  Spans stay in memory
until `write()`.  Self time is a span's duration minus the time of the spans
and ring operations directly inside it.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from array import array
from time import perf_counter

from wittforge import cone, prismatic, rings, sparsepoly, structure, universal, witt

from harness import percentile

# (layer, module, public functions); the span name is "<layer>.<function>"
SPANS = (
    ("witt", witt, ("witt_add", "witt_mul", "witt_neg", "witt_sub", "frobenius",
                    "witt_unit_inverse", "ghost_raw", "unghost")),
    ("universal", universal, ("get_universal", "generate_universal_polynomials")),
    ("structure", structure, ("is_hodge_tate", "is_distinguished",
                              "wf_annihilator_check", "local_decompose")),
    ("cone", cone, ("cone_pi0", "cone_hom_set")),
    ("prismatic", prismatic, ("prismatic_points_affine",)),
)

# ring operations counted per ring class (zero() and one() are constants)
RING_METHODS = ("from_int", "add", "neg", "mul", "sub", "canonicalize", "exact_div_int",
                "unit_inverse", "int_unit_inverse", "nilpotent_index")
RING_CLASSES = ("IntegerRing", "RationalRing", "ZModRing", "PolyRing", "QuotientRing")


# readers of a snapshot (see Tracer.snapshot)
def _agg(name, i):
    """Slot i of a span aggregate: 0 calls, 1 total s, 2 self s, 3 work."""
    return lambda s: s["agg"].get(name, (0, 0.0, 0.0, 0))[i]


def _counter(name):
    return lambda s: s["counters"].get(name, 0)


def _ring_ops(c):
    return lambda s: s["rings"][c][0]


def _ring_self_s(c):
    return lambda s: s["rings"][c][1]


def _delta(snaps, get):
    before, after = snaps
    return get(after) - get(before)


def _median_delta(passes, get):
    return statistics.median(_delta(p.snap, get) for p in passes)


def index_set_name(E) -> str:
    """'ptyp2_3' for {1,2,4,8}, 'div12' for the divisors of 12 (and 'div2' for
    {1,2}), or 'set' for anything else."""
    elems = E.elements
    top = elems[-1]
    if len(elems) > 2 and all(b == a * elems[1] for a, b in zip(elems, elems[1:])):
        return f"ptyp{elems[1]}_{len(elems) - 1}"
    if list(elems) == [d for d in range(1, top + 1) if top % d == 0]:
        return f"div{top}"
    return "set"


def family_name(E, op: str) -> str:
    return f"{index_set_name(E)}.{op.replace('frobenius:', 'frob')}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[tuple[str, str]] = []
        self._tag_ids: dict = {}
        self.s_name = array("i")
        self.s_tag = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.op_id = -1
        # open frames: [child seconds]; spans additionally push their index
        self._frames: list[list] = []
        self._open: list[int] = []
        self.agg: dict[str, list] = {}  # name -> [calls, total s, self s, work]
        self.ring_stats = {c: [0, 0.0] for c in RING_CLASSES}  # class -> [ops, self s]
        self.counters: dict[str, float] = {}
        self.generated: list[tuple] = []  # (family, seconds, terms, certified levels)
        self._seen_keys: set = set()
        self._ring_classes: dict = {}

    # -- recording -----------------------------------------------------------
    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _witt_tag(self, args):
        ring = E = None
        for a in args:
            if isinstance(a, witt.WittVector):
                ring, E = a.ring, a.index_set
                break
        else:
            if len(args) == 3 and isinstance(args[2], rings.Ring):  # unghost(w, E, ring)
                ring, E = args[2], args[1]
        if ring is None:
            return -1
        key = (type(ring), E.elements)
        tid = self._tag_ids.get(key)
        if tid is None:
            tid = self._tag_ids[key] = len(self.tags)
            self.tags.append((type(ring).__name__, index_set_name(E)))
        return tid

    def wrap(self, name, fn, tag=None, work=None, post=None):
        """A function that records one span per call of fn."""
        nid = self._name_id(name)
        agg = self.agg.setdefault(name, [0, 0.0, 0.0, 0])
        frames, open_spans = self._frames, self._open
        s_name, s_tag, s_parent, s_op = self.s_name, self.s_tag, self.s_parent, self.s_op
        s_start, s_end = self.s_start, self.s_end

        def traced(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_tag.append(tag(args) if tag else -1)
            s_parent.append(open_spans[-1] if open_spans else -1)
            s_op.append(self.op_id)
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [0.0]
            frames.append(frame)
            open_spans.append(idx)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                frames.pop()
                open_spans.pop()
                s_start[idx] = t0
                s_end[idx] = t1
                dur = t1 - t0
                if frames:
                    frames[-1][0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if work:
                    agg[3] += work(args)
                if post:
                    post(args, result, exc, dur)

        return traced

    def _ring_method(self, stats, fn):
        frames = self._frames

        def counted(ring, *args):
            frame = [0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                return fn(ring, *args)
            finally:
                dur = perf_counter() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dur
                stats[0] += 1
                stats[1] += dur - frame[0]

        return counted

    def _counting(self, cls):
        if cls not in self._ring_classes:
            stats = self.ring_stats[cls.__name__]
            ns = {m: self._ring_method(stats, getattr(cls, m)) for m in RING_METHODS}
            self._ring_classes[cls] = type(cls.__name__, (cls,), ns)
        return self._ring_classes[cls]

    def _count_ring(self, ring):
        if isinstance(ring, rings.QuotientRing):
            return self._counting(rings.QuotientRing)(self._count_ring(ring.poly), ring.relation)
        if isinstance(ring, rings.PolyRing):
            base = self._count_ring(ring.base)
            return self._counting(rings.PolyRing)(base, ring.variables, ring.inverted)
        if isinstance(ring, rings.ZModRing):
            return self._counting(rings.ZModRing)(ring.n)
        return self._counting(type(ring))()

    def make_ring(self, descriptor):
        """Like rings.make_ring, but every ring operation is counted."""
        return self._count_ring(rings.make_ring(descriptor))

    def _bump(self, key, by=1):
        self.counters[key] = self.counters.get(key, 0) + by

    # -- hooks for the layers whose work shows in their arguments or results --
    def _after_generate(self, args, entry, exc, dur):
        if exc is None:
            E, op = args[0], args[1]
            terms = sum(p.num_terms() for p in entry.polys.values() if p is not None)
            self.generated.append((family_name(E, op), dur, terms, len(entry.certified)))

    def _get_universal(self, fn):
        def get(E, op, *rest):
            key = (E.elements, op)
            if key in self._seen_keys:
                self._bump("universal.get.hits")
                return fn(E, op, *rest)
            self._bump("universal.get.misses")
            before = len(self.generated)
            t0 = perf_counter()
            entry = fn(E, op, *rest)
            if len(self.generated) == before:  # read back from the disk cache
                self._bump("universal.load.s", perf_counter() - t0)
            self._seen_keys.add(key)
            return entry

        return get

    def _clear_memory_cache(self, fn):
        def clear():
            self._seen_keys.clear()
            return fn()

        return clear

    def _after_points(self, args, gpd, exc, dur):
        if isinstance(exc, structure.EnumerationBudget):
            self._bump("prismatic.refused")
        if gpd is None:
            return
        B, ctx = args[0], args[1]
        n = gpd.object_count()
        self._bump("prismatic.objects", n)
        self._bump("prismatic.morphisms", gpd.morphism_count())
        self._bump("prismatic.candidates", ctx.witt_ring.size() ** len(B.generators))
        self._bump("prismatic.pairs", n * n)
        self._bump("prismatic.nonempty_pairs", len(gpd.homs))

    # -- installation ----------------------------------------------------------
    def _replace(self, module, fname, new):
        old = getattr(module, fname)
        for name, mod in list(sys.modules.items()):
            if (name == "wittforge" or name.startswith("wittforge.")) and getattr(mod, fname, None) is old:
                setattr(mod, fname, new)

    def install(self):
        """Route every call into the SPANS functions through a span."""
        for layer, module, fnames in SPANS:
            for fname in fnames:
                fn = getattr(module, fname)
                kwargs = {}
                if layer == "witt":
                    kwargs["tag"] = self._witt_tag
                if fname == "generate_universal_polynomials":
                    kwargs["post"] = self._after_generate
                if fname == "prismatic_points_affine":
                    kwargs["post"] = self._after_points
                traced = self.wrap(f"{layer}.{fname}", fn, **kwargs)
                if fname == "get_universal":
                    traced = self._get_universal(traced)
                self._replace(module, fname, traced)
        self._replace(universal, "clear_memory_cache",
                      self._clear_memory_cache(universal.clear_memory_cache))
        sparsepoly.IntPoly.evaluate = self.wrap(
            "sparsepoly.evaluate", sparsepoly.IntPoly.evaluate,
            work=lambda args: len(args[0].terms))
        prismatic.PointGroupoid.check_axioms = self.wrap(
            "prismatic.check_axioms", prismatic.PointGroupoid.check_axioms)

    # -- windows ---------------------------------------------------------------
    def snapshot(self):
        return {
            "spans": len(self.s_name),
            "agg": {k: list(v) for k, v in self.agg.items()},
            "rings": {k: list(v) for k, v in self.ring_stats.items()},
            "counters": dict(self.counters),
        }

    def pass_counts(self, before, after) -> dict:
        """The deterministic counts of the window between two snapshots."""
        counts = {f"rings.{c}.ops": _delta((before, after), _ring_ops(c)) for c in RING_CLASSES}
        for i, key in ((0, "calls"), (3, "terms")):
            counts[f"sparsepoly.evaluate.{key}"] = _delta((before, after),
                                                          _agg("sparsepoly.evaluate", i))
        return counts

    def layer_metrics(self, passes) -> dict:
        """Per-layer metrics: medians over passes, each with its snapshots in .snap."""
        m = {}
        names = self.names
        witt_ids = {i for i, n in enumerate(names) if n.startswith("witt.")}
        by_fn: dict = {}
        by_ring: dict = {}
        by_E: dict = {}
        outer_per_pass = []
        for p in passes:
            outer = 0
            for idx in range(p.snap[0]["spans"], p.snap[1]["spans"]):
                nid = self.s_name[idx]
                if nid not in witt_ids:
                    continue
                dur = self.s_end[idx] - self.s_start[idx]
                by_fn.setdefault(names[nid], []).append(dur)
                parent = self.s_parent[idx]
                if parent >= 0 and self.s_name[parent] in witt_ids:
                    continue
                outer += 1
                tag = self.s_tag[idx]
                if tag >= 0:
                    ring_class, E = self.tags[tag]
                    by_ring.setdefault(ring_class, []).append(dur)
                    by_E.setdefault(E, []).append(dur)
            outer_per_pass.append(outer)
        witt_ops = statistics.median(outer_per_pass)

        for c in RING_CLASSES:
            ops = _median_delta(passes, _ring_ops(c))
            m[f"rings.{c}.ops"] = ops / witt_ops if witt_ops else 0.0
            m[f"rings.{c}.self_s"] = _median_delta(passes, _ring_self_s(c))

        m["sparsepoly.evaluate.calls"] = _median_delta(passes, _agg("sparsepoly.evaluate", 0))
        m["sparsepoly.evaluate.self_s"] = _median_delta(passes, _agg("sparsepoly.evaluate", 2))
        m["sparsepoly.evaluate.terms"] = _median_delta(passes, _agg("sparsepoly.evaluate", 3))

        for key in ("get.hits", "get.misses", "load.s"):
            m[f"universal.{key}"] = _median_delta(passes, _counter(f"universal.{key}"))
        m["universal.generate.s"] = _median_delta(
            passes, _agg("universal.generate_universal_polynomials", 1))
        families: dict = {}
        for fam, secs, terms, certified in self.generated:
            families.setdefault(fam, []).append((secs, terms, certified))
        for fam, recs in families.items():
            m[f"universal.{fam}.s"] = statistics.median(r[0] for r in recs)
            m[f"universal.{fam}.terms"] = recs[0][1]
            m[f"universal.{fam}.certified"] = recs[0][2]

        for fn, durs in by_fn.items():
            m[f"{fn.replace('witt_', '')}.p50_us"] = 1e6 * percentile(durs, 0.5)
        for c, durs in by_ring.items():
            m[f"witt.ring.{c}.p50_us"] = 1e6 * percentile(durs, 0.5)
        for E, durs in by_E.items():
            m[f"witt.E.{E}.p50_us"] = 1e6 * percentile(durs, 0.5)
        errors = {e for p in passes for e in p.failed}
        for e in errors:
            m[f"witt.failed.{e}"] = statistics.median(p.failed.get(e, 0) for p in passes)

        for name in names:
            layer = name.split(".")[0]
            if layer in ("structure", "cone"):
                m[f"{name}.calls"] = _median_delta(passes, _agg(name, 0))
                m[f"{name}.self_s"] = _median_delta(passes, _agg(name, 2))

        for key in ("objects", "morphisms", "refused"):
            m[f"prismatic.{key}"] = _median_delta(passes, _counter(f"prismatic.{key}"))
        m["prismatic.points_s"] = _median_delta(passes,
                                                _agg("prismatic.prismatic_points_affine", 1))
        m["prismatic.axioms_s"] = _median_delta(passes, _agg("prismatic.check_axioms", 1))
        cands = _median_delta(passes, _counter("prismatic.candidates"))
        pairs = _median_delta(passes, _counter("prismatic.pairs"))
        m["prismatic.object_yield"] = m["prismatic.objects"] / cands if cands else 0.0
        nonempty = _median_delta(passes, _counter("prismatic.nonempty_pairs"))
        m["prismatic.pair_yield"] = nonempty / pairs if pairs else 0.0
        return m

    def write(self, path):
        """Write every span: one JSON header line, then each column's raw bytes.

        Read back with array(typecode).frombytes() per column, in header order.
        """
        columns = [("name", self.s_name), ("tag", self.s_tag), ("parent", self.s_parent),
                   ("op", self.s_op), ("start", self.s_start), ("end", self.s_end)]
        header = {
            "spans": len(self.s_name), "names": self.names, "tags": self.tags,
            "columns": [[c, a.typecode, a.itemsize] for c, a in columns],
            "byteorder": sys.byteorder, "clock": "time.perf_counter, seconds",
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in columns:
                fh.write(a.tobytes())
