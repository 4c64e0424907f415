"""Command-line front end.

Each subcommand's handler computes a JSON object and an exit code; `main`
alone writes the object.  JSON goes to standard output (sorted keys, so
identical invocations give byte-identical output), or to the file named by
`--out`; `--pretty` indents it.  Exit codes: 0 on success, 1 when a
predicate is false or a verification suite fails, 2 on usage errors and on
every library error (a WittforgeError), each reported as one
`error: <Class>: <message>` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .cone import FreeModule, QuasiIdeal, cone_hom_set, cone_pi0, quasi_ideal_check
from .derham import MonomialAlgebra, hodge_cohomology
from .filtration import (
    Subspace,
    filtered_line,
    filtered_of_rees,
    rees_of_filtered,
    step_filtration,
)
from .indexset import index_set_make
from .numutil import WittforgeError, integer, split_items
from .prismatic import (
    AffinePresentation,
    PrismaticContext,
    prismatic_points_affine,
    witt_points,
)
from .rings import ENUM_CAP, UnsupportedRing, make_ring
from .structure import LocalContext, is_distinguished, is_hodge_tate, local_decompose
from .suites import SUITES, coverage_map, suite_check, suite_run
from .witt import frobenius, ghost, make_witt, teichmuller, verschiebung, witt_add, witt_mul, witt_neg, witt_sub


class UsageError(WittforgeError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a malformed command line as a UsageError."""

    def error(self, message):
        raise UsageError(message)


def _emit(obj, args) -> None:
    """Write a command's JSON to stdout or to --out: the one writer of output."""
    if args.pretty:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    else:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write --out {args.out!r}: {e.strerror}") from None


def _budget(text):
    """A --budget-enum value: a non-negative integer."""
    try:
        value = integer(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"a budget is a non-negative integer, not {text!r}")
    return value


def _ring_and_set(args):
    return make_ring(args.ring), index_set_make(args.index_set)


def _vector(args, attr, ring, E):
    text = getattr(args, attr)
    if text is None:
        raise UsageError(f"--{attr} is required")
    parts = text.split(",")
    if len(parts) != len(E):
        raise UsageError(f"--{attr} needs {len(E)} coordinates for {E}")
    return make_witt(E, ring, parts)


def _local_context(args, ring, E):
    if args.rational:
        return LocalContext.rational(ring, E)
    if args.p is None:
        raise UsageError("a local context needs --p PRIME or --rational")
    return LocalContext.p_local(args.p, ring, E)


def cmd_witt(args):
    ring, E = _ring_and_set(args)
    a = _vector(args, "a", ring, E)
    if args.op == "neg":
        out = witt_neg(a)
    else:
        b = _vector(args, "b", ring, E)
        out = {"add": witt_add, "mul": witt_mul, "sub": witt_sub}[args.op](a, b)
    return {"coords": out.to_json()["coords"]}, 0


def cmd_ghost(args):
    ring, E = _ring_and_set(args)
    g = ghost(_vector(args, "a", ring, E))
    return {"ghost": {str(n): repr(g[n]) for n in E}}, 0


def cmd_frobenius(args):
    ring, E = _ring_and_set(args)
    out = frobenius(args.n, _vector(args, "a", ring, E))
    return {"index_set": list(out.index_set.elements), "coords": out.to_json()["coords"]}, 0


def cmd_verschiebung(args):
    ring, E = _ring_and_set(args)
    a = _vector(args, "a", ring, E.restrict(args.n))
    return {"coords": verschiebung(args.n, a, E).to_json()["coords"]}, 0


def cmd_teich(args):
    ring, E = _ring_and_set(args)
    return {"coords": teichmuller(args.r, E, ring).to_json()["coords"]}, 0


def cmd_decompose(args):
    ring, E = _ring_and_set(args)
    a = _vector(args, "a", ring, E)
    ctx = _local_context(args, ring, E)
    d = local_decompose(a, ctx)
    factors = {str(n): d.factor(n).to_json()["coords"] for n in sorted(d.factors)}
    return {"p": ctx.p, "factors": factors}, 0


def cmd_hodge_tate(args):
    ring, E = _ring_and_set(args)
    v = _vector(args, "v", ring, E)
    verdict = is_hodge_tate(v, _local_context(args, ring, E))
    return {"hodge_tate": verdict}, 0 if verdict else 1


def cmd_distinguished(args):
    ring, E = _ring_and_set(args)
    xi = _vector(args, "xi", ring, E)
    verdict, witness = is_distinguished(xi, _local_context(args, ring, E))
    out = {"distinguished": verdict}
    if verdict:
        x, v = witness
        out["witness"] = {"x": repr(x), "v": v.to_json()["coords"]}
    return out, 0 if verdict else 1


def cmd_cone(args):
    ring = make_ring(args.base)
    dvals = args.d.split(",") if args.d else []  # --d "" is the zero module
    q = QuasiIdeal(FreeModule(ring, len(dvals)), dvals)
    ok, witness = quasi_ideal_check(q)
    out = {"quasi_ideal_law": ok}
    if not ok:
        out["witness"] = [[ring.el_to_str(c) for c in w] for w in witness]
        return out, 1
    try:
        p0 = cone_pi0(q)
        if ring.size() is None:
            out["pi0"] = {"ring": p0.descriptor()}
        else:
            out["pi0"] = {"classes": p0.size(), "image_size": ring.size() // p0.size()}
    except UnsupportedRing as e:
        out["pi0"] = {"unsupported": str(e)}
    if args.hom:
        hom = cone_hom_set(q, *args.hom)
        out["hom"] = [q.module.el_to_str(h) for h in hom]
    return out, 0


def cmd_rees(args):
    if args.line is not None:
        M = filtered_line(args.line)
    elif args.step:
        try:
            dims = [integer(x) for x in args.step.split(",")]
        except ValueError:
            raise UsageError(f"--step needs comma separated integers, not {args.step!r}") from None
        if any(d < 0 for d in dims):
            raise UsageError(f"step dimensions must be nonnegative, not {args.step!r}")
        if any(d2 > d1 for d1, d2 in zip(dims, dims[1:])):
            raise UsageError("step dimensions must be decreasing")
        ambient = dims[0]
        spaces = [
            Subspace.span(
                ambient,
                [[1 if j == i else 0 for j in range(ambient)] for i in range(d)],
            )
            for d in dims
        ]
        M = step_filtration(spaces, args.start)
    else:
        raise UsageError("rees needs --line N or --step d0,d1,...")
    G = rees_of_filtered(M)
    out = G.to_json()
    out["round_trip"] = filtered_of_rees(G) == M
    return out, 0


def cmd_derham(args):
    return hodge_cohomology(MonomialAlgebra(args.torus, args.affine)).to_json(), 0


def _presentation(args):
    gens = split_items(args.gens, error=UsageError)
    return AffinePresentation(gens, split_items(args.relations, ";", error=UsageError))


def cmd_prismatic(args):
    ring, E = _ring_and_set(args)
    xi = _vector(args, "xi", ring, E)
    ctx = PrismaticContext(ring, E, xi, _local_context(args, ring, E))
    gpd = prismatic_points_affine(_presentation(args), ctx, cap=args.budget_enum)
    out = gpd.to_json()
    out["axioms"] = gpd.check_axioms()
    return out, 0 if out["axioms"] else 1


def cmd_witt_points(args):
    ring, E = _ring_and_set(args)
    pts = witt_points(_presentation(args), E, ring, cap=args.budget_enum)
    return {"count": len(pts), "points": [[w.to_json()["coords"] for w in p] for p in pts]}, 0


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def cmd_verify(args):
    if args.list:
        return {"coverage": coverage_map(), "suites": sorted(SUITES)}, 0
    # The suites are independent, so each runs in a worker process.  They are
    # handed out in SUITES order, which starts the heaviest first, and reported
    # in name order, so the output does not depend on the number of workers.
    # Reports are taken as they arrive, so a suite that raises ends the run
    # without waiting for the others.
    names = list(SUITES) if args.suite == "all" else [suite_check(args.suite)]
    import multiprocessing  # here, so that no other command pays for its import

    with multiprocessing.Pool(min(_usable_cpus(), len(names))) as pool:
        done = pool.imap_unordered(functools.partial(suite_run, seed=args.seed), names)
        reports = sorted(done, key=lambda r: r.name)
    ok = all(r.ok() for r in reports)
    out = {
        "seed": args.seed,
        "suites": [r.to_json(with_timing=args.timings) for r in reports],
        "passed": ok,
    }
    return out, 0 if ok else 1


def build_parser():
    parser = _Parser(
        prog="wittforge", allow_abbrev=False,  # an option has one spelling: its full name
        description="Exact Witt vector calculus, cones, Rees filtrations, "
        "de Rham cohomology of monomial algebras, and prismatic point groupoids.",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, fn, help):
        sp = subs.add_parser(name, help=help, allow_abbrev=False)
        sp.set_defaults(fn=fn)
        return sp

    def witt_args(sp, vectors=("a",)):
        sp.add_argument("--ring", required=True, help="ring descriptor")
        sp.add_argument("--index-set", required=True, help="div:N | ptyp:p:len | set:a,b,c")
        for v in vectors:
            sp.add_argument(f"--{v}", help=f"coordinates of {v}, comma separated")

    def presentation_args(sp):
        sp.add_argument("--gens", required=True, help="generator names, comma separated")
        sp.add_argument("--relations", default="", help="relations, semicolon separated")
        sp.add_argument("--budget-enum", type=_budget, default=ENUM_CAP)

    def context_args(sp):
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--p", type=integer, default=None, help="the non-inverted prime")
        group.add_argument("--rational", action="store_true", help="all primes invertible")

    sp = command("witt", cmd_witt, "Witt vector arithmetic")
    sp.add_argument("op", choices=["add", "mul", "neg", "sub"])
    witt_args(sp, ("a", "b"))

    witt_args(command("ghost", cmd_ghost, "ghost components"))

    sp = command("frobenius", cmd_frobenius, "Frobenius F_n")
    sp.add_argument("--n", type=integer, required=True)
    witt_args(sp)

    sp = command("verschiebung", cmd_verschiebung, "Verschiebung V_n into W_E")
    sp.add_argument("--n", type=integer, required=True)
    sp.add_argument("--ring", required=True)
    sp.add_argument("--index-set", required=True, help="the target index set E")
    sp.add_argument("--a", required=True, help="coordinates over E|n")

    sp = command("teich", cmd_teich, "Teichmuller lift")
    sp.add_argument("--ring", required=True)
    sp.add_argument("--index-set", required=True)
    sp.add_argument("--r", required=True)

    for name, fn, vector, help in (
        ("decompose", cmd_decompose, "a", "local decomposition into p-typical factors"),
        ("hodge-tate", cmd_hodge_tate, "v", "Hodge-Tate predicate"),
        ("distinguished", cmd_distinguished, "xi", "distinguished element predicate"),
    ):
        sp = command(name, fn, help)
        witt_args(sp, (vector,))
        context_args(sp)

    sp = command("cone", cmd_cone, "quasi-ideal check, pi0 and hom sets")
    sp.add_argument("--base", required=True, help="base ring descriptor")
    sp.add_argument("--d", required=True, help='d-values of the free generators; "" for none')
    sp.add_argument("--hom", nargs=2, metavar=("R1", "R2"), default=None)

    sp = command("rees", cmd_rees, "Rees module of a step filtration")
    sp.add_argument("--line", type=integer, default=None, help="the filtered line Q{n}")
    sp.add_argument("--step", default=None, help="decreasing dimensions d0,d1,...")
    sp.add_argument("--start", type=integer, default=0)

    sp = command("derham", cmd_derham, "Hodge-filtered de Rham cohomology")
    sp.add_argument("--torus", type=integer, required=True)
    sp.add_argument("--affine", type=integer, required=True)

    sp = command("prismatic", cmd_prismatic, "prismatic point groupoids")
    witt_args(sp, ("xi",))
    context_args(sp)
    presentation_args(sp)

    sp = command("witt-points", cmd_witt_points, "J(X) points: ring maps into W_E(R)")
    witt_args(sp, ())
    presentation_args(sp)

    sp = command("verify", cmd_verify, "run the verification suites")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--seed", type=integer, default=0)
    sp.add_argument("--list", action="store_true", help="print the coverage map")
    sp.add_argument("--timings", action="store_true", help="include wall times")

    # every subcommand's output goes through _emit, so every one takes these;
    # added last, not by a parent parser, which would put them first in usage
    for sp in subs.choices.values():
        sp.add_argument("--pretty", action="store_true", help="indent the JSON output")
        sp.add_argument("--out", default=None, help="write the JSON to a file")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        obj, code = args.fn(args)
        _emit(obj, args)
        return code
    except WittforgeError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
