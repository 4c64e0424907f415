"""Command-line front end.

JSON goes to standard output (sorted keys, so identical invocations give
byte-identical output); `--pretty` indents it.  Exit codes: 0 on success,
1 when a predicate is false or a verification suite fails, 2 on usage errors
and on every library error, each reported as one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cone import ConeError, QuasiIdeal, UnsupportedRing, cone_hom_set, cone_pi0, quasi_ideal_check
from .derham import DeRhamError, MonomialAlgebra, hodge_cohomology
from .filtration import (
    FiltrationError,
    Subspace,
    filtered_line,
    filtered_of_rees,
    rees_of_filtered,
    shift_filtration,
    step_filtration,
)
from .indexset import IndexSet, IndexSetError, index_set_make
from .prismatic import (
    DEFAULT_POINT_CAP,
    AffinePresentation,
    PrismaticContext,
    PrismaticError,
    prismatic_points_affine,
    witt_points,
)
from .rings import RingError, make_ring
from .structure import LocalContext, is_distinguished, is_hodge_tate, local_decompose
from .suites import SUITES, Budget, coverage_map, suite_run
from .universal import GenerationError
from .witt import WittError, frobenius, ghost, make_witt, teichmuller, verschiebung, witt_add, witt_mul, witt_neg, witt_sub


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a malformed command line as a UsageError."""

    def error(self, message):
        raise UsageError(message)


def _emit(obj, args) -> str:
    if args.pretty:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    else:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _common(sub):
    sub.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub.add_argument("--out", default=None, help="write the JSON to a file")


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


def _coords_json(v):
    return {str(n): v.ring.el_to_str(c) for n, c in zip(v.index_set, v.coords)}


def _local_context(args, ring, E):
    if getattr(args, "rational", False):
        return LocalContext.rational(ring, E)
    if getattr(args, "p", None) is None:
        raise UsageError("a local context needs --p PRIME or --rational")
    return LocalContext.p_local(args.p, ring, E)


def cmd_witt(args):
    ring, E = _ring_and_set(args)
    a = _vector(args, "a", ring, E)
    if args.op in ("add", "mul", "sub"):
        b = _vector(args, "b", ring, E)
        out = {"add": witt_add, "mul": witt_mul, "sub": witt_sub}[args.op](a, b)
    elif args.op == "neg":
        out = witt_neg(a)
    else:
        raise UsageError(f"unknown witt op {args.op!r}")
    _emit({"coords": _coords_json(out)}, args)
    return 0


def cmd_ghost(args):
    ring, E = _ring_and_set(args)
    a = _vector(args, "a", ring, E)
    g = ghost(a)
    _emit({"ghost": {str(n): repr(g[n]) for n in E}}, args)
    return 0


def cmd_frobenius(args):
    ring, E = _ring_and_set(args)
    a = _vector(args, "a", ring, E)
    out = frobenius(args.n, a)
    _emit(
        {"index_set": list(out.index_set.elements), "coords": _coords_json(out)}, args
    )
    return 0


def cmd_verschiebung(args):
    ring, E = _ring_and_set(args)
    source = E.restrict(args.n)
    a = _vector(args, "a", ring, source)
    out = verschiebung(args.n, a, E)
    _emit({"coords": _coords_json(out)}, args)
    return 0


def cmd_teich(args):
    ring, E = _ring_and_set(args)
    out = teichmuller(ring.el_from_str(args.r), E, ring)
    _emit({"coords": _coords_json(out)}, args)
    return 0


def cmd_decompose(args):
    ring, E = _ring_and_set(args)
    a = _vector(args, "a", ring, E)
    ctx = _local_context(args, ring, E)
    d = local_decompose(a, ctx)
    factors = {str(n): _coords_json(d.factor(n)) for n in sorted(d.factors)}
    _emit({"p": ctx.p, "factors": factors}, args)
    return 0


def cmd_hodge_tate(args):
    ring, E = _ring_and_set(args)
    v = _vector(args, "v", ring, E)
    ctx = _local_context(args, ring, E)
    verdict = is_hodge_tate(v, ctx)
    _emit({"hodge_tate": verdict}, args)
    return 0 if verdict else 1


def cmd_distinguished(args):
    ring, E = _ring_and_set(args)
    xi = _vector(args, "xi", ring, E)
    ctx = _local_context(args, ring, E)
    verdict, witness = is_distinguished(xi, ctx)
    out = {"distinguished": verdict}
    if verdict:
        x, v = witness
        out["witness"] = {"x": repr(x), "v": _coords_json(v)}
    _emit(out, args)
    return 0 if verdict else 1


def cmd_cone(args):
    from .cone import FreeModule, quasi_ideal_from_json

    if args.json:
        try:
            obj = json.loads(args.json)
        except json.JSONDecodeError as e:
            raise UsageError(f"--json is not valid JSON: {e}") from None
        q = quasi_ideal_from_json(obj)
        ring = q.ring
    else:
        if not args.base or not args.d:
            raise UsageError("cone needs --base and --d, or --json")
        ring = make_ring(args.base)
        dvals = [ring.el_from_str(s) for s in args.d.split(",")]
        q = QuasiIdeal(ring, FreeModule(ring, len(dvals)), dvals)
    ok, witness = quasi_ideal_check(q)
    out = {"quasi_ideal_law": ok}
    if not ok:
        out["witness"] = [[ring.el_to_str(c) for c in w] for w in witness]
    if ok:
        try:
            p0 = cone_pi0(q)
            if p0.kind == "ring":
                out["pi0"] = {"ring": p0.quotient_ring.descriptor()}
            else:
                out["pi0"] = {
                    "classes": len(p0.classes),
                    "image_size": len(p0.image),
                }
        except UnsupportedRing as e:
            out["pi0"] = {"unsupported": str(e)}
        if args.hom:
            r1, r2 = (ring.el_from_str(s) for s in args.hom)
            hom = cone_hom_set(q, r1, r2)
            out["hom"] = [
                [ring.el_to_str(x) for x in h] if isinstance(h, tuple) else ring.el_to_str(h)
                for h in hom
            ]
    _emit(out, args)
    return 0 if ok else 1


def cmd_rees(args):
    if args.line is not None:
        M = filtered_line(args.line)
    elif args.step:
        try:
            dims = [int(x) for x in args.step.split(",")]
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
    if args.shift:
        M = shift_filtration(M, args.shift)
    G = rees_of_filtered(M)
    out = G.to_json()
    out["round_trip"] = filtered_of_rees(G) == M
    _emit(out, args)
    return 0


def cmd_derham(args):
    H = hodge_cohomology(MonomialAlgebra(args.torus, args.affine))
    _emit(H.to_json(), args)
    return 0


def cmd_prismatic(args):
    ring, E = _ring_and_set(args)
    xi = _vector(args, "xi", ring, E)
    ctx = PrismaticContext(ring, E, xi, _local_context(args, ring, E))
    gens = tuple(g.strip() for g in args.gens.split(",") if g.strip())
    rels = tuple(r.strip() for r in (args.relations or "").split(";") if r.strip())
    B = AffinePresentation(gens, rels)
    if args.witt_points:
        pts = witt_points(B, E, ring, cap=args.budget_enum)
        out = {
            "count": len(pts),
            "points": [[_coords_json(w) for w in p] for p in pts],
        }
        _emit(out, args)
        return 0
    gpd = prismatic_points_affine(B, ctx, cap=args.budget_enum)
    out = gpd.to_json()
    out["axioms"] = gpd.check_axioms()
    _emit(out, args)
    return 0 if out["axioms"] else 1


def cmd_verify(args):
    if args.list:
        _emit({"coverage": coverage_map(), "suites": sorted(SUITES)}, args)
        return 0
    budget = Budget(enum_cap=args.budget_enum, term_cap=args.budget_terms)
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise UsageError(f"unknown suite {name!r}; see verify --list")
    reports = [suite_run(name, args.seed, budget) for name in names]
    ok = all(r.ok() for r in reports)
    out = {
        "seed": args.seed,
        "suites": [r.to_json(with_timing=args.timings) for r in reports],
        "passed": ok,
    }
    _emit(out, args)
    return 0 if ok else 1


def build_parser():
    parser = _Parser(
        prog="wittforge",
        description="Exact Witt vector calculus, cones, Rees filtrations, "
        "de Rham cohomology of monomial algebras, and prismatic point groupoids.",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def witt_args(sp, vectors=("a",)):
        sp.add_argument("--ring", required=True, help="ring descriptor")
        sp.add_argument("--index-set", required=True, help="div:N | ptyp:p:len | set:a,b,c")
        for v in vectors:
            sp.add_argument(f"--{v}", help=f"coordinates of {v}, comma separated")

    sp = subs.add_parser("witt", help="Witt vector arithmetic")
    sp.add_argument("op", choices=["add", "mul", "neg", "sub"])
    witt_args(sp, ("a", "b"))
    _common(sp)
    sp.set_defaults(fn=cmd_witt)

    sp = subs.add_parser("ghost", help="ghost components")
    witt_args(sp)
    _common(sp)
    sp.set_defaults(fn=cmd_ghost)

    sp = subs.add_parser("frobenius", help="Frobenius F_n")
    sp.add_argument("--n", type=int, required=True)
    witt_args(sp)
    _common(sp)
    sp.set_defaults(fn=cmd_frobenius)

    sp = subs.add_parser("verschiebung", help="Verschiebung V_n into W_E")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ring", required=True)
    sp.add_argument("--index-set", required=True, help="the target index set E")
    sp.add_argument("--a", required=True, help="coordinates over E|n")
    _common(sp)
    sp.set_defaults(fn=cmd_verschiebung)

    sp = subs.add_parser("teich", help="Teichmuller lift")
    sp.add_argument("--ring", required=True)
    sp.add_argument("--index-set", required=True)
    sp.add_argument("--r", required=True)
    _common(sp)
    sp.set_defaults(fn=cmd_teich)

    def context_args(sp):
        sp.add_argument("--p", type=int, default=None, help="the non-inverted prime")
        sp.add_argument("--rational", action="store_true", help="all primes invertible")

    sp = subs.add_parser("decompose", help="local decomposition into p-typical factors")
    witt_args(sp)
    context_args(sp)
    _common(sp)
    sp.set_defaults(fn=cmd_decompose)

    sp = subs.add_parser("hodge-tate", help="Hodge-Tate predicate")
    witt_args(sp, ("v",))
    context_args(sp)
    _common(sp)
    sp.set_defaults(fn=cmd_hodge_tate)

    sp = subs.add_parser("distinguished", help="distinguished element predicate")
    witt_args(sp, ("xi",))
    context_args(sp)
    _common(sp)
    sp.set_defaults(fn=cmd_distinguished)

    sp = subs.add_parser("cone", help="quasi-ideal check, pi0 and hom sets")
    sp.add_argument("--base", default=None, help="base ring descriptor")
    sp.add_argument("--d", default=None, help="d-values of the free generators")
    sp.add_argument("--json", default=None, help="quasi-ideal as a JSON object")
    sp.add_argument("--hom", nargs=2, metavar=("R1", "R2"), default=None)
    _common(sp)
    sp.set_defaults(fn=cmd_cone)

    sp = subs.add_parser("rees", help="Rees module of a step filtration")
    sp.add_argument("--line", type=int, default=None, help="the filtered line Q{n}")
    sp.add_argument("--step", default=None, help="decreasing dimensions d0,d1,...")
    sp.add_argument("--start", type=int, default=0)
    sp.add_argument("--shift", type=int, default=0)
    _common(sp)
    sp.set_defaults(fn=cmd_rees)

    sp = subs.add_parser("derham", help="Hodge-filtered de Rham cohomology")
    sp.add_argument("--torus", type=int, required=True)
    sp.add_argument("--affine", type=int, required=True)
    _common(sp)
    sp.set_defaults(fn=cmd_derham)

    sp = subs.add_parser("prismatic", help="prismatic point groupoids / J(X) points")
    witt_args(sp, ("xi",))
    context_args(sp)
    sp.add_argument("--gens", required=True, help="generator names, comma separated")
    sp.add_argument("--relations", default="", help="relations, semicolon separated")
    sp.add_argument("--witt-points", action="store_true", help="points in W instead")
    sp.add_argument("--budget-enum", type=int, default=DEFAULT_POINT_CAP)
    _common(sp)
    sp.set_defaults(fn=cmd_prismatic)

    sp = subs.add_parser("verify", help="run the verification suites")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--list", action="store_true", help="print the coverage map")
    sp.add_argument("--budget-enum", type=int, default=Budget.enum_cap)
    sp.add_argument("--budget-terms", type=int, default=Budget.term_cap)
    sp.add_argument("--timings", action="store_true", help="include wall times")
    _common(sp)
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (
        UsageError,
        KeyError,
        RingError,  # ParseError, ValidationError, UnsupportedRing, InexactDivision, ...
        IndexSetError,
        WittError,  # ContextError, EnumerationBudget, DworkError
        FiltrationError,
        GenerationError,  # NotMaterialized
        PrismaticError,
        ConeError,
        DeRhamError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
