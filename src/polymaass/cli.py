"""Command-line front end.

Each verb imports only the modules it runs: the parser and the error
handling need the standard library, the package's case labels and
``scalars.DomainError``, and each branch of ``_dispatch`` imports its own
engine module (numpy comes in with ``verify`` alone).  A pole table named
by ``POLYMAASS_POLE_TABLE`` is loaded, with symcalc, for every verb.

Exit codes: 0 success, 1 usage error, 2 domain error (precondition or
malformed input), 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import BK_CASES
from .scalars import DomainError

TYPE_TAGS = {"star": "*", "plus": "+", "minus": "-"}


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _emit(data, as_json: bool, pretty_text: str):
    if as_json:
        print(json.dumps(data, indent=2))
    else:
        print(pretty_text)


def _form_out(form, as_json: bool):
    from . import symcalc
    _emit(symcalc.form_to_json(form), as_json, symcalc.pretty(form))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="polymaass",
                                description="exact calculus of polyharmonic "
                                            "Maass-form atoms and quiver modules")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub = p.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("construct", help="build a case realization", parents=[common])
    c.add_argument("--case", required=True, choices=BK_CASES)
    c.add_argument("--k", required=True, type=int)
    c.add_argument("--d", required=True, type=int)
    c.add_argument("--family", choices=("eisenstein", "poincare"))
    c.add_argument("--index", type=int, default=-1, help="Poincare index n")
    c.add_argument("--disc", type=int, default=3, help="positive D, -D fundamental")

    s = sub.add_parser("solve", help="raw graded solver output", parents=[common])
    s.add_argument("--k", required=True, type=int)
    s.add_argument("--m", required=True, type=int)
    s.add_argument("--branch", required=True, choices=("L", "R"))
    s.add_argument("--d", required=True, type=int)

    a = sub.add_parser("apply", help="apply an operator to a form", parents=[common])
    a.add_argument("--op", required=True,
                   choices=("raising", "lowering", "laplace", "flip", "mirror"))
    a.add_argument("--power", type=int, default=1)
    a.add_argument("--in", dest="infile", required=True)

    e = sub.add_parser("expand", help="unfold pending operator powers", parents=[common])
    e.add_argument("--in", dest="infile", required=True)

    cl = sub.add_parser("classify", help="exact depth and case label", parents=[common])
    cl.add_argument("--in", dest="infile", required=True)

    q = sub.add_parser("quiver", help="cyclic quiver module tools", parents=[common])
    qsub = q.add_subparsers(dest="qverb", required=True)
    qb = qsub.add_parser("build", parents=[common])
    qb.add_argument("--quiver", required=True, choices=("gelfand", "cyclic"))
    qb.add_argument("--type", required=True, choices=tuple(TYPE_TAGS))
    qb.add_argument("--case", required=True, choices=("a", "b", "c", "d"))
    qb.add_argument("--depth", required=True, type=int)
    qc = qsub.add_parser("classify", parents=[common])
    qc.add_argument("--in", dest="infile", required=True)
    qh = qsub.add_parser("from-hc", parents=[common])
    qh.add_argument("--in", dest="infile", required=True)
    qh.add_argument("--second", action="store_true")
    qh.add_argument("--iso", action="store_true")
    qf = qsub.add_parser("fragment", parents=[common])
    qf.add_argument("--l", required=True, type=int)
    qf.add_argument("--dim", type=int, default=2)
    qf.add_argument("--seed", type=int, default=0)

    v = sub.add_parser("verify", help="numeric identity suite", parents=[common])
    v.add_argument("--suite", default="all",
                   choices=("all", "eisenstein", "ebasis"))
    v.add_argument("--n", type=int, default=400)
    v.add_argument("--tol", type=float, default=1e-5)
    return p


def _dispatch(args) -> int:
    if args.verb == "construct":
        from . import specsolve
        form = specsolve.construct_case(args.case, args.k, args.d,
                                        index=args.index, disc=args.disc,
                                        family=args.family)
        _form_out(form, args.json)
        return 0
    if args.verb == "solve":
        from . import specsolve
        gv = specsolve.solve_wd(args.k, args.m, args.branch, args.d)
        _emit(gv.to_json(), args.json,
              "\n".join("T^%d: %s" % (t, [str(x) for x in layer])
                        for t, layer in enumerate(gv.layers))
              + "\npreimage scale: %s" % gv.preimage_scale)
        return 0
    if args.verb == "apply":
        from . import symcalc
        form = symcalc.form_from_json(_read_json(args.infile))
        op = args.op
        if op in ("raising", "lowering"):
            form = symcalc.apply_power(form, "R" if op == "raising" else "L", args.power)
        elif op == "laplace":
            for _ in range(args.power):
                form = symcalc.apply_laplace(form)
        elif op == "flip":
            form = symcalc.apply_flip(form)
        else:
            form = symcalc.apply_mirror(symcalc.expand_pending(form))
        _form_out(form, args.json)
        return 0
    if args.verb == "expand":
        from . import symcalc
        form = symcalc.expand_pending(symcalc.form_from_json(_read_json(args.infile)))
        _form_out(form, args.json)
        return 0
    if args.verb == "classify":
        from . import classify, symcalc
        form = symcalc.form_from_json(_read_json(args.infile))
        label = classify.classify_bk(form)
        data = label.to_json()
        _emit(data, args.json,
              "case %(bk)s (%(repr)s), depth %(depth)d, weight %(k)d, "
              "l=%(l)d, gamma=%(gamma)d" % data)
        return 0
    if args.verb == "quiver":
        return _dispatch_quiver(args)
    if args.verb == "verify":
        from . import numcheck
        cfg = numcheck.EvalConfig(trunc=args.n, tol=args.tol)
        names = None
        if args.suite == "eisenstein":
            names = ("laplace_eigen", "lowering", "raising", "mirror")
        elif args.suite == "ebasis":
            names = ("ebasis",)
        report = numcheck.run_suite(cfg, names)
        ok = all(r["pass"] for r in report)
        if args.json:
            print(json.dumps(report, indent=2, default=str))
        else:
            for r in report:
                print("%-14s residual %.3e  tol %.1e  %s"
                      % (r["identity"], r["residual"], r["tolerance"],
                         "pass" if r["pass"] else "FAIL"))
        return 0 if ok else 3
    raise DomainError("unknown verb %r" % (args.verb,))


def _dispatch_quiver(args) -> int:
    from . import quiverrep
    if args.qverb == "build":
        rep = quiverrep.build_cyclic_module(args.quiver, TYPE_TAGS[args.type],
                                            args.case, args.depth)
        dims, degrees = quiverrep.invariants_of(rep)
        _emit(rep.to_json(), args.json,
              "dims %s, nilpotency degrees %s" % (dims, degrees))
        return 0
    if args.qverb == "classify":
        rep = quiverrep.QuiverRep.from_json(_read_json(args.infile))
        type_tag, case, d = quiverrep.classify_cyclic(rep)
        data = {"type": type_tag, "case": case, "d": d}
        _emit(data, args.json, "type %s, case %s, d = %d" % (type_tag, case, d))
        return 0
    if args.qverb == "from-hc":
        frag = quiverrep.HCFragment.from_json(_read_json(args.infile))
        rep = quiverrep.second_description(frag) if args.second \
            else quiverrep.hc_to_quiver(frag)
        if args.iso:
            t, x_star, _one = quiverrep.iso_two_descriptions(frag)
            data = {"rep": rep.to_json(),
                    "iso": {"T": [[str(x) for x in row] for row in t],
                            "X*": [[str(x) for x in row] for row in x_star]}}
            _emit(data, args.json, "iso witness verified; dims %s" % (rep.dim_vector(),))
        else:
            _emit(rep.to_json(), args.json, "dims %s" % (rep.dim_vector(),))
        return 0
    if args.qverb == "fragment":
        frag = quiverrep.random_fragment(args.l, args.dim, seed=args.seed)
        print(json.dumps(frag.to_json(), indent=2))
        return 0
    raise DomainError("unknown quiver verb")


def main(argv=None) -> int:
    pole_path = os.environ.get("POLYMAASS_POLE_TABLE")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 0 if ex.code in (0, None) else 1
    try:
        poles = contextlib.nullcontext()
        if pole_path:   # unset, symcalc's default table is in force
            from . import symcalc
            poles = symcalc.using_poles(symcalc.load_pole_table(pole_path))
        with poles:
            return _dispatch(args)
    except (DomainError, OSError, UnicodeDecodeError, json.JSONDecodeError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
