"""Command-line surface.

Exit codes: 0 = verified/success, 1 = a mathematical check failed,
2 = input or configuration error.  JSON is the machine format; the text
tables are derived from the same data.  HECKEFORGE_BUDGET overrides the
group-order enumeration budget.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import cyclo, group, hecke, hochschild, ncalg
from .group import BudgetExceededError, RepKind


def _group_args(args) -> tuple[RepKind, int]:
    """(rep, budget) for a group-level command, after checking r, p and n."""
    try:
        group.check_group(args.r, getattr(args, "p", 1), args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return RepKind(getattr(args, "rep", "faithful")), _budget(args)


def _budget(args) -> int:
    env = os.environ.get("HECKEFORGE_BUDGET")
    if args.budget is not None:
        return args.budget
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"error: HECKEFORGE_BUDGET must be an integer, got {env!r}", file=sys.stderr)
            raise SystemExit(2)
    return group.DEFAULT_BUDGET


def _emit(data, args, text_renderer):
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        text_renderer(data)


# -- classes ------------------------------------------------------------------


def cmd_classes(args) -> int:
    _, budget = _group_args(args)
    classes = group.conjugacy_classes(args.r, args.p, args.n, budget)
    rows = []
    for cls in classes:
        rows.append(
            {
                "rep": cls.rep.to_json(),
                "size": cls.size,
                "cycle_type": [[a, k, m] for a, k, m in group.cycle_type(cls.rep).pairs],
                "centralizer_formula": group.centralizer_order_formula(cls.rep),
                "centralizer_order": len(group.centralizer(cls.rep, args.p)),
            }
        )
    data = {
        "group": {"r": args.r, "p": args.p, "n": args.n, "order": group.group_order(args.r, args.p, args.n)},
        "class_count": len(rows),
        "classes": rows,
    }

    def text(d):
        print(f"G({args.r},{args.p},{args.n})  order {d['group']['order']}  classes {d['class_count']}")
        for row in d["classes"]:
            g = group.GroupElement.from_json(row["rep"])
            ct = " ".join(f"({a},{k})x{m}" for a, k, m in row["cycle_type"])
            print(
                f"  {g!r:<24} size {row['size']:<5} type {ct:<20} "
                f"|Z| formula {row['centralizer_formula']} solved {row['centralizer_order']}"
            )

    _emit(data, args, text)
    return 0


# -- hh -----------------------------------------------------------------------


def cmd_hh(args) -> int:
    rep, budget = _group_args(args)
    if args.max_degree < 0:
        print("error: --max-degree must be nonnegative", file=sys.stderr)
        return 2
    if (args.closed_form or args.compare) and args.cohdeg != 2:
        print("error: closed forms exist only in cohomological degree 2", file=sys.stderr)
        return 2
    if args.cohdeg == 2:
        comps = hochschild.hh2_total(
            args.r, args.p, args.n, rep, args.max_degree,
            include_basis=args.basis, budget=budget,
        )
    else:
        comps = []
        for cls in group.conjugacy_classes(args.r, args.p, args.n, budget):
            comp = hochschild.hh_component(
                cls.rep, rep, args.cohdeg, args.max_degree, args.p, include_basis=args.basis
            )
            if not comp.is_zero():
                comps.append(comp)

    rows = [c.to_json(source="brute") for c in comps]
    if args.basis:
        for row, comp in zip(rows, comps):
            row["basis"] = {
                str(d): [pf.to_json() for pf in pfs]
                for d, pfs in sorted((comp.basis_by_degree or {}).items())
            }
    status = 0
    if args.closed_form or args.compare:
        try:
            catalog = hochschild.closed_form_catalog(args.r, args.p, args.n, rep, budget)
        except hochschild.NotApplicableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = hochschild.compare(comps, catalog, args.max_degree)
        match_by_rep = {row.rep: row.match for row in report.rows}
        for row in rows:
            g = group.GroupElement.from_json(row["class"])
            row["match"] = match_by_rep.get(g, True)
        for crow in report.rows:
            if any(crow.closed_dims.values()) or not crow.match:
                rows.append(
                    {
                        "class": crow.rep.to_json(),
                        "codim": crow.rep.n - len(hochschild.fixed_basis(crow.rep, rep)),
                        "dims": {str(d): v for d, v in sorted(crow.closed_dims.items())},
                        "source": "closed",
                        "match": crow.match,
                    }
                )
        if args.compare and not report.ok:
            status = 1
    data = {
        "group": {"r": args.r, "p": args.p, "n": args.n},
        "rep": rep.value,
        "cohdeg": args.cohdeg,
        "max_degree": args.max_degree,
        "components": rows,
    }

    def text(d):
        print(
            f"HH^{args.cohdeg}(S(V)#G({args.r},{args.p},{args.n})), {rep.value} action, "
            f"degrees <= {args.max_degree}"
        )
        for row, comp in zip(d["components"], comps + [None] * len(d["components"])):
            g = group.GroupElement.from_json(row["class"])
            dims = " ".join(f"{k}:{v}" for k, v in row["dims"].items())
            tag = row.get("match")
            suffix = "" if tag is None else ("  ok" if tag else "  MISMATCH")
            print(f"  [{row['source']:>6}] {g!r:<24} codim {row['codim']}  dims {dims}{suffix}")
            if args.basis and comp is not None and comp.basis_by_degree:
                for dd, pfs in sorted(comp.basis_by_degree.items()):
                    for pf in pfs:
                        print(f"      deg {dd}: {pf!r}")
        if status:
            print("MISMATCH between brute force and closed forms")

    _emit(data, args, text)
    return status


# -- gha-dim / gha-build / pbw-check -------------------------------------------


def cmd_gha_dim(args) -> int:
    rep, budget = _group_args(args)
    report = hecke.param_space(args.r, args.p, args.n, rep, budget)
    data = report.to_json()

    def text(d):
        print(f"graded Hecke parameter space for G({args.r},{args.p},{args.n}), {rep.value} action")
        print(f"  d (codim-2 classes with trivial character): {d['d']}")
        for item in d["lambda2_dims"]:
            g = group.GroupElement.from_json(item["class"])
            print(f"  Lambda^2 invariants at {g!r}: {item['dim']}")
        print(f"  total: {d['total']}")
        if d["paper_count"] is not None:
            print(f"  diagonal-times-3-cycle class count: {d['paper_count']}")
            print(f"  discrepancy_flag: {d['discrepancy_flag']}")

    _emit(data, args, text)
    return 0


def cmd_gha_build(args) -> int:
    if args.n < 3:
        print("error: presets need n >= 3", file=sys.stderr)
        return 2
    _, budget = _group_args(args)
    scalars = None
    if args.scalars is not None:
        try:
            scalars = [Fraction(s) for s in args.scalars.split(",")]
        except (ValueError, ZeroDivisionError):
            print("error: scalars must be comma-separated rationals", file=sys.stderr)
            return 2
    try:
        family = hecke.build_preset(args.preset, args.r, args.n, scalars, budget)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(family.to_json(), indent=2)
    if args.out and args.out != "-":
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0


def cmd_pbw_check(args) -> int:
    if args.forms == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.forms) as fh:
                raw = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        family = hecke.SkewFormFamily.from_json(json.loads(raw))
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: invalid forms file: {exc}", file=sys.stderr)
        return 2
    report = hecke.pbw_check(family, _budget(args))
    data = {
        "invariance": report.invariance,
        "jacobi": report.jacobi,
        "witnesses": [
            {"kind": kind, "g": g.to_json(), "at": repr(w)} for kind, g, w in report.witnesses
        ],
    }

    def text(d):
        print(f"invariance: {d['invariance']}")
        print(f"jacobi:     {d['jacobi']}")
        for w in d["witnesses"]:
            print(f"  witness [{w['kind']}] g={w['g']} at {w['at']}")

    _emit(data, args, text)
    return 0 if report.ok else 1


# -- nc-verify / nc-normal-form --------------------------------------------------


def cmd_nc_verify(args) -> int:
    if args.preset != "hstar-iso":
        print("error: unknown preset", file=sys.stderr)
        return 2
    _, budget = _group_args(args)
    if args.n < 3:
        print("error: the bracket relation needs n >= 3", file=sys.stderr)
        return 2
    group.check_budget(args.r, 1, args.n, budget)
    alg = ncalg.HStarAlgebra(args.r, args.n)
    reln4 = {}
    for j in range(1, args.n + 1):
        for k in range(j + 1, args.n + 1):
            for m in range(1, args.n + 1):
                reln4[f"({j},{k})v{m}"] = ncalg.verify_reln4(j, k, m, args.r, args.n, alg)
    iso = ncalg.verify_iso(args.r, args.n, budget)
    ok = all(reln4.values()) and iso.ok
    data = {"reln4": reln4, "iso": iso.to_json(), "ok": ok}

    def text(d):
        bad = [k for k, v in reln4.items() if not v]
        print(f"transposition relations: {len(reln4) - len(bad)}/{len(reln4)} verified")
        for k in bad:
            print(f"  FAILED {k}")
        for name, val in iso.checks.items():
            print(f"  {name}: {'ok' if val else 'FAILED'}")
        print("all relations verified" if ok else "verification FAILED")

    _emit(data, args, text)
    return 0 if ok else 1


_TOKEN_RES = [
    ("var", re.compile(r"^v(\d+)$")),
    ("xi", re.compile(r"^xi(\d+)(?:\^(-?\d+))?$")),
    ("s", re.compile(r"^s(\d+)$")),
    ("cycle", re.compile(r"^cycle\((\d+),(\d+),(\d+)\)$")),
    ("zeta", re.compile(r"^z(\d+)\^(-?\d+)$")),
    ("rat", re.compile(r"^-?\d+(/\d+)?$")),
]


def _parse_token(tok: str, alg) -> "ncalg.NCElement":
    for kind, rx in _TOKEN_RES:
        m = rx.match(tok)
        if not m:
            continue
        if kind == "var":
            k = int(m.group(1))
            if not 1 <= k <= alg.n:
                raise ValueError(f"variable index out of range: {tok}")
            return alg.var(k)
        if kind == "xi":
            k = int(m.group(1))
            a = int(m.group(2)) if m.group(2) else 1
            if not 1 <= k <= alg.n:
                raise ValueError(f"xi index out of range: {tok}")
            return alg.group(group.xi(alg.r, alg.n, k, a))
        if kind == "s":
            i = int(m.group(1))
            if not 1 <= i < alg.n:
                raise ValueError(f"simple reflection index out of range: {tok}")
            return alg.group(group.transposition(alg.r, alg.n, i, i + 1))
        if kind == "cycle":
            i, j, k = (int(m.group(t)) for t in (1, 2, 3))
            return alg.group(group.from_cycles(alg.r, alg.n, [(i, j, k)]))
        if kind == "zeta":
            rr, k = int(m.group(1)), int(m.group(2))
            return alg.one().scale(cyclo.root_of_unity(cyclo.check_order(rr, alg.r), k))
        if kind == "rat":
            try:
                return alg.one().scale(Fraction(tok))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator: {tok}") from None
    raise ValueError(f"unrecognized token: {tok}")


def cmd_nc_normal_form(args) -> int:
    _, budget = _group_args(args)
    if args.algebra == "hstar":
        alg = ncalg.HStarAlgebra(args.r, args.n)
    elif args.algebra == "a-drinfeld":
        try:
            alg = ncalg.DrinfeldAlgebra(hecke.build_preset("a_r1n", args.r, args.n, budget=budget))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print("error: unknown algebra", file=sys.stderr)
        return 2
    if not args.tokens:
        print("error: empty expression", file=sys.stderr)
        return 2
    try:
        acc = alg.one()
        for tok in args.tokens:
            acc = acc * _parse_token(tok, alg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(acc.to_json(), args, lambda d: print(repr(acc)))
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckeforge",
        description="Exact Hochschild-cohomology and graded-Hecke computations for G(r,p,n)",
    )
    parser.add_argument("--budget", type=int, default=None, help="max group order (default 10^6)")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    # the shared flags are also accepted after the subcommand; SUPPRESS keeps
    # an unset subcommand flag from clobbering the top-level value
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--budget", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--format", choices=["text", "json"], default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rep_required=False):
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--p", type=int, default=1)
        p.add_argument("--n", type=int, required=True)
        if rep_required:
            p.add_argument("--rep", choices=["faithful", "permutation"], required=True)
        else:
            p.add_argument("--rep", choices=["faithful", "permutation"], default="faithful")

    p = sub.add_parser("classes", parents=[shared], help="conjugacy class table")
    common(p)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("hh", parents=[shared], help="Hochschild class components")
    common(p, rep_required=True)
    p.add_argument("--cohdeg", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--closed-form", action="store_true")
    p.add_argument("--compare", action="store_true")
    p.add_argument("--basis", action="store_true", help="include semi-invariant bases")
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("gha-dim", parents=[shared], help="graded Hecke parameter space dimension")
    common(p, rep_required=True)
    p.set_defaults(func=cmd_gha_dim)

    p = sub.add_parser("gha-build", parents=[shared], help="emit a preset skew-form family as JSON")
    p.add_argument("--preset", choices=["a_r1n", "generic"], required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scalars", type=str, default=None, help="comma-separated rationals")
    p.add_argument("--out", type=str, default="-")
    p.set_defaults(func=cmd_gha_build)

    p = sub.add_parser("pbw-check", parents=[shared], help="check a forms file for the PBW conditions")
    p.add_argument("forms", help="path to forms JSON, or - for stdin")
    p.set_defaults(func=cmd_pbw_check)

    p = sub.add_parser("nc-verify", parents=[shared], help="verify the generators-and-relations identities")
    p.add_argument("--preset", choices=["hstar-iso"], required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_nc_verify)

    p = sub.add_parser("nc-normal-form", parents=[shared], help="normal form of a word of generators")
    p.add_argument("--algebra", choices=["hstar", "a-drinfeld"], default="hstar")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("tokens", nargs="*", help="v{k} xi{k}^{a} s{i} cycle(i,j,k) z{r}^{k} rationals")
    p.set_defaults(func=cmd_nc_normal_form)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
