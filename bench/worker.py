"""Run one benchmark operation in a fresh interpreter.

Protocol: import heckeforge, timing the import in seconds and in ref units
(see tracer.py), print `ready <import s> <import ref>`, read one JSON op spec
from stdin, run it, and print one JSON result as the last line of stdout.
The spec's `mode` is `plain` (no wrappers), `spans` or `counts` (see
tracer.py).

Only the public heckeforge calls are timed.  Every answer is checked after
the timed region against data stored with the benchmark or an independent
oracle, never against the code path under test alone.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

IMPORT = tracer.Recorder(sample_every=tracer.IMPORT_SAMPLE_EVERY_S, reference=tracer.import_reference_work)
tracer.import_reference_work()  # the first calls run slower while the interpreter warms up
tracer.import_reference_work()
with IMPORT.region():
    from heckeforge import cli, group, hecke, hochschild, ncalg  # noqa: E402
    from heckeforge.group import GroupElement, RepKind  # noqa: E402


# -- library ops ----------------------------------------------------------------


def op_acceptance(rec, a, expect):
    """Brute-force HH^2 components against the closed-form catalog."""
    rep = RepKind(a["rep"])
    with rec.region():
        comps = hochschild.hh2_total(a["r"], a["p"], a["n"], rep, a["D"], validate_skipped=True)
        catalog = hochschild.closed_form_catalog(a["r"], a["p"], a["n"], rep)
        report = hochschild.compare(comps, catalog, a["D"])
    return report.ok, f"{len(report.mismatches)} classes disagree with the catalog"


def op_detfilter(rec, a, expect):
    """hh_component in cohomological degrees 0, 1, ..., mmax for each listed
    element, up to the first nonzero one; a nonzero component needs
    det(g) = 1 and det(h) = 1 for every centralizer element h fixing V^g
    pointwise."""
    rep = RepKind(a["rep"])
    bad = []
    for exps, perm in a["elements"]:
        g = GroupElement(a["r"], a["n"], tuple(exps), tuple(perm))
        comp = None
        for m in range(a["mmax"] + 1):
            with rec.region():
                comp = hochschild.hh_component(g, rep, m, a["D"], a["p"])
            if not comp.is_zero():
                break
        if comp.is_zero():
            continue
        if not group.det(g, rep) == 1 or any(
            not group.det(h, rep) == 1
            for h in comp.chi.subgroup
            if hochschild._fixes_space_pointwise(h, rep, comp.fixed_basis)
        ):
            bad.append(repr(g))
    return not bad, f"determinant filter violated at {bad}"


def op_oracle(rec, a, expect):
    """Kernel dimension of the assembled PBW linear system."""
    rep = RepKind(a["rep"])
    with rec.region():
        dim = hecke.param_space_linear_oracle(a["r"], a["p"], a["n"], rep)
    return dim == expect["total"], f"linear oracle gave {dim}, expected {expect['total']}"


def _algebra(kind, r, n):
    if kind == "hstar":
        return ncalg.HStarAlgebra(r, n)
    return ncalg.DrinfeldAlgebra(hecke.build_preset("a_r1n", r, n))


def op_pbw_dim(rec, a, expect):
    """Normal-form basis count and sampled associativity; the count must be
    C(n+N, n) |G(r,1,n)|."""
    r, n, N = a["r"], a["n"], a["N"]
    with rec.region():
        alg = _algebra(a["algebra"], r, n)
        report = ncalg.pbw_dimension_check(alg, N, a["triples"], seed=a["seed"])
    want = math.comb(n + N, n) * r**n * math.factorial(n)
    return (
        report.associative and report.count == want,
        f"associative={report.associative} count={report.count} expected {want}",
    )


def op_pbw_presets(rec, a, expect):
    """The preset family passes pbw_check; seeded single-entry perturbations
    of it fail with a witness."""
    r, n = a["r"], a["n"]
    with rec.region():
        fam = hecke.build_preset("a_r1n", r, n)
        base = hecke.pbw_check(fam)
    failures = [] if base.ok else ["preset"]
    rng = random.Random(a["seed"])
    support = sorted(fam.support, key=GroupElement.sort_key)
    for _ in range(a["perturbations"]):
        g = rng.choice(support)
        i, j = sorted(rng.sample(range(n), 2))
        grid = [list(row) for row in fam.form(g).matrix]
        grid[i][j] = grid[i][j] + 1
        grid[j][i] = grid[j][i] - 1
        forms = dict(fam.support)
        forms[g] = hecke.SkewForm(grid)
        perturbed = hecke.SkewFormFamily(r, 1, n, RepKind.PERMUTATION, forms)
        with rec.region():
            report = hecke.pbw_check(perturbed)
        if report.ok or not report.witnesses:
            failures.append((repr(g), i, j))
    return not failures, f"wrong PBW verdicts: {failures}"


# -- CLI ops --------------------------------------------------------------------


def check_hh_dims(data, a, expect):
    rows = [{k: v for k, v in row.items() if k != "basis"} for row in data["components"]]
    if rows != expect["components"]:
        return False, "component dims differ from the stored table"
    if "--basis" in a["argv"]:
        for row in data["components"]:
            counts = {d: len(row["basis"].get(d, [])) for d in row["dims"]}
            if counts != row["dims"]:
                return False, f"basis sizes {counts} differ from dims {row['dims']}"
    return True, ""


def check_gha_total(data, a, expect):
    return data["total"] == expect["total"], f"total {data['total']}, expected {expect['total']}"


def check_nc_verify(data, a, expect):
    return data["ok"] is True, "nc-verify reported a failed relation"


def _token_element(alg, tok):
    r, n = alg.r, alg.n
    if tok.startswith("v"):
        return alg.var(int(tok[1:]))
    if tok.startswith("xi"):
        k, e = tok[2:].split("^")
        return alg.group(group.xi(r, n, int(k), int(e)))
    if tok.startswith("s"):
        i = int(tok[1:])
        return alg.group(group.transposition(r, n, i, i + 1))
    i, j, k = (int(x) for x in tok[len("cycle("):-1].split(","))
    return alg.group(group.from_cycles(r, n, [(i, j, k)]))


def check_normal_form(data, a, expect):
    """A left fold and a right fold of the word must agree, and the CLI's
    normal form must equal them."""
    alg = _algebra(a["algebra"], a["r"], a["n"])
    factors = [_token_element(alg, tok) for tok in a["tokens"]]
    left = functools.reduce(lambda x, y: x * y, factors)
    right = functools.reduce(lambda y, x: x * y, reversed(factors))
    if not left == right:
        return False, "left and right folds disagree"
    return data == left.to_json(), "CLI normal form differs from the library fold"


CLI_CHECKS = {
    "hh-dims": check_hh_dims,
    "gha-total": check_gha_total,
    "nc-verify": check_nc_verify,
    "normal-form": check_normal_form,
}


def op_cli(rec, a, expect):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with rec.region():
                code = cli.main(a["argv"])
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    rec.counts["cli.stdout_bytes"] += len(text.encode())
    if "Traceback" in err.getvalue():
        return False, err.getvalue()
    if code != expect["exit"]:
        return False, f"exit {code}, expected {expect['exit']}: {err.getvalue()}"
    return CLI_CHECKS[a["check"]](json.loads(text), a, expect)


OPS = {
    "acceptance": op_acceptance,
    "detfilter": op_detfilter,
    "oracle": op_oracle,
    "pbw-dim": op_pbw_dim,
    "pbw-presets": op_pbw_presets,
    "cli": op_cli,
}


def main():
    print(f"ready {IMPORT.elapsed} {IMPORT.elapsed_ref}", flush=True)
    spec = json.loads(sys.stdin.readline())
    rec = tracer.Recorder()
    if spec["mode"] == "spans":
        rec.install_spans()
    elif spec["mode"] == "counts":
        rec.install_counts()
    try:
        ok, detail = OPS[spec["kind"]](rec, spec["args"], spec["expect"])
    except Exception:
        ok, detail = False, traceback.format_exc()
    result = {
        "ok": bool(ok),
        "detail": "" if ok else detail,
        "op_s": rec.elapsed,
        "op_ref": rec.elapsed_ref,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counts": dict(rec.counts),
    }
    if spec["mode"] == "spans":
        result["spans"] = rec.spans
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
