"""heckeforge benchmark: three closed-loop workloads of real heckeforge calls.

    python3 bench/run.py --workload hh-catalog --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each operation (op) runs in a fresh worker
interpreter, one at a time, so every op pays for heckeforge's lru_caches
cold, as a command-line user does.  The op list is run in passes until
`--seconds` is spent (at least one pass); every end-to-end metric is the
median over the passes.  Op times are reported in `ref` units: multiples of
a fixed reference computation timed every 0.1 s while the op runs, because a
shared machine can change speed by up to 2x for seconds at a time (see
tracer.Recorder).  The raw seconds are on the context line.  With `--trace 1`
the list runs three times instead: untraced, with spans on each layer's
public functions, and with counters on the hot inner calls; the last line
then holds the per-layer metrics.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The lines before it give the run
context and one row per op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path
from time import perf_counter

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
EXPECTED = json.loads((BENCH / "expected.json").read_text())
OP_TIMEOUT_S = 150


class HarnessError(RuntimeError):
    """The benchmark itself cannot run: no result is printed."""


# -- workloads -----------------------------------------------------------------


def _op(name, kind, args, expect=None):
    return {"name": name, "kind": kind, "args": args, "expect": expect or {}}


def _gname(r, p, n):
    return f"G({r},{p},{n})"


def _one_member_per_class(r, n, rng):
    """A seeded member of each conjugacy class of G(r,1,n), as (exps, perm).
    Classes are told apart by their multiset of (cycle length, exponent sum
    mod r) pairs, which is a complete invariant for G(r,1,n)."""
    classes: dict = {}
    for perm in permutations(range(1, n + 1)):
        cycles, seen = [], set()
        for i in range(1, n + 1):
            cyc = []
            while i not in seen:
                seen.add(i)
                cyc.append(i)
                i = perm[i - 1]
            if cyc:
                cycles.append(cyc)
        for exps in product(range(r), repeat=n):
            key = tuple(sorted((len(c), sum(exps[i - 1] for i in c) % r) for c in cycles))
            classes.setdefault(key, []).append((list(exps), list(perm)))
    return [rng.choice(members) for _, members in sorted(classes.items())]


def hh_catalog(seed, smoke=False):
    """Criterion 1 and 3 acceptance, the `hh` CLI and the det-filter sample."""
    accept = [(1, 1, 4, "faithful"), (2, 1, 4, "faithful"), (2, 2, 4, "faithful"),
              (3, 3, 4, "faithful"), (3, 1, 3, "permutation")]
    if smoke:
        accept = accept[:1]
    ops = [
        _op(f"accept-{_gname(r, p, n)}-{rep}", "acceptance", {"r": r, "p": p, "n": n, "rep": rep, "D": 6})
        for r, p, n, rep in accept
    ]
    if smoke:
        return ops
    for key, argv in [
        ("hh-G(2,1,4)-D10-compare", ["hh", "--r", "2", "--p", "1", "--n", "4", "--rep", "faithful",
                                     "--max-degree", "10", "--compare"]),
        ("hh-G(2,2,4)-D4-basis", ["hh", "--r", "2", "--p", "2", "--n", "4", "--rep", "faithful",
                                  "--max-degree", "4", "--basis"]),
    ]:
        ops.append(_op(f"cli-{key}", "cli", {"argv": ["--format", "json"] + argv, "check": "hh-dims"},
                       {"exit": 0, "components": EXPECTED["hh"][key]}))
    rng = random.Random(seed)
    for rep in ("faithful", "permutation"):
        ops.append(_op(f"detfilter-G(3,1,3)-{rep}", "detfilter",
                       {"r": 3, "p": 1, "n": 3, "rep": rep, "D": 4, "mmax": 3,
                        "elements": _one_member_per_class(3, 3, rng)}))
    return ops


def gha_params(seed, smoke=False):
    """gha-dim through the CLI and the independent linear-system oracle."""
    dims = EXPECTED["gha_dim"]
    oracles = EXPECTED["linear_oracle"]
    if smoke:
        dims, oracles = dims[-1:], oracles[-1:]
    ops = [
        _op(f"cli-gha-dim-{_gname(r, p, n)}-{rep}", "cli",
            {"argv": ["--format", "json", "gha-dim", "--r", str(r), "--p", str(p), "--n", str(n),
                      "--rep", rep], "check": "gha-total"},
            {"exit": 0, "total": total})
        for r, p, n, rep, total in dims
    ]
    ops += [
        _op(f"oracle-{_gname(r, p, n)}-{rep}", "oracle", {"r": r, "p": p, "n": n, "rep": rep}, {"total": total})
        for r, p, n, rep, total in oracles
    ]
    return ops


def _random_word(rng, r, n, length, variables):
    """`variables` variables and `length - variables` group generators, in
    seeded order."""
    word = [f"v{rng.randrange(1, n + 1)}" for _ in range(variables)]
    for _ in range(length - len(word)):
        kind = rng.randrange(3)
        if kind == 0:
            word.append(f"xi{rng.randrange(1, n + 1)}^{rng.randrange(1, r) if r > 1 else 0}")
        elif kind == 1:
            word.append(f"s{rng.randrange(1, n)}")
        else:
            word.append("cycle({},{},{})".format(*rng.sample(range(1, n + 1), 3)))
    rng.shuffle(word)
    return word


# The cost of pbw_dimension_check's random triples is heavy-tailed (it
# doubles between seeds on the Drinfeld algebras), so the two large checks keep
# criterion 7's triple seed and the small H* check takes the workload seed.
CRITERION_7_SEED = 21


def nc_rewrite(seed, smoke=False):
    """Normal-form rewriting, PBW conditions and isomorphism checks."""
    rng = random.Random(seed)
    pbw = [("a-drinfeld", 3, 3, 3, 600, CRITERION_7_SEED), ("a-drinfeld", 2, 3, 4, 800, CRITERION_7_SEED),
           ("hstar", 2, 3, 3, 200, rng.randrange(10**6))]
    presets = [(2, 4), (4, 3)]
    verify = [(3, 3), (4, 3), (2, 4)]
    words = [("hstar", 3, 4), ("hstar", 3, 4), ("a-drinfeld", 2, 3), ("a-drinfeld", 2, 3)]
    if smoke:
        pbw, presets, verify, words = [("hstar", 2, 3, 2, 20, seed)], [], [], []
    ops = [
        _op(f"pbw-dim-{alg}({r},{n})-N{N}", "pbw-dim",
            {"algebra": alg, "r": r, "n": n, "N": N, "triples": triples, "seed": triple_seed})
        for alg, r, n, N, triples, triple_seed in pbw
    ]
    ops += [
        _op(f"pbw-check-a_r1n({r},{n})", "pbw-presets",
            {"r": r, "n": n, "perturbations": 5, "seed": rng.randrange(10**6)})
        for r, n in presets
    ]
    ops += [
        _op(f"cli-nc-verify({r},{n})", "cli",
            {"argv": ["--format", "json", "nc-verify", "--preset", "hstar-iso", "--r", str(r), "--n", str(n)],
             "check": "nc-verify"},
            {"exit": 0})
        for r, n in verify
    ]
    for k, (alg, r, n) in enumerate(words):
        tokens = _random_word(rng, r, n, 12, 3)
        ops.append(_op(f"cli-nc-normal-form-{alg}({r},{n})-{k}", "cli",
                       {"argv": ["--format", "json", "nc-normal-form", "--algebra", alg, "--r", str(r),
                                 "--n", str(n)] + tokens,
                        "check": "normal-form", "algebra": alg, "r": r, "n": n, "tokens": tokens},
                       {"exit": 0}))
    return ops


WORKLOADS = {"hh-catalog": hh_catalog, "gha-params": gha_params, "nc-rewrite": nc_rewrite}


# -- running ops ----------------------------------------------------------------


def run_op(op, mode):
    """Run one op in a fresh worker; return its result with `setup_s`, the
    time from starting the worker until heckeforge is imported, and
    `import_s` and `import_ref`, the worker's own timing of the import in
    seconds and in ref units."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)], cwd=ROOT, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        ready = proc.stdout.readline().split()
        setup_s = perf_counter() - t0
        if len(ready) != 3 or ready[0] != "ready":
            proc.kill()
            _, err = proc.communicate()
            raise HarnessError(f"worker could not start: {err.strip()}")
        setup = {"setup_s": setup_s, "import_s": float(ready[1]), "import_ref": float(ready[2])}
        out, err = proc.communicate(json.dumps(dict(op, mode=mode)) + "\n", timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "detail": f"timed out after {OP_TIMEOUT_S} s", "op_s": float(OP_TIMEOUT_S),
                "op_ref": 0.0, "rss_kb": 0, "counts": {}, "mode": mode, **setup}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False, "detail": f"no result, exit {proc.returncode}: {err.strip()[-2000:]}",
                  "op_s": 0.0, "op_ref": 0.0, "rss_kb": 0, "counts": {}}
    if proc.returncode != 0 or "Traceback" in err:
        result["ok"] = False
        result["detail"] = result.get("detail") or f"worker exit {proc.returncode}: {err.strip()[-2000:]}"
    result.update(setup)
    result["mode"] = mode
    return result


def run_pass(ops, mode):
    return [run_op(op, mode) for op in ops]


def pass_summary(results):
    """One pass in seconds, ref units and MB."""
    return {
        "wall_s": sum(r["op_s"] for r in results),
        "wall_ref": sum(r["op_ref"] for r in results),
        "op_s.max": max(r["op_s"] for r in results),
        "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024,
    }


def end_to_end(passes):
    """`wall_ref` is the sum over the ops of each op's median time in ref
    units over the passes (see tracer.Recorder), which takes out most of the
    machine's speed drift, and `op_ref.max` the largest of those medians.
    `setup_s` is the median over every worker of the run of its heckeforge
    import time in ref units, times the ops in a pass, converted to seconds at
    the fixed speed `tracer.NOMINAL_IMPORT_REF_S`; raw seconds, and the whole
    worker start-up, are on the context line.
    `peak_rss_mb` is the median over the passes of the largest worker."""
    ops = range(len(passes[0]))
    op_ref = [statistics.median(p[i]["op_ref"] for p in passes) for i in ops]
    setup_ref = statistics.median(r["import_ref"] for p in passes for r in p) * len(ops)
    return {
        "wall_ref": (sum(op_ref), "ref"),
        "op_ref.max": (max(op_ref), "ref"),
        "setup_s": (setup_ref * tracer.NOMINAL_IMPORT_REF_S, "s"),
        "peak_rss_mb": (statistics.median(pass_summary(p)["peak_rss_mb"] for p in passes), "MB"),
    }


SPANS_WITH_CALLS = [
    "group.conjugacy_classes", "group.centralizer", "hochschild.hochschild_character",
    "hochschild.hh_component", "polyforms.reynolds_semiinvariant_basis", "polyforms.restriction_matrix",
    "cyclo.matmul", "cyclo.determinant", "cyclo.echelon_rows", "hecke.pbw_check", "ncalg.multiply",
]
SPANS_SELF_ONLY = [
    "hochschild.fixed_space", "hecke.param_space", "hecke.param_space_linear_oracle", "hecke.build_preset",
    "ncalg.verify_iso", "ncalg.pbw_dimension_check", "cli.main",
]
RESULT_COUNTS = [
    "group.class_count", "group.centralizer_elems", "polyforms.basis_out",
    "cyclo.echelon_rows.rows_in", "cyclo.echelon_rows.rows_out", "ncalg.terms_out",
]


def _sum_counts(results):
    total: dict = {}
    for r in results:
        for key, value in r["counts"].items():
            total[key] = total.get(key, 0) + value
    return total


def per_layer(plain, spans, counts):
    """Per-layer metrics from one untraced, one span and one counting pass:
    span self times and calls, counts read from return values (span pass),
    and calls of the hot inner operations (counting pass)."""
    stats: dict = {}
    for r in spans:
        for name, (calls, self_s) in tracer.self_times(r["spans"]).items():
            entry = stats.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
    returned, hot = _sum_counts(spans), _sum_counts(counts)

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    m = {}
    for name in SPANS_WITH_CALLS + SPANS_SELF_ONLY:
        calls, self_s = stats.get(name, (0, 0.0))
        m[f"{name}.self_s"] = (self_s, "s")
        if name in SPANS_WITH_CALLS:
            m[f"{name}.calls"] = (calls, "count")
    for key in RESULT_COUNTS:
        m[key] = (returned.get(key, 0), "count")
    for key, *_ in tracer.COUNT_TARGETS:
        m[key] = (hot.get(key, 0), "count")
    m["cli.stdout_bytes"] = (returned.get("cli.stdout_bytes", 0), "bytes")
    m["hochschild.nonzero_frac"] = ratio(
        returned.get("hochschild.nonzero", 0), m["hochschild.hh_component.calls"][0])
    m["polyforms.reynolds_nonempty_frac"] = ratio(
        returned.get("polyforms.reynolds_nonempty", 0), m["polyforms.reynolds_semiinvariant_basis.calls"][0])
    m["trace.overhead_frac"] = (pass_summary(spans)["wall_ref"] / pass_summary(plain)["wall_ref"] - 1, "ratio")
    return m


def measure(ops, seconds, trace):
    """Run the op list; return (passes, metrics).  Passes are lists of op
    results in op order."""
    if trace:
        plain, spans, counts = (run_pass(ops, mode) for mode in ("plain", "spans", "counts"))
        return [plain, spans, counts], per_layer(plain, spans, counts)
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(ops, "plain"))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    return passes, end_to_end(passes)


# -- output -------------------------------------------------------------------


def _commit():
    """The commit of a git checkout, read without running git; None elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context(workload, seed, load1):
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "loadavg_1min": load1,
    }


def report_lines(ops, passes, metrics, ctx):
    """The printed lines, result last."""
    results = [r for p in passes for r in p]
    failed = sum(not r["ok"] for r in results)
    plain = [p for p in passes if p[0]["mode"] == "plain"]
    seconds = {key: statistics.median(pass_summary(p)[key] for p in plain) for key in ("wall_s", "op_s.max")}
    for key in ("setup_s", "import_s"):
        seconds[key] = statistics.median(r[key] for p in plain for r in p) * len(ops)
    lines = [json.dumps({"context": dict(ctx, passes=len(passes), ops_per_pass=len(ops),
                                         fail_frac=failed / len(results), seconds=seconds)})]
    for i, op in enumerate(ops):
        row = {"op": op["name"], "op_s": statistics.median(p[i]["op_s"] for p in plain),
               "op_ref": statistics.median(p[i]["op_ref"] for p in plain),
               "runs": len(plain), "ok": all(p[i]["ok"] for p in passes)}
        if not row["ok"]:
            row["detail"] = next(p[i]["detail"] for p in passes if not p[i]["ok"])[-2000:]
        lines.append(json.dumps(row))
    lines.append(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return lines


def write_spans(workload, seed, ops, spans_pass):
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    spans = [[i, *span] for i, r in enumerate(spans_pass) for span in r.get("spans", [])]
    path = out / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"ops": [op["name"] for op in ops], "spans": spans}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "heckeforge" / "__init__.py").is_file():
        raise HarnessError("run from a heckeforge checkout: src/heckeforge is missing")
    load1 = os.getloadavg()[0]
    ops = WORKLOADS[args.workload](args.seed)
    passes, metrics = measure(ops, args.seconds, args.trace)
    if args.trace:
        write_spans(args.workload, args.seed, ops, passes[1])
    for line in report_lines(ops, passes, metrics, context(args.workload, args.seed, load1)):
        print(line)


if __name__ == "__main__":
    try:
        main()
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
