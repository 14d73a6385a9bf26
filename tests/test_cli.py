import contextlib
import copy
import inspect
import io
import json
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeforge import ncalg
from heckeforge.cli import main
from heckeforge.hecke import build_preset


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _class_count_from_multisets(r, n):
    """Number of (a,k)-multisets: one r-multiset of colors per repeated part."""

    def partitions(total, max_part):
        if total == 0:
            yield ()
            return
        for part in range(min(total, max_part), 0, -1):
            for rest in partitions(total - part, part):
                yield (part,) + rest

    count = 0
    for lam in partitions(n, n):
        ways = 1
        for size in set(lam):
            m = lam.count(size)
            ways *= comb(r + m - 1, m)
        count += ways
    return count


def test_classes_matches_multiset_count(capsys):
    code, out, _ = run(capsys, "--format", "json", "classes", "--r", "2", "--p", "1", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["class_count"] == _class_count_from_multisets(2, 2) == 5
    sizes = sum(row["size"] for row in data["classes"])
    assert sizes == data["group"]["order"] == 8
    for row in data["classes"]:
        assert row["centralizer_formula"] == row["centralizer_order"]


def test_classes_s3(capsys):
    code, out, _ = run(capsys, "--format", "json", "classes", "--r", "1", "--p", "1", "--n", "3")
    assert code == 0
    assert json.loads(out)["class_count"] == 3


def test_classes_invalid_p(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "classes", "--r", "3", "--p", "2", "--n", "2")
    assert exc.value.code == 2


def test_hh_compare_exit_zero(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "hh",
        "--r", "2", "--p", "1", "--n", "4", "--rep", "faithful",
        "--cohdeg", "2", "--max-degree", "3", "--compare",
    )
    assert code == 0
    data = json.loads(out)
    assert all(row["match"] for row in data["components"])


def test_hh_cohdeg_zero_only_identity(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "hh",
        "--r", "2", "--p", "1", "--n", "2", "--rep", "faithful",
        "--cohdeg", "0", "--max-degree", "4",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["components"]) == 1
    row = data["components"][0]
    assert row["codim"] == 0
    # invariant ring of G(2,1,2) has generator degrees 2 and 4
    assert row["dims"] == {"0": 1, "1": 0, "2": 1, "3": 0, "4": 2}


def test_hh_r3_no_transposition_classes(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "hh",
        "--r", "3", "--p", "1", "--n", "4", "--rep", "faithful",
        "--cohdeg", "2", "--max-degree", "2",
    )
    assert code == 0
    data = json.loads(out)
    from heckeforge.group import GroupElement

    for row in data["components"]:
        g = GroupElement.from_json(row["class"])
        from heckeforge.group import perm_cycles

        lengths = sorted(len(c) for c in perm_cycles(g.perm))
        assert lengths != [1, 1, 2]


def test_hh_closed_form_requires_degree_two(capsys):
    code, _, err = run(
        capsys, "hh", "--r", "2", "--p", "1", "--n", "4", "--rep", "faithful",
        "--cohdeg", "1", "--compare",
    )
    assert code == 2


def test_gha_dim_zero(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "gha-dim",
        "--r", "3", "--p", "1", "--n", "4", "--rep", "faithful",
    )
    assert code == 0
    assert json.loads(out)["total"] == 0


def test_gha_build_pipe_pbw_check(capsys, tmp_path):
    code, out, _ = run(capsys, "gha-build", "--preset", "a_r1n", "--r", "2", "--n", "3")
    assert code == 0
    forms = tmp_path / "forms.json"
    forms.write_text(out)
    code, out, _ = run(capsys, "pbw-check", str(forms))
    assert code == 0


def test_pbw_check_detects_broken_family(capsys, tmp_path):
    code, out, _ = run(capsys, "gha-build", "--preset", "a_r1n", "--r", "1", "--n", "3")
    data = json.loads(out)
    # zero out one conjugate while keeping the other: invariance breaks
    del data["forms"][0]
    forms = tmp_path / "forms.json"
    forms.write_text(json.dumps(data))
    code, out, _ = run(capsys, "pbw-check", str(forms))
    assert code == 1


def test_pbw_check_rejects_non_skew(capsys, tmp_path):
    code, out, _ = run(capsys, "gha-build", "--preset", "a_r1n", "--r", "1", "--n", "3")
    data = json.loads(out)
    data["forms"][0]["matrix"][0][0] = {"order": 1, "terms": [{"exp": 0, "num": "1", "den": "1"}]}
    forms = tmp_path / "forms.json"
    forms.write_text(json.dumps(data))
    code, _, err = run(capsys, "pbw-check", str(forms))
    assert code == 2


def test_nc_verify(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "nc-verify", "--preset", "hstar-iso", "--r", "2", "--n", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"]
    assert all(data["reln4"].values())


def test_nc_normal_form(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "nc-normal-form", "--r", "2", "--n", "2", "s1", "v2"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["terms"]) == 3
    code, out, _ = run(
        capsys, "--format", "json", "nc-normal-form",
        "--algebra", "a-drinfeld", "--r", "1", "--n", "3", "v2", "v1",
    )
    assert code == 0
    assert len(json.loads(out)["terms"]) == 3


def test_nc_normal_form_scalars_and_cycles(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "nc-normal-form", "--r", "3", "--n", "3",
        "1/2", "z3^1", "cycle(1,2,3)", "v1",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["terms"]) >= 1


def test_nc_normal_form_accepts_the_orders_of_lcm_2_r(capsys):
    for token in ("z3^1", "z6^1", "z2^1", "z1^0"):
        code, out, _ = run(capsys, "--format", "json", "nc-normal-form", "--r", "3", "--n", "3", token, "v1")
        assert code == 0 and json.loads(out)["terms"], token


def test_nc_normal_form_bad_token(capsys):
    code, _, err = run(capsys, "nc-normal-form", "--r", "2", "--n", "2", "w9")
    assert code == 2


def test_output_deterministic(capsys):
    args = ["--format", "json", "hh", "--r", "1", "--p", "1", "--n", "4",
            "--rep", "faithful", "--cohdeg", "2", "--max-degree", "3", "--compare"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_shared_flags_accepted_after_subcommand(capsys):
    code, out, _ = run(capsys, "classes", "--r", "1", "--p", "1", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["class_count"] == 3


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HECKEFORGE_BUDGET", "10")
    code, _, err = run(capsys, "classes", "--r", "2", "--p", "1", "--n", "3")
    assert code == 2
    assert "budget" in err


def _exit_code(capsys, *argv):
    """Exit code of main, whether returned or raised, plus captured stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_budget_env_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("HECKEFORGE_BUDGET", "abc")
    code, err = _exit_code(capsys, "classes", "--r", "2", "--n", "2")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_nc_verify_passes_the_budget_to_the_preset(capsys, monkeypatch):
    seen = []

    def recording_build_preset(*args, **kwargs):
        bound = inspect.signature(build_preset).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["budget"])
        return build_preset(*args, **kwargs)

    monkeypatch.setattr(ncalg, "build_preset", recording_build_preset)
    code, _ = _exit_code(capsys, "--budget", "12345", "nc-verify", "--preset", "hstar-iso", "--r", "2", "--n", "3")
    assert code == 0
    assert seen == [12345]


def test_nc_verify_rejects_r_zero(capsys):
    code, err = _exit_code(capsys, "nc-verify", "--preset", "hstar-iso", "--r", "0", "--n", "3")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["nc-normal-form", "--algebra", "hstar", "--r", "2", "--n", "3", "cycle(1,2,9)"], None),
    (["nc-normal-form", "--algebra", "hstar", "--r", "2", "--n", "3", "cycle(1,1,2)"], None),
    (["nc-normal-form", "--algebra", "hstar", "--r", "2", "--n", "3", "v1", "1/0"], None),
    (["gha-build", "--preset", "generic", "--r", "2", "--n", "3", "--scalars", "1,1/0"], None),
    (["gha-build", "--preset", "a_r1n", "--r", "0", "--n", "3"], "error: need r, n >= 1 and p | r\n"),
    (["nc-normal-form", "--algebra", "a-drinfeld", "--r", "0", "--n", "3", "v1"], "error: need r, n >= 1 and p | r\n"),
    (["nc-normal-form", "--algebra", "hstar", "--r", "3", "--n", "3", "z6400^1"], None),
    (["nc-normal-form", "--algebra", "hstar", "--r", "2", "--n", "3", "z4^1"], None),
    (["hh", "--r", "2", "--n", "4", "--rep", "faithful", "--max-degree", "-1", "--compare"],
     "error: --max-degree must be nonnegative\n"),
], ids=["cycle-index-out-of-range", "cycle-repeated-index", "token-zero-denominator",
        "scalar-zero-denominator", "gha-build-r-zero", "nc-normal-form-r-zero",
        "zeta-order-6400", "zeta-order-not-dividing-lcm-2-r", "hh-negative-max-degree"])
def test_malformed_input_is_bad_input(capsys, argv, message):
    code, err = _exit_code(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert message is None or err == message


def test_pbw_check_rejects_form_of_wrong_size(capsys, tmp_path):
    code, out, _ = run(capsys, "gha-build", "--preset", "a_r1n", "--r", "1", "--n", "3")
    data = json.loads(out)
    data["forms"][0]["matrix"] = [row[:2] for row in data["forms"][0]["matrix"][:2]]
    forms = tmp_path / "forms.json"
    forms.write_text(json.dumps(data))
    code, err = _exit_code(capsys, "pbw-check", str(forms))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def _preset_forms_with(path, value):
    """The a_r1n(2,3) forms JSON with the entry at `path` set to `value`."""
    data = build_preset("a_r1n", 2, 3).to_json()
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


_EMPTY_FAMILY = {"r": 2, "p": 1, "n": 3, "rep": "permutation", "forms": []}


@pytest.mark.parametrize("forms", [
    dict(_EMPTY_FAMILY, r=0),
    dict(_EMPTY_FAMILY, n=0),
    dict(_EMPTY_FAMILY, p=0),
    dict(_EMPTY_FAMILY, r=3, p=2),
    [],
    dict(_EMPTY_FAMILY, forms=3),
    _preset_forms_with(["forms", 0, "matrix"], 0),
    _preset_forms_with(["forms", 0, "matrix", 0, 1, "terms", 0, "den"], "0"),
    _preset_forms_with(["forms", 0, "matrix", 0, 0], {"order": 0, "terms": []}),
    _preset_forms_with(["forms", 0, "matrix", 0, 0], {"order": 1601, "terms": []}),
    _preset_forms_with(["forms", 0, "matrix", 0, 0], {"order": 3, "terms": []}),
    # a float that int() truncates, or a boolean it reads as 0 or 1, in
    # every integer field: each reads as the preset's own value
    _preset_forms_with(["r"], 2.5),
    _preset_forms_with(["p"], True),
    _preset_forms_with(["n"], 3.9),
    _preset_forms_with(["forms", 0, "g", "r"], 2.5),
    _preset_forms_with(["forms", 0, "g", "n"], 3.2),
    _preset_forms_with(["forms", 0, "g", "exps"], [0, 0, 0.5]),
    _preset_forms_with(["forms", 0, "g", "perm"], [2.7, 3, 1]),
    _preset_forms_with(["forms", 0, "matrix", 0, 1, "order"], 1.7),
    _preset_forms_with(["forms", 0, "matrix", 0, 1, "terms", 0, "exp"], 0.5),
    _preset_forms_with(["forms", 0, "matrix", 0, 1, "terms", 0, "num"], 1.5),
    _preset_forms_with(["forms", 0, "matrix", 0, 1, "terms", 0, "num"], True),
    _preset_forms_with(["forms", 0, "matrix", 0, 1, "terms", 0, "den"], 3.5),
    # a string where a list belongs, spelling the preset's own (0, 0, 0) and
    # (2, 3, 1) digit by digit
    _preset_forms_with(["forms", 0, "g", "exps"], "000"),
    _preset_forms_with(["forms", 0, "g", "perm"], "231"),
], ids=["r-zero", "n-zero", "p-zero", "p-not-dividing-r", "top-level-list", "forms-not-a-list",
        "matrix-not-a-list", "zero-denominator", "order-zero", "order-1601", "order-not-dividing-lcm-2-r",
        "r-float", "p-bool", "n-float", "g-r-float", "g-n-float", "exps-float", "perm-float",
        "order-float", "exp-float", "num-float", "num-bool", "den-float", "exps-string", "perm-string"])
def test_pbw_check_rejects_malformed_forms(capsys, tmp_path, forms):
    path = tmp_path / "forms.json"
    path.write_text(json.dumps(forms))
    code, err = _exit_code(capsys, "pbw-check", str(path))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_gha_build_to_a_missing_directory_is_bad_input(capsys, tmp_path):
    out = tmp_path / "missing" / "x.json"
    code, err = _exit_code(capsys, "gha-build", "--preset", "a_r1n", "--r", "2", "--n", "3", "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.parent.exists()


# JSON stdout recorded before the class and centralizer enumeration was
# rewritten (the first five), before the skew group algebra became the
# empty-family Drinfeld algebra (the next six), and before V^g and its
# wedge duals were read off g's cycles (the last three, which cover the
# wedge duals, with 1/3 and zeta_3 in them, and the permutation action);
# any intended change to one of these files is a change of output.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,argv", [
    ("classes_3_1_3", ["classes", "--r", "3", "--p", "1", "--n", "3"]),
    ("classes_4_2_3", ["classes", "--r", "4", "--p", "2", "--n", "3"]),
    ("gha_dim_3_1_4_permutation", ["gha-dim", "--r", "3", "--p", "1", "--n", "4", "--rep", "permutation"]),
    ("gha_dim_2_1_4_faithful", ["gha-dim", "--r", "2", "--p", "1", "--n", "4", "--rep", "faithful"]),
    ("hh_compare_2_1_4_faithful_D6", ["hh", "--r", "2", "--p", "1", "--n", "4", "--rep", "faithful",
                                      "--compare", "--max-degree", "6"]),
    ("hh_basis_2_2_4_faithful_D4", ["hh", "--r", "2", "--p", "2", "--n", "4", "--rep", "faithful",
                                    "--basis", "--max-degree", "4"]),
    ("gha_build_a_r1n_2_3", ["gha-build", "--preset", "a_r1n", "--r", "2", "--n", "3"]),
    ("nc_verify_hstar_iso_3_3", ["nc-verify", "--preset", "hstar-iso", "--r", "3", "--n", "3"]),
    ("nc_normal_form_hstar_3_4", ["nc-normal-form", "--algebra", "hstar", "--r", "3", "--n", "4",
                                  "v1", "xi2^2", "s1", "v3", "cycle(1,3,4)", "s3", "v2", "xi4", "1/2", "v4"]),
    ("nc_normal_form_a_drinfeld_2_3", ["nc-normal-form", "--algebra", "a-drinfeld", "--r", "2", "--n", "3",
                                       "v3", "v1", "s2", "v2", "xi1", "v1", "cycle(1,3,2)", "v3", "s1", "1/3"]),
    ("hh_compare_4_1_4_faithful_D4", ["hh", "--r", "4", "--p", "1", "--n", "4", "--rep", "faithful",
                                      "--max-degree", "4", "--compare"]),
    ("hh_basis_3_3_4_faithful_D4", ["hh", "--r", "3", "--p", "3", "--n", "4", "--rep", "faithful",
                                    "--max-degree", "4", "--basis"]),
    ("hh_basis_3_3_3_faithful_cohdeg3_D2", ["hh", "--r", "3", "--p", "3", "--n", "3", "--rep", "faithful",
                                            "--cohdeg", "3", "--max-degree", "2", "--basis"]),
    ("hh_basis_3_1_3_permutation_cohdeg3_D1", ["hh", "--r", "3", "--p", "1", "--n", "3", "--rep", "permutation",
                                               "--cohdeg", "3", "--max-degree", "1", "--basis"]),
])
def test_json_matches_golden_output(capsys, name, argv):
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def _run_quietly(argv, stdin=""):
    """(exit code, stdout, stderr) of main, whether it returns or raises
    SystemExit; any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_bad_input_message(code, err, argv):
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


_INDEX = st.integers(0, 5)
_NC_TOKENS = st.one_of(
    st.builds("v{}".format, _INDEX),
    st.builds("xi{}^{}".format, _INDEX, st.integers(-4, 4)),
    st.builds("s{}".format, _INDEX),
    st.builds("cycle({},{},{})".format, _INDEX, _INDEX, _INDEX),
    st.builds("z{}^{}".format, st.integers(0, 4), st.integers(-3, 3)),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(0, 3)),
    st.sampled_from(["2", "-1", "w1", "v", "xi", "s-1", "cycle(1,2)", "z3", "1/", ""]),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["hstar", "a-drinfeld"]),
    st.integers(1, 3),
    st.integers(1, 4),
    st.lists(_NC_TOKENS, min_size=1, max_size=6),
)
def test_nc_normal_form_keeps_the_exit_code_contract(algebra, r, n, tokens):
    # tokens follow "--" so that a leading minus sign is not read as an option
    argv = ["nc-normal-form", "--algebra", algebra, "--r", str(r), "--n", str(n), "--", *tokens]
    code, out, err = _run_quietly(argv)
    assert code in (0, 2), (argv, code)
    _assert_bad_input_message(code, err, argv)
    if code == 0:
        assert out and not err, argv


_PRESET_FORMS = build_preset("a_r1n", 2, 3).to_json()


def _json_paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6),
    st.floats(-3, 3) | st.sampled_from([float("inf"), float("nan")]),
    st.sampled_from(["", "0", "-1", "3", "x", "1/2", "faithful", "permutation"]),
    # a fresh copy per draw: the edits mutate the containers they reach
    st.sampled_from([[], {}, [[]], [{}]]).map(copy.deepcopy),
)


def _mutate(forms, data):
    """One random edit of a forms document: drop or retype the value at a
    path (biased towards the top-level keys and the coefficient fields),
    set an entry pair a_ij = -a_ji to a new rational, or replace the whole
    document."""
    kind = data.draw(st.sampled_from(["drop", "set", "set", "skew", "skew", "document"]))
    if kind == "document":
        return data.draw(_JSON_VALUES)
    if kind == "skew":
        if not (isinstance(forms, dict) and isinstance(forms.get("forms"), list) and forms["forms"]):
            return forms
        item = data.draw(st.sampled_from(forms["forms"]))
        matrix = item.get("matrix") if isinstance(item, dict) else None
        i, j = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        if isinstance(matrix, list) and len(matrix) == 3 and all(isinstance(row, list) for row in matrix):
            a = data.draw(st.integers(-2, 2))
            for (x, y, v) in ((i, j, a), (j, i, -a)):
                if y < len(matrix[x]):
                    matrix[x][y] = {"order": 1, "terms": [{"exp": 0, "num": str(v), "den": "1"}]}
        return forms
    paths = [p for p in _json_paths(forms) if p]
    if not paths:
        return forms
    targets = [p for p in paths if len(p) == 1 or p[-1] in ("order", "terms", "num", "den", "exp")]
    path = data.draw(st.sampled_from(targets or paths) | st.sampled_from(paths))
    parent = forms
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JSON_VALUES)
    return forms


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_pbw_check_keeps_the_exit_code_contract(data):
    forms = copy.deepcopy(_PRESET_FORMS)
    for _ in range(data.draw(st.integers(0, 3))):
        forms = _mutate(forms, data)
    code, out, err = _run_quietly(["--format", "json", "pbw-check", "-"], json.dumps(forms))
    assert code in (0, 1, 2), (forms, code)
    _assert_bad_input_message(code, err, forms)
    if code != 2:
        report = json.loads(out)
        assert (code == 0) == (report["invariance"] and report["jacobi"]), (forms, report)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["a_r1n", "generic"]),
    st.sampled_from([1, 2, 3, 0, -1]),
    st.sampled_from([3, 4, 3, 4, 2, 0, -1]),
    st.none() | st.lists(st.sampled_from(["1", "0", "-2", "1/2"]), max_size=4).map(",".join)
    | st.sampled_from(["1/0", "x", "1,,2", ""]),
    st.sampled_from(["-", "ok", "missing", "directory"]),
)
def test_gha_build_keeps_the_exit_code_contract(tmp_path_factory, preset, r, n, scalars, out):
    where = tmp_path_factory.mktemp("gha-build")
    out = {"ok": where / "x.json", "missing": where / "missing" / "x.json", "directory": where}.get(out, out)
    argv = ["gha-build", "--preset", preset, "--r", str(r), "--n", str(n), "--out", str(out)]
    if scalars is not None:
        argv.append(f"--scalars={scalars}")  # one token, as a scalar may start with a minus sign
    code, stdout, err = _run_quietly(argv)
    assert code in (0, 2), (argv, code)
    _assert_bad_input_message(code, err, argv)
    if code == 0:
        assert not err and (stdout if out == "-" else out.read_text())


_GROUP_COMMAND_ARGS = (
    st.sampled_from([1, 2, 3, 0, -1]),
    st.sampled_from([1, 1, 2, 3, 0, -1]),
    st.sampled_from([1, 2, 3, 4, 0, -1]),
    st.sampled_from(["faithful", "permutation"]),
    st.none() | st.sampled_from([-1, 0, 1, 10, 400, 10**6]),
    st.sampled_from(["text", "json"]),
)


def _group_command_argv(command, r, p, n, rep, budget, fmt):
    argv = ["--format", fmt, command, "--r", str(r), "--p", str(p), "--n", str(n), "--rep", rep]
    return argv if budget is None else [*argv, f"--budget={budget}"]


def _assert_checkless_contract(argv, fmt):
    # neither command runs a mathematical check whose failure exits 1, so
    # it must answer (0) or reject its input (2), never raise
    code, out, err = _run_quietly(argv)
    assert code in (0, 2), (argv, code)
    _assert_bad_input_message(code, err, argv)
    if code == 0:
        assert out and not err, argv
        if fmt == "json":
            json.loads(out)
    return code, out


@settings(max_examples=80, deadline=None)
@given(*_GROUP_COMMAND_ARGS)
def test_gha_dim_keeps_the_exit_code_contract(r, p, n, rep, budget, fmt):
    argv = _group_command_argv("gha-dim", r, p, n, rep, budget, fmt)
    code, out = _assert_checkless_contract(argv, fmt)
    if code == 0 and fmt == "json":
        report = json.loads(out)
        assert report["total"] == report["d"] + sum(item["dim"] for item in report["lambda2_dims"])


@settings(max_examples=80, deadline=None)
@given(*_GROUP_COMMAND_ARGS)
def test_classes_keeps_the_exit_code_contract(r, p, n, rep, budget, fmt):
    argv = _group_command_argv("classes", r, p, n, rep, budget, fmt)
    code, out = _assert_checkless_contract(argv, fmt)
    if code == 0 and fmt == "json":
        data = json.loads(out)
        assert sum(row["size"] for row in data["classes"]) == data["group"]["order"]


# (r, p, n) weighted towards groups the catalogs cover, so most runs compare
_HH_GROUPS = [(2, 1, 4), (1, 1, 4), (2, 2, 4), (3, 3, 4), (2, 1, 3), (3, 1, 3), (1, 1, 2)] * 2 + [
    (0, 1, 3), (3, 2, 4), (2, 1, 0), (-1, 1, 4), (2, 0, 3)]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_HH_GROUPS),
    st.sampled_from(["faithful", "permutation"]),
    st.sampled_from([2, 2, 2, 2, 0, 1, 3, -1]),
    st.sampled_from([0, 1, 2, -1]),
    st.lists(st.sampled_from(["--compare", "--closed-form", "--basis"]), unique=True),
    st.sampled_from([None, None, None, None, -1, 10]),
    st.sampled_from(["text", "json"]),
)
def test_hh_keeps_the_exit_code_contract(group, rep, cohdeg, max_degree, flags, budget, fmt):
    argv = [*_group_command_argv("hh", *group, rep, budget, fmt),
            "--cohdeg", str(cohdeg), "--max-degree", str(max_degree), *flags]
    code, out, err = _run_quietly(argv)
    assert code in (0, 1, 2), (argv, code)
    _assert_bad_input_message(code, err, argv)
    if code == 1:
        # only the comparison with the closed forms is a check that can fail
        assert "--compare" in flags and not err, argv
        assert ("MISMATCH" in out) if fmt == "text" else any(
            row.get("match") is False for row in json.loads(out)["components"]), argv
    if code == 0:
        assert out and not err, argv
        if fmt == "json":
            json.loads(out)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 3), (3, 3), (1, 3), (2, 4), (1, 4)] * 2 + [(0, 3), (2, 2), (3, 1), (-1, 3), (2, 0)]),
    st.sampled_from([None, None, None, None, -1, 10]),
    st.sampled_from(["text", "json"]),
)
def test_nc_verify_keeps_the_exit_code_contract(group, budget, fmt):
    r, n = group
    argv = ["--format", fmt, "nc-verify", "--preset", "hstar-iso", "--r", str(r), "--n", str(n)]
    if budget is not None:
        argv.append(f"--budget={budget}")
    code, out, err = _run_quietly(argv)
    assert code in (0, 1, 2), (argv, code)
    _assert_bad_input_message(code, err, argv)
    if code != 2:
        assert out and not err, argv
        ok = json.loads(out)["ok"] if fmt == "json" else "verification FAILED" not in out
        assert (code == 0) == ok, argv
