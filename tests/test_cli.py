import contextlib
import io
import json
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeforge.cli import main


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
        assert row["centralizer_formula"] == row["centralizer_brute"]


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
], ids=["cycle-index-out-of-range", "cycle-repeated-index", "token-zero-denominator",
        "scalar-zero-denominator", "gha-build-r-zero", "nc-normal-form-r-zero"])
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, (argv, err.getvalue())
    else:
        assert out.getvalue() and not err.getvalue(), argv
