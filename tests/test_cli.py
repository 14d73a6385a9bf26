import json
from math import comb
from pathlib import Path

import pytest

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
# rewritten; any intended change to one of these files is a change of output.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,argv", [
    ("classes_3_1_3", ["classes", "--r", "3", "--p", "1", "--n", "3"]),
    ("classes_4_2_3", ["classes", "--r", "4", "--p", "2", "--n", "3"]),
    ("gha_dim_3_1_4_permutation", ["gha-dim", "--r", "3", "--p", "1", "--n", "4", "--rep", "permutation"]),
    ("gha_dim_2_1_4_faithful", ["gha-dim", "--r", "2", "--p", "1", "--n", "4", "--rep", "faithful"]),
    ("hh_compare_2_1_4_faithful_D6", ["hh", "--r", "2", "--p", "1", "--n", "4", "--rep", "faithful",
                                      "--compare", "--max-degree", "6"]),
])
def test_json_matches_golden_output(capsys, name, argv):
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
