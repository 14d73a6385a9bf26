"""Acceptance gate: one test per criterion, each printing a PASS line.

Every comparison here is exact (integer equality or boolean identity); there
are no tolerances anywhere.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import random

from heckeforge.group import (
    GroupElement,
    RepKind,
    centralizer,
    centralizer_order_formula,
    conjugacy_classes,
    det,
    elements,
    three_cycle,
)
from heckeforge.hecke import (
    SkewForm,
    SkewFormFamily,
    build_preset,
    param_space,
    param_space_linear_oracle,
    pbw_check,
)
from heckeforge.hochschild import (
    FreeModuleDescription,
    _fixes_space_pointwise,
    closed_form_catalog,
    compare,
    hh2_total,
    hh_component,
)
from heckeforge.ncalg import (
    DrinfeldAlgebra,
    HStarAlgebra,
    Mu1,
    cocycle_spot_check,
    pbw_dimension_check,
    sample_cocycle_triples,
    verify_iso,
    verify_reln4,
)
from heckeforge.polyforms import basic_derivations, solomon_check
from oracles import param_space_by_orbits

F = RepKind.FAITHFUL
P = RepKind.PERMUTATION

FAITHFUL_CASES = [(1, 1, 4), (2, 1, 4), (2, 2, 4), (3, 1, 4), (3, 3, 4), (4, 2, 4)]
NONFAITHFUL_CASES = [(2, 3), (3, 3), (2, 4)]


def _passline(k, label):
    print(f"ACCEPTANCE {k} ({label}): PASS")


def test_criterion_1_faithful_closed_forms():
    for (r, p, n) in FAITHFUL_CASES:
        comps = hh2_total(r, p, n, F, 6, validate_skipped=True)
        catalog = closed_form_catalog(r, p, n, F)
        report = compare(comps, catalog, 6)
        assert report.ok, [
            (row.rep, row.case, row.brute_dims, row.closed_dims) for row in report.mismatches
        ]
    _passline(1, "faithful closed-form agreement, degrees <= 6, exact")


def test_criterion_2_symmetric_and_hyperoctahedral_cases():
    # S_4: nonzero classes exactly {1, (1,2,3)}; the 3-cycle component is the
    # polynomial ring on generator degrees {1, 1}
    comps = hh2_total(1, 1, 4, F, 6)
    cases = {closed_form_catalog(1, 1, 4, F)[c.rep].case: c for c in comps}
    assert set(cases) == {"identity", "three_cycle"}
    poly_11 = FreeModuleDescription((1, 1), (0,))
    assert cases["three_cycle"].dims_by_degree == poly_11.dims_up_to(6)

    # WB_4: nonzero classes exactly {1, (1,2,3), (1,-2)}; the (1,-2) component
    # is the ring of symmetric polynomials in v_3^2, v_4^2, i.e. the polynomial
    # ring on the elementary symmetric generators of the two degree-2
    # variables (generator degrees 2 and 4)
    comps = hh2_total(2, 1, 4, F, 6)
    cases = {closed_form_catalog(2, 1, 4, F)[c.rep].case: c for c in comps}
    assert set(cases) == {"identity", "three_cycle", "neg_transposition"}
    sym_two_squares = FreeModuleDescription((2, 4), (0,))
    assert cases["neg_transposition"].dims_by_degree == sym_two_squares.dims_up_to(6)
    wb4_three_cycle = FreeModuleDescription((2, 2), (0,))  # C[(v1+v2+v3)^2, v4^2]
    assert cases["three_cycle"].dims_by_degree == wb4_three_cycle.dims_up_to(6)
    _passline(2, "S_4 and WB_4 special cases, exact")


def test_criterion_3_nonfaithful_agreement_and_discrepancy_report():
    for (r, n) in NONFAITHFUL_CASES:
        comps = hh2_total(r, 1, n, P, 6, validate_skipped=True)
        catalog = closed_form_catalog(r, 1, n, P)
        report = compare(comps, catalog, 6)
        assert report.ok, [
            (row.rep, row.case, row.brute_dims, row.closed_dims) for row in report.mismatches
        ]
        # the displayed block derivations with exponents (j-1)r+1 fail the
        # determinant hypothesis for the symmetric-group action when r > 1
        thetas = basic_derivations(r, 1, 2)
        block = [GroupElement(r, 2, (0, 0), p.perm) for p in elements(1, 1, 2)]
        res = solomon_check(thetas, block, P)
        assert res["invariant"] is True
        assert res["determinant_is_Q"] is (r == 1)
        # degree-0 diagonal-class semi-invariants exist (multi-block classes);
        # the brute force is the arbiter and the counts are reported
        deg0 = [
            (c.rep, c.dims_by_degree[0])
            for c in comps
            if c.codim == 0 and c.dims_by_degree.get(0)
        ]
        assert deg0, "expected nonzero degree-0 diagonal-class semi-invariants"
        print(f"  degree-0 diagonal invariants for G({r},1,{n}):", deg0)
    _passline(3, "nonfaithful agreement + wrong-exponent and degree-0 discrepancy reports")


def test_criterion_4_no_nontrivial_faithful_hecke_parameters():
    for (r, p, n) in [(3, 1, 4), (4, 1, 4)]:
        report = param_space(r, p, n, F)
        assert report.total == 0, (r, p, n, report)
    _passline(4, "gha-dim total = 0 for G(3,1,4) and G(4,1,4) faithful")


def test_criterion_5_pbw_check_and_perturbations():
    rng = random.Random(20)
    for (r, n) in [(1, 3), (2, 3), (3, 3), (2, 4)]:
        fam = build_preset("a_r1n", r, n)
        assert pbw_check(fam).ok, (r, n)
        for _ in range(5):
            g = rng.choice(sorted(fam.support, key=GroupElement.sort_key))
            i = rng.randrange(n)
            j = rng.randrange(n)
            while j == i:
                j = rng.randrange(n)
            i, j = min(i, j), max(i, j)
            grid = [list(row) for row in fam.form(g).matrix]
            grid[i][j] = grid[i][j] + 1
            grid[j][i] = grid[j][i] - 1
            support = dict(fam.support)
            support[g] = SkewForm(grid)
            report = pbw_check(SkewFormFamily(r, 1, n, P, support))
            assert not report.ok and report.witnesses, (r, n, g, i, j)
    _passline(5, "PBW checks: presets pass, 20 perturbations fail with witnesses")


def test_criterion_6_parameter_space_cross_oracle():
    # the class-local linear system against the Reynolds route, and both
    # against the G-listing system over free per-element forms
    for (r, p, n, rep) in [(1, 1, 3, F), (2, 1, 3, F), (2, 1, 3, P), (2, 2, 4, F), (3, 1, 4, P)]:
        reynolds_total = param_space(r, p, n, rep).total
        kernel_dim = param_space_linear_oracle(r, p, n, rep)
        assert reynolds_total == kernel_dim == param_space_by_orbits(r, p, n, rep), (
            r, p, n, rep, reynolds_total, kernel_dim)
    assert param_space_linear_oracle(3, 1, 4, P) == 27
    _passline(6, "Reynolds route equals the assembled linear system, exact")


def test_criterion_7_mechanical_isomorphism_proof():
    for r in (1, 2, 3):
        alg = HStarAlgebra(r, 3)
        for j in (1, 2):
            for k in range(j + 1, 4):
                for m in (1, 2, 3):
                    assert verify_reln4(j, k, m, r, 3, alg), (r, j, k, m)
        assert verify_iso(r, 3).ok, r
    fam = build_preset("a_r1n", 2, 3)
    report = pbw_dimension_check(DrinfeldAlgebra(fam), 3, n_triples=200, seed=21)
    assert report.count == 960
    assert report.associative
    _passline(7, "transposition relations, tilde relations, PBW count 960, 200-triple associativity")


def test_criterion_8_structural_invariants():
    # centralizer order formula vs the centralizer listed from its
    # generators on every class
    for (r, p, n) in [(3, 1, 3), (2, 1, 4)]:
        for cls in conjugacy_classes(r, p, n):
            assert len(centralizer(cls.rep, p)) == centralizer_order_formula(cls.rep)

    # the determinant filter property on every element of G(3,1,3), both
    # representations, cohomological degrees <= 3, polynomial degrees <= 4
    for rep in (F, P):
        for g in elements(3, 1, 3):
            nonzero = False
            comp = None
            for m in range(4):
                comp = hh_component(g, rep, m, 4)
                if not comp.is_zero():
                    nonzero = True
                    break
            if nonzero:
                assert det(g, rep) == 1, (g, rep)
                for h in comp.chi.subgroup:
                    if _fixes_space_pointwise(h, rep, comp.fixed_basis):
                        assert det(h, rep) == 1, (g, h, rep)

    # psi_2 chain-map identity on 50 sampled monomial pairs
    from chain_support import d2_psi2, psi1_delta2

    rng = random.Random(22)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        k = tuple(rng.randrange(3) for _ in range(n))
        m = tuple(rng.randrange(3) for _ in range(n))
        assert d2_psi2(k, m) == psi1_delta2(k, m)

    # mu_1 two-cocycle identity on 100 sampled triples
    fam = build_preset("a_r1n", 2, 3)
    mu = Mu1(fam)
    triples = sample_cocycle_triples(2, 1, 3, 100, seed=23)
    assert cocycle_spot_check(mu, triples)
    _passline(8, "centralizer orders, determinant filter, chain map, two-cocycle identity")
