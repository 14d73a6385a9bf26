import random

import pytest

import heckeforge.hochschild
import heckeforge.polyforms
from heckeforge.cyclo import root_of_unity
from heckeforge.group import (
    RepKind,
    centralizer,
    conjugacy_classes,
    conjugate,
    diag,
    elements,
    from_cycles,
    generators_by_closure,
    group_order,
    identity,
    multiply,
    three_cycle,
    xi,
)
from heckeforge.hochschild import (
    CatalogEntry,
    FreeModuleDescription,
    NotApplicableError,
    ZERO_MODULE,
    _passes_det_filter,
    closed_form_catalog,
    compare,
    fixed_basis,
    fixed_space,
    hh2_total,
    hh_component,
    hochschild_character,
    identity_component_module,
    neg_transposition_component_module,
    opposed_diagonal_component_module,
    permutation_diagonal_module,
    permutation_three_cycle_module,
    three_cycle_component_module,
)
from heckeforge.polyforms import CharacterError, CharacterTable, restriction_matrix
from oracles import dense_spaces, dimension_by_enumeration

F = RepKind.FAITHFUL
P = RepKind.PERMUTATION


def test_fixed_and_perp_spaces():
    g = three_cycle(3, 4, 1, 2, 3)
    fixed = fixed_space(g, F)
    assert len(fixed) == 2 and len(dense_spaces(g, F)[1]) == 2
    # V^g contains v_1+v_2+v_3 and v_4
    span_check = [v for v in fixed if all(v[i] == v[0] for i in range(3))]
    assert span_check
    g = identity(3, 3)
    assert len(fixed_space(g, F)) == 3 and not dense_spaces(g, F)[1]
    # diagonal matrices act trivially under the permutation representation
    assert len(fixed_space(xi(3, 3, 1), P)) == 3 and not dense_spaces(xi(3, 3, 1), P)[1]


def test_hochschild_character_values():
    g = three_cycle(1, 4, 1, 2, 3)
    chi = hochschild_character(g, F, 1)
    assert chi(g) == 1
    g = three_cycle(2, 4, 1, 2, 3)
    chi = hochschild_character(g, F, 1)
    assert chi(diag(2, 4, (1, 1, 1, 0))) == 1
    g = three_cycle(3, 4, 1, 2, 3)
    chi = hochschild_character(g, F, 1)
    assert chi(diag(3, 4, (1, 1, 1, 0))) == root_of_unity(3, 2)


def test_character_trivial_for_empty_perp():
    chi = hochschild_character(identity(2, 3), F, 1)
    assert all(chi(h) == 1 for h in chi.subgroup)


def test_hh_component_examples():
    # opposed diagonal in G(3,3,3): dims 1 at degrees 2 and 5
    comp = hh_component(diag(3, 3, (1, 2, 0)), F, 2, 5, p=3)
    assert comp.dims_by_degree == {0: 0, 1: 0, 2: 1, 3: 0, 4: 0, 5: 1}
    # (1,2) xi_3 in G(3,1,4): zero
    comp = hh_component(from_cycles(3, 4, [(1, 2)], exps=(0, 0, 1, 0)), F, 2, 4)
    assert comp.is_zero()
    # xi_1 xi_2 in G(2,2,4): zero
    comp = hh_component(diag(2, 4, (1, 1, 0, 0)), F, 2, 4, p=2)
    assert comp.is_zero()


def test_negative_exterior_power_is_zero():
    comp = hh_component(three_cycle(2, 4, 1, 2, 3), F, 1, 3)
    assert comp.is_zero()


def test_hh2_total_s4():
    comps = hh2_total(1, 1, 4, F, 4, validate_skipped=True)
    assert len(comps) == 2
    codims = sorted(c.codim for c in comps)
    assert codims == [0, 2]


def test_hh2_total_wb4_classes():
    comps = hh2_total(2, 1, 4, F, 4)
    assert len(comps) == 3
    cases = {closed_form_catalog(2, 1, 4, F)[c.rep].case for c in comps}
    assert cases == {"identity", "three_cycle", "neg_transposition"}


def test_hh2_total_permutation_class_shapes():
    comps = hh2_total(3, 1, 3, P, 2)
    cat = closed_form_catalog(3, 1, 3, P)
    assert {cat[c.rep].case for c in comps} <= {"diagonal", "diagonal_three_cycle"}


def test_hh2_total_permutation_g314_exact_class_list():
    # nonzero classes are exactly the diagonal classes and the
    # diagonal-times-3-cycle classes
    comps = hh2_total(3, 1, 4, P, 2)
    cat = closed_form_catalog(3, 1, 4, P)
    nonzero = {c.rep for c in comps}
    expected = {
        rep for rep, entry in cat.items() if entry.case in ("diagonal", "diagonal_three_cycle")
    }
    assert nonzero == expected


def test_conjugate_representatives_have_equal_dims():
    rng = random.Random(5)
    g = three_cycle(2, 3, 1, 2, 3)
    comp = hh_component(g, F, 2, 3)
    for _ in range(3):
        h = rng.choice(elements(2, 1, 3))
        comp2 = hh_component(conjugate(g, h), F, 2, 3)
        assert comp2.dims_by_degree == comp.dims_by_degree


def test_codim_one_classes_are_zero():
    for (r, p, n) in [(2, 1, 3), (3, 1, 3)]:
        for cls in conjugacy_classes(r, p, n):
            if n - len(fixed_space(cls.rep, F)) == 1:
                assert hh_component(cls.rep, F, 2, 3, p).is_zero()


def test_det_filter_necessary_condition_small_group():
    rng = random.Random(6)
    for g in rng.sample(elements(2, 1, 3), 16):
        for m in range(3):
            comp = hh_component(g, F, m, 2)
            if not comp.is_zero():
                from heckeforge.group import det

                assert det(g, F) == 1
                for h in comp.chi.subgroup:
                    from heckeforge.hochschild import _fixes_space_pointwise

                    if _fixes_space_pointwise(h, F, comp.fixed_basis):
                        assert det(h, F) == 1


def test_free_module_description_counting():
    fmd = FreeModuleDescription((2, 4), (0, 4))
    for d in range(9):
        assert fmd.dimension(d) == dimension_by_enumeration(fmd, d)
    assert fmd.dimension(0) == 1
    assert fmd.dimension(4) == 3  # f1^2, f2, gen4
    assert FreeModuleDescription((), ()).dimension(0) == 0
    with pytest.raises(ValueError):
        FreeModuleDescription((0,), ())


def test_closed_form_builders():
    # opposed diagonal for r=3, n=3: base {3}, generator degree {2}
    fmd = opposed_diagonal_component_module(3, 3)
    assert fmd.base_generator_degrees == (3,)
    assert fmd.module_generator_degrees == (2,)
    # the (1,-2) component for r=2, p=1, n=4: generators at every i in [0,2)
    fmd = neg_transposition_component_module(2, 1, 4)
    assert fmd.module_generator_degrees == (0, 4)
    assert fmd.base_generator_degrees == (2, 8)
    # r = 2p with an empty congruence set: zero module
    assert neg_transposition_component_module(4, 2, 4) is ZERO_MODULE
    with pytest.raises(NotApplicableError):
        neg_transposition_component_module(3, 1, 4)
    # S_4 three-cycle component is the polynomial ring on degrees {1, 1}
    fmd = three_cycle_component_module(1, 1, 4)
    assert fmd.dims_up_to(6) == {d: d + 1 for d in range(7)}


def test_identity_component_degrees():
    fmd = identity_component_module(2, 1, 2)
    assert fmd.base_generator_degrees == (2, 4)
    assert fmd.module_generator_degrees == (4,)  # theta_1 ^ theta_2, degrees 1+3


def test_permutation_builders():
    fmd = permutation_diagonal_module((2, 1))
    assert fmd.base_generator_degrees == (1, 1, 2)
    assert sorted(fmd.module_generator_degrees) == [0, 1, 1]
    fmd = permutation_three_cycle_module((2,))
    assert fmd.base_generator_degrees == (1, 1, 2)
    assert fmd.module_generator_degrees == (0,)


def test_catalog_not_applicable():
    with pytest.raises(NotApplicableError):
        closed_form_catalog(2, 1, 3, F)
    with pytest.raises(NotApplicableError):
        closed_form_catalog(2, 2, 4, P)
    with pytest.raises(NotApplicableError):
        closed_form_catalog(2, 1, 2, P)


def test_compare_wb4():
    comps = hh2_total(2, 1, 4, F, 4)
    cat = closed_form_catalog(2, 1, 4, F)
    report = compare(comps, cat, 4)
    assert report.ok


def test_compare_detects_corruption():
    comps = hh2_total(1, 1, 4, F, 4)
    cat = dict(closed_form_catalog(1, 1, 4, F))
    victim = next(rep for rep, entry in cat.items() if entry.case == "three_cycle")
    fmd = cat[victim].module
    cat[victim] = CatalogEntry(
        "three_cycle",
        FreeModuleDescription(
            fmd.base_generator_degrees,
            tuple(d + 1 for d in fmd.module_generator_degrees),
        ),
    )
    report = compare(comps, cat, 4)
    assert not report.ok
    assert len(report.mismatches) >= 1


def test_compare_reports_a_class_the_catalog_lacks():
    comps = hh2_total(2, 1, 4, F, 4)
    cat = {g: entry for g, entry in closed_form_catalog(2, 1, 4, F).items() if not g.is_identity()}
    report = compare(comps, cat, 4)
    (row,) = report.mismatches
    assert row.rep == identity(2, 4) and row.case == "missing_from_catalog"
    assert row.brute_dims == {0: 0, 1: 0, 2: 0, 3: 0, 4: 1}
    assert row.closed_dims == {d: 0 for d in range(5)}


def test_validate_skipped_passes_on_small_groups():
    hh2_total(2, 2, 3, F, 2, validate_skipped=True)
    hh2_total(2, 1, 3, P, 2, validate_skipped=True)


def test_permutation_diag_degree0_detects_cross_block_invariants():
    # blocks of sizes >= 2 produce degree-0 two-forms like x1 ^ (x2+x3);
    # this is the count the closed form predicts, C(k, 2)
    comp = hh_component(xi(2, 3, 1), P, 2, 0)
    assert comp.dims_by_degree[0] == 1
    comp = hh_component(identity(2, 3), P, 2, 0)
    assert comp.dims_by_degree[0] == 0


def _character_cases():
    from test_acceptance import FAITHFUL_CASES, NONFAITHFUL_CASES
    from test_catalog_extended import EXTENDED_CASES

    cases = {(r, p, n, F) for r, p, n in FAITHFUL_CASES}
    cases |= {(r, 1, n, P) for r, n in NONFAITHFUL_CASES}
    cases |= {(r, p, n, rep) for r, p, n, rep, _ in EXTENDED_CASES}
    return sorted(cases)


@pytest.mark.parametrize("r,p,n,rep", _character_cases())
def test_character_matches_dense_restriction(r, p, n, rep):
    # the monomial det(h|V) / det(h|V^g) against the dense determinant of h
    # on the perp basis, for every class.  Once check_multiplicative passes,
    # both sides are homomorphisms Z(g) -> mu_F, so they agree on Z(g) iff
    # they agree on a generating set: above |G| = 400 only the generators
    # that generators_by_closure returns are compared, below it every h
    every = group_order(r, p, n) <= 400
    for cls in conjugacy_classes(r, p, n):
        g = cls.rep
        chi = hochschild_character(g, rep, p)
        chi.check_multiplicative()
        perp = dense_spaces(g, rep)[1]
        Z = chi.subgroup
        for h in Z if every else [Z[s] for s in generators_by_closure(Z)[0]]:
            dense = restriction_matrix(h, rep, perp).determinant() if perp else 1
            assert chi(h) == dense, (g, h, rep)


def _passes(check):
    try:
        check()
    except CharacterError:
        return False
    return True


@pytest.mark.parametrize("r,p,n", [(3, 1, 3), (2, 1, 4)])
def test_generator_check_matches_all_pairs_check(r, p, n):
    # the closure's generators reach exactly Z(g), and the check on them
    # accepts a table iff e(xy) = e(x) + e(y) holds for all pairs, on every
    # class character and on a copy corrupted at one element
    for cls in conjugacy_classes(r, p, n):
        Z = centralizer(cls.rep, p)
        gens, _ = generators_by_closure(Z)
        reached, frontier = {identity(r, n)}, [identity(r, n)]
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = multiply(x, Z[s])
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        assert reached == set(Z)
        assert 2 ** len(gens) <= len(Z)
        index = {h: i for i, h in enumerate(Z)}
        table = [[index[multiply(x, y)] for y in Z] for x in Z]
        for rep in (F, P):
            chi = hochschild_character(cls.rep, rep, p)
            F_ = chi.order
            corrupted = dict(chi.exponents)
            corrupted[Z[-1]] += 1
            results = []
            for exps in (chi.exponents, corrupted):
                e = [exps[h] for h in Z]
                all_pairs = all(
                    (e[i] + e[j] - e[k]) % F_ == 0
                    for i, row in enumerate(table)
                    for j, k in enumerate(row)
                )
                fresh = CharacterTable(Z, F_, exps)
                results.append((_passes(fresh.check_multiplicative), all_pairs))
            assert results == [(True, True), (False, False)], (cls.rep, rep)


def test_class_action_data_are_built_once(monkeypatch):
    # the Hochschild character computes the fixed-basis action of Z(g) once;
    # the det filter and every Reynolds degree read it from the table, both
    # for a proper fixed space and for the coordinate basis of the identity
    calls = []
    real = heckeforge.polyforms.subspace_actions

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(heckeforge.polyforms, "subspace_actions", counting)
    monkeypatch.setattr(heckeforge.hochschild, "subspace_actions", counting)
    heckeforge.hochschild._hochschild_character.cache_clear()
    for g, m in [(three_cycle(3, 4, 1, 2, 3), 2), (identity(2, 3), 2)]:
        del calls[:]
        assert _passes_det_filter(g, F, 1)
        dims = hh_component(g, F, m, 4).dims_by_degree
        assert len(calls) == 1, g
        assert any(dims.values())
        chi = hochschild_character(g, F, 1)
        fresh = CharacterTable(chi.subgroup, chi.order, chi.exponents)
        assert fresh.actions(F, fixed_basis(g, F)) == chi.actions(F, fixed_basis(g, F))
