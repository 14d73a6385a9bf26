import random

import pytest

import heckeforge.group
import heckeforge.hecke
import heckeforge.hochschild
import heckeforge.polyforms
from heckeforge.cli import main
from heckeforge.cyclo import root_of_unity
from heckeforge.group import (
    RepKind,
    centralizer_of,
    conjugacy_classes,
    conjugate,
    diag,
    elements,
    from_cycles,
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
from heckeforge.hecke import param_space, param_space_linear_oracle, three_cycle_classes
from heckeforge.polyforms import CharacterError, CharacterTable, restriction_matrix, subspace_actions
from caches import clear_caches
import oracles
from oracles import (
    dense_spaces, dimension_by_enumeration, generator_actions, semiinvariant_rows_by_walk, solved_centralizer
)

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


def test_frontier_dims_list_no_basis(monkeypatch):
    # G(2,1,8) under the faithful action up to degree 10: with the oracle
    # walk and the monomial listing of the rows raising, the dims still
    # come out and match the catalog, so the dims path lists no basis
    def refuse(*args):
        raise AssertionError("listed a basis")

    monkeypatch.setattr(oracles, "_phase_rows", refuse)
    monkeypatch.setattr(heckeforge.polyforms, "combinations_with_replacement", refuse)
    clear_caches()
    assert compare(hh2_total(2, 1, 8, F, 10), closed_form_catalog(2, 1, 8, F), 10).ok


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
    # on the perp basis, for every class.  Reading chi.exponents walks Z(g)
    # and proves that chi.generators generate Z(g) and that chi is a
    # homomorphism Z(g) -> mu_F; the dense side is one too, so they agree on
    # Z(g) iff they agree on the generators: above |G| = 400 only those are
    # compared, below it every h
    every = group_order(r, p, n) <= 400
    for cls in conjugacy_classes(r, p, n):
        g = cls.rep
        chi = hochschild_character(g, rep, p)
        Z = tuple(chi.exponents)  # keyed in subgroup order
        perp = dense_spaces(g, rep)[1]
        for h in Z if every else chi.generators:
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
    # the walk that reads `exponents` accepts generator values iff the
    # generators reach exactly Z(g) and the values, extended along the
    # test's own spanning tree, satisfy e(xy) = e(x) + e(y) on all pairs:
    # on every class character and on a copy with one generator value
    # corrupted
    verdicts = []
    for c, cls in enumerate(conjugacy_classes(r, p, n)):
        Z = solved_centralizer(cls.rep, p)
        index = {h: i for i, h in enumerate(Z)}
        table = [[index[multiply(x, y)] for y in Z] for x in Z]
        for rep in (F, P):
            chi = hochschild_character(cls.rep, rep, p)
            gens, F_ = chi.generators, chi.order
            values = [chi.exponents[s] for s in gens]
            corrupted = values[:]
            corrupted[c % len(gens)] += 1
            for vals in (values, corrupted):
                tree, frontier = {identity(r, n): 0}, [identity(r, n)]
                while frontier:
                    x = frontier.pop()
                    for s, v in zip(gens, vals):
                        y = multiply(x, s)
                        if y not in tree:
                            tree[y] = (tree[x] + v) % F_
                            frontier.append(y)
                assert tree.keys() == set(Z)
                e = [tree[h] for h in Z]
                all_pairs = all(
                    (e[i] + e[j] - e[k]) % F_ == 0
                    for i, row in enumerate(table)
                    for j, k in enumerate(row)
                )
                fresh = CharacterTable(r, n, F_, gens, vals, len(Z))
                walk = _passes(lambda: fresh.exponents)
                assert walk == all_pairs, (cls.rep, rep, vals)
                assert not walk or list(fresh.exponents.values()) == e
                verdicts.append(walk)
    # every class character passes, and some corrupted copy fails
    assert all(verdicts[::2]) and not all(verdicts[1::2])


def test_class_action_data_are_built_once(monkeypatch):
    # the det filter and every Reynolds degree read the cycles, with no
    # fixed-basis action of Z(g); the first read of the component's chi
    # builds the Hochschild character, which computes that action once, and
    # later reads share it; both for a proper fixed space and for the
    # coordinate basis of the identity
    calls = []
    real = heckeforge.polyforms.subspace_actions

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(heckeforge.polyforms, "subspace_actions", counting)
    monkeypatch.setattr(heckeforge.hochschild, "subspace_actions", counting)
    clear_caches()
    for g, m in [(three_cycle(3, 4, 1, 2, 3), 2), (identity(2, 3), 2)]:
        del calls[:]
        assert _passes_det_filter(g, F, 1)
        comp = hh_component(g, F, m, 4)
        assert not calls, g
        assert any(comp.dims_by_degree.values())
        chi = comp.chi
        assert len(calls) == 1, g
        assert comp.chi is chi is hochschild_character(g, F, 1) and len(calls) == 1, g
        # the kept generator triples are those a fresh table builds, and
        # each is the triple of its generator among all of Z(g)'s
        fixed = fixed_basis(g, F)
        values = [chi.exponents[s] for s in chi.generators]
        fresh = CharacterTable(chi.r, chi.n, chi.order, chi.generators, values, chi.subgroup_order)
        assert generator_actions(fresh, F, fixed) == generator_actions(chi, F, fixed)
        step = chi.order // g.r
        every = {
            (pi, tuple(t * step for t in texp), chi.exponents[h])
            for h, (pi, texp) in zip(chi.subgroup, real(chi.subgroup, F, fixed))
        }
        assert set(generator_actions(chi, F, fixed)) <= every


def test_phase_rows_walk_the_generators_only(monkeypatch):
    # the identity class of G(2,1,4) under the faithful action: the oracle
    # walk, over the degrees hh_component counts, receives one action per
    # generator of Z(1) = G at most, not one per distinct action of its 384
    # elements
    sizes = []
    real = oracles._phase_rows

    def recording(actions, order, monos, wedges):
        sizes.append(len(actions))
        return real(actions, order, monos, wedges)

    monkeypatch.setattr(oracles, "_phase_rows", recording)
    g = identity(2, 4)
    chi = hochschild_character(g, F, 1)
    Z = chi.subgroup
    assert len(set(subspace_actions(Z, F, fixed_basis(g, F)))) == 384
    assert any(hh_component(g, F, 2, 4).dims_by_degree.values())
    for d in range(5):
        semiinvariant_rows_by_walk(chi, F, d, 2, fixed_basis(g, F))
    assert sizes and max(sizes) <= len(centralizer_of(g, 1).generators) < 384, sizes


def test_the_class_path_lists_no_group_or_centralizer(monkeypatch):
    # classes, the det filter, the Reynolds walk and the linear oracle's
    # class-local rows read cycles and generators only: with every listing
    # route raising, the parameter spaces, both ways, brute-force HH^2, the
    # catalog and the three-cycle classes come out as before.  G(2,2,4) has
    # two split classes, each grown once as a class of G(2,1,4) and cut by
    # labels, with no listing of G or Z(g).  The HH class path reads Z(g)
    # only as class_action's integers: with the centralizer record and the
    # Hochschild character raising too, brute-force HH^2 with every skipped
    # class validated and the parameter spaces come out as before on the
    # acceptance groups under both actions.  The linear oracle reads the
    # record by design, so it runs before that refusal
    cases = [
        lambda: param_space(4, 1, 4, F).to_json(),
        lambda: param_space(3, 1, 4, P).to_json(),
        lambda: [param_space_linear_oracle(3, 1, 4, rep) for rep in (F, P)],
        lambda: [param_space_linear_oracle(2, 2, 4, rep) for rep in (F, P)],
        lambda: [c.to_json() for c in hh2_total(2, 1, 5, F, 4)],
        lambda: [c.to_json() for c in hh2_total(2, 2, 4, F, 4)],
        lambda: closed_form_catalog(2, 1, 5, F),
        lambda: three_cycle_classes(3, 4),
    ]
    class_path = [
        lambda r=r, p=p, n=n, rep=rep: (
            [c.to_json() for c in hh2_total(r, p, n, rep, 4, validate_skipped=True)],
            param_space(r, p, n, rep).to_json(),
        )
        for r, p, n in [(1, 1, 4), (2, 1, 4), (2, 2, 4), (3, 1, 4), (3, 3, 4), (4, 2, 4), (3, 1, 3)]
        for rep in (F, P)
    ]
    before = [case() for case in cases]
    before_class_path = [case() for case in class_path]

    def refuse(*args):
        raise AssertionError(f"listed {args}")

    for module, name in [
        (heckeforge.group, "_elements"),
        (heckeforge.group, "centralizer"),
        (heckeforge.group, "closure"),
        (heckeforge.polyforms, "walk"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    clear_caches()
    assert [case() for case in cases] == before
    for module, name in [
        (heckeforge.group, "centralizer_of"),
        (heckeforge.hochschild, "centralizer_of"),
        (heckeforge.hecke, "centralizer_of"),
        (heckeforge.hochschild, "hochschild_character"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    clear_caches()
    assert [case() for case in class_path] == before_class_path


def test_dims_are_counted_without_assembling_a_basis(monkeypatch, capsys):
    # hh2_total, param_space, the acceptance compare and `hh --compare`
    # read dims off the orbit counts: with the assembly of basis elements
    # raising, they come out as before; `hh --basis` still assembles
    def cli(*argv):
        assert main(["--format", "json", "hh", *argv]) == 0
        return capsys.readouterr().out

    cases = [
        lambda: [c.to_json() for c in hh2_total(2, 1, 5, F, 6)],
        lambda: param_space(4, 1, 4, F).to_json(),
        lambda: compare(hh2_total(3, 1, 3, P, 6, validate_skipped=True), closed_form_catalog(3, 1, 3, P), 6).rows,
        lambda: cli("--r", "2", "--p", "1", "--n", "4", "--rep", "faithful", "--max-degree", "10", "--compare"),
    ]
    before = [case() for case in cases]
    real = heckeforge.polyforms._assemble_polyform

    def refuse(*args):
        raise AssertionError("assembled a basis element")

    monkeypatch.setattr(heckeforge.polyforms, "_assemble_polyform", refuse)
    assert [case() for case in cases] == before
    assembled = []

    def counted(*args):
        assembled.append(args[0])
        return real(*args)

    monkeypatch.setattr(heckeforge.polyforms, "_assemble_polyform", counted)
    out = cli("--r", "2", "--p", "2", "--n", "4", "--rep", "faithful", "--max-degree", "4", "--basis")
    assert assembled and len(assembled) == out.count('"components"') - 1
