import random

import pytest

import heckeforge.polyforms
import oracles
from heckeforge.cyclo import one, root_of_unity
from heckeforge.group import (
    GroupElement,
    RepKind,
    det,
    elements,
    from_cycles,
    generators,
    identity,
    multiply,
    three_cycle,
    transposition,
    xi,
)
from heckeforge.hochschild import class_action, fixed_basis, hochschild_character
from heckeforge.polyforms import (
    CharacterError,
    CharacterTable,
    PolyForm,
    Polynomial,
    act_form,
    act_poly,
    basic_derivations,
    reynolds_semiinvariant_basis,
    solomon_check,
    subspace_action,
)
from oracles import (
    elementary_symmetric,
    invariant_ring_generators,
    reynolds_basis_by_walk,
    root_exponent,
    symmetric_group_derivations,
    trivial_character,
)

F = RepKind.FAITHFUL
P = RepKind.PERMUTATION


def sym_elements(n):
    """S_n embedded with r = 1."""
    return elements(1, 1, n)


def test_act_poly_substitution():
    f = Polynomial.monomial(2, (1, 2))
    assert act_poly(transposition(1, 2, 1, 2), f, F) == Polynomial.monomial(2, (2, 1))


def test_act_form_sign_and_scalar():
    w = PolyForm(2, {(1, 2): Polynomial.constant(2, 1)})
    res = act_form(xi(2, 2, 1), w, F)
    assert res == w.scale(-1)
    # swap of the two wedge indices contributes the sign
    res = act_form(transposition(1, 2, 1, 2), w, F)
    assert res == w.scale(-1)


def test_action_axiom():
    rng = random.Random(0)
    els = elements(3, 1, 3)
    for _ in range(15):
        g, h = rng.choice(els), rng.choice(els)
        f = Polynomial.monomial(
            3,
            tuple(rng.randrange(3) for _ in range(3)),
            root_of_unity(3, rng.randrange(3)),
        )
        assert act_poly(h, act_poly(g, f, F), F) == act_poly(multiply(h, g), f, F)
        w = PolyForm(3, {(1, 3): f})
        assert act_form(h, act_form(g, w, F), F) == act_form(multiply(h, g), w, F)


def test_act_form_preserves_bidegree():
    w = PolyForm(3, {(1, 2): Polynomial.monomial(3, (2, 1, 0))})
    res = act_form(three_cycle(3, 3, 1, 2, 3), w, F)
    assert res.poly_degree() == 3
    assert {len(S) for S in res.terms} == {2}


def test_elementary_symmetric():
    vs = [Polynomial.variable(3, i) for i in (1, 2, 3)]
    e2 = elementary_symmetric(2, vs)
    assert e2 == Polynomial(
        3, {(1, 1, 0): one(), (1, 0, 1): one(), (0, 1, 1): one()}
    )


def test_invariant_ring_generators():
    gens = invariant_ring_generators(2, 1, 2)
    assert gens[0] == Polynomial(2, {(2, 0): one(), (0, 2): one()})
    assert gens[1] == Polynomial.monomial(2, (2, 2))
    degrees = [g.degree() for g in gens]
    prod = 1
    for d in degrees:
        prod *= d
    assert prod == 8  # = |G(2,1,2)|


def test_generators_invariant_under_group():
    gens = invariant_ring_generators(3, 3, 3)
    for g in elements(3, 3, 3):
        for f in gens:
            assert act_poly(g, f, F) == f


def test_basic_derivations():
    th = basic_derivations(2, 1, 2)
    assert th[0] == PolyForm(
        2, {(1,): Polynomial.monomial(2, (1, 0)), (2,): Polynomial.monomial(2, (0, 1))}
    )
    assert th[1] == PolyForm(
        2, {(1,): Polynomial.monomial(2, (3, 0)), (2,): Polynomial.monomial(2, (0, 3))}
    )
    th = basic_derivations(2, 2, 2)
    assert th[1] == PolyForm(
        2, {(1,): Polynomial.monomial(2, (0, 1)), (2,): Polynomial.monomial(2, (1, 0))}
    )
    th = basic_derivations(3, 1, 4)
    assert th[0] == PolyForm(
        4,
        {
            (i,): Polynomial.monomial(4, tuple(1 if t == i - 1 else 0 for t in range(4)))
            for i in range(1, 5)
        },
    )


def test_solomon_check_passes_for_basic_derivations():
    res = solomon_check(basic_derivations(2, 1, 2), elements(2, 1, 2), F)
    assert res == {"invariant": True, "determinant_is_Q": True}
    res = solomon_check(basic_derivations(3, 3, 3), elements(3, 3, 3), F)
    assert res == {"invariant": True, "determinant_is_Q": True}


def test_solomon_check_repeated_entry():
    th = basic_derivations(2, 1, 2)
    res = solomon_check([th[0], th[0]], elements(2, 1, 2), F)
    assert res["determinant_is_Q"] is False


def test_solomon_check_flags_wrong_exponents_for_symmetric_blocks():
    # derivations with exponents (j-1)r+1, r = 2, on a symmetric-group block
    # acting by permutations: invariant, but det = v1 v2 (v2^2 - v1^2) is not
    # a scalar multiple of Q = v1 - v2
    thetas = basic_derivations(2, 1, 2)
    s2 = [GroupElement(2, 2, (0, 0), p.perm) for p in sym_elements(2)]
    res = solomon_check(thetas, s2, P)
    assert res == {"invariant": True, "determinant_is_Q": False}
    det = (
        thetas[0].terms[(1,)] * thetas[1].terms[(2,)]
        - thetas[0].terms[(2,)] * thetas[1].terms[(1,)]
    )
    assert det == Polynomial(2, {(1, 3): one(), (3, 1): -one()})
    # the corrected exponents j-1 do satisfy the determinant hypothesis
    fixed = symmetric_group_derivations(2)
    res = solomon_check(fixed, [GroupElement(1, 2, (0, 0), p.perm) for p in sym_elements(2)], P)
    assert res == {"invariant": True, "determinant_is_Q": True}


def test_reynolds_symmetrization():
    s2 = sym_elements(2)
    basis = reynolds_basis_by_walk(trivial_character(s2), F, 1, 0)
    assert basis == [PolyForm(2, {(): Polynomial(2, {(1, 0): one(), (0, 1): one()})})]


def test_reynolds_trivial_subgroup_gives_full_basis():
    e = [identity(1, 2)]
    basis = reynolds_basis_by_walk(trivial_character(e), F, 2, 1)
    assert len(basis) == 3 * 2


def _of_degree(basis, d):
    """The forms of polynomial degree d in a basis listed over every degree up to d."""
    return [b for b in basis if b.poly_degree() == d]


def test_reynolds_centralizer_example():
    # Z((1,2,3)) in G(1,1,4), chi = chi_g, degree 1, form degree 0 on V^g
    g = three_cycle(1, 4, 1, 2, 3)
    basis = _of_degree(reynolds_semiinvariant_basis(class_action(g, F, 1), 1, 0), 1)
    assert len(basis) == 2
    expected = [
        PolyForm(4, {(): Polynomial(4, {(1, 0, 0, 0): one(), (0, 1, 0, 0): one(), (0, 0, 1, 0): one()})}),
        PolyForm(4, {(): Polynomial.monomial(4, (0, 0, 0, 1))}),
    ]
    for b in basis:
        assert any(b == e for e in expected)


def test_reynolds_outputs_are_semiinvariant():
    g = three_cycle(3, 4, 1, 2, 3)
    chi = hochschild_character(g, F, 1)
    basis = _of_degree(reynolds_semiinvariant_basis(class_action(g, F, 1), 2, 0), 2)
    for s in basis:
        for h in chi.subgroup:
            assert act_form(h, s, F) == s.scale(chi(h))


def test_forms_on_interleaved_cycles_with_phases_are_invariant():
    # V^g has u_1 = zeta_3 v_1 + v_3 and u_2 = v_2 + v_4: powers of u_1 carry
    # phases, its dual carries the inverse phase and 1/2, and a wedge of the
    # two duals picks coordinates out of order (x_3 ^ x_2), where the
    # sorting sign matters
    g = from_cycles(3, 4, [(1, 3), (2, 4)], exps=(1, 0, 2, 0))
    fixed = fixed_basis(g, F)
    assert fixed == (((0, 1), (2, 0)), ((1, 0), (3, 0)))
    chi = trivial_character(hochschild_character(g, F, 1).subgroup)
    for d, k in [(3, 0), (1, 1), (5, 2)]:
        basis = reynolds_basis_by_walk(chi, F, d, k, fixed)
        assert basis, (d, k)
        for s in basis:
            for h in chi.subgroup:
                assert act_form(h, s, F) == s, (d, k, h)


def test_reynolds_dimension_independent_of_basis_order():
    s3 = sym_elements(3)
    chi = trivial_character(s3)
    std = tuple(((i, 0),) for i in range(3))
    dims = []
    for subspace in (std, std[::-1]):
        basis = reynolds_basis_by_walk(chi, F, 2, 1, subspace)
        dims.append(len(basis))
    assert dims[0] == dims[1]


def test_reynolds_rejects_non_monomial_subspace_basis():
    # v_1 + v_2, v_2 + v_3, v_3: a stable basis, but not on disjoint
    # supports, so S_3 does not permute it up to roots of unity
    chi = trivial_character(sym_elements(3))
    with pytest.raises(ValueError):
        reynolds_basis_by_walk(chi, F, 1, 0, (((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0),)))


def test_reynolds_dims_independent_of_root_of_unity_scaling():
    # the class route on the fixed basis, the oracle walk on the scaled one
    g = three_cycle(3, 4, 1, 2, 3)
    chi = hochschild_character(g, F, 1)
    fixed = fixed_basis(g, F)
    scaled = tuple(tuple((i, t + j + 1) for i, t in v) for j, v in enumerate(fixed))
    for d, k in [(0, 0), (2, 0), (3, 1), (4, 2)]:
        dims = [len(_of_degree(reynolds_semiinvariant_basis(class_action(g, F, 1), d, k), d)),
                len(reynolds_basis_by_walk(chi, F, d, k, scaled))]
        assert dims[0] == dims[1], (d, k, dims)


def test_subspace_action_on_fixed_space():
    g = three_cycle(3, 4, 1, 2, 3)
    fixed = fixed_basis(g, F)
    # xi_4 scales the v_4 line, the 3-cycle fixes the v_1 + v_2 + v_3 line
    assert subspace_action(xi(3, 4, 4), F, fixed) == ((0, 1), (0, 1))
    assert subspace_action(g, F, fixed) == ((0, 1), (0, 0))
    with pytest.raises(ValueError):
        subspace_action(transposition(3, 4, 3, 4), F, fixed)


def test_character_table_validation():
    # zeta_3 on a transposition: a root of unity, but not a character of
    # S_2; the table is held until a value is read
    s2 = sym_elements(2)
    bad = CharacterTable(1, 2, 6, s2[1:], [2], len(s2))
    with pytest.raises(CharacterError):
        bad(s2[1])


def test_exponent_walk_rejects_a_non_homomorphism():
    # s = (1,2) with chi(s) = zeta_6^2: s^2 = 1 but 2 * 2 != 0 mod 6.  The
    # walk that extends the values must also reach exactly the claimed
    # order: S_2's generator claimed as |S_3| = 6, and S_3's generators
    # claimed as |S_2| = 2
    s = transposition(1, 2, 1, 2)
    with pytest.raises(CharacterError):
        CharacterTable(1, 2, 6, [s], [2], 2).exponents
    assert CharacterTable(1, 2, 6, [s], [3], 2).exponents == {identity(1, 2): 0, s: 3}
    s3, gens3 = sym_elements(3), generators(1, 1, 3)
    with pytest.raises(CharacterError):
        CharacterTable(1, 3, 2, gens3[:1], [1], len(s3)).exponents
    with pytest.raises(CharacterError):
        CharacterTable(1, 3, 2, gens3, [1] * len(gens3), 2).exponents
    chi = CharacterTable(1, 3, 2, gens3, [1] * len(gens3), len(s3))
    assert chi.subgroup == s3 and len(chi.exponents) == 6


def test_multiplicativity_check_sees_every_element():
    # det on G(2,1,4) held on its generators and one more: an element that
    # a check sampling 60 x 4 pairs (every 6th element against the first
    # four of those) never touches.  The walk extends the values to det on
    # every element, and rejects the table once that element's value is
    # corrupted
    els = elements(2, 1, 4)
    sample = els[:: len(els) // 60]
    touched = set(sample) | {multiply(g, h) for g in sample for h in sample[:4]}
    target = next(h for h in els if h not in touched)
    gens = [*generators(2, 1, 4), target]
    exps = [root_exponent(det(h, F), 2) for h in gens]
    chi = CharacterTable(2, 4, 2, gens, exps, len(els))
    assert all(chi(h) == det(h, F) for h in els)
    exps[-1] += 1
    with pytest.raises(CharacterError):
        CharacterTable(2, 4, 2, gens, exps, len(els)).exponents


def test_exponent_table_answers_with_root_values():
    # det on G(3,1,2) as exponents mod 6 on generators gives back the
    # determinants on every element; the modulus must hold the sign and
    # zeta_3
    els = elements(3, 1, 2)
    gens = generators(3, 1, 2)
    exps = [root_exponent(det(h, F), 6) for h in gens]
    chi = CharacterTable(3, 2, 6, gens, exps, len(els))
    assert all(chi(h) == det(h, F) for h in els)
    with pytest.raises(ValueError):
        CharacterTable(3, 2, 3, gens, exps, len(els))


def test_reynolds_builds_action_data_once_per_table(monkeypatch):
    # the oracle walk on a fresh table on the generators of a cached one: no
    # degree lists or walks the subgroup, the generators' action data are
    # built on the first degree only, and every degree gives the class
    # route's dims
    g = three_cycle(3, 4, 1, 2, 3)
    cached = hochschild_character(g, F, 1)
    values = [cached.exponents[s] for s in cached.generators]
    chi = CharacterTable(3, 4, cached.order, cached.generators, values, cached.subgroup_order)
    assert not chi.is_trivial()
    calls = {"walk": 0, "subspace_actions": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(heckeforge.polyforms, "walk", counting("walk", heckeforge.polyforms.walk))
    monkeypatch.setattr(oracles, "subspace_actions", counting("subspace_actions", oracles.subspace_actions))
    fixed = fixed_basis(g, F)
    dims = []
    for d in range(4):
        dims.append(len(reynolds_basis_by_walk(chi, F, d, 0, fixed)))
        if d == 0:
            first = dict(calls)
    assert first == {"walk": 0, "subspace_actions": 1}
    assert calls == first
    assert dims == [
        len(_of_degree(reynolds_semiinvariant_basis(class_action(g, F, 1), d, 0), d))
        for d in range(4)
    ]
