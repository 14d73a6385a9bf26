import random
from fractions import Fraction

import pytest

import heckeforge.group
import heckeforge.polyforms
from heckeforge.cyclo import one, root_of_unity
from heckeforge.group import (
    GroupElement,
    RepKind,
    det,
    elements,
    identity,
    multiply,
    three_cycle,
    transposition,
    xi,
)
from heckeforge.hochschild import fixed_space, hochschild_character, perp_space
from heckeforge.polyforms import (
    CharacterError,
    CharacterTable,
    PolyForm,
    Polynomial,
    act_form,
    act_poly,
    basic_derivations,
    elementary_symmetric,
    invariant_ring_generators,
    reynolds_apply,
    reynolds_semiinvariant_basis,
    solomon_check,
    subspace_action,
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
    assert res.form_degrees() == {2}


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
        thetas[0].components[(1,)] * thetas[1].components[(2,)]
        - thetas[0].components[(2,)] * thetas[1].components[(1,)]
    )
    assert det == Polynomial(2, {(1, 3): one(), (3, 1): -one()})
    # the corrected exponents j-1 do satisfy the determinant hypothesis
    fixed = symmetric_group_derivations(2)
    res = solomon_check(fixed, [GroupElement(1, 2, (0, 0), p.perm) for p in sym_elements(2)], P)
    assert res == {"invariant": True, "determinant_is_Q": True}


def test_reynolds_symmetrization():
    s2 = sym_elements(2)
    basis = reynolds_semiinvariant_basis(s2, trivial_character(s2), F, 1, 0)
    assert basis == [PolyForm(2, {(): Polynomial(2, {(1, 0): one(), (0, 1): one()})})]


def test_reynolds_trivial_subgroup_gives_full_basis():
    e = [identity(1, 2)]
    basis = reynolds_semiinvariant_basis(e, trivial_character(e), F, 2, 1)
    assert len(basis) == 3 * 2


def test_reynolds_centralizer_example():
    # Z((1,2,3)) in G(1,1,4), chi = chi_g, degree 1, form degree 0 on V^g
    g = three_cycle(1, 4, 1, 2, 3)
    chi = hochschild_character(g, F, 1)
    basis = reynolds_semiinvariant_basis(
        list(chi.subgroup), chi, F, 1, 0,
        subspace=fixed_space(g, F), complement=perp_space(g, F),
    )
    assert len(basis) == 2
    expected = [
        PolyForm(4, {(): Polynomial(4, {(1, 0, 0, 0): one(), (0, 1, 0, 0): one(), (0, 0, 1, 0): one()})}),
        PolyForm(4, {(): Polynomial.monomial(4, (0, 0, 0, 1))}),
    ]
    for b in basis:
        assert any(b == e for e in expected)


def test_reynolds_projector_idempotent():
    s3 = sym_elements(3)
    chi = trivial_character(s3)
    pf = PolyForm(
        3,
        {
            (1,): Polynomial.monomial(3, (1, 0, 2)),
            (2,): Polynomial.monomial(3, (0, 1, 1), Fraction(2, 3)),
        },
    )
    p1 = reynolds_apply(s3, chi, F, pf)
    assert reynolds_apply(s3, chi, F, p1) == p1


def test_reynolds_outputs_are_semiinvariant():
    g = three_cycle(3, 4, 1, 2, 3)
    chi = hochschild_character(g, F, 1)
    basis = reynolds_semiinvariant_basis(
        list(chi.subgroup), chi, F, 2, 0,
        subspace=fixed_space(g, F), complement=perp_space(g, F),
    )
    for s in basis:
        for h in chi.subgroup:
            assert act_form(h, s, F) == s.scale(chi(h))


def test_reynolds_dimension_independent_of_basis_order():
    s3 = sym_elements(3)
    chi = trivial_character(s3)
    std = [tuple(1 if j == i else 0 for j in range(3)) for i in range(3)]
    dims = []
    for subspace in (std, list(reversed(std))):
        basis = reynolds_semiinvariant_basis(
            s3, chi, F, 2, 1, subspace=subspace, complement=[]
        )
        dims.append(len(basis))
    assert dims[0] == dims[1]


def test_reynolds_rejects_non_monomial_subspace_basis():
    # a stable basis that the group does not permute up to roots of unity
    s3 = sym_elements(3)
    chi = trivial_character(s3)
    for funny in ([(1, 1, 1), (1, -1, 0), (0, 1, -1)], [(1, 1, 0), (0, 1, 1), (0, 0, 1)]):
        with pytest.raises(ValueError):
            reynolds_semiinvariant_basis(s3, chi, F, 1, 0, subspace=funny, complement=[])


def test_reynolds_dims_independent_of_root_of_unity_scaling():
    g = three_cycle(3, 4, 1, 2, 3)
    chi = hochschild_character(g, F, 1)
    fixed = fixed_space(g, F)
    scaled = [
        tuple(c * root_of_unity(3, j + 1) for c in v) for j, v in enumerate(fixed)
    ]
    for d, k in [(0, 0), (2, 0), (3, 1), (4, 2)]:
        dims = [
            len(
                reynolds_semiinvariant_basis(
                    list(chi.subgroup), chi, F, d, k, subspace=basis, complement=perp_space(g, F)
                )
            )
            for basis in (fixed, scaled)
        ]
        assert dims[0] == dims[1], (d, k, dims)


def test_subspace_action_on_fixed_space():
    g = three_cycle(3, 4, 1, 2, 3)
    fixed = fixed_space(g, F)
    # xi_4 scales the v_4 line, the 3-cycle fixes the v_1 + v_2 + v_3 line
    assert subspace_action(xi(3, 4, 4), F, fixed) == ((0, 1), (0, 1))
    assert subspace_action(g, F, fixed) == ((0, 1), (0, 0))
    with pytest.raises(ValueError):
        subspace_action(transposition(3, 4, 3, 4), F, fixed)


def test_character_table_validation():
    s2 = sym_elements(2)
    bad = CharacterTable(tuple(s2), {s2[0]: one(), s2[1]: one() + one()})
    with pytest.raises(CharacterError):
        bad.check_multiplicative()
    with pytest.raises(CharacterError):
        reynolds_semiinvariant_basis(s2, bad, F, 1, 0)


def test_multiplicativity_check_sees_every_element():
    # det on all of G(2,1,4), corrupted at an element that a check sampling
    # 60 x 4 pairs (every 6th element against the first four of those) never
    # touches; the check on generators covers every element
    els = elements(2, 1, 4)
    sample = els[:: len(els) // 60]
    touched = set(sample) | {multiply(g, h) for g in sample for h in sample[:4]}
    target = next(h for h in els if h not in touched)
    values = {h: det(h, F) for h in els}
    CharacterTable(els, values).check_multiplicative()
    values[target] = -values[target]
    with pytest.raises(CharacterError):
        CharacterTable(els, values).check_multiplicative()


def test_value_table_answers_with_its_values():
    # a table built from cyclotomic values keeps only their exponents and
    # gives back equal values
    els = elements(3, 1, 2)
    values = {h: det(h, F) for h in els}
    chi = CharacterTable(els, values)
    assert chi.order == 6
    assert all(chi(h) == values[h] for h in els)


def test_reynolds_verifies_and_builds_action_data_once_per_table(monkeypatch):
    g = three_cycle(3, 4, 1, 2, 3)
    cached = hochschild_character(g, F, 1)
    chi = CharacterTable.from_exponents(cached.subgroup, cached.order, cached.exponents)
    assert not chi.is_trivial()
    calls = {"multiply": 0, "subspace_actions": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(heckeforge.group, "multiply", counting("multiply", multiply))
    monkeypatch.setattr(
        heckeforge.polyforms,
        "subspace_actions",
        counting("subspace_actions", heckeforge.polyforms.subspace_actions),
    )
    fixed, perp = fixed_space(g, F), perp_space(g, F)
    dims = []
    for d in range(4):
        dims.append(
            len(reynolds_semiinvariant_basis(chi.subgroup, chi, F, d, 0, subspace=fixed, complement=perp))
        )
        if d == 0:
            first = dict(calls)
    assert first["multiply"] > 0 and first["subspace_actions"] == 1
    assert calls == first
    assert dims == [
        len(reynolds_semiinvariant_basis(cached.subgroup, cached, F, d, 0, subspace=fixed, complement=perp))
        for d in range(4)
    ]


def test_reynolds_requires_the_character_subgroup():
    s3 = sym_elements(3)
    with pytest.raises(ValueError):
        reynolds_semiinvariant_basis(s3[:2], trivial_character(s3), F, 1, 0)
