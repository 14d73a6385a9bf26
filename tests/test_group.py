import random
from itertools import permutations
from math import lcm

import pytest

from heckeforge.cyclo import CycloMatrix, root_of_unity
from heckeforge.group import (
    BudgetExceededError,
    GroupElement,
    RepKind,
    centralizer,
    centralizer_order_formula,
    conjugacy_classes,
    conjugate,
    cycle_type,
    det,
    det_exponent,
    diag,
    elements,
    from_cycles,
    generators,
    group_order,
    identity,
    in_subgroup,
    inverse,
    monomial_action,
    multiply,
    perm_sign,
    three_cycle,
    transposition,
    xi,
)
from oracles import act, class_members, coact, conjugate_in_full_group, matrix, sort_with_sign

F = RepKind.FAITHFUL
P = RepKind.PERMUTATION


def test_neg_transposition_squares_to_minus_identity():
    # (1,-2) = xi_2^{r/2} (1,2) acts by v_1 -> -v_2, v_2 -> v_1, so its
    # square is -I = xi_1 xi_2
    g = from_cycles(2, 2, [(1, 2)], exps=(0, 1))
    assert act(g, 1, F) == (2, root_of_unity(2, 1))
    assert act(g, 2, F) == (1, root_of_unity(2, 0))
    assert multiply(g, g) == diag(2, 2, (1, 1))


def test_identity_is_neutral():
    rng = random.Random(0)
    els = elements(3, 1, 3)
    e = identity(3, 3)
    for g in rng.sample(els, 10):
        assert multiply(g, e) == g
        assert multiply(e, g) == g


def test_multiplication_matches_matrix_product():
    rng = random.Random(1)
    els = elements(3, 1, 3)
    for _ in range(25):
        g, h = rng.choice(els), rng.choice(els)
        assert matrix(multiply(g, h)) == matrix(g) * matrix(h)


def test_inverse_matrix():
    rng = random.Random(2)
    for g in rng.sample(elements(3, 1, 3), 12):
        assert matrix(inverse(g)) * matrix(g) == CycloMatrix.identity(3, 3)


def test_actions():
    assert act(xi(3, 3, 1), 1, F) == (1, root_of_unity(3))
    assert act(xi(3, 3, 1), 1, P) == (1, root_of_unity(3, 0))
    assert coact(xi(3, 3, 1), 1, F) == (1, root_of_unity(3, 2))


def test_coact_is_contragredient():
    rng = random.Random(3)
    for g in rng.sample(elements(3, 1, 3), 12):
        gi = inverse(g)
        for i in range(1, 4):
            j, s = coact(g, i, F)
            jj, ss = act(gi, j, F)
            assert jj == i and ss == s


def test_in_subgroup():
    assert in_subgroup(diag(3, 3, (1, 2, 0)), 3)
    assert in_subgroup(identity(4, 2), 4)
    assert not in_subgroup(xi(2, 2, 1), 2)
    with pytest.raises(ValueError):
        in_subgroup(identity(3, 2), 2)


def test_cycle_type_and_full_group_conjugacy():
    g = three_cycle(3, 4, 1, 2, 3)
    assert cycle_type(g).pairs == ((0, 1, 1), (0, 3, 1))
    # xi_3^b (1,2,3) are pairwise non-conjugate for b = 0..r-1
    reps = [from_cycles(3, 3, [(1, 2, 3)], exps=(0, 0, b)) for b in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not conjugate_in_full_group(reps[i], reps[j])
    # and the brute-force classes agree
    classes = conjugacy_classes(3, 1, 3)
    owners = [next(c for c in classes if rep in class_members(c.rep, 3, 1, 3)) for rep in reps]
    assert len({id(c) for c in owners}) == 3


def test_cycle_type_conjugation_invariant():
    rng = random.Random(4)
    els = elements(2, 1, 4)
    for _ in range(25):
        g, h = rng.choice(els), rng.choice(els)
        assert cycle_type(g) == cycle_type(conjugate(g, h))
        assert conjugate_in_full_group(g, conjugate(g, h))


def test_centralizer_order_examples():
    g = three_cycle(3, 4, 1, 2, 3)
    assert centralizer_order_formula(g) == 27
    assert len(centralizer(g, 1)) == 27
    assert len(centralizer(identity(2, 3), 1)) == 48


def test_centralizer_formula_on_all_classes():
    for (r, p, n) in [(3, 1, 3), (2, 1, 4)]:
        for cls in conjugacy_classes(r, p, n):
            assert len(centralizer(cls.rep, 1)) == centralizer_order_formula(cls.rep)
            assert cls.size * centralizer_order_formula(cls.rep) == group_order(r, 1, n)


def test_enumeration_matches_order_formula():
    for (r, p, n) in [(1, 1, 4), (2, 1, 3), (2, 2, 4), (3, 3, 3), (4, 2, 3)]:
        assert len(elements(r, p, n)) == group_order(r, p, n)


def test_class_sizes_partition_the_group():
    classes = conjugacy_classes(2, 2, 4)
    assert sum(c.size for c in classes) == group_order(2, 2, 4) == 192


def test_class_reps_are_lex_minimal():
    for cls in conjugacy_classes(2, 1, 3):
        assert cls.rep == min(class_members(cls.rep, 2, 1, 3), key=GroupElement.sort_key)


def test_cycle_type_constant_on_classes():
    for cls in conjugacy_classes(3, 1, 3):
        assert all(cycle_type(m) == cycle_type(cls.rep) for m in class_members(cls.rep, 3, 1, 3))


def test_budget():
    with pytest.raises(BudgetExceededError):
        elements(10, 1, 6, budget=1000)


def test_json_round_trip():
    g = from_cycles(3, 4, [(1, 2, 3)], exps=(0, 0, 1, 0))
    assert GroupElement.from_json(g.to_json()) == g
    assert g.to_json() == {"r": 3, "n": 4, "exps": [0, 0, 1, 0], "perm": [2, 3, 1, 4]}


def test_perm_sign_matches_insertion_sort():
    # every tuple of distinct values from range(6), of every length 0..6
    for k in range(7):
        for t in permutations(range(6), k):
            assert perm_sign(t) == sort_with_sign(t)[1], t


def _det_groups():
    from test_acceptance import FAITHFUL_CASES, NONFAITHFUL_CASES
    from test_catalog_extended import EXTENDED_CASES

    groups = set(FAITHFUL_CASES) | {(r, 1, n) for r, n in NONFAITHFUL_CASES}
    groups |= {(r, p, n) for r, p, n, _, _ in EXTENDED_CASES}
    return sorted(g for g in groups if group_order(*g) <= 400)


@pytest.mark.parametrize("r,p,n", _det_groups())
@pytest.mark.parametrize("rep", [RepKind.FAITHFUL, RepKind.PERMUTATION], ids=lambda k: k.value)
def test_det_exponent_matches_the_dense_determinant(r, p, n, rep):
    order = lcm(2, r)
    for g in elements(r, p, n):
        e = det_exponent(*monomial_action(g, rep), r)
        assert 0 <= e < order
        dense = matrix(g, rep).determinant()
        assert root_of_unity(order, e) == dense and det(g, rep) == dense, (g, rep)


def test_permutation_action_factors_through_quotient():
    g = xi(3, 3, 1)
    assert matrix(g, P) == CycloMatrix.identity(3, 1)
    s = transposition(3, 3, 1, 2)
    assert matrix(multiply(g, s), P) == matrix(s, P)


# -- the combinatorial class and centralizer layer against brute force ---------

# Every acceptance and extended group with |G| <= 5000, plus small edge cases:
# rank 1, p = r, and p strictly between 1 and r.
ORACLE_GROUPS = [
    (1, 1, 3), (2, 1, 3), (3, 1, 3), (4, 1, 3),
    (1, 1, 4), (2, 1, 4), (2, 2, 4), (3, 1, 4), (3, 3, 4), (4, 2, 4), (4, 4, 4),
    (2, 1, 5),
    (1, 1, 1), (2, 1, 1), (3, 3, 1), (2, 2, 2), (4, 4, 2), (6, 2, 3), (6, 3, 3),
]


def brute_force_classes(r, p, n):
    """(rep, size, members) per class: each lex-min unseen element conjugated
    by every element of G."""
    seen = set()
    classes = []
    for g in elements(r, p, n):
        if g in seen:
            continue
        orbit = class_members(g, r, p, n)
        seen.update(orbit)
        classes.append((g, len(orbit), orbit))
    return classes


def brute_force_centralizer(g, p):
    return tuple(h for h in elements(g.r, p, g.n) if multiply(g, h) == multiply(h, g))


@pytest.mark.parametrize("r,p,n", ORACLE_GROUPS)
def test_classes_and_centralizers_match_brute_force(r, p, n):
    classes = conjugacy_classes(r, p, n)
    brute = brute_force_classes(r, p, n)
    assert [(c.rep, c.size) for c in classes] == [(rep, size) for rep, size, _ in brute]
    for cls in classes:
        assert tuple(centralizer(cls.rep, p)) == brute_force_centralizer(cls.rep, p)
    # and at a member that is not the representative
    g = max(brute[-1][2], key=GroupElement.sort_key)
    assert tuple(centralizer(g, p)) == brute_force_centralizer(g, p)


@pytest.mark.parametrize("r,p,n", ORACLE_GROUPS + [(4, 1, 4), (6, 6, 4)])
def test_generators_close_to_the_group(r, p, n):
    gens = generators(r, p, n)
    reached = [identity(r, n)]
    seen = set(reached)
    for x in reached:
        for s in gens:
            y = multiply(x, s)
            if y not in seen:
                seen.add(y)
                reached.append(y)
    assert seen == set(elements(r, p, n))


@pytest.mark.parametrize("r,p,n", ORACLE_GROUPS + [(4, 1, 4), (6, 6, 4)])
def test_orbit_stabilizer_on_every_class(r, p, n):
    for cls in conjugacy_classes(r, p, n):
        assert cls.size * len(centralizer(cls.rep, p)) == group_order(r, p, n)
