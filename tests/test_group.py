import random
from itertools import permutations
from math import factorial, lcm

import pytest

import heckeforge.group
from heckeforge.cyclo import CycloMatrix, root_of_unity
from heckeforge.group import (
    BudgetExceededError,
    _conj,
    _cycles_by_type,
    _mul,
    _split_count,
    _swaps,
    _within,
    GroupElement,
    RepKind,
    centralizer,
    centralizer_of,
    centralizer_order_formula,
    closure,
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
    inverse,
    monomial_action,
    multiply,
    perm_cycles,
    perm_sign,
    three_cycle,
    transposition,
    walk,
    xi,
)
from heckeforge.hochschild import hh2_total
from oracles import (
    _scalar_and_cycle,
    a_conjugate,
    act,
    centralizer_generators,
    class_members,
    coact,
    conjugate_in_full_group,
    in_subgroup,
    matrix,
    solved_centralizer,
    sort_with_sign,
)

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
    assert cycle_type(g) == ((0, 1, 1), (0, 3, 1))
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


def _multipartition_count(r, n):
    """The coefficient of x^n in prod_k (1 - x^k)^-r: the series times
    1 / (1 - x^k), r times for each k."""
    coeffs = [1] + [0] * n
    for k in range(1, n + 1):
        for _ in range(r):
            for i in range(k, n + 1):
                coeffs[i] += coeffs[i - k]
    return coeffs[n]


@pytest.mark.parametrize("r", range(1, 5))
def test_class_count_is_the_multipartition_count(r):
    # past any listing of the group: |G(4,1,12)| is about 8 * 10^15
    for n in range(1, 13):
        classes = conjugacy_classes(r, 1, n)
        assert len(classes) == _multipartition_count(r, n), (r, n)
        assert sum(cls.size for cls in classes) == r**n * factorial(n), (r, n)


def test_budget():
    with pytest.raises(BudgetExceededError):
        elements(10, 1, 6, budget=1000)


def test_only_the_listing_of_g_is_budgeted():
    # |G(2,1,9)| = 185,794,560 is past the default budget: the class routes
    # take none and run, and only `elements`, which lists G, refuses
    assert len(conjugacy_classes(2, 1, 9)) == 300
    assert hh2_total(2, 1, 9, F, 2)
    with pytest.raises(BudgetExceededError, match=r"\|G\(2,1,9\)\| exceeds the budget 1000000"):
        elements(2, 1, 9)


def test_json_round_trip():
    g = from_cycles(3, 4, [(1, 2, 3)], exps=(0, 0, 1, 0))
    assert GroupElement.from_json(g.to_json()) == g
    assert g.to_json() == {"r": 3, "n": 4, "exps": [0, 0, 1, 0], "perm": [2, 3, 1, 4]}


@pytest.mark.parametrize("fields", [
    (3, 2, (0, 3), (1, 2)),  # exponent out of range
    (3, 2, (0, -1), (1, 2)),
    (3, 2, (0, 1), (1, 1)),  # not a bijection
    (3, 2, (0, 1), (2, 3)),
    (3, 2, (0, 1, 2), (1, 2)),  # wrong length
])
def test_an_invalid_element_raises(fields):
    with pytest.raises(ValueError):
        GroupElement(*fields)


def test_products_and_inverses_equal_validated_elements():
    els = elements(2, 1, 3)
    for g in els:
        for h in els:
            for built in (multiply(g, h), inverse(g), conjugate(g, h)):
                fresh = GroupElement(built.r, built.n, built.exps, built.perm)
                assert built == fresh and fresh == built
                assert hash(built) == hash(fresh)
                assert {built: 1}[fresh] == 1
    assert len(set(multiply(g, h) for g in els for h in els)) == len(els)


def test_one_pass_conjugation_matches_the_products():
    # `_conj`, which the class and family walks run on every edge
    els = elements(3, 1, 3)
    for g in els:
        for h in els:
            c = conjugate(g, h)
            assert _conj(3, g.exps, g.perm, h.exps, h.perm, inverse(h).perm) == (c.exps, c.perm), (g, h)


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
    # the closure of the cycle-read generators and the oracle's solver
    for cls in classes:
        assert tuple(centralizer(cls.rep, p)) == solved_centralizer(cls.rep, p) == brute_force_centralizer(cls.rep, p)
    # and at a member that is not the representative
    g = max(brute[-1][2], key=GroupElement.sort_key)
    assert tuple(centralizer(g, p)) == solved_centralizer(g, p) == brute_force_centralizer(g, p)


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


def _every_p(groups):
    """(r, p, n) for each (r, n) of the listed groups and each p dividing r,
    up to the largest listed order."""
    top = max(group_order(*g) for g in groups)
    return [(r, p, n) for r, n in sorted({(r, n) for r, _, n in groups})
            for p in range(1, r + 1) if r % p == 0 and group_order(r, p, n) <= top]


@pytest.mark.parametrize("r,p,n", _every_p(ORACLE_GROUPS + [(4, 1, 4), (6, 6, 4)]))
def test_centralizer_generators_generate_the_solved_centralizer(r, p, n):
    # the generators read off the cycles of each class representative and
    # of one other member of its class generate exactly Z_{G(r,p,n)}(g), as
    # the oracle solves it, with no identity among them, and the record's
    # order is its order.  The closure runs on (exps, perm) pairs
    for cls in conjugacy_classes(r, p, n):
        for g in dict.fromkeys([cls.rep, a_conjugate(cls.rep, p)]):
            Z = centralizer_of(g, p)
            assert not any(h.is_identity() for h in Z.generators), g
            one = identity(r, n)
            reached = [(one.exps, one.perm)]
            seen = set(reached)
            for x in reached:
                for s in Z.generators:
                    y = _mul(r, *x, s.exps, s.perm)
                    if y not in seen:
                        seen.add(y)
                        reached.append(y)
            assert seen == {(h.exps, h.perm) for h in solved_centralizer(g, p)}, g
            assert len(seen) == Z.order, g


@pytest.mark.parametrize("r,p,n", _every_p(ORACLE_GROUPS + [(4, 1, 4), (6, 6, 4)]))
def test_the_centralizer_record_matches_the_cycle_readings_it_replaced(r, p, n):
    # on each class representative and one other member of its class: the
    # record's generators are the old tuple, element for element.  With D
    # the oracle's xi_c and g_c of every cycle and P the `_swaps` of each
    # type: each D generator maps every cycle of g to itself, each cycle's
    # colour is its g_c's exponent sum, each swap has exponent sum 0 mod r,
    # <D u P> is Z_{G(r,1,n)}(g) by its order, and <_within(D, p) u P> is
    # the solved Z_{G(r,p,n)}(g)
    for cls in conjugacy_classes(r, p, n):
        for g in dict.fromkeys([cls.rep, a_conjugate(cls.rep, p)]):
            Z = centralizer_of(g, p)
            assert Z.generators == centralizer_generators(g, p), g
            cycles = [set(c) for c in perm_cycles(g.perm)]
            by_type = _cycles_by_type(g).items()
            per_cycle = [(a, *_scalar_and_cycle(g, c)) for (a, _), same in by_type for c in same]
            D = [h for _, x, c in per_cycle for h in (x, c)]
            assert all({h.perm[i - 1] for i in c} == c for h in D for c in cycles), g
            assert [a for a, _, _ in per_cycle] == [sum(c.exps) % r for _, _, c in per_cycle], g
            swaps = [s for _, same in by_type for s in _swaps(g, same)]
            assert all(sum(s.exps) % r == 0 for s in swaps), g
            assert len(closure(r, n, D + swaps)) == centralizer_order_formula(g), g
            assert set(closure(r, n, [*_within(D, r, n, p), *swaps])) == set(solved_centralizer(g, p)), g


@pytest.mark.parametrize("r,p,n", ORACLE_GROUPS + [(4, 1, 4), (6, 6, 4)])
def test_orbit_stabilizer_on_every_class(r, p, n):
    for cls in conjugacy_classes(r, p, n):
        assert cls.size * len(centralizer(cls.rep, p)) == group_order(r, p, n)
        assert cls.size * centralizer_of(cls.rep, p).order == group_order(r, p, n)


def test_walk_queues_each_point_once_and_lists_clashes():
    # values that agree on every revisit, small ints the interpreter shares:
    # every point of Z/12 is reached, and each takes one edge per generator
    calls = []

    def move(x, v, s):
        calls.append(x)
        assert len(calls) <= 36, "a point was queued twice"
        y = (x + s) % 12
        return y, y % 3

    values, clashes = walk(0, 0, [1, 5, 7], move)
    assert list(values) == [0, 1, 5, 7, 2, 6, 8, 10, 3, 9, 11, 4]
    assert values == {x: x % 3 for x in range(12)} and clashes == []
    assert len(calls) == len(values) * 3
    # a value that is not a function of the point: the edge 3 -> 0 clashes
    values, clashes = walk(0, 0, [1], lambda x, v, s: ((x + s) % 4, (v + s) % 3))
    assert values == {0: 0, 1: 1, 2: 2, 3: 0} and clashes == [(0, 1)]


@pytest.mark.parametrize("r,p,n", [(4, 4, 4), (4, 2, 4)])
def test_split_labels_are_checked(monkeypatch, r, p, n):
    # with the split count claimed to be p on every class, a class whose
    # centralizer has an exponent sum that is not 0 mod p gets two labels
    # on some conjugate, and the walk's clash raises
    assert any(_split_count(cycle_type(cls.rep), p) < p for cls in conjugacy_classes(r, 1, n) if sum(cls.rep.exps) % p == 0)
    monkeypatch.setattr(heckeforge.group, "_split_count", lambda ctype, p: p)
    with pytest.raises(RuntimeError, match="not constant"):
        conjugacy_classes.__wrapped__(r, p, n)
