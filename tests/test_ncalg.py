import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeforge.cyclo import CycloNum, add_term, cyclo, euler_phi, one, root_of_unity, twist
from heckeforge.group import (
    GroupElement,
    RepKind,
    diag,
    elements,
    from_cycles,
    identity,
    monomial_image,
    multiply,
    three_cycle,
    transposition,
    xi,
)
from heckeforge.hecke import SkewForm, SkewFormFamily, build_preset, pbw_check
from heckeforge.ncalg import (
    DrinfeldAlgebra,
    HStarAlgebra,
    commutator,
    filtration_degree,
    pbw_dimension_check,
    skew_group_algebra,
    tilde_generator,
    verify_iso,
    verify_reln4,
)
from heckeforge.ncalg import _Sum, _scalar, _times


def sg_mul(x: dict, y: dict, rep: RepKind) -> dict:
    """Oracle product in S(V)#G on term dicts, written out from the
    definition (v^mu gbar)(v^nu hbar) = v^mu g(v^nu) (gh)bar, with no
    rewriting."""
    out: dict = {}
    for (mu, g), c1 in x.items():
        for (nu, h), c2 in y.items():
            img, e = monomial_image(nu, g, rep)
            key = (tuple(a + b for a, b in zip(mu, img)), multiply(g, h))
            val = c1 * c2
            if e:
                val = val * root_of_unity(g.r, e)
            cur = out.get(key)
            s = val if cur is None else cur + val
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return out


F = RepKind.FAITHFUL
P = RepKind.PERMUTATION


def test_group_move_simple_reflection():
    # sbar_1 v_2 = v_1 sbar_1 + 1 + xibar_1 xibar_2 at r = 2
    alg = HStarAlgebra(2, 2)
    s1 = alg.group(transposition(2, 2, 1, 2))
    assert s1 * alg.var(2) == alg.var(1) * s1 + alg.one() + alg.group(diag(2, 2, (1, 1)))
    # variant: sbar_1 v_1 = v_2 sbar_1 - sum
    assert s1 * alg.var(1) == alg.var(2) * s1 - alg.one() - alg.group(diag(2, 2, (1, 1)))


def test_group_move_diagonal_commutes():
    alg = HStarAlgebra(3, 3)
    x1 = alg.group(xi(3, 3, 1))
    for k in (1, 2, 3):
        assert x1 * alg.var(k) == alg.var(k) * x1


def test_group_move_corrections_have_degree_zero():
    alg = HStarAlgebra(2, 3)
    for g in elements(2, 1, 3):
        for k in (1, 2, 3):
            main = 0
            for (word, _), _c in alg.group_move(g, k).items():
                assert len(word) <= 1
                if word:
                    main += 1
                    assert word == (g.perm[k - 1],)
            assert main == 1


def test_drinfeld_diagonal_acts_trivially():
    fam = build_preset("a_r1n", 2, 3)
    alg = DrinfeldAlgebra(fam)
    x1 = alg.group(xi(2, 3, 1))
    assert x1 * alg.var(1) == alg.var(1) * x1


def test_drinfeld_bracket_relation():
    # v_2 v_1 = v_1 v_2 - (1/3)((1,2,3) - (1,3,2)) at r = 1, n = 3
    fam = build_preset("a_r1n", 1, 3)
    alg = DrinfeldAlgebra(fam)
    res = alg.var(2) * alg.var(1)
    expected = (
        alg.term((1, 1, 0), identity(1, 3))
        + alg.group(three_cycle(1, 3, 1, 2, 3)).scale(Fraction(-1, 3))
        + alg.group(from_cycles(1, 3, [(1, 3, 2)])).scale(Fraction(1, 3))
    )
    assert res == expected


def test_unit_is_neutral():
    rng = random.Random(0)
    alg = HStarAlgebra(2, 3)
    for _ in range(10):
        x = alg.term(
            tuple(rng.randrange(2) for _ in range(3)),
            rng.choice(elements(2, 1, 3)),
            Fraction(rng.randrange(1, 4)),
        )
        assert x * alg.one() == x
        assert alg.one() * x == x


def test_commutator_and_filtration():
    fam = build_preset("a_r1n", 2, 3)
    alg = DrinfeldAlgebra(fam)
    assert commutator(alg.var(1), alg.var(1)).is_zero()
    c = commutator(alg.var(1), alg.var(2))
    assert filtration_degree(c) == 0
    assert len(c.terms) == 8
    assert filtration_degree(alg.term((1, 1, 0), three_cycle(2, 3, 1, 2, 3))) == 2


def test_normal_forms_reproducible():
    alg = HStarAlgebra(2, 3)
    x = alg.group(transposition(2, 3, 1, 3)) * alg.var(2)
    y = alg.group(transposition(2, 3, 1, 3)) * alg.var(2)
    assert x.terms == y.terms


def test_the_presentations_share_one_product():
    # one rewriting core: no presentation overrides multiply, so every
    # product runs through _AlgebraBase.multiply, where the benchmark's
    # ncalg.multiply span sees it
    assert "multiply" not in vars(HStarAlgebra) and "multiply" not in vars(DrinfeldAlgebra)
    assert HStarAlgebra.multiply is DrinfeldAlgebra.multiply


def test_a_group_element_of_another_group_is_refused():
    # the core reads group parts as exponents mod its own r, so an element
    # of another G(r,1,n) must not reach it
    alg = DrinfeldAlgebra(build_preset("a_r1n", 2, 3))
    for g in (xi(4, 3, 1, 3), identity(2, 4)):
        with pytest.raises(ValueError, match="different groups"):
            alg.term((0, 0, 0), g) * alg.var(1)


CACHE_ALGEBRAS = {
    "a_r1n(3,3)": lambda: DrinfeldAlgebra(build_preset("a_r1n", 3, 3)),
    "empty(3,1,3) faithful": lambda: skew_group_algebra(3, 1, 3, F),
    "H*(3,4)": lambda: HStarAlgebra(3, 4),
}


def _random_element(alg, rng, els, count=2):
    x = alg.element({})
    for _ in range(count):
        mu = tuple(rng.randrange(3) for _ in range(alg.n))
        x = x + alg.term(mu, rng.choice(els), Fraction(rng.randrange(1, 4)))
    return x


@pytest.mark.parametrize("name", list(CACHE_ALGEBRAS))
def test_products_do_not_depend_on_what_the_caches_hold(name):
    # the same product, on a fresh algebra and after unrelated products
    # have filled the product memo, the word forms and (for H*) the pushes
    fresh, warm = CACHE_ALGEBRAS[name](), CACHE_ALGEBRAS[name]()
    els = elements(fresh.r, fresh.p, fresh.n)
    rng = random.Random(7)
    x, y = _random_element(fresh, rng, els), _random_element(fresh, rng, els)
    want = json.dumps((x * y).to_json())
    wx, wy = warm.element(x.terms), warm.element(y.terms)
    for _ in range(6):
        _random_element(warm, rng, els) * _random_element(warm, rng, els)
    assert warm._prod and warm._word_cache
    assert isinstance(warm, DrinfeldAlgebra) or warm._push_cache
    assert json.dumps((wx * wy).to_json()) == want
    assert json.dumps((wy * wx).to_json()) == json.dumps((y * x).to_json())


@pytest.mark.parametrize("name", list(CACHE_ALGEBRAS))
def test_a_repeated_product_builds_no_group_element(name, monkeypatch):
    # the core relabels terms through its product memo, so a product whose
    # group products were all seen before builds no GroupElement
    alg = CACHE_ALGEBRAS[name]()
    els = elements(alg.r, alg.p, alg.n)
    x, y = _random_element(alg, random.Random(3), els), _random_element(alg, random.Random(4), els)
    built = []
    post_init = GroupElement.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(GroupElement, "__post_init__", counted)
    first = x * y
    assert built
    built.clear()
    assert x * y == first
    assert built == []


def test_group_subalgebra_multiplies_as_group_algebra():
    alg = HStarAlgebra(2, 3)
    rng = random.Random(1)
    els = elements(2, 1, 3)
    for _ in range(30):
        a, b = rng.choice(els), rng.choice(els)
        assert alg.group(a) * alg.group(b) == alg.group(multiply(a, b))


def test_filtration_subadditive_and_graded_product():
    fam = build_preset("a_r1n", 2, 3)
    alg = DrinfeldAlgebra(fam)
    rng = random.Random(2)
    els = elements(2, 1, 3)
    for _ in range(25):
        mu = tuple(rng.randrange(2) for _ in range(3))
        nu = tuple(rng.randrange(2) for _ in range(3))
        a, b = rng.choice(els), rng.choice(els)
        x, y = alg.term(mu, a), alg.term(nu, b)
        prod = x * y
        assert prod.filtration_degree() <= sum(mu) + sum(nu)
        # dropping lower-degree corrections reproduces S(V)#G
        top = alg.element({k: c for k, c in prod.terms.items() if sum(k[0]) == sum(mu) + sum(nu)})
        assert top == alg.element(sg_mul(x.terms, y.terms, P))


@pytest.mark.parametrize("r,p,n", [(2, 1, 3), (3, 1, 3), (4, 2, 3), (3, 3, 4), (2, 1, 4)])
@pytest.mark.parametrize("rep", [F, P])
def test_empty_family_product_is_the_skew_group_algebra(r, p, n, rep):
    # 150 random term pairs per group and action, 1500 in all
    alg = skew_group_algebra(r, p, n, rep)
    rng = random.Random(r * 100 + p * 10 + n)
    els = elements(r, p, n)

    def term():
        mu = tuple(rng.randrange(3) for _ in range(n))
        return alg.term(mu, rng.choice(els), rng.choice([2, 3]))

    for _ in range(150):
        x, y = term(), term()
        assert x * y == alg.element(sg_mul(x.terms, y.terms, rep)), (x, y)


def test_long_word_sorts_without_deep_recursion():
    # 1600 swaps: a call per swap would pass Python's recursion limit
    alg = skew_group_algebra(2, 1, 4, P)
    e = identity(2, 4)
    assert alg.term((0, 0, 0, 40), e) * alg.term((40, 0, 0, 0), e) == alg.term((40, 0, 0, 40), e)


def test_tilde_generators():
    alg = HStarAlgebra(1, 2)
    s = alg.group(transposition(1, 2, 1, 2))
    assert tilde_generator(1, alg) == alg.var(1) + s.scale(Fraction(1, 2))
    assert tilde_generator(2, alg) == alg.var(2) - s.scale(Fraction(1, 2))
    alg = HStarAlgebra(2, 2)
    expected = (
        alg.var(1)
        + alg.group(transposition(2, 2, 1, 2)).scale(Fraction(1, 2))
        + alg.group(multiply(diag(2, 2, (1, 1)), transposition(2, 2, 1, 2))).scale(Fraction(1, 2))
    )
    assert tilde_generator(1, alg) == expected
    # r(n-1) group-algebra terms
    alg = HStarAlgebra(3, 4)
    assert len(tilde_generator(2, alg).terms) == 1 + 3 * 3


def test_verify_reln4_cases():
    assert verify_reln4(1, 2, 3, 2, 3)  # m outside (j, k)
    assert verify_reln4(1, 3, 2, 2, 3)  # j < m < k
    assert verify_reln4(1, 3, 1, 3, 3)  # m = j
    assert verify_reln4(1, 3, 3, 3, 3)  # m = k
    with pytest.raises(ValueError):
        verify_reln4(2, 1, 1, 2, 3)


def test_verify_reln4_all_small():
    alg = HStarAlgebra(2, 3)
    for j in (1, 2):
        for k in range(j + 1, 4):
            for m in (1, 2, 3):
                assert verify_reln4(j, k, m, 2, 3, alg)


def test_verify_iso_small():
    report = verify_iso(1, 3)
    assert report.ok
    report = verify_iso(2, 3)
    assert report.ok
    # the scalar bookkeeping underlying the generator map: (1/4)/(1/3) = 3/4
    assert Fraction(1, 4) / Fraction(1, 3) == Fraction(3, 4)


def test_verify_iso_rank_four():
    # n = 4 puts two summands into each bracket correction
    assert verify_iso(1, 4).ok
    assert verify_iso(2, 4).ok
    alg = HStarAlgebra(2, 4)
    assert all(
        verify_reln4(j, k, m, 2, 4, alg)
        for j in range(1, 4)
        for k in range(j + 1, 5)
        for m in range(1, 5)
    )


def test_pbw_dimension_counts():
    fam = build_preset("a_r1n", 2, 3)
    report = pbw_dimension_check(DrinfeldAlgebra(fam), 3, n_triples=30, seed=3)
    assert report.count == report.expected == 960
    assert report.associative
    report = pbw_dimension_check(HStarAlgebra(2, 2), 2, n_triples=30, seed=3)
    assert report.count == report.expected == 48
    assert report.associative


def test_pbw_dimension_detects_bad_family():
    # a family violating the Jacobi condition: supported on a transposition
    # with a form pairing a moved and an unmoved coordinate
    bad = SkewFormFamily(
        1, 1, 3, P,
        {transposition(1, 3, 1, 2): SkewForm([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])},
    )
    assert not pbw_check(bad).jacobi
    report = pbw_dimension_check(DrinfeldAlgebra(bad), 2, n_triples=30, seed=3)
    assert not report.associative
    assert report.witness is not None


def test_associativity_hstar_sample():
    report = pbw_dimension_check(HStarAlgebra(2, 3), 2, n_triples=60, seed=4)
    assert report.associative


@pytest.mark.parametrize("r", [2, 3, 4, 6])
def test_drinfeld_push_phase_is_the_twisted_one(r):
    # xi_1^a v_1^k: the phase a k runs past r; the push's exponent of
    # zeta_F agrees in value and printed field with twist(1, r, a k), and a
    # zero phase is exponent 0 mod F
    alg = skew_group_algebra(r, 1, 2, RepKind.FAITHFUL)
    F = alg._field
    for a in range(r):
        g = xi(r, 2, 1, a)
        for k in range(3):
            (word, t, e, c), = alg._push(alg._id[g], (1,) * k)
            ref, got = twist(one(), r, a * k), root_of_unity(F, e) * c
            assert (word, alg._elems[t]) == ((1,) * k, g)
            assert got == ref and got.to_json() == ref.to_json(), (a, k)
            assert (e % F == 0) == (a * k % r == 0)


# -- the integer accumulator against cyclo.add_term ------------------------------


@st.composite
def _cyclonums(draw):
    """A nonzero element of Q(zeta_order), order 1, 2, 3, 4 or 6, with
    small rational coefficients."""
    order = draw(st.sampled_from([1, 2, 3, 4, 6]))
    coeffs = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4))) for _ in range(euler_phi(order))]
    coeffs[draw(st.integers(0, len(coeffs) - 1))] = Fraction(draw(st.sampled_from([-2, -1, 1, 3])), draw(st.integers(1, 3)))
    return CycloNum(order, coeffs)


# a step adds prod(factors) times the form of {k: c}, or, given a bare key,
# minus the running sum there, so that partial sums cross zero
_STEPS = st.lists(st.one_of(
    st.tuples(st.lists(st.one_of(st.sampled_from([-2, -1, 2, 3]), _cyclonums()), max_size=2),
              st.dictionaries(st.integers(0, 3), _cyclonums(), min_size=1, max_size=3)),
    st.integers(0, 3),
), max_size=14)


@settings(max_examples=300, deadline=None)
@given(_STEPS)
def test_integer_sum_matches_add_term(steps):
    # every step's form is held in Q(zeta_F), F the lcm of the orders of
    # all forms' entries, as an algebra holds its word forms in its field;
    # the sum is held in Q(zeta_K), K the lcm of F and the factors' orders,
    # as a product is
    F = lcm(1, *(c.order for step in steps if not isinstance(step, int) for c in step[1].values()))
    K = lcm(F, *(c.order for step in steps if not isinstance(step, int)
                 for c in step[0] if isinstance(c, CycloNum)))
    acc, ref = _Sum(K, F), {}

    def unit_form(k):
        """The cached word form of 1 at the key ((k,), 0)."""
        return 1, [((k,), 0, 1 if F == 1 else ((0, 1),))]

    for step in steps:
        if isinstance(step, int):
            key = ((step,), 0)
            if key in ref:
                c = -ref[key]
                acc.add(*_scalar(c, K), unit_form(step), (0,))
                add_term(ref, key, c)
            continue
        factors, entries = step
        form = _Sum(F, F)
        for k, c in entries.items():
            form.add(*_scalar(c, F), unit_form(k), (0,))
        num, den = _scalar(one(K), K)
        for f in factors:
            x, d = _scalar(cyclo(f), K)
            num, den = _times(num, x, K), den * d
        acc.add(num, den, form.form(), (0,))
        for k, c in entries.items():
            for f in factors:
                c = c * f
            add_term(ref, ((k,), 0), c)
    got = acc.terms((0,))
    assert got.keys() == ref.keys()
    for key, c in ref.items():
        assert got[key] == c and got[key].to_json() == c.to_json(), key


@pytest.mark.parametrize("make", [
    lambda: DrinfeldAlgebra(build_preset("a_r1n", 3, 3)),
    lambda: HStarAlgebra(2, 3),
    lambda: skew_group_algebra(3, 1, 3, RepKind.FAITHFUL),
], ids=["a_r1n(3,3)", "H*(2,3)", "empty(3,1,3) faithful"])
def test_the_core_does_no_cyclonum_arithmetic(make, monkeypatch):
    # rational order-1 terms: the core adds integers and builds one CycloNum
    # per term it returns; the faithful action's phases take the order > 1
    # path, which adds integers too
    alg, fresh = make(), make()
    els = elements(alg.r, alg.p, alg.n)
    rng = random.Random(5)
    xs = [_random_element(alg, rng, els, count=3) for _ in range(4)]
    want = [json.dumps((x * y).to_json()) for x in xs for y in xs]

    def refuse(*args):
        raise AssertionError("CycloNum arithmetic in the rewriting core")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(CycloNum, name, refuse)
    got = [json.dumps((fresh.element(x.terms) * fresh.element(y.terms)).to_json()) for x in xs for y in xs]
    assert got == want
