import ast
import cmath
import inspect
import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, cyclotomic_poly
from sympy.abc import x as sym_x

from heckeforge import group, hecke, hochschild, ncalg
from heckeforge.cyclo import (
    CycloMatrix,
    CycloNum,
    SparseSum,
    _power_table,
    cyclo,
    cyclotomic_polynomial,
    echelon_rows,
    euler_phi,
    one,
    root_of_unity,
    twist,
    zero,
)
from heckeforge.ncalg import NCElement
from heckeforge.polyforms import PolyForm, Polynomial
from oracles import FractionCyclo, fraction_cyclotomic_polynomial


def test_cyclotomic_poly_small():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    # frozen from the recursive-division oracle
    assert cyclotomic_polynomial(12) == tuple(map(Fraction, (1, 0, -1, 0, 1)))


@pytest.mark.parametrize("r", range(1, 31))
def test_cyclotomic_poly_matches_sympy(r):
    ours = [int(c) for c in cyclotomic_polynomial(r)]
    theirs = list(reversed(Poly(cyclotomic_poly(r, sym_x)).all_coeffs()))
    assert ours == [int(c) for c in theirs]


def test_cyclotomic_poly_matches_the_division_oracle():
    # the product over squarefree r/d against long division of x^r - 1 by
    # every Phi_d, d a proper divisor, in Fractions
    for r in [*range(1, 301), 1001, 1024]:
        assert cyclotomic_polynomial(r) == fraction_cyclotomic_polynomial(r), r


@pytest.mark.parametrize("r", range(1, 31))
def test_root_of_unity_is_root(r):
    z = root_of_unity(r)
    acc = zero(r)
    for c in reversed(cyclotomic_polynomial(r)):
        acc = acc * z + c
    assert acc.is_zero()


def test_root_of_unity_examples():
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1
    assert root_of_unity(5, 1).invert() == root_of_unity(5, 4)
    assert root_of_unity(4) * root_of_unity(4) == -1
    assert root_of_unity(3).conjugate() == root_of_unity(3, 2)


def test_embed_example_and_numeric_oracle():
    assert root_of_unity(2, 1).embed(6) == root_of_unity(6, 3)
    # numeric embedding oracle: evaluate both at exp(2 pi i / order)
    rng = random.Random(0)
    for _ in range(50):
        r = rng.choice([1, 2, 3, 4, 6])
        target = r * rng.choice([1, 2, 3])
        coeffs = [Fraction(rng.randrange(-3, 4)) for _ in range(len(zero(r).coeffs))]
        v = CycloNum(r, tuple(coeffs))
        w = v.embed(target)

        def numeric(u):
            zz = cmath.exp(2j * cmath.pi / u.order)
            return sum(complex(c) * zz**k for k, c in enumerate(u.coeffs))

        assert abs(numeric(v) - numeric(w)) < 1e-9


_orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])


@st.composite
def cyclonums(draw):
    r = draw(_orders)
    n_coeffs = len(zero(r).coeffs)
    coeffs = tuple(
        Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))) for _ in range(n_coeffs)
    )
    return CycloNum(r, coeffs)


@settings(max_examples=120, deadline=None)
@given(cyclonums(), cyclonums(), cyclonums())
def test_field_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.invert() == 1


@settings(max_examples=80, deadline=None)
@given(cyclonums(), cyclonums())
def test_embed_injective(a, b):
    from math import lcm

    target = lcm(a.order, b.order, 2)
    if a.embed(target) == b.embed(target):
        assert a == b
    else:
        assert not a == b


class _GeneralPath(CycloNum):
    """A CycloNum that the same-order fast paths of + and * do not take,
    so `a + _GeneralPath(b)` runs `_pair` and the general arithmetic."""

    __slots__ = ()


@st.composite
def cyclonum_pairs(draw):
    ra, rb = draw(st.sampled_from([(1, 1), (2, 2), (1, 3), (3, 1), (2, 4), (4, 2)]))

    def num(r):
        phi = len(zero(r).coeffs)
        return CycloNum(r, tuple(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))) for _ in range(phi)))

    return num(ra), num(rb)


@settings(max_examples=150, deadline=None)
@given(cyclonum_pairs())
def test_same_order_fast_path_matches_the_general_path(pair):
    from math import lcm

    a, b = pair
    slow_b = _GeneralPath(b.order, b.coeffs)
    for fast, slow in [(a + b, a + slow_b), (a * b, a * slow_b)]:
        assert type(slow) is CycloNum
        assert (fast.order, fast.coeffs) == (slow.order, slow.coeffs)
    # mixed orders still embed both operands into Q(zeta_lcm)
    big = lcm(a.order, b.order)
    assert (a + b).order == (a * b).order == big
    assert (a + b).coeffs == (a.embed(big) + b.embed(big)).coeffs
    assert (a * b).coeffs == (a.embed(big) * b.embed(big)).coeffs


@pytest.mark.parametrize("r", range(1, 31))
def test_tables_hold_only_ints(r):
    assert all(type(c) is int for c in cyclotomic_polynomial(r))
    assert all(type(c) is int for row in _power_table(r) for c in row)


@st.composite
def cyclo_with_reference(draw):
    r = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    cs = [Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 6))) for _ in range(euler_phi(r))]
    return CycloNum(r, cs), FractionCyclo(r, cs)


def _matches(x, ref):
    """x is the reference's number in the same field, in lowest terms."""
    assert type(x) is CycloNum
    assert (x.order, x.coeffs) == (ref.order, ref.coeffs)
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert x.to_json() == ref.to_json()


@settings(max_examples=200, deadline=None)
@given(cyclo_with_reference(), cyclo_with_reference(), st.sampled_from(["drawn", "negated", "integral sum"]))
def test_integer_arithmetic_matches_the_fraction_reference(p, q, second):
    (a, ra), (b, rb) = p, q
    if second == "negated":  # a + b cancels to zero
        rb = FractionCyclo(a.order, [-c for c in ra.coeffs])
    elif second == "integral sum":  # a + b has integer coefficients
        rb = FractionCyclo(b.order, [c.numerator for c in rb.coeffs]) - ra
    b = CycloNum(rb.order, rb.coeffs)
    _matches(b, rb)
    _matches(a + b, ra + rb)
    _matches(a - b, ra - rb)
    _matches(a * b, ra * rb)
    _matches(-a, FractionCyclo(a.order, [-c for c in ra.coeffs]))
    _matches(a.conjugate(), ra.conjugate())
    for big in (2 * a.order, 3 * a.order):
        _matches(a.embed(big), ra.embed(big))
    if any(ra.coeffs):
        _matches(a.invert(), ra.invert())
    assert (a == b) == (ra == rb)
    assert a == a.embed(2 * a.order) and a.embed(2 * a.order) == a
    if second == "negated":
        assert (a + b).nums == (0,) * euler_phi(a.order) and (a + b).den == 1
    if second == "integral sum":
        assert (a + b).den == 1


@st.composite
def _subfield_nums(draw):
    """Three numbers of Q(zeta_m), m in 1..12: each in Q(zeta_d) for some
    d | m, stored at an order between d and m."""
    m = draw(st.integers(1, 12))
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    out = []
    for _ in range(3):
        d = draw(st.sampled_from(divisors))
        x = CycloNum(d, [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4))) for _ in range(euler_phi(d))])
        out.append(x.embed(draw(st.sampled_from([s for s in divisors if s % d == 0]))))
    return out


@settings(max_examples=200, deadline=None)
@given(_subfield_nums())
def test_the_printed_field_depends_on_the_value_only(nums):
    for x in nums:
        printed = x.to_json()
        assert printed == FractionCyclo(x.order, x.coeffs).to_json()
        assert all(x.embed(k * x.order).to_json() == printed for k in (2, 3))
        back = CycloNum.from_json(printed)
        assert back == x and back.order == printed["order"]
    # a sum prints the same whatever its operands' orders and its order of summation
    a, b, c = nums
    sums = [(a + b) + c, c + (b + a), (a.embed(2 * a.order) + b) + c.embed(3 * c.order), (b + c) + a]
    assert all(s.to_json() == sums[0].to_json() for s in sums)
    ref = FractionCyclo(a.order, a.coeffs) + FractionCyclo(b.order, b.coeffs) + FractionCyclo(c.order, c.coeffs)
    assert sums[0].to_json() == ref.to_json()


@pytest.mark.parametrize("m", range(1, 41))
def test_least_field_descent_matches_the_galois_oracle(m):
    # one number of every subfield Q(zeta_d), d | m, stored in Q(zeta_m)
    rng = random.Random(m)
    for d in (d for d in range(1, m + 1) if m % d == 0):
        cs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(euler_phi(d))]
        cs[-1] = cs[-1] or Fraction(1)
        x = CycloNum(d, cs).embed(m)
        got, want = x._least(), FractionCyclo(m, x.coeffs).least()
        assert (got.order, got.coeffs) == (want.order, want.coeffs), (m, d)
        assert got.den > 0 and gcd(got.den, *got.nums) == 1


@pytest.mark.parametrize("m", [512, 720, 1001, 1024])
def test_a_root_of_unity_prints_at_its_own_order_in_a_large_field(m):
    # Q(zeta_d) = Q(zeta_(d/2)) when d = 2 mod 4, so zeta_d prints at d/2 there
    for d in (d for d in range(1, m + 1) if m % d == 0):
        x = root_of_unity(d).embed(m)
        printed = x.to_json()
        assert printed["order"] == (d // 2 if d % 4 == 2 else d), (m, d)
        assert CycloNum.from_json(printed) == x


def test_sums_cancel_and_reduce_to_lowest_terms():
    s = cyclo(Fraction(1, 3)) + cyclo(Fraction(2, 3))
    assert s == 1 and (s.nums, s.den) == ((1,), 1)
    z = root_of_unity(3)
    t = (z * Fraction(1, 6) + Fraction(1, 3)) + (z * Fraction(-1, 6) + Fraction(1, 6))
    assert (t.order, t.nums, t.den) == (3, (1, 0), 2)
    u = (z + Fraction(1, 2)) - (z + Fraction(1, 2))
    assert (u.order, u.nums, u.den) == (3, (0, 0), 1) and u.is_zero()
    v = cyclo(Fraction(2, 3)) * cyclo(Fraction(3, 2))
    assert (v.nums, v.den) == ((1,), 1)


@pytest.mark.parametrize("bad", [0.1, 1.0, True])
def test_floats_and_booleans_are_not_coefficients(bad):
    x = one(3)
    for make in (
        lambda: cyclo(bad),
        lambda: CycloNum.from_rational(bad),
        lambda: x * bad,
        lambda: bad * x,
        lambda: x + bad,
        lambda: CycloNum(1, (bad,)),
        lambda: ncalg.skew_group_algebra(2, 1, 2, group.RepKind.FAITHFUL).one().scale(bad),
    ):
        with pytest.raises(TypeError):
            make()


def test_embed_injective_many_random_samples():
    rng = random.Random(1)
    for _ in range(1000):
        r = rng.choice([2, 3, 4, 6])
        phi = len(zero(r).coeffs)
        a = CycloNum(r, tuple(Fraction(rng.randrange(-2, 3)) for _ in range(phi)))
        b = CycloNum(r, tuple(Fraction(rng.randrange(-2, 3)) for _ in range(phi)))
        assert (a.embed(12) == b.embed(12)) == (a == b)


def test_conjugate_is_automorphism():
    z = root_of_unity(12, 5)
    w = root_of_unity(12, 7) + 2
    assert (z * w).conjugate() == z.conjugate() * w.conjugate()
    assert (z + w).conjugate() == z.conjugate() + w.conjugate()


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        zero(3).invert()


def test_json_round_trip_and_canonicalization():
    v = root_of_unity(5, 2) * Fraction(3, 7) - 1
    assert CycloNum.from_json(v.to_json()) == v
    # parser reduces exponents >= phi(r)
    raw = {"order": 4, "terms": [{"exp": 6, "num": "1", "den": "1"}]}
    assert CycloNum.from_json(raw) == -1


def test_linear_algebra_examples():
    z3 = root_of_unity(3)
    assert CycloMatrix.identity(3).kernel_basis() == []
    assert CycloMatrix([[z3, 0], [0, z3 * z3]]).determinant() == 1
    assert CycloMatrix([[1, z3], [z3 * z3, 1]]).rank() == 1


def test_rank_nullity_random():
    rng = random.Random(2)
    for _ in range(25):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        M = CycloMatrix(
            [
                [root_of_unity(3, rng.randrange(3)) * rng.randrange(-1, 2) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        assert M.rank() + len(M.kernel_basis()) == cols
        assert len(M.column_space_basis()) == M.rank()


def test_inverse():
    z = root_of_unity(4)
    M = CycloMatrix([[1, z], [0, 2]])
    assert M * M.inverse() == CycloMatrix.identity(2, 4)


def test_kernel_vectors_are_in_kernel():
    M = CycloMatrix([[1, 1, 1], [1, root_of_unity(3), root_of_unity(3, 2)]])
    for v in M.kernel_basis():
        img = M * CycloMatrix([[e] for e in v])
        assert img.is_zero()


@pytest.mark.parametrize("r", [1, 2, 3, 4, 6])
def test_twist_keeps_a_zero_phase_in_the_field(r):
    c = cyclo(Fraction(3, 2))
    for e in (0, r, -2 * r):
        assert twist(c, r, e) is c
    for e in range(1, r):
        z = twist(c, r, e)
        assert z.order == r and z == root_of_unity(r, e) * Fraction(3, 2)


def test_echelon_rows_rank():
    z = one()
    rows = [{0: z, 1: z}, {1: z, 2: z}, {0: z, 2: z}]
    # third row = first - second + 2*second... actually rank 3 over Q? r1 - r2 = e0 - e2
    assert len(echelon_rows(rows)) == 3
    rows = [{0: z, 1: z}, {0: z, 1: z}]
    assert len(echelon_rows(rows)) == 1


@pytest.mark.parametrize("module", [group, hochschild, hecke, ncalg], ids=lambda m: m.__name__)
def test_library_modules_build_no_dense_matrix(module):
    # dense linear algebra serves the tests and the dense references in
    # polyforms only; these modules neither import nor name CycloMatrix
    tree = ast.parse(inspect.getsource(module))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "CycloMatrix" not in names


# -- one sparse-sum arithmetic for Polynomial, PolyForm and NCElement -------------


_SKEW_2_1_2 = ncalg.skew_group_algebra(2, 1, 2, group.RepKind.FAITHFUL)
# few keys per type, so sums of drawn terms collide and cancel
_SUM_KEYS = {
    Polynomial: [(0, 0), (1, 0), (0, 2)],
    PolyForm: [(), (1,), (1, 2)],
    NCElement: [(mu, g) for mu in [(0, 0), (1, 0)] for g in group.elements(2, 1, 2)[:2]],
}


def _coefficients():
    """Nonzero numbers of field order 1, 2, 3, 4 or 6."""
    return st.builds(
        lambda r, k, a, d: root_of_unity(r, k) * Fraction(a, d),
        st.sampled_from([1, 2, 3, 4, 6]), st.integers(0, 5), st.sampled_from([-2, -1, 1, 2]), st.integers(1, 2),
    )


def _raw_terms(cls):
    """A term dict for cls: key -> number, or for a PolyForm wedge -> the
    term dict of a Polynomial."""
    values = _raw_terms(Polynomial) if cls is PolyForm else _coefficients()
    return st.dictionaries(st.sampled_from(_SUM_KEYS[cls]), values, max_size=3)


def _negated(raw):
    return {k: _negated(c) if isinstance(c, dict) else -c for k, c in raw.items()}


def _embedded(raw, order):
    return {k: _embedded(c, order) if isinstance(c, dict) else c.embed(order) for k, c in raw.items()}


def _build(cls, raw):
    if cls is Polynomial:
        return Polynomial(2, raw)
    if cls is PolyForm:
        return PolyForm(2, {S: Polynomial(2, t) for S, t in raw.items()})
    return _SKEW_2_1_2.element(raw)


def _reference_sum(x, y):
    """The sum of two term dicts, key by key: a key in one operand keeps its
    number, a key in both gets the CycloNum sum (nested dicts are summed the
    same way), and a zero sum is dropped."""
    out = dict(x)
    for k, c in y.items():
        if k in out:
            s = _reference_sum(out[k], c) if isinstance(c, dict) else out[k] + c
            if (bool(s) if isinstance(s, dict) else not s.is_zero()):
                out[k] = s
            else:
                del out[k]
        else:
            out[k] = c
    return out


def _flat(terms, prefix=()):
    """(key path, field order, numerators, denominator) of every number."""
    out = set()
    for k, c in terms.items():
        if isinstance(c, (dict, SparseSum)):
            out |= _flat(c if isinstance(c, dict) else c.terms, prefix + (k,))
        else:
            out.add((prefix + (k,), c.order, c.nums, c.den))
    return out


@pytest.mark.parametrize("cls", list(_SUM_KEYS), ids=lambda c: c.__name__)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_sparse_sums_share_one_arithmetic(cls, data):
    raw_a = data.draw(_raw_terms(cls))
    # b cancels some of a's terms outright and adds terms of its own
    cancel = data.draw(st.sets(st.sampled_from(sorted(raw_a, key=repr)))) if raw_a else set()
    raw_b = {**data.draw(_raw_terms(cls)), **_negated({k: raw_a[k] for k in cancel})}
    a, b = _build(cls, raw_a), _build(cls, raw_b)
    scalars = _coefficients() | st.sampled_from([0, 2, Fraction(-1, 3)])
    c, d = data.draw(scalars), data.draw(scalars)
    assert a + b == b + a
    assert (a + b) - b == a
    assert (a - a).is_zero()
    assert a.scale(c).scale(d) == a.scale(c * d)
    assert _flat((a + b).terms) == _flat(_reference_sum(raw_a, raw_b))
    # == compares values, whatever field holds them
    assert a == _build(cls, _embedded(raw_a, 12))
    assert (a == b) == (a - b).is_zero()
    assert (a + b == a) == b.is_zero()


def test_sum_types_hold_no_arithmetic_of_their_own():
    shared = {"is_zero", "__add__", "__sub__", "__neg__", "scale", "__eq__"}
    for cls in _SUM_KEYS:
        assert issubclass(cls, SparseSum)
        assert not shared & set(vars(cls)), cls


def test_two_presentations_compare_but_do_not_add():
    # verify_iso compares H* elements with S(V)#G elements, so == ignores the
    # presentation; +, - and * refuse to mix two
    hstar = ncalg.HStarAlgebra(2, 2)
    x, y = hstar.var(1), _SKEW_2_1_2.var(1)
    assert x == y
    assert not x == _SKEW_2_1_2.var(2)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(x, y)
