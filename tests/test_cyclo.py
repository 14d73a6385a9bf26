import ast
import cmath
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, cyclotomic_poly
from sympy.abc import x as sym_x

from heckeforge import group, hecke, hochschild, ncalg
from heckeforge.cyclo import (
    CycloMatrix,
    CycloNum,
    cyclo,
    cyclotomic_polynomial,
    echelon_rows,
    one,
    root_of_unity,
    twist,
    zero,
)


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
