"""Brute-force vs closed-form agreement beyond the core acceptance groups.

These pick up catalog paths the rank-4 groups never exercise: n = 5 (a
nonempty middle block of basic invariants in the 3-cycle component and a
3-variable (1,-2) component), p = r with a half-turn diagonal class,
r = 6 arithmetic in the machinery end to end, and the (1,-2) class of
G(r,1,4) at even r != 2p.
"""

import pytest

from heckeforge.group import RepKind, diag, from_cycles
from heckeforge.hochschild import (
    closed_form_catalog,
    compare,
    hh2_total,
    hh_component,
    neg_transposition_component_module,
    three_cycle_component_module,
)
from oracles import conjugate_in_full_group

F = RepKind.FAITHFUL
P = RepKind.PERMUTATION

EXTENDED_CASES = [
    (2, 1, 5, F, 4),
    (4, 4, 4, F, 4),
    (6, 6, 4, F, 3),
    (2, 1, 5, P, 3),
    (4, 1, 3, P, 4),
]


@pytest.mark.parametrize("r,p,n,rep,D", EXTENDED_CASES)
def test_extended_brute_vs_catalog(r, p, n, rep, D):
    comps = hh2_total(r, p, n, rep, D, validate_skipped=True)
    report = compare(comps, closed_form_catalog(r, p, n, rep), D)
    assert report.ok, [
        (row.rep, row.case, row.brute_dims, row.closed_dims) for row in report.mismatches
    ]


def test_n5_builders_with_middle_invariants():
    # n = 5 makes the middle invariant block nonempty: for the 3-cycle
    # component n' = 2 gives the base (v1+v2+v3)^2, e_1(v_4^2, v_5^2) and
    # (v_4 v_5)^2, with the scalar generator in degree 0
    fmd = three_cycle_component_module(2, 1, 5)
    assert fmd.base_generator_degrees == (2, 2, 4)
    assert fmd.module_generator_degrees == (0,)
    fmd = neg_transposition_component_module(2, 1, 5)
    assert fmd.base_generator_degrees == (2, 4, 12)
    assert fmd.module_generator_degrees == (0, 6)


def test_half_turn_diagonal_class_is_zero():
    # xi_1^{r/2} xi_2^{r/2} has determinant 1 and codimension 2, but a
    # centralizing transposition with determinant -1 kills the component
    comp = hh_component(diag(4, 4, (2, 2, 0, 0)), F, 2, 4, p=4)
    assert comp.is_zero()


@pytest.mark.parametrize("r", [4, 6])
def test_even_r_ne_2p_neg_transposition_class_is_zero(r):
    # G(r,1,4) faithful, r even and r != 2p: the catalog gives the (1,-2)
    # class the zero module under its own case name, and brute force on that
    # class agrees through degree 4 (hh2_total's filter skips it, so compare
    # alone would not compute it)
    catalog = closed_form_catalog(r, 1, 4, F)
    neg2 = from_cycles(r, 4, [(1, 2)], exps=[0, r // 2, 0, 0])
    [entry] = [e for g, e in catalog.items() if conjugate_in_full_group(g, neg2)]
    assert entry.case == "neg_transposition_r_ne_2p"
    assert entry.module.dims_up_to(4) == {d: 0 for d in range(5)}
    assert hh_component(neg2, F, 2, 4).is_zero()
    report = compare(hh2_total(r, 1, 4, F, 4), catalog, 4)
    assert report.ok, [
        (row.rep, row.case, row.brute_dims, row.closed_dims) for row in report.mismatches
    ]
