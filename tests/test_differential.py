"""Differential tests of two fast paths against the reference versions kept
in `oracles`:

- the memoized Drinfeld rewriter against the stack rewriter, term for term
  (JSON, so the coefficients' field orders too), on families that pass and
  fail the PBW conditions, with pushes and forms of orders up to 6 and
  coefficients of orders 1, 2, 3, 4 and 6, and on one product whose field
  orders depend on the order in which the bracket corrections are added;
  and both bracketings of seeded triples, whose second product has a
  many-term operand, as `pbw_dimension_check` multiplies them;
- the sampled PBW surrogate's witness against the first triple it draws
  on which chained stack products fail to associate, on the 20
  criterion-5 perturbations;
- conjugate_form, which skips SkewForm's checks, against the checked
  form of the same conjugated grid, on the support of those families and
  every generator;
- the H* product against the bubble-word rewriter, term for term, on every
  gbar v_a v_b v_c over G(2,1,3), every gbar v_a v_b over G(3,1,3) and
  seeded term pairs and triples in H*(3,4) with zeta_3 in the
  coefficients, a triple's second product with a many-term left operand;
- generator-only pbw_check against the scan over all of G, verdicts and
  Jacobi witnesses (an invariance witness is a generator failing the
  scan's condition), on every group with |G| <= 400 that the acceptance
  and extended tests use, under both actions;
- the extension of class forms grown on generators against their
  conjugation by every element, as mappings, and as JSON under the
  permutation action, or both raising IllDefinedFamilyError, on the
  presets of the p = 1 groups among those, the seeds `_pbw_families`
  extends and those of `faithful_family_2_1_4`, under both actions;
- the semi-invariant rows from phase agreement against the Reynolds
  projector sums followed by echelon reduction, index, field order and
  coefficients: the class route's on every class of the acceptance and
  extended groups under both actions, and the oracle walk's on three
  non-standard subspace bases;
- the same rows against the walk over tuple targets in a basis-wide dict,
  row for row, index and phase, on the same cases two polynomial degrees
  further;
- the class route's rows from block-sorted representatives against the
  table-driven walk over every basis element, rows, monomials and wedges
  in order, with its counted dims, on each class representative and one
  other member of its class, of the same groups under both actions, in
  cohomological degrees 0 to 3 and polynomial degrees up to 6;
- V^g and the wedge duals read off g's cycles against the dense kernel of
  g - 1 and the inverse of [V^g | im(g - 1)], values and field orders, on
  each class representative and its lex-max member, for the same groups
  and actions;
- the codimension-2 skew form read off g's cycles against the inverse of
  the dense [V^g | im(g - 1)], on every codimension-2 action of those
  groups and of the pbw_check groups, under both actions;
- reflection roots read off the monomial action against the column space
  of g - 1, values and field orders, on every element of the pbw_check
  groups, under both actions;
- class membership by (a,k)-cycle type, as the catalog and the presets
  test it, against each class conjugated by every element, on every class
  of the acceptance and extended groups;
- the conjugacy classes built from coloured cycle types against the
  classes grown breadth first over the whole group, representative, size
  and order, on every G(r,p,n) with r <= 12 and |G| <= 50,000;
- the least member built from each coloured cycle type against the scan
  of all n! permutations per colour multiset, on every G(r,1,n) with
  n <= 7, r <= 12 and |G| <= 10^7, and the split count read off the type
  against the exponent sums of the centralizer's generators, on every
  class of every G(r,1,n) with |G| <= 10^5 and every p dividing r;
- the Hochschild character held on generators against the table computed
  on every element of the solved centralizer, on each class representative
  and one other member of its class, of the groups
  `test_character_matches_dense_restriction` reads;
- the generators of the pointwise stabilizer of V^g that the centralizer
  record reads off g's cycles against the stabilizer listed from the
  solved centralizer, and the determinant filter on them against the scan
  of the listed character, on each class representative and one other
  member of its class, of the acceptance and extended groups under both
  actions;
- the dims `hh_component` counts from the kept orbits against the length
  of each degree's assembled basis, on every class of the acceptance and
  extended groups under both actions, in cohomological degree m = 0..n+1
  and polynomial degree <= 4, and the `hh` JSON without `--basis` against
  the `--basis` output with its basis dropped, on the golden `--basis`
  commands;
- the filtered class loop of `hh2_total` in cohomological degree
  m = 0..n+1 against `hh_component` on every class, as JSON, on the same
  groups and actions, and the filter at m = 2 against the scan of the
  listed character with codim V^g in {0, 2};
- the parameter-space oracle, which solves the equivariance rows as orbits
  with phases, against the dense assembly of every row and against the
  Reynolds route, on every G(r,p,n) with |G| <= 400, n <= 5 and r <= 12
  (r <= 6 at n = 1), under both actions.
"""

import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest

import heckeforge.polyforms
from heckeforge.cli import main
from heckeforge.cyclo import CycloMatrix, cyclo, euler_phi, one, root_of_unity, twist, zero
from heckeforge.group import (
    GroupElement,
    RepKind,
    _cycle_types,
    _least_member,
    _split_count,
    centralizer_of,
    conjugacy_classes,
    cycle_type,
    diag,
    elements,
    from_cycles,
    generators,
    group_order,
    identity,
    inverse,
    monomial_action,
    multiply,
    three_cycle,
    transposition,
)
from heckeforge.hecke import (
    IllDefinedFamilyError,
    SkewForm,
    SkewFormFamily,
    _codim2_form,
    _extend_by_conjugation,
    build_preset,
    conjugate_form,
    param_space,
    param_space_linear_oracle,
    pbw_check,
    three_cycle_classes,
)
from heckeforge.hochschild import (
    _passes_det_filter,
    class_action,
    fixed_basis,
    fixed_space,
    hh2_total,
    hh_component,
    hochschild_character,
)
from heckeforge.ncalg import DrinfeldAlgebra, HStarAlgebra, pbw_dimension_check
from heckeforge.polyforms import (
    _duals,
    reflection_root,
    reynolds_semiinvariant_basis,
    semiinvariant_dims,
    semiinvariant_rows,
    subspace_actions,
)
import oracles
from oracles import (
    FAITHFUL_ENTRIES_2_1_4,
    _HStarReference,
    FractionCyclo,
    a_conjugate,
    class_members,
    classes_by_search,
    dense_codim2_form,
    dense_spaces,
    extend_by_listing,
    faithful_family_2_1_4,
    generator_actions,
    hstar_reference_multiply,
    least_members_by_scan,
    listed_hochschild_character,
    param_space_by_reynolds,
    param_space_dense_oracle,
    passes_det_filter_by_listing,
    pbw_check_full_scan,
    phase_rows_by_basis_walk,
    reynolds_basis_by_walk,
    reynolds_rows_by_projector,
    semiinvariant_rows_by_walk,
    stack_multiply,
    trivial_character,
)
from test_cli import GOLDEN, GOLDEN_CASES

F = RepKind.FAITHFUL
P = RepKind.PERMUTATION


def _perturbed(fam, g, i, j):
    """fam with a_g(v_{i+1}, v_{j+1}) raised by 1, i < j."""
    grid = [list(row) for row in fam.form(g).matrix]
    grid[i][j] = grid[i][j] + 1
    grid[j][i] = grid[j][i] - 1
    support = dict(fam.support)
    support[g] = SkewForm(grid)
    return SkewFormFamily(fam.r, fam.p, fam.n, fam.repkind, support)


# -- the memoized rewriter against the stack rewriter ---------------------------


def _rewrite_families():
    out = {f"a_r1n({r},{n})": build_preset("a_r1n", r, n) for r, n in [(2, 3), (3, 3), (4, 3), (2, 4)]}
    out["empty(3,1,3) faithful"] = SkewFormFamily(3, 1, 3, F, {})
    out["empty(3,1,3) permutation"] = SkewFormFamily(3, 1, 3, P, {})
    # pushes past v_k under xi carry phases of orders 4 and 6
    out["empty(4,1,3) faithful"] = SkewFormFamily(4, 1, 3, F, {})
    out["empty(6,1,3) faithful"] = SkewFormFamily(6, 1, 3, F, {})
    # not PBW: zeta_4 and rational entries on two diagonal elements, so word
    # forms mix orders 1 and 4 before the products' own phases and scalars
    z4 = root_of_unity(4)
    out["zeta4 forms(4,1,3)"] = SkewFormFamily(4, 1, 3, F, {
        diag(4, 3, [1, 0, 0]): SkewForm([[0, z4, 0], [-z4, 0, 1], [0, -1, 0]]),
        diag(4, 3, [2, 1, 1]): SkewForm([[0, 0, 1], [0, 0, -z4], [-1, z4, 0]]),
    })
    # not PBW: a zeta_6 entry over G(3,1,3) makes the field order 6, so a
    # push phase zeta_3^e enters the field as zeta_6^(2e)
    z6 = root_of_unity(6)
    out["zeta6 form(3,1,3)"] = SkewFormFamily(3, 1, 3, F, {
        diag(3, 3, [1, 0, 0]): SkewForm([[0, z6, 0], [-z6, 0, 1], [0, -1, 0]]),
    })
    out["faithful(2,1,4)"] = faithful_family_2_1_4()
    # not PBW: one entry off an equivariant family, so the normal form
    # depends on the rewriting order, which both rewriters must share
    preset = build_preset("a_r1n", 2, 3)
    out["perturbed a_r1n(2,3)"] = _perturbed(preset, min(preset.support, key=GroupElement.sort_key), 0, 1)
    return out


REWRITE_FAMILIES = _rewrite_families()


def _assert_same_product(x, y):
    assert (x * y).to_json() == stack_multiply(x, y).to_json(), (x, y)


def _coefficient(rng):
    """A random nonzero rational times a root of unity of order 1, 2, 3, 4
    or 6, in the field of that order."""
    order = rng.choice([1, 2, 3, 4, 6])
    q = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
    return root_of_unity(order, rng.randrange(order)) * q


@pytest.mark.parametrize("name", sorted(REWRITE_FAMILIES))
def test_memoized_rewriter_matches_the_stack_rewriter(name):
    fam = REWRITE_FAMILIES[name]
    alg = DrinfeldAlgebra(fam)
    n = alg.n
    G = elements(alg.r, fam.p, n)
    # every variable word v_a v_b v_c, as (v_a sigmabar)(v_i v_j) with i <= j
    # and sigma = 1 or (b,c) sending (i, j) to (b, c); a word with two
    # descents is where rewriting orders differ on a family failing Jacobi
    for a, b, c in product(range(1, n + 1), repeat=3):
        sigma = identity(alg.r, n) if b <= c else transposition(alg.r, n, b, c)
        y = alg.var(min(b, c)) * alg.var(max(b, c))
        _assert_same_product(alg.var(a) * alg.group(sigma), y)
    rng = random.Random(sum(map(ord, name)))

    def term():
        mu = [0] * n
        for _ in range(rng.randrange(4)):
            mu[rng.randrange(n)] += 1
        return alg.term(mu, rng.choice(G), _coefficient(rng))

    for _ in range(20):
        _assert_same_product(term(), term())


@pytest.mark.parametrize("name", sorted(REWRITE_FAMILIES))
def test_chained_products_match_the_stack_rewriter(name):
    # pbw_dimension_check's hot path: (x y) z multiplies a product with many
    # terms by a short operand, and x (y z) the other way round.  Both
    # bracketings, against stack_multiply chained in the same order; the
    # faithful empty families' pushes carry phases, so K > 1 is covered.  A
    # product carries the field all its coefficients were built in
    fam = REWRITE_FAMILIES[name]
    alg = DrinfeldAlgebra(fam)
    n = alg.n
    G = elements(alg.r, fam.p, n)
    rng = random.Random(sum(map(ord, name)) + 1)

    def term():
        mu = [0] * n
        for _ in range(rng.randrange(3)):
            mu[rng.randrange(n)] += 1
        return alg.term(mu, rng.choice(G), _coefficient(rng))

    for _ in range(6):
        x, y, z = (term() + term() for _ in range(3))
        for got, want in [((x * y) * z, stack_multiply(stack_multiply(x, y), z)),
                          (x * (y * z), stack_multiply(x, stack_multiply(y, z)))]:
            assert got.to_json() == want.to_json(), (x, y, z)
            assert all(c.order == got._field for c in got.terms.values())


def test_bracket_order_fixes_the_field_orders():
    # a family failing equivariance, supported on xi_1 and xi_1^2 xi_2 xi_3,
    # both with a(v_2, v_3) = -1.  In (v_3 v_3)(v_2 v_2) the degree-0 term at
    # xi_2 xi_3 collects corrections of field orders 1 and 3 that sum to 1.
    # Held in one field per product and printed in its least one, the
    # product prints the same JSON whichever order the support lists the two
    # forms in, with that coefficient at order 1
    def form(c):
        return SkewForm([[0, 0, 0], [0, 0, c], [0, -c, 0]])

    support = [(diag(3, 3, [1, 0, 0]), form(-1)), (diag(3, 3, [2, 1, 1]), form(-1))]
    printed = []
    for items in (support, support[::-1]):
        alg = DrinfeldAlgebra(SkewFormFamily(3, 1, 3, F, dict(items)))
        x, y = alg.var(3) * alg.var(3), alg.var(2) * alg.var(2)
        _assert_same_product(x, y)
        c = (x * y).terms[((0, 0, 0), diag(3, 3, [0, 1, 1]))]
        assert c == one() and c.to_json() == one().to_json() and c.to_json()["order"] == 1
        printed.append(json.dumps((x * y).to_json()))
    assert printed[0] == printed[1]


@pytest.mark.parametrize("name", sorted(REWRITE_FAMILIES))
def test_conjugate_form_builds_what_the_checked_constructor_builds(name):
    # conjugate_form skips SkewForm's conversion and skew check; its image
    # is the checked form of the entrywise conjugate grid, in value and JSON
    fam = REWRITE_FAMILIES[name]
    for A in fam.support.values():
        for h in generators(fam.r, fam.p, fam.n):
            pi, t = monomial_action(h, fam.repkind)
            grid = [[twist(A.matrix[a - 1][b - 1], fam.r, t[i] + t[j]) for j, b in enumerate(pi)]
                    for i, a in enumerate(pi)]
            got, want = conjugate_form(A, h, fam.repkind), SkewForm(grid)
            assert got == want and got.n == want.n
            assert [[e.to_json() for e in row] for row in got.matrix] == [[e.to_json() for e in row] for row in want.matrix]


# -- the H* product against the bubble-word rewriter --------------------------------


def _hstar_words(r, n, length):
    """Every gbar v_a v_b ... (length letters) over G(r,1,n), as the factor
    lists of a left fold."""
    alg = HStarAlgebra(r, n)
    for g in elements(r, 1, n):
        for word in product(range(1, n + 1), repeat=length):
            yield [alg.group(g)] + [alg.var(k) for k in word]


def _hstar_term_folds(seed, count, factors, max_degree):
    """`count` seeded lists of `factors` sums of two terms of degree
    <= max_degree in H*(3,4); a coefficient is a rational times zeta_3^e,
    e in {0, 1, 2}, with e = 0 left rational."""
    alg = HStarAlgebra(3, 4)
    G = elements(3, 1, 4)
    rng = random.Random(seed)

    def term():
        mu = [0] * 4
        for _ in range(rng.randrange(max_degree + 1)):
            mu[rng.randrange(4)] += 1
        e = rng.randrange(3)
        c = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
        return alg.term(mu, rng.choice(G), root_of_unity(3, e) * c if e else c)

    for _ in range(count):
        yield [term() + term() for _ in range(factors)]


@pytest.mark.parametrize("cases", [
    lambda: _hstar_words(2, 3, 3), lambda: _hstar_words(3, 3, 2), lambda: _hstar_term_folds(34, 20, 2, 3),
    lambda: _hstar_term_folds(35, 8, 3, 2),
], ids=["G(2,1,3)-gbar-vvv", "G(3,1,3)-gbar-vv", "H*(3,4)-zeta3-pairs", "H*(3,4)-zeta3-triples"])
def test_hstar_core_matches_the_bubble_word_rewriter(cases):
    for factors in cases():
        x = ref = factors[0]
        for y in factors[1:]:
            x, ref = x * y, hstar_reference_multiply(ref, y)
            assert x.to_json() == ref.to_json(), factors


# -- generator-only pbw_check against the scan over G ------------------------------

# the groups of the acceptance and extended tests with |G| <= 400
SMALL_GROUPS = [(1, 1, 3), (2, 1, 3), (3, 1, 3), (4, 1, 3), (1, 1, 4), (2, 1, 4), (2, 2, 4)]


def _criterion_5_perturbations():
    """The 20 perturbed families of acceptance criterion 5, same seed."""
    rng = random.Random(20)
    out = {}
    for (r, n) in [(1, 3), (2, 3), (3, 3), (2, 4)]:
        fam = build_preset("a_r1n", r, n)
        for t in range(5):
            g = rng.choice(sorted(fam.support, key=GroupElement.sort_key))
            i = rng.randrange(n)
            j = rng.randrange(n)
            while j == i:
                j = rng.randrange(n)
            out[f"a_r1n({r},{n}) perturbation {t}"] = _perturbed(fam, g, min(i, j), max(i, j))
    return out


CRITERION_5_PERTURBATIONS = _criterion_5_perturbations()


def _surrogate_triples(alg, n_triples, seed):
    """The triples pbw_dimension_check(alg, N, n_triples, seed) multiplies,
    in its order: every variable triple, then seeded terms of degree <= 2."""
    n = alg.n
    for i, j, k in product(range(1, n + 1), repeat=3):
        yield alg.var(i), alg.var(j), alg.var(k)
    rng = random.Random(seed)
    G = elements(alg.r, alg.p, n)

    def term():
        mu = [0] * n
        for _ in range(rng.randrange(3)):
            mu[rng.randrange(n)] += 1
        return alg.term(mu, rng.choice(G), rng.randrange(1, 4))

    for _ in range(n_triples):
        yield term(), term(), term()


@pytest.mark.parametrize("name", sorted(CRITERION_5_PERTURBATIONS))
def test_the_sampled_surrogate_finds_the_first_stack_witness(name):
    # each perturbation fails Jacobi, and the surrogate must see it: its
    # witness is the first triple it draws on which the stack rewriter's
    # two bracketings differ
    alg = DrinfeldAlgebra(CRITERION_5_PERTURBATIONS[name])
    report = pbw_dimension_check(alg, 3, 200, seed=21)
    assert not report.associative
    first = next((x, y, z) for x, y, z in _surrogate_triples(alg, 200, 21)
                 if not stack_multiply(stack_multiply(x, y), z) == stack_multiply(x, stack_multiply(y, z)))
    assert [w.to_json() for w in report.witness] == [w.to_json() for w in first]


def _pbw_families():
    out = {f"empty({r},{p},{n})": SkewFormFamily(r, p, n, P, {}) for r, p, n in SMALL_GROUPS}
    out.update({f"a_r1n({r},{n})": build_preset("a_r1n", r, n) for r, p, n in SMALL_GROUPS if p == 1})
    out.update(_criterion_5_perturbations())
    # the dropped-conjugate family of the CLI test: a_r1n(1,3) without its
    # first form in print order
    preset = build_preset("a_r1n", 1, 3)
    first = min(preset.support, key=GroupElement.sort_key)
    out["a_r1n(1,3) dropped conjugate"] = SkewFormFamily(
        1, 1, 3, P, {g: A for g, A in preset.support.items() if g != first}
    )
    # equivariant under G(3,3,3) but not under xi_1 in G(3,1,3): the
    # G(3,3,3)-class of (1,2,3) is a third of its G(3,1,3)-class
    g0 = three_cycle(3, 3, 1, 2, 3)
    seed = {g0: build_preset("a_r1n", 3, 3).support[g0]}
    out["a_r1n(3,3) over G(3,3,3)"] = SkewFormFamily(3, 1, 3, P, _extend_by_conjugation(seed, 3, 3, 3, P))
    out["faithful(2,1,4)"] = faithful_family_2_1_4()
    # equivariant, but failing Jacobi: the transpositions of S_3, with
    # a_{(1,2)}(v_1, v_3) = a_{(1,2)}(v_2, v_3) = 1 extended by conjugation
    seed = {transposition(1, 3, 1, 2): SkewForm([[0, 0, 1], [0, 0, 1], [-1, -1, 0]])}
    out["transpositions(1,1,3)"] = SkewFormFamily(1, 1, 3, P, _extend_by_conjugation(seed, 1, 1, 3, P))
    return {
        f"{name} {rep.value}": SkewFormFamily(fam.r, fam.p, fam.n, rep, fam.support)
        for name, fam in out.items()
        for rep in (F, P)
    }


PBW_FAMILIES = _pbw_families()


def test_pbw_families_cover_every_verdict():
    verdicts = {(rep.invariance, rep.jacobi) for rep in map(pbw_check, PBW_FAMILIES.values())}
    assert verdicts == {(True, True), (False, True), (True, False), (False, False)}


@pytest.mark.parametrize("name", list(PBW_FAMILIES))
def test_generator_pbw_check_matches_the_full_scan(name):
    # the verdicts and the Jacobi witness match; an invariance witness is a
    # generator that fails the full scan's own condition
    fam = PBW_FAMILIES[name]
    fast, full = pbw_check(fam), pbw_check_full_scan(fam)
    assert (fast.invariance, fast.jacobi) == (full.invariance, full.jacobi)
    assert [w for w in fast.witnesses if w[0] == "jacobi"] == [w for w in full.witnesses if w[0] == "jacobi"]
    for _, g, s in (w for w in fast.witnesses if w[0] == "invariance"):
        assert s in generators(fam.r, fam.p, fam.n)
        assert not fam.form(multiply(multiply(inverse(s), g), s)) == conjugate_form(fam.form(g), s, fam.repkind)


# -- extension by conjugation on generators against the listing of G ------------


def _extension_cases():
    """(name, seeds, r, p, n): the seeds of the presets over every p = 1 group
    of SMALL_GROUPS, of the two families `_pbw_families` extends itself, and
    of `faithful_family_2_1_4`."""
    out = []
    for r, p, n in SMALL_GROUPS:
        if p != 1:
            continue
        classes = three_cycle_classes(r, n)
        scalars = [(k + 1) * root_of_unity(r, k) for k in range(len(classes))]
        for name, fam in [("a_r1n", build_preset("a_r1n", r, n)),
                          ("generic", build_preset("generic", r, n, scalars))]:
            seeds = {cls.rep: fam.support[cls.rep] for cls in classes if cls.rep in fam.support}
            out.append((f"{name}({r},{n})", seeds, r, 1, n))
    g0 = three_cycle(3, 3, 1, 2, 3)
    out.append(("a_r1n(3,3) over G(3,3,3)", {g0: build_preset("a_r1n", 3, 3).support[g0]}, 3, 3, 3))
    seed = {transposition(1, 3, 1, 2): SkewForm([[0, 0, 1], [0, 0, 1], [-1, -1, 0]])}
    out.append(("transpositions(1,1,3)", seed, 1, 1, 3))
    seeds = {g: _codim2_form(g, F, cyclo(c, 2)) for g, c in FAITHFUL_ENTRIES_2_1_4}
    out.append(("faithful(2,1,4)", seeds, 2, 1, 4))
    return out


def _extension(extend, seeds, r, p, n, rep):
    """The extended mapping g -> form, or the name of the error it raised."""
    try:
        return extend(seeds, r, p, n, rep)
    except IllDefinedFamilyError:
        return "IllDefinedFamilyError"


@pytest.mark.parametrize("case", _extension_cases(), ids=lambda case: case[0])
def test_extension_on_generators_matches_the_listing(case):
    # under both actions, so the seeds that are not Z(g)-invariant under the
    # other action raise on both routes.  Under the faithful action a
    # rational entry reached along a path of phases that cancel keeps the
    # field order the phases passed through, so the JSON, field orders
    # included, is compared under the permutation action, where no edge
    # applies a phase
    _, seeds, r, p, n = case
    for rep in (F, P):
        walk = _extension(_extend_by_conjugation, seeds, r, p, n, rep)
        listed = _extension(extend_by_listing, seeds, r, p, n, rep)
        assert walk == listed, rep
        if rep == P and listed != "IllDefinedFamilyError":
            assert SkewFormFamily(r, p, n, P, walk).to_json() == SkewFormFamily(r, p, n, P, listed).to_json()


def test_both_extensions_reject_a_seed_that_is_not_centralizer_invariant():
    # a_{(1,2)}(v_1, v_3) = 1 alone: (1,2) centralizes itself and moves the
    # form to a_{(1,2)}(v_2, v_3) = 1; and two seeds in one class whose
    # forms are not conjugate
    s12, s23 = transposition(1, 3, 1, 2), transposition(1, 3, 2, 3)
    lone = SkewForm([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    pair = SkewForm([[0, 0, 1], [0, 0, 1], [-1, -1, 0]])
    double = SkewForm([[0, 0, 2], [0, 0, 2], [-2, -2, 0]])
    for seeds in ({s12: lone}, {s12: pair, s23: double}):
        for extend in (_extend_by_conjugation, extend_by_listing):
            with pytest.raises(IllDefinedFamilyError):
                extend(seeds, 1, 1, 3, P)


# -- semi-invariant rows from phase agreement against the projector sums ----------


def _reynolds_groups():
    from test_acceptance import FAITHFUL_CASES, NONFAITHFUL_CASES
    from test_catalog_extended import EXTENDED_CASES

    groups = set(FAITHFUL_CASES) | {(r, 1, n) for r, n in NONFAITHFUL_CASES}
    groups |= {(r, p, n) for r, p, n, _, _ in EXTENDED_CASES}
    return [(r, p, n, rep) for r, p, n in sorted(groups) for rep in (F, P)]


def _max_degree(r, p, n):
    return 6 if group_order(r, p, n) <= 400 else 4


def _class_cases(r, p, n, rep):
    """(chi, rep, subspace, D, action) for every class, as hh_component
    reads them: `action` is the class route's `class_action`."""
    out = []
    for cls in conjugacy_classes(r, p, n):
        g = cls.rep
        out.append((hochschild_character(g, rep, p), rep, fixed_basis(g, rep), _max_degree(r, p, n),
                    class_action(g, rep, p)))
    return out


def _scaled_fixed_basis_case():
    # the fixed basis of (1,2,3) in G(3,1,4), each vector scaled by a power of zeta_3
    g = three_cycle(3, 4, 1, 2, 3)
    scaled = tuple(tuple((i, t + j + 1) for i, t in v) for j, v in enumerate(fixed_basis(g, F)))
    return [(hochschild_character(g, F, 1), F, scaled, _max_degree(3, 1, 4), None)]


def _reversed_basis_case():
    # S_3 with the trivial character on the coordinate basis in reverse order
    std = tuple(((i, 0),) for i in range(3))
    return [(trivial_character(elements(1, 1, 3)), F, std[::-1], _max_degree(1, 1, 3), None)]


def _scaled_coordinate_basis_case():
    # the permutation matrices of G(3,1,3) with the trivial character on
    # w_j = zeta_3^j v_j: a transposition sends w_i to a nonreal multiple of
    # w_j, so the rows carry nonreal phases, which the fixed bases of the
    # class cases never do
    S3 = [h for h in elements(3, 1, 3) if not any(h.exps)]
    scaled = tuple(((j, j),) for j in range(3))
    return [(trivial_character(S3), F, scaled, _max_degree(1, 1, 3), None)]


REYNOLDS_CASES = {
    f"G({r},{p},{n}) {rep.value}": (lambda a=(r, p, n, rep): _class_cases(*a))
    for r, p, n, rep in _reynolds_groups()
}
REYNOLDS_CASES["scaled fixed basis"] = _scaled_fixed_basis_case
REYNOLDS_CASES["reversed coordinate basis"] = _reversed_basis_case
REYNOLDS_CASES["scaled coordinate basis"] = _scaled_coordinate_basis_case


def _case_rows(case, d, k):
    """(rows, monos, wedges) of a case: the class route's for a class, the
    oracle walk's for a non-standard subspace basis."""
    chi, rep, subspace, _, action = case
    return semiinvariant_rows(action, d, k) if action else semiinvariant_rows_by_walk(chi, rep, d, k, subspace)


def _per_element_actions(chi, rep, subspace):
    """(pi, texp * F / r, e(h)) for every h of chi.subgroup, repeats kept."""
    H = chi.subgroup
    step = chi.order // H[0].r
    pairs = subspace_actions(H, rep, subspace)
    return [(pi, tuple(t * step for t in texp), chi.exponents[h]) for h, (pi, texp) in zip(H, pairs)]


@pytest.mark.parametrize("name", list(REYNOLDS_CASES))
def test_phase_rows_match_the_projector_sums(monkeypatch, name):
    # every polynomial degree up to D and every form degree, through the
    # public entry points, the class route's for a class and the oracle
    # walk's for a non-standard subspace basis; the projector sums run over
    # every element of the subgroup.  Some orbit must be killed, or the
    # comparison would not reach the stabilizer condition
    seen = {"calls": 0, "killed": 0}

    def as_data(rows):  # each row as index -> value, whatever order its keys came in
        return [{i: (c.order, c.coeffs) for i, c in row.items()} for row in rows]

    def compared(real):
        def rows_of(*args):
            rows, monos, wedges = real(*args)
            basis = [(mu, S) for mu in monos for S in wedges]
            values = [{i: root_of_unity(order, e) for i, e in row.items()} for row in rows]
            assert as_data(values) == as_data(reynolds_rows_by_projector(per_element, order, basis))
            seen["calls"] += 1
            seen["killed"] += sum(map(len, rows)) < len(basis)
            return rows, monos, wedges

        return rows_of

    monkeypatch.setattr(heckeforge.polyforms, "semiinvariant_rows", compared(heckeforge.polyforms.semiinvariant_rows))
    monkeypatch.setattr(oracles, "semiinvariant_rows_by_walk", compared(oracles.semiinvariant_rows_by_walk))
    for chi, rep, subspace, D, action in REYNOLDS_CASES[name]():
        per_element, order = _per_element_actions(chi, rep, subspace), chi.order
        for d in range(D + 1):
            for k in range(len(subspace) + 1):
                if action:
                    reynolds_semiinvariant_basis(action, d, k)
                else:
                    reynolds_basis_by_walk(chi, rep, d, k, subspace)
    assert seen["calls"] and seen["killed"], seen


@pytest.mark.parametrize("name", list(REYNOLDS_CASES))
def test_phase_rows_match_the_basis_walk(name):
    # every polynomial degree up to D + 2 (8 where |G| <= 400) and every
    # form degree: the same rows in the same order, each the same dict of
    # index -> phase.  Some orbit must be kept and some killed
    seen = {"kept": 0, "killed": 0}
    for case in REYNOLDS_CASES[name]():
        chi, rep, subspace, D, _ = case
        actions = generator_actions(chi, rep, subspace)
        for d in range(D + 3):
            for k in range(len(subspace) + 1):
                rows, monos, wedges = _case_rows(case, d, k)
                basis = [(mu, S) for mu in monos for S in wedges]
                assert rows == phase_rows_by_basis_walk(actions, chi.order, basis), (chi.generators, d, k)
                seen["kept"] += len(rows)
                seen["killed"] += sum(map(len, rows)) < len(basis)
    assert seen["kept"] and seen["killed"], seen


@pytest.mark.parametrize("r,p,n,rep", _reynolds_groups(), ids=lambda a: str(getattr(a, "value", a)))
def test_class_rows_match_the_oracle_walk(r, p, n, rep):
    # the rows read off block-sorted representatives against the oracle's
    # table-driven walk over every basis element: the same rows in the same
    # order, each the same dict of index -> phase, on the same monomials
    # and wedges, and as many as the counted dims, in cohomological degrees
    # 0 to 3 and every polynomial degree up to 6, on each class
    # representative and one other member of its class.  Some orbit must be
    # kept and some killed
    seen = {"kept": 0, "killed": 0}
    for g in (g for cls in conjugacy_classes(r, p, n) for g in dict.fromkeys([cls.rep, a_conjugate(cls.rep, p)])):
        _assert_class_rows_match(g, rep, p, 6, [m - (n - len(fixed_basis(g, rep))) for m in range(4)], seen)
    assert seen["kept"] and seen["killed"], seen


def _assert_class_rows_match(g, rep, p, D, form_degrees, seen):
    fixed, chi, action = fixed_basis(g, rep), hochschild_character(g, rep, p), class_action(g, rep, p)
    for k in form_degrees:
        dims = semiinvariant_dims(action, D, k)
        for d in range(D + 1):
            rows, monos, wedges = semiinvariant_rows(action, d, k)
            assert (rows, monos, wedges) == semiinvariant_rows_by_walk(chi, rep, d, k, fixed), (g, k, d)
            assert dims[d] == len(rows), (g, k, d)
            seen["kept"] += len(rows)
            seen["killed"] += sum(map(len, rows)) < len(monos) * len(wedges)


@pytest.mark.parametrize("r,p", [(2, 1), (3, 1), (3, 3), (4, 2), (6, 1)])
def test_class_rows_match_the_oracle_walk_on_phased_swaps(r, p):
    # the class route drops the phases with which a swap exchanges two fixed
    # vectors, which the oracle walk keeps.  A swap carries one only between
    # cycles of length >= 3 whose largest points, where the fixed vectors
    # have phase 0, sit at different places: two or three colour-0 3-cycles
    # with exponents, and fixed points, under both actions, in every form
    # degree and polynomial degrees up to 6.  Some swap must carry a phase,
    # and some kept orbit must move along it
    cases = [
        (6, [(1, 5, 3), (2, 4, 6)], (0, 0, -1, 0, 1, 0)),
        (8, [(1, 5, 3), (2, 4, 6)], (0, 0, -1, 0, 1, 0, 1, -1)),
        (9, [(1, 5, 3), (2, 4, 6), (7, 9, 8)], (0, 0, -1, 0, 1, 0, 0, 1, -1)),
    ]
    seen = {"kept": 0, "killed": 0, "phased": 0}
    for n, cycles, exps in cases:
        g = from_cycles(r, n, cycles, exps=exps)
        for rep in (F, P):
            kept = seen["kept"]
            _assert_class_rows_match(g, rep, p, 6, range(len(fixed_basis(g, rep)) + 1), seen)
            swaps = [s for _, s in centralizer_of(g, p).swaps]
            phased = any(any(texp) for _, texp in subspace_actions(swaps, rep, fixed_basis(g, rep)))
            seen["phased"] += phased and seen["kept"] > kept
    assert seen["kept"] and seen["killed"] and seen["phased"], seen


# -- V^g, the wedge duals and the codimension-2 forms from cycles against dense elimination


def _exact(vectors):
    return [[(c.order, c.coeffs) for c in v] for v in vectors]


@pytest.mark.parametrize("r,p,n,rep", _reynolds_groups(), ids=lambda a: str(getattr(a, "value", a)))
def test_spaces_from_cycles_match_dense_elimination(r, p, n, rep):
    for cls in conjugacy_classes(r, p, n):
        for g in dict.fromkeys([cls.rep, max(class_members(cls.rep, r, p, n), key=GroupElement.sort_key)]):
            kernel, image = dense_spaces(g, rep)
            assert _exact(fixed_space(g, rep)) == _exact(kernel), (g, rep)
            if not kernel:
                continue
            duals = []
            for size, pairs in _duals(fixed_basis(g, rep)):
                row = [zero(r)] * n
                for i, t in pairs:
                    row[i] = root_of_unity(r, t) * Fraction(1, size)
                duals.append(row)
            cols = kernel + image
            inverse = CycloMatrix([[v[i] for v in cols] for i in range(n)]).inverse()
            assert _exact(duals) == _exact(inverse.entries[: len(kernel)]), (g, rep)


def _form_groups():
    groups = {(r, p, n) for r, p, n, _ in _reynolds_groups()} | set(SMALL_GROUPS)
    return [(r, p, n, rep) for r, p, n in sorted(groups) for rep in (F, P)]


@pytest.mark.parametrize("r,p,n,rep", _form_groups(), ids=lambda a: str(getattr(a, "value", a)))
def test_codim2_forms_from_cycles_match_the_dense_inverse(r, p, n, rep):
    # one element per monomial action, since the form depends on nothing
    # else.  With c in Q(zeta_r), every nonzero entry has the dense path's
    # field order too.  Under the permutation action every phase is 0, so a
    # rational c gives a form in Q, as the preset goldens need
    c = root_of_unity(r, 1) * Fraction(-3, 2) + one(r)
    actions = {monomial_action(g, rep): g for g in elements(r, p, n) if n - len(fixed_basis(g, rep)) == 2}
    assert actions
    for g in actions.values():
        A, dense = _codim2_form(g, rep, c), dense_codim2_form(g, rep, c)
        assert A == dense, (g, rep)
        assert [e.order for row in A.matrix for e in row if e] == [e.order for row in dense.matrix for e in row if e]
        if rep == P:
            assert {e.order for row in _codim2_form(g, rep, one()).matrix for e in row} == {1}, g


@pytest.mark.parametrize("r,p,n", SMALL_GROUPS)
def test_reflection_roots_match_the_dense_column_space(r, p, n):
    for rep in (F, P):
        for g in elements(r, p, n):
            image = dense_spaces(g, rep)[1]
            root = reflection_root(g, rep)
            if len(image) == 1:
                assert root is not None and _exact([root]) == _exact(image), (g, rep)
            else:
                assert root is None, (g, rep)


@pytest.mark.parametrize("r,p,n", sorted({(r, p, n) for r, p, n, _ in _reynolds_groups()}))
def test_cycle_type_membership_matches_the_conjugacy_classes(r, p, n):
    # for p = 1 cycle type is a complete invariant; for n >= 4 it decides
    # membership of the two probes of the faithful catalog in G(r,p,n)
    probes = [three_cycle(r, n, 1, 2, 3)]
    if r % 2 == 0:
        probes.append(from_cycles(r, n, [(1, 2)], exps=[0, r // 2] + [0] * (n - 2)))
    by_type: dict = {}
    for g in elements(r, 1, n) if p == 1 else ():
        by_type.setdefault(cycle_type(g), set()).add(g)
    for cls in conjugacy_classes(r, p, n):
        members = class_members(cls.rep, r, p, n)
        if p == 1:
            assert members == by_type[cycle_type(cls.rep)], cls.rep
        if n >= 4:
            for probe in probes:
                assert (probe in members) == (cycle_type(probe) == cycle_type(cls.rep)), (cls.rep, probe)


# -- classes, characters and the det filter without listing -------------------


def _class_groups():
    return [
        (r, p, n)
        for n in range(1, 8)
        for r in range(1, 13)
        for p in range(1, r + 1)
        if r % p == 0 and group_order(r, p, n) <= 50000
    ]


@pytest.mark.parametrize("r,p,n", _class_groups())
def test_classes_from_cycle_types_match_the_search(r, p, n):
    built = [(c.rep.exps, c.rep.perm, c.size) for c in conjugacy_classes(r, p, n)]
    assert built == [(c.rep.exps, c.rep.perm, c.size) for c in classes_by_search(r, p, n)]


def _full_groups(max_order):
    return [(r, n) for n in range(1, 8) for r in range(1, 13) if group_order(r, 1, n) <= max_order]


@pytest.mark.parametrize("r,n", _full_groups(10**7))
def test_least_members_match_the_scan(r, n):
    types = list(_cycle_types(r, n))
    built = [_least_member(r, n, ctype) for ctype in types]
    assert [cycle_type(g) for g in built] == types
    assert len(set(types)) == len(types)
    assert set(built) == set(least_members_by_scan(r, n))


@pytest.mark.parametrize("r,n", _full_groups(2000))
def test_hstar_push_closed_form_matches_the_bubble_word_push(r, n):
    # gbar v_k for every g and k, against the reference that pushes gbar
    # through a reduced word of g's permutation one sbar_i at a time
    alg, ref = HStarAlgebra(r, n), _HStarReference(r, n)
    for g in elements(r, 1, n):
        for k in range(1, n + 1):
            got = {key: cyclo(c) for key, c in alg.group_move(g, k).items()}
            want = {
                (tuple(i + 1 for i, x in enumerate(mu) for _ in range(x)), h): c
                for (mu, h), c in ref.group_move(g, k).items()
            }
            assert got == want, (g, k)


@pytest.mark.parametrize("r,n", _full_groups(10**5))
def test_split_count_read_off_the_type_matches_the_centralizer_generators(r, n):
    for cls in conjugacy_classes(r, 1, n):
        sums = [sum(h.exps) for h in centralizer_of(cls.rep, 1).generators]
        for p in [d for d in range(1, r + 1) if r % d == 0]:
            assert _split_count(cycle_type(cls.rep), p) == math.gcd(p, *sums), (cls.rep, p)


def _character_groups():
    from test_hochschild import _character_cases

    return _character_cases()


@pytest.mark.parametrize("r,p,n,rep", _character_groups(), ids=lambda a: str(getattr(a, "value", a)))
def test_generator_character_matches_the_listed_table(r, p, n, rep):
    # on each class representative and one other member of its class, as
    # the det-filter sample reads the character off listed elements
    for cls in conjugacy_classes(r, p, n):
        for g in dict.fromkeys([cls.rep, a_conjugate(cls.rep, p)]):
            chi = hochschild_character(g, rep, p)
            Z, listed = listed_hochschild_character(g, rep, p)
            assert chi.subgroup == Z, g
            # reading chi.exponents walks Z(g) and proves chi multiplicative, so
            # element-wise equality makes the listed values a character too
            assert list(chi.exponents.items()) == list(listed.items()), (g, rep)
            assert chi.is_trivial() == (not any(listed.values())), (g, rep)


@pytest.mark.parametrize("r,p,n,rep", _reynolds_groups(), ids=lambda a: str(getattr(a, "value", a)))
def test_kernel_generators_generate_the_listed_stabilizer(r, p, n, rep):
    # the filter's kernel generators, read off the cycles as integers, give
    # the verdict of chi_g on the listed stabilizer of V^g, on each class
    # representative and one other member of its class
    for cls in conjugacy_classes(r, p, n):
        for g in dict.fromkeys([cls.rep, a_conjugate(cls.rep, p)]):
            assert _passes_det_filter(g, rep, p) == passes_det_filter_by_listing(g, rep, p), (g, rep)


@pytest.mark.parametrize("r,p,n,rep", _reynolds_groups(), ids=lambda a: str(getattr(a, "value", a)))
def test_filtered_class_loop_matches_every_class_in_every_degree(r, p, n, rep):
    # the filter only skips classes whose component is zero, in every
    # cohomological degree m, including m < codim and m > n; at m = 2 it
    # gives the verdict of the HH^2 filter it replaced, codim in {0, 2}
    classes = conjugacy_classes(r, p, n)
    for m in range(n + 2):
        every = [hh_component(cls.rep, rep, m, 3, p) for cls in classes]
        expect = [comp.to_json() for comp in every if not comp.is_zero()]
        assert [comp.to_json() for comp in hh2_total(r, p, n, rep, 3, m=m)] == expect, m
    for cls in classes:
        g = cls.rep
        assert _passes_det_filter(g, rep, p, 2) == passes_det_filter_by_listing(g, rep, p), (g, rep)


# -- dims counted from the kept orbits against the assembled bases ----------------


@pytest.mark.parametrize("r,p,n,rep", _reynolds_groups(), ids=lambda a: str(getattr(a, "value", a)))
def test_counted_dims_match_the_assembled_bases(r, p, n, rep):
    # every class, in every cohomological degree m, including the zero
    # components: the count without a basis is the length of each degree's basis
    for cls in conjugacy_classes(r, p, n):
        for m in range(n + 2):
            counted = hh_component(cls.rep, rep, m, 4, p).dims_by_degree
            built = hh_component(cls.rep, rep, m, 4, p, include_basis=True)
            assert counted == {d: len(basis) for d, basis in built.basis_by_degree.items()}, (cls.rep, m)
            assert all(len(built.basis_by_degree[d]) == built.dims_by_degree[d] for d in counted), (cls.rep, m)


BASIS_GOLDEN_CASES = {name: argv for name, argv in GOLDEN_CASES if "--basis" in argv}


def _numbers(node):
    """Every cyclotomic number {"order", "terms"} in a parsed JSON document."""
    if isinstance(node, dict):
        if node.keys() == {"order", "terms"}:
            yield node
        else:
            for v in node.values():
                yield from _numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from _numbers(v)


@pytest.mark.parametrize("name", [name for name, _ in GOLDEN_CASES])
def test_goldens_print_every_number_in_its_least_field(name):
    # the field the Galois-criterion oracle finds, with its coordinates
    for num in _numbers(json.loads((GOLDEN / f"{name}.json").read_text())):
        coeffs = [Fraction(0)] * euler_phi(num["order"])
        for t in num["terms"]:
            coeffs[t["exp"]] += Fraction(int(t["num"]), int(t["den"]))
        assert FractionCyclo(num["order"], coeffs).to_json() == num, (name, num)


@pytest.mark.parametrize("name", list(BASIS_GOLDEN_CASES))
def test_hh_without_basis_is_the_basis_output_without_it(capsys, name):
    argv = BASIS_GOLDEN_CASES[name]
    outputs = []
    for args in ([a for a in argv if a != "--basis"], argv):
        assert main(["--format", "json", *args]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    counted, built = outputs
    for row in built["components"]:
        assert row.pop("basis")
    assert counted == built


# -- parameter spaces: orbits with phases against the dense assembly ---------------


def _small_groups():
    return [
        (r, p, n, rep)
        for n in range(1, 6)
        for r in range(1, 13 if n > 1 else 7)
        for p in range(1, r + 1)
        if r % p == 0 and r**n * math.factorial(n) // p <= 400
        for rep in (F, P)
    ]


@pytest.mark.parametrize("r,p,n,rep", _small_groups(), ids=lambda a: str(getattr(a, "value", a)))
def test_linear_oracle_matches_the_dense_assembly(r, p, n, rep):
    dim = param_space_linear_oracle(r, p, n, rep)
    report = param_space(r, p, n, rep)
    assert dim == param_space_dense_oracle(r, p, n, rep) == report.total
    assert report.to_json() == param_space_by_reynolds(r, p, n, rep).to_json()
