"""Differential tests of two fast paths against the reference versions kept
in `oracles`:

- the memoized Drinfeld rewriter against the stack rewriter, term for term
  (JSON, so the coefficients' field orders too), on families that pass and
  fail the PBW conditions;
- generator-only pbw_check against the scan over all of G, verdict and
  witnesses, on every group with |G| <= 400 that the acceptance and
  extended tests use, under both actions.
"""

import random
from itertools import product

import pytest

from heckeforge.group import GroupElement, RepKind, elements, identity, three_cycle, transposition
from heckeforge.hecke import SkewForm, SkewFormFamily, _extend_by_conjugation, build_preset, pbw_check
from heckeforge.ncalg import DrinfeldAlgebra
from oracles import faithful_family_2_1_4, pbw_check_full_scan, stack_multiply

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
    out["faithful(2,1,4)"] = faithful_family_2_1_4()
    # not PBW: one entry off an equivariant family, so the normal form
    # depends on the rewriting order, which both rewriters must share
    preset = build_preset("a_r1n", 2, 3)
    out["perturbed a_r1n(2,3)"] = _perturbed(preset, min(preset.support, key=GroupElement.sort_key), 0, 1)
    return out


REWRITE_FAMILIES = _rewrite_families()


def _assert_same_product(x, y):
    assert (x * y).to_json() == stack_multiply(x, y).to_json(), (x, y)


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
        return alg.term(mu, rng.choice(G), rng.randrange(1, 4))

    for _ in range(20):
        _assert_same_product(term(), term())


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
    out["a_r1n(3,3) over G(3,3,3)"] = SkewFormFamily(3, 1, 3, P, _extend_by_conjugation(seed, 3, 3, 3, P, None))
    out["faithful(2,1,4)"] = faithful_family_2_1_4()
    # equivariant, but failing Jacobi: the transpositions of S_3, with
    # a_{(1,2)}(v_1, v_3) = a_{(1,2)}(v_2, v_3) = 1 extended by conjugation
    seed = {transposition(1, 3, 1, 2): SkewForm([[0, 0, 1], [0, 0, 1], [-1, -1, 0]])}
    out["transpositions(1,1,3)"] = SkewFormFamily(1, 1, 3, P, _extend_by_conjugation(seed, 1, 1, 3, P, None))
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
    fam = PBW_FAMILIES[name]
    fast, full = pbw_check(fam), pbw_check_full_scan(fam)
    assert (fast.invariance, fast.jacobi, fast.witnesses) == (full.invariance, full.jacobi, full.witnesses)
