import json
import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

import heckeforge.group
import heckeforge.hecke
import heckeforge.hochschild
import heckeforge.polyforms
from heckeforge.cyclo import cyclo, one, zero
from heckeforge.group import (
    RepKind,
    elements,
    generators,
    group_order,
    identity,
    inverse,
    monomial_action,
    multiply,
    three_cycle,
    transposition,
    walk,
    xi,
)
from heckeforge.hecke import (
    SkewForm,
    SkewFormFamily,
    build_preset,
    conjugate_form,
    forms_from_semiinvariants,
    param_space,
    param_space_linear_oracle,
    pbw_check,
    psi2,
    three_cycle_classes,
)
from heckeforge.ncalg import Mu1, cocycle_spot_check, commutator_sum, sample_cocycle_triples
from caches import clear_caches
from chain_support import psi1
from oracles import (
    FAITHFUL_ENTRIES_2_1_4,
    _equivariance_classes,
    class_members,
    dense_spaces,
    faithful_family_2_1_4,
    param_space_by_orbits,
)

F = RepKind.FAITHFUL
P = RepKind.PERMUTATION


# -- parameter space -----------------------------------------------------------


def test_param_space_faithful_r3():
    report = param_space(3, 1, 4, F)
    assert report.total == 0
    assert report.paper_count is None and not report.discrepancy_flag


def test_param_space_s4():
    report = param_space(1, 1, 4, F)
    assert report.d == 1
    assert report.total == 1


def test_param_space_permutation_discrepancy():
    report = param_space(2, 1, 3, P)
    assert report.d == 2
    assert report.paper_count == 2
    assert report.total == 4
    assert report.discrepancy_flag


# -- presets --------------------------------------------------------------------


def test_build_preset_s3():
    fam = build_preset("a_r1n", 1, 3)
    assert set(fam.support) == {three_cycle(1, 3, 1, 2, 3), three_cycle(1, 3, 1, 3, 2)}
    A = fam.form(three_cycle(1, 3, 1, 2, 3))
    assert A((1, -1, 0), (0, 1, -1)) == 1
    # a(V^g, V) = 0
    assert A((1, 1, 1), (1, 0, 0)).is_zero()


def test_build_preset_generic_zero():
    n_classes = len(three_cycle_classes(2, 3))
    fam = build_preset("generic", 2, 3, scalars=[0] * n_classes)
    assert not fam.support


def test_build_preset_support_is_whole_class():
    fam = build_preset("a_r1n", 2, 3)
    assert len(fam.support) == 8
    assert set(fam.support) == class_members(three_cycle(2, 3, 1, 2, 3), 2, 1, 3)


def test_generic_preset_needs_matching_scalars():
    with pytest.raises(ValueError):
        build_preset("generic", 2, 3, scalars=[1])


# -- pbw ------------------------------------------------------------------------


def test_pbw_check_presets_pass():
    for (r, n) in [(1, 3), (2, 3)]:
        assert pbw_check(build_preset("a_r1n", r, n)).ok


def test_pbw_check_empty_family():
    assert pbw_check(SkewFormFamily(2, 1, 3, P, {})).ok


def test_pbw_check_generic_any_scalars():
    rng = random.Random(7)
    n_classes = len(three_cycle_classes(2, 3))
    scalars = [Fraction(rng.randrange(-3, 4)) for _ in range(n_classes)]
    fam = build_preset("generic", 2, 3, scalars=scalars)
    assert pbw_check(fam).ok


def test_pbw_check_perturbation_fails_with_witness():
    fam = build_preset("a_r1n", 2, 3)
    g0 = three_cycle(2, 3, 1, 2, 3)
    support = dict(fam.support)
    M = [list(row) for row in support[g0].matrix]
    M[0][1] = M[0][1] + 1
    M[1][0] = M[1][0] - 1
    support[g0] = SkewForm(M)
    report = pbw_check(SkewFormFamily(2, 1, 3, P, support))
    assert not report.invariance
    assert report.witnesses and report.witnesses[0][0] == "invariance"


def test_presets_forms_and_pbw_check_agree_with_the_listing_refused(monkeypatch):
    # build_preset, forms_from_semiinvariants and pbw_check walk generators
    # only: with `group._elements` refusing, each answer is the one computed
    # with listing allowed.  The linear oracle's no-listing cases are in
    # test_hochschild.py::test_the_class_path_lists_no_group_or_centralizer
    n_generic = len(three_cycle_classes(2, 4))
    perturbed = dict(build_preset("a_r1n", 3, 4).support)
    g0 = three_cycle(3, 4, 1, 2, 3)
    grid = [list(row) for row in perturbed[g0].matrix]
    grid[0][1], grid[1][0] = grid[0][1] + 1, grid[1][0] - 1
    perturbed[g0] = SkewForm(grid)
    cases = [
        lambda: build_preset("a_r1n", 3, 4).to_json(),
        lambda: build_preset("generic", 2, 4, list(range(1, n_generic + 1))).to_json(),
        lambda: forms_from_semiinvariants(FAITHFUL_ENTRIES_2_1_4, 2, 1, 4, F).to_json(),
        lambda: vars(pbw_check(SkewFormFamily(3, 1, 4, P, perturbed))),
    ]
    before = [case() for case in cases]
    assert not before[-1]["invariance"] and before[-1]["witnesses"]

    def refuse(*args):
        raise AssertionError(f"listed {args}")

    monkeypatch.setattr(heckeforge.group, "_elements", refuse)
    clear_caches()
    assert [case() for case in cases] == before


def test_skew_form_validation():
    with pytest.raises(ValueError):
        SkewForm([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        SkewForm([[1, 0], [0, -1]])


def test_conjugate_form_matches_direct_evaluation():
    fam = build_preset("a_r1n", 2, 3)
    g0 = three_cycle(2, 3, 1, 2, 3)
    A = fam.form(g0)
    h = xi(2, 3, 2)
    B = conjugate_form(A, h, P)
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for i in range(3):
        for j in range(3):
            # h acts trivially under rho, so nothing moves
            assert B(e[i], e[j]) == A(e[i], e[j])


# -- chain maps -------------------------------------------------------------------


def test_psi2_base_cases():
    assert psi2((1, 0, 0), (0, 1, 0)) == [((0, 0, 0), (0, 0, 0), (1, 2))]
    assert psi2((0, 1, 0), (1, 0, 0)) == []


def test_psi1_square():
    terms = psi1((2, 0))
    assert sorted(terms) == [((0, 0), (1, 0), 1), ((1, 0), (0, 0), 1)]


def test_chain_map_identity_degree_two():
    from chain_support import d2_psi2, psi1_delta2

    rng = random.Random(8)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        k = tuple(rng.randrange(3) for _ in range(n))
        m = tuple(rng.randrange(3) for _ in range(n))
        assert d2_psi2(k, m) == psi1_delta2(k, m)


def test_d1_psi1_is_multiplication_difference():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.choice([2, 3])
        k = tuple(rng.randrange(4) for _ in range(n))
        acc = defaultdict(int)

        def add(key, c):
            acc[key] += c
            if not acc[key]:
                del acc[key]

        for L, R, i in psi1(k):
            e = list(L)
            e[i - 1] += 1
            add((tuple(e), R), 1)
            e = list(R)
            e[i - 1] += 1
            add((L, tuple(e)), -1)
        z = (0,) * n
        expected = {} if k == z else {(k, z): 1, (z, k): -1}
        assert dict(acc) == expected


# -- mu1 ---------------------------------------------------------------------------


def test_mu1_antisymmetrization_recovers_family():
    for (r, n) in [(1, 3), (2, 3)]:
        fam = build_preset("a_r1n", r, n)
        mu = Mu1(fam)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                vi, vj = mu.algebra.var(i), mu.algebra.var(j)
                assert mu(vi, vj) - mu(vj, vi) == commutator_sum(fam, i, j)


def test_mu1_on_unit_is_zero():
    fam = build_preset("a_r1n", 2, 3)
    mu = Mu1(fam)
    unit = mu.algebra.one()
    x = mu.algebra.term((1, 0, 2), three_cycle(2, 3, 1, 2, 3))
    assert mu(unit, x).is_zero()
    assert mu(x, unit).is_zero()


def test_cocycle_spot_check_100_triples():
    fam = build_preset("a_r1n", 2, 3)
    mu = Mu1(fam)
    triples = sample_cocycle_triples(2, 1, 3, 100, seed=11)
    assert cocycle_spot_check(mu, triples)


def test_mu1_antisymmetrization_on_a_faithful_family():
    # antisymmetrization through a group part: mu_1(v_i hbar, h^-1(v_j)) -
    # mu_1(v_j hbar, h^-1(v_i)) = (sum_g a_g(v_i, v_j) gbar) hbar, where the
    # phase of h(h^-1(v_j)) must cancel the coefficient of h^-1(v_j)
    fam = faithful_family_2_1_4()
    mu = Mu1(fam)
    alg = mu.algebra
    for h in [identity(2, 4)] + random.Random(5).sample(elements(2, 1, 4), 48):
        hbar, h_inv = alg.group(h), alg.group(inverse(h))
        for i in range(1, 5):
            for j in range(i + 1, 5):
                x, y = alg.var(i) * hbar, h_inv * alg.var(j) * hbar
                x2, y2 = alg.var(j) * hbar, h_inv * alg.var(i) * hbar
                expected = alg.element(commutator_sum(fam, i, j).terms) * hbar
                assert mu(x, y) - mu(x2, y2) == expected, (h, i, j)


def test_cocycle_spot_check_on_a_faithful_family():
    mu = Mu1(faithful_family_2_1_4())
    triples = sample_cocycle_triples(2, 1, 4, 100, seed=12)
    assert cocycle_spot_check(mu, triples)


# -- forms from semi-invariants ------------------------------------------------------


def test_forms_from_semiinvariants_matches_preset():
    fam = build_preset("a_r1n", 1, 3)
    g = three_cycle(1, 3, 1, 2, 3)
    perp = dense_spaces(g, P)[1]
    scalar = fam.form(g)(perp[0], perp[1])
    rebuilt = forms_from_semiinvariants([(g, scalar)], 1, 1, 3, P)
    assert rebuilt == fam


def test_forms_from_semiinvariants_zero_input():
    fam = forms_from_semiinvariants([(three_cycle(2, 3, 1, 2, 3), zero())], 2, 1, 3, P)
    assert not fam.support


def test_forms_round_trip_r2():
    fam = build_preset("a_r1n", 2, 3)
    entries = []
    seen = set()
    for cls in three_cycle_classes(2, 3):
        g = cls.rep
        perp = dense_spaces(g, P)[1]
        entries.append((g, fam.form(g)(perp[0], perp[1])))
        seen.add(g)
    rebuilt = forms_from_semiinvariants(entries, 2, 1, 3, P)
    assert rebuilt == fam


def test_forms_from_semiinvariants_rejects_wrong_codim():
    with pytest.raises(ValueError):
        forms_from_semiinvariants([(transposition(1, 3, 1, 2), one())], 1, 1, 3, F)


# -- JSON -----------------------------------------------------------------------------


def test_family_json_round_trip():
    fam = build_preset("a_r1n", 2, 3)
    data = json.loads(json.dumps(fam.to_json()))
    assert SkewFormFamily.from_json(data) == fam


def test_family_json_rejects_non_skew():
    fam = build_preset("a_r1n", 1, 3)
    data = fam.to_json()
    data["forms"][0]["matrix"][0][0] = cyclo(1).to_json()
    with pytest.raises(ValueError):
        SkewFormFamily.from_json(data)


# -- independent linear oracle ---------------------------------------------------------


def test_linear_oracle_matches_reynolds_route():
    assert param_space_linear_oracle(1, 1, 3, F) == param_space(1, 1, 3, F).total == 1


@pytest.mark.parametrize("r,p", [(1, 1), (2, 1), (3, 3), (4, 2), (6, 3)])
@pytest.mark.parametrize("rep", [F, P])
def test_linear_oracle_at_rank_one(r, p, rep):
    # G(r,p,1) is cyclic, generated by xi_1^p alone; Lambda^2 V = 0
    assert param_space_linear_oracle(r, p, 1, rep) == param_space(r, p, 1, rep).total == 0


@pytest.mark.parametrize("r,p,n,rep,dim", [
    (3, 1, 4, P, 27),
    (2, 1, 4, F, 2),
    (2, 1, 5, P, 10),
    (4, 1, 4, F, 0),
    (3, 1, 4, F, 0),
    (3, 1, 6, P, 75),
    (2, 1, 8, P, 19),
    (6, 2, 4, P, 174),
    (4, 2, 5, F, 0),
])
def test_linear_oracle_on_larger_groups(r, p, n, rep, dim):
    # with G(2,1,4) among the small cases, every group gha-params runs gha-dim
    # on, and groups past the G-listing reference's reach: |G(2,1,8)| > 10^7
    assert param_space_linear_oracle(r, p, n, rep) == param_space(r, p, n, rep).total == dim
    if group_order(r, p, n) <= 10**4:
        assert param_space_by_orbits(r, p, n, rep) == dim


def test_linear_oracle_is_independent_of_the_reynolds_route(monkeypatch):
    # no characters, semi-invariants or Hochschild data: with each of them
    # refusing, the oracle still counts G(2,1,4)'s parameter spaces
    def refuse(*args, **kwargs):
        raise AssertionError(f"took the Reynolds route {args}")

    for module, name in [
        (heckeforge.hecke, "param_space"),
        (heckeforge.hecke, "hh2_total"),
        (heckeforge.hochschild, "hh2_total"),
        (heckeforge.hochschild, "CharacterTable"),
        (heckeforge.polyforms, "semiinvariant_rows"),
        (heckeforge.polyforms, "semiinvariant_dims"),
        (heckeforge.polyforms, "CharacterTable"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    clear_caches()
    assert param_space_linear_oracle(2, 1, 4, P) == 7
    assert param_space_linear_oracle(2, 1, 4, F) == 2


def test_phase_classes_force_a_cycle_with_disagreeing_phases_to_zero():
    # the walk `_equivariance_classes` runs, where an edge a -> (b, e) means
    # x_b = zeta_6^e x_a: x_0 = zeta_6 x_1, x_1 = zeta_6^2 x_2 and
    # x_2 = zeta_6^e x_0 close a cycle, consistent only for e = 3
    def move(a, v, edges):
        b, e = edges[a]
        return b, (v + e) % 6

    for e in range(6):
        values, clashes = walk(0, 0, [{0: (2, e), 2: (1, 2), 1: (0, 1), 3: (3, 0)}], move)
        assert values == {0: 0, 2: e, 1: (e + 2) % 6}
        assert clashes == ([] if e == 3 else [(0, (e + 3) % 6)])
    # a self-loop with a nontrivial phase, x_3 = zeta_6 x_3, kills its orbit
    assert walk(3, 0, [{3: (3, 0)}], move) == ({3: 0}, [])
    assert walk(3, 0, [{3: (3, 0)}, {3: (3, 1)}], move) == ({3: 0}, [(3, 1)])


@pytest.mark.parametrize("r,p,n,rep", [(3, 1, 3, P), (2, 1, 4, P), (2, 1, 4, F), (2, 2, 4, F), (4, 2, 3, F)])
def test_equivariance_orbits_hold_every_row(r, p, n, rep):
    # x_{h^-1gh,(i,j)} = +-zeta_r^(t_i + t_j) x_{g,(pi i, pi j)} for every
    # generator h, read off GroupElement products: both sides lie in one
    # orbit, and their phases agree unless the orbit is dead
    root, phase, dead = _equivariance_classes(r, p, n, rep)
    G = elements(r, p, n)
    index = {g: gi for gi, g in enumerate(G)}
    pairs = list(combinations(range(n), 2))
    M = lcm(2, r)

    def unknown(g, i, j):  # (u, e) with a_g(v_{i+1}, v_{j+1}) = zeta_M^e x_u
        return index[g] * len(pairs) + pairs.index((min(i, j), max(i, j))), 0 if i < j else M // 2

    live = 0
    for h in generators(r, p, n):
        pi, t = monomial_action(h, rep)
        for g in G:
            g1 = multiply(multiply(inverse(h), g), h)
            for i, j in pairs:
                (u, _), (w, e) = unknown(g1, i, j), unknown(g, pi[i] - 1, pi[j] - 1)
                assert root[u] == root[w]
                if root[u] not in dead:
                    live += 1
                    assert (phase[u] - phase[w] - e - (t[i] + t[j]) * M // r) % M == 0
    assert live


def test_equivariance_phases_kill_every_class_of_g313_faithful():
    # the same orbits under both actions; the faithful phases disagree on a
    # cycle in each of them, so the faithful parameter space is 0
    root, _, dead = _equivariance_classes(3, 1, 3, F)
    permutation, _, permutation_dead = _equivariance_classes(3, 1, 3, P)
    assert root == permutation
    assert len(set(root)) == 39
    assert dead == set(root)
    assert len(set(root) - permutation_dead) == 21
    assert param_space_linear_oracle(3, 1, 3, F) == param_space(3, 1, 3, F).total == 0
