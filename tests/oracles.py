"""Reference implementations kept as differential oracles for the fast
paths in the library, and a faithful family shared by the tests:

- `stack_multiply`: the Drinfeld product computed by rewriting every word
  from scratch on an explicit stack (swap at the first descent, one
  bracket correction per support element), with no memo;
- `hstar_reference_multiply`: the H* product that moves a group element
  past one variable at a time along a bubble-sort word of simple
  reflections, kept from before H* and the Drinfeld algebras shared one
  rewriting core;
- `pbw_check_full_scan`: pbw_check with the equivariance condition tested
  for every h in G, not only on generators;
- `extend_by_listing`: the extension of class forms by conjugation under
  every element of G, each member's form checked against every
  conjugation that reaches it;
- `reynolds_rows_by_projector`: the semi-invariant rows from the Reynolds
  projector summed over every h in the subgroup, orbit by orbit, then
  echelon-reduced, with wedge signs from `sort_with_sign`;
- `phase_rows_by_basis_walk`: the Reynolds orbit walk with one tuple
  target per edge, looked up in a dict over the whole basis, as
  `_phase_rows` walked before it read integer index tables;
- `reynolds_basis_by_walk`, `semiinvariant_rows_by_walk`, `_phase_rows`
  and `generator_actions`: the semi-invariant basis of any listed
  character on any integer subspace basis that its generators permute up
  to phases, by walking every monomial-times-wedge element along every
  generator on integer tables, as `polyforms` computed each class's rows
  before it read them off `group.centralizer_of`'s block-sorted
  representatives; the tests' characters of listed subgroups use it too.
  Its rows are keyed by index into `monomials_and_wedges`; `keyed_rows`
  keys them by (mu, S), as `polyforms` does;
- `sort_with_sign`: a sorted tuple and the sign of its sorting permutation,
  by insertion sort, independent of `group.perm_sign`;
- `dense_spaces`: V^g and im(g - 1) as the reduced echelon kernel and
  column-space bases of the dense matrix g - 1;
- `dense_codim2_form`: the skew form c (x_1 (x) x_2 - x_2 (x) x_1) of a
  codimension-2 element, x_1, x_2 read off the inverse of the dense matrix
  [V^g | im(g - 1)];
- `class_members`: the conjugacy class of g in G(r,p,n), conjugated by
  every element;
- `param_space_dense_oracle`: the dimension of the parameter space from
  every equivariance and Jacobi row assembled into one sparse system and
  echelon-reduced, with no elimination by orbits;
- `param_space_by_orbits` and `_equivariance_classes`: the dimension of
  the parameter space over free per-element forms, the two-term
  equivariance rows solved as orbits with phases by one `group.walk` per
  orbit over conjugation tables on all of G, and the Jacobi rows written
  for one element per live class, as `hecke.param_space_linear_oracle`
  computed it before it counted class by class;
- `param_space_by_class_rank`: the dimension of the parameter space class
  by class, every invariance row under the generators of
  `centralizer_of(g, p)` and every Jacobi row at the representative
  ranked together in Q(zeta_M) by `echelon_rows`, as
  `hecke.param_space_linear_oracle` computed it before it solved the
  invariance rows as phased orbits;
- `param_space_by_reynolds`: the parameter-space report by its own loop
  over the classes, as `hecke.param_space` computed it before it read
  `hh2_total`: the Hochschild character's triviality for each
  codimension-2 class, and the trivial character of the centralizer on
  Lambda^2 V* for each class acting trivially;
- `root_exponent`: the t with x = zeta_r^t, by search;
- `faithful_family_2_1_4`: a PBW family under the faithful action whose
  monomial actions carry root-of-unity phases, built from
  `FAITHFUL_ENTRIES_2_1_4`;
- `FractionCyclo`: cyclotomic arithmetic on tuples of Fractions, with
  its own Fraction tables (`fraction_cyclotomic_polynomial`,
  `fraction_power_table`), the reference for `CycloNum`'s integer
  numerators over one denominator;
- `centralizer_generators`: the generators of Z_{G(r,p,n)}(g) as `group`
  read them off g's cycles before it held each centralizer as one
  `group.Centralizer` record, with `_scalar_and_cycle`, the per-cycle pair;
- `a_conjugate`: a member of g's class other than g, where it has one,
  conjugated by seeded draws from G(r,p,n);
- `solved_centralizer`: Z_{G(r,p,n)}(g) solved for from the cycle
  structure of g, one candidate permutation at a time over all n! of
  them, independent of the generators read off the cycles;
- `classes_by_search`: the conjugacy classes of G(r,p,n) found by walking
  the group in sorted order and growing the class of each first unseen
  element breadth first under conjugation by generators;
- `least_members_by_scan`: the least member of each class of G(r,1,n),
  found by scanning all n! permutations for each multiset of colours, as
  `group` found them before it built them from the coloured cycle types;
- `listed_hochschild_character`: the Hochschild character listed as
  plain data, `solved_centralizer` and det(h|V) / det(h|V^g) as an
  exponent computed on each of its elements, and
  `passes_det_filter_by_listing`, the determinant filter read off those
  exponents and each element's action on V^g;
- `in_subgroup`, `elementary_symmetric`, `invariant_ring_generators` and
  `symmetric_group_derivations`: membership in G(r,p,n), basic invariants
  and the derivations of the symmetric group, which only tests read;
- the dense and brute-force helpers the tests read: `trivial_character`
  (a table held on every element of its subgroup), `act`, `coact`,
  `matrix`, `conjugate_in_full_group` and `dimension_by_enumeration`.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, groupby, permutations, product
from math import gcd, lcm
from operator import mul

from heckeforge.cyclo import (
    CycloMatrix, CycloNum, add_term, cyclo, echelon_rows, one, power_sum, root_of_unity, zero
)
from heckeforge.group import (
    ConjClass,
    GroupElement,
    RepKind,
    _conj,
    _cycles_by_type,
    _element,
    _mul,
    _swaps,
    _within,
    centralizer_of,
    conjugacy_classes,
    cycle_type,
    det_exponent,
    diag,
    elements,
    from_cycles,
    generators,
    identity,
    inverse,
    is_three_cycle,
    monomial_action,
    multiply,
    perm_cycles,
    perm_sign,
    three_cycle,
    transposition,
    walk,
)
from heckeforge.hecke import (
    GHAParamReport,
    IllDefinedFamilyError,
    PBWReport,
    SkewForm,
    conjugate_form,
    forms_from_semiinvariants,
)
from heckeforge.hochschild import fixed_basis, hochschild_character
from heckeforge.ncalg import NCElement, _exps_of, _word_of, _xi_pair
from heckeforge.polyforms import (
    CharacterTable,
    PolyForm,
    Polynomial,
    _assemble_polyform,
    _power_derivation,
    is_identity_action,
    subspace_actions,
)


def act(g, i, rep):
    """Image of the basis vector v_i: a pair (index, scalar)."""
    pi, t = monomial_action(g, rep)
    return pi[i - 1], root_of_unity(g.r, t[i - 1])


def coact(g, i, rep):
    """Contragredient image of the dual vector x_i: (g.x)(v) = x(g^-1 v)."""
    pi, t = monomial_action(g, rep)
    return pi[i - 1], root_of_unity(g.r, -t[i - 1])


def matrix(g, rep=RepKind.FAITHFUL):
    """The dense matrix of g: zeta_r^{t_i} in row pi(i), column i."""
    pi, t = monomial_action(g, rep)
    rows = [[zero(g.r)] * g.n for _ in range(g.n)]
    for i in range(g.n):
        rows[pi[i] - 1][i] = root_of_unity(g.r, t[i])
    return CycloMatrix(rows)


def conjugate_in_full_group(g, h):
    """Conjugacy test in G(r,1,n): equality of (a,k)-cycle types."""
    return cycle_type(g) == cycle_type(h)


def trivial_character(subgroup):
    """The trivial character of a listed subgroup, held on all of its
    elements as generators."""
    els = tuple(subgroup)
    return CharacterTable(els[0].r, els[0].n, lcm(2, els[0].r), els, [0] * len(els), len(els))


def dimension_by_enumeration(module, d):
    """The degree-d dimension of a FreeModuleDescription, by enumerating
    its (generator, base-monomial) pairs of total degree d directly."""
    base = module.base_generator_degrees

    def mono_count(idx, remaining):
        if remaining == 0:
            return 1
        if idx == len(base):
            return 0
        return sum(mono_count(idx + 1, remaining - k * base[idx]) for k in range(remaining // base[idx] + 1))

    return sum(mono_count(0, d - gdeg) for gdeg in module.module_generator_degrees if gdeg <= d)


def stack_term_product(alg, mu, g, nu, h) -> dict:
    """Normal form of (v^mu gbar)(v^nu hbar) in the Drinfeld algebra alg."""
    r, n, rep, support = alg.r, alg.n, alg.rep, alg.family.support
    pi, tvals = monomial_action(g, rep)
    letters = _word_of(nu)
    mapped = [pi[s - 1] for s in letters]
    zexp = sum(tvals[s - 1] for s in letters) % r
    coeff = root_of_unity(r, zexp) if zexp else one()
    out: dict = {}
    stack = [(coeff, _word_of(mu) + mapped, multiply(g, h))]
    while stack:
        c, w, t = stack.pop()
        i = next((x for x in range(len(w) - 1) if w[x] > w[x + 1]), None)
        if i is None:
            add_term(out, (_exps_of(w, n), t), c)
            continue
        k_, m_ = w[i], w[i + 1]
        stack.append((c, w[:i] + [m_, k_] + w[i + 2:], t))
        prefix, suffix = w[:i], w[i + 2:]
        for gp, A in support.items():
            aval = A.matrix[k_ - 1][m_ - 1]
            if aval.is_zero():
                continue
            pi2, tvals2 = monomial_action(gp, rep)
            zexp2 = sum(tvals2[s - 1] for s in suffix) % r
            c2 = c * aval
            if zexp2:
                c2 = c2 * root_of_unity(r, zexp2)
            stack.append((c2, prefix + [pi2[s - 1] for s in suffix], multiply(gp, t)))
    return out


def stack_multiply(x: NCElement, y: NCElement) -> NCElement:
    """x * y in x's Drinfeld algebra, through stack_term_product."""
    out: dict = {}
    for (mu, g), c1 in x.terms.items():
        for (nu, h), c2 in y.terms.items():
            for key, c in stack_term_product(x.algebra, mu, g, nu, h).items():
                add_term(out, key, c * c1 * c2)
    return NCElement(x.algebra, out)


def _bubble_word(perm):
    """Indices w with perm = s_{w[0]} o s_{w[1]} o ... (rightmost applied
    first), from bubble-sorting the one-line notation."""
    L = list(perm)
    collected = []
    changed = True
    while changed:
        changed = False
        for i in range(len(L) - 1):
            if L[i] > L[i + 1]:
                L[i], L[i + 1] = L[i + 1], L[i]
                collected.append(i + 1)
                changed = True
    return list(reversed(collected))


class _HStarReference:
    """Normal forms in H*(r,n) by pushing gbar past one variable at a time."""

    def __init__(self, r: int, n: int):
        self.r = r
        self.n = n
        self._move_cache: dict = {}
        self._gm_cache: dict = {}

    def group_move(self, g, k: int) -> dict:
        """Normal form of gbar v_k as a term dict (exps, group) -> coeff."""
        key = (g, k)
        cached = self._gm_cache.get(key)
        if cached is not None:
            return cached
        r, n = self.r, self.n
        # terms: (variable index or 0, tail group element) -> coeff; the
        # tails accumulate the suffix of the bubble word
        terms: dict = {(k, identity(r, n)): one()}
        for i in reversed(_bubble_word(g.perm)):
            s_i = transposition(r, n, i, i + 1)
            new: dict = {}
            for (vk, tail), c in terms.items():
                if vk == i:  # sbar_i v_i = v_{i+1} sbar_i - sum_a ...
                    add_term(new, (i + 1, multiply(s_i, tail)), c)
                    corr_sign = -1
                elif vk == i + 1:  # sbar_i v_{i+1} = v_i sbar_i + sum_a ...
                    add_term(new, (i, multiply(s_i, tail)), c)
                    corr_sign = 1
                else:  # a degree-0 term (vk == 0) or a variable sbar_i fixes
                    add_term(new, (vk, multiply(s_i, tail)), c)
                    continue
                for a in range(r):
                    add_term(new, (0, multiply(_xi_pair(r, n, i, i + 1, a), tail)), c * corr_sign)
            terms = new
        D = diag(r, n, g.exps)
        out: dict = {}
        for (vk, tail), c in terms.items():
            mu = (0,) * n if vk == 0 else tuple(1 if t == vk - 1 else 0 for t in range(n))
            add_term(out, (mu, multiply(D, tail)), c)
        self._gm_cache[key] = out
        return out

    def move_through(self, g, nu) -> dict:
        """Normal form of gbar v^nu: dict (exps, group) -> coeff."""
        if not any(nu):
            return {((0,) * self.n, g): one()}
        key = (g, nu)
        cached = self._move_cache.get(key)
        if cached is not None:
            return cached
        k = next(i for i, x in enumerate(nu) if x) + 1
        rest = tuple(x - 1 if i == k - 1 else x for i, x in enumerate(nu))
        out: dict = {}
        for (lam, g1), c in self.group_move(g, k).items():
            for (kappa, g2), c2 in self.move_through(g1, rest).items():
                add_term(out, (tuple(a + b for a, b in zip(lam, kappa)), g2), c * c2)
        self._move_cache[key] = out
        return out


@lru_cache(maxsize=None)
def _hstar_reference(r: int, n: int) -> _HStarReference:
    return _HStarReference(r, n)


def hstar_reference_multiply(x: NCElement, y: NCElement) -> NCElement:
    """x * y in x's H* algebra, through one _HStarReference per (r, n)."""
    alg = x.algebra
    ref = _hstar_reference(alg.r, alg.n)
    out: dict = {}
    for (mu, g), c1 in x.terms.items():
        for (nu, h), c2 in y.terms.items():
            coeff = c1 * c2
            for (kappa, g2), c in ref.move_through(g, nu).items():
                add_term(out, (tuple(a + b for a, b in zip(mu, kappa)), multiply(g2, h)), c * coeff)
    return NCElement(alg, out)


def pbw_check_full_scan(F) -> PBWReport:
    """Equivariance a_{h^-1gh} = h.a_g over every (g, h) in supp x G, then the
    per-element Jacobi condition; witnesses in the form hecke.pbw_check
    gives them, the invariance one the first failing (g, h), h in G."""
    G = elements(F.r, F.p, F.n, None)
    rep = F.repkind
    witnesses = []
    invariance = True
    for g, A in F.support.items():
        for h in G:
            g1 = multiply(multiply(inverse(h), g), h)
            if not F.form(g1) == conjugate_form(A, h, rep):
                invariance = False
                witnesses.append(("invariance", g, h))
                break
        if not invariance:
            break
    jacobi = True
    for g, A in F.support.items():
        pi, t = monomial_action(g, rep)
        for i, j, k in combinations(range(F.n), 3):
            coords = [zero() for _ in range(F.n)]
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                val = A.matrix[b][c]
                if val.is_zero():
                    continue
                coords[a] = coords[a] + val
                e = t[a] % g.r
                coords[pi[a] - 1] = coords[pi[a] - 1] - (val * root_of_unity(g.r, e) if e else val)
            if any(not x.is_zero() for x in coords):
                jacobi = False
                witnesses.append(("jacobi", g, (i + 1, j + 1, k + 1)))
                break
        if not jacobi:
            break
    return PBWReport(invariance, jacobi, witnesses)


def extend_by_listing(seeds, r, p, n, rep):
    """Each seed form conjugated by every element of G(r,p,n),
    a_{h^-1 g h} = a_g(h(.), h(.)); IllDefinedFamilyError where two
    conjugations give one member different forms."""
    support = {}
    for g0, A0 in seeds.items():
        for h_inv, h in _inverse_pairs(r, p, n):
            g1 = multiply(multiply(h_inv, g0), h)
            A1 = conjugate_form(A0, h, rep)
            if support.setdefault(g1, A1) != A1:
                raise IllDefinedFamilyError(f"conjugation extension is inconsistent at {g1!r} (via {h!r})")
    return support


# the two codimension-2 classes of G(2,1,4) with trivial Hochschild character
# under the faithful action, each at scalar 1
FAITHFUL_ENTRIES_2_1_4 = [(three_cycle(2, 4, 2, 3, 4), 1), (from_cycles(2, 4, [(3, 4)], exps=[0, 0, 0, 1]), 1)]


def faithful_family_2_1_4():
    """forms_from_semiinvariants on `FAITHFUL_ENTRIES_2_1_4`; the xi4(3,4)
    class puts phases into the monomial actions."""
    fam = forms_from_semiinvariants(FAITHFUL_ENTRIES_2_1_4, 2, 1, 4, RepKind.FAITHFUL)
    assert len(fam.support) == 44 and any(any(g.exps) for g in fam.support)
    return fam


def sort_with_sign(indices):
    """(sorted tuple, sign of the sorting permutation) of distinct indices,
    by insertion sort: one sign flip per swap."""
    lst = list(indices)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return tuple(lst), sign


def reynolds_rows_by_projector(actions, F, basis) -> list[dict]:
    """Reduced echelon rows, over `basis`, of the projector images
    (1/|H|) sum_h chi(h)^{-1} h.b of one b per orbit, where `actions` holds
    one (pi, texp * F / r, e(h)) triple per h in H, repeats included.

    Each triple sends (mu, S) to zeta_F^e (mu', S') with a single integer
    exponent e, so coefficient sums are accumulated as counters per exponent
    class and materialized into cyclotomic numbers once.  Equal triples add
    to the same counter, so each distinct triple is applied once and counted
    with its multiplicity."""
    index = {b: i for i, b in enumerate(basis)}
    visited = [False] * len(basis)
    out = []
    half = F // 2
    zeta_cache = [root_of_unity(F, e) for e in range(F)]
    inv_order = Fraction(1, len(actions))
    weights = list(Counter(actions).items())
    wedges: dict = {}  # S -> per triple, (the sorted image of S, the exponent S adds)
    for start, (mu, S) in enumerate(basis):
        if visited[start]:
            continue
        if S not in wedges:
            wedges[S] = []
            for (pi, texp, _), _ in weights:
                imgS, sign = sort_with_sign(pi[j] for j in S)
                wedges[S].append((imgS, (half if sign < 0 else 0) - sum(texp[j] for j in S)))
        counts: dict = {}
        for ((pi, texp, chi_e), weight), (imgS, e) in zip(weights, wedges[S]):
            img_mu = [0] * len(mu)
            e -= chi_e
            for j, k in enumerate(mu):
                if k:
                    img_mu[pi[j]] = k
                    e += texp[j] * k
            key = (tuple(img_mu), imgS)
            slot = counts.setdefault(key, [0] * F)
            slot[e % F] += weight
        vec = {}
        for key, slot in counts.items():
            idx = index[key]
            visited[idx] = True
            coeff = zero(F)
            for e, cnt in enumerate(slot):
                if cnt:
                    coeff = coeff + zeta_cache[e] * cnt
            if not coeff.is_zero():
                vec[idx] = coeff * inv_order
        if vec:
            out.append(vec)
    return echelon_rows(out)


def phase_rows_by_basis_walk(actions, F, basis):
    """`_phase_rows` as it walked before it read integer tables:
    the same rows, in the same order and phases, from a walk that builds
    each edge's target (mu', S') as a tuple and looks it up in a dict over
    the whole basis, with the wedge part of each action read once per call
    into a table keyed by S, so an edge computes only the monomial part.
    It takes any listing of the basis, not only the monomial-major one."""
    # a triple that acts as the identity gives self-loops only
    actions = [(pi, texp, e) for pi, texp, e in actions if e or not is_identity_action(pi, texp)]
    index = {b: i for i, b in enumerate(basis)}
    wedges = dict.fromkeys(S for _, S in basis)
    tables = []  # per action: pi^-1, texp or None if 0, and S -> (sorted image, phase offset)
    for pi, texp, chi_e in actions:
        table = {}
        for S in wedges:
            img = tuple([pi[j] for j in S])
            table[S] = (tuple(sorted(img)), F // 2 * (perm_sign(img) < 0) - sum(texp[j] for j in S) - chi_e)
        tables.append((sorted(range(len(pi)), key=pi.__getitem__), texp if any(texp) else None, table))
    phase: list = [None] * len(basis)
    rows = []
    for start in range(len(basis)):
        if phase[start] is not None:
            continue
        phase[start] = 0
        orbit = [start]
        agree = True
        for i in orbit:  # the list grows while it is read
            mu, S = basis[i]
            here = phase[i]
            for pi_inv, texp, table in tables:  # mu's image is mu read through pi^-1
                img_S, e = table[S]
                e = (here + e + sum(map(mul, texp, mu)) if texp else here + e) % F
                target = index[tuple([mu[j] for j in pi_inv]), img_S]
                if phase[target] is None:
                    phase[target] = e
                    orbit.append(target)
                elif phase[target] != e:
                    agree = False
        if agree:
            rows.append({i: phase[i] for i in orbit})
    return rows


@lru_cache(maxsize=None)
def generator_actions(chi, rep, subspace) -> list:
    """`CharacterTable.actions` as the table kept it for the generic walk:
    the distinct triples (pi, texp * F / r, e(s)) over the generators
    s, in the order of their first s, where s.w_j = zeta_r^{texp[j]}
    w_{pi[j]} on the integer subspace basis w (see `subspace_actions`);
    equal triples act alike on every monomial-times-wedge element.
    Built once per table and subspace."""
    step = chi.order // chi.r
    return list(dict.fromkeys(
        (pi, tuple(t * step for t in texp), e)
        for (pi, texp), e in zip(subspace_actions(chi.generators, rep, subspace), chi._generator_exponents)
    ))


def reynolds_basis_by_walk(
    chi: CharacterTable,
    rep: RepKind,
    poly_degree: int,
    form_degree: int,
    subspace=None,
) -> list[PolyForm]:
    """Reduced echelon basis of the chi-semi-invariants of polynomial
    degree exactly `poly_degree` and form degree `form_degree`, inside the
    span of monomial-times-wedge elements built on an integer subspace
    basis w, a tuple of tuples of pairs (see `subspace_action`): polynomial
    variables from the w_j, wedge factors from their duals.
    `subspace=None` means the coordinate basis.  The dual of w_j = sum zeta_r^t v_i is (1/|c_j|) sum zeta_r^{-t} x_i
    over its support c_j: it is 1 on w_j and vanishes on the other w_k, on
    the coordinates outside every support, and on the vectors of each
    support orthogonal to w_j in this pairing.  For `hochschild.fixed_basis`
    that complement is im(g - 1), so the duals are those of V^g in
    V = V^g (+) im(g - 1).

    Every generator of H, the group of chi, must permute the subspace basis
    up to roots of unity, so H permutes the monomial-times-wedge basis up
    to phases zeta_F^e.  The Reynolds projector
    (1/|H|) sum chi(h)^{-1} h then maps a basis element b into the span of
    its orbit, and is nonzero there exactly when every h in the stabilizer
    of b has h.b = chi(h) b: the stabilizer's twisted character is
    otherwise nontrivial and sums to 0.  So each surviving orbit gives one
    basis element, read off by walking the orbit under `chi.generators`
    only and comparing integer phases (see `_phase_rows`); H itself is
    never listed, and chi is taken as the homomorphism its table claims.
    The generators' action data are built on the first call for a table
    and subspace (`generator_actions`); later degrees reuse them.
    The rows come from `semiinvariant_rows_by_walk`, which alone gives their
    number; only this function assembles them into PolyForms.
    """
    if subspace is None:
        subspace = tuple(((i, 0),) for i in range(chi.n))
    rows = keyed_rows(*semiinvariant_rows_by_walk(chi, rep, poly_degree, form_degree, subspace))
    return [_assemble_polyform(row, chi.n, chi.r, chi.order, subspace) for row in rows]


def semiinvariant_rows_by_walk(chi: CharacterTable, rep: RepKind, poly_degree: int, form_degree: int, subspace):
    """(rows, monos, wedges): the monomials mu of the polynomial degree on
    the subspace basis, v_1^d first, the wedges S of the form degree, and
    the `_phase_rows` of the basis they span, one row per element of
    `reynolds_basis_by_walk`: so the row count is the dimension."""
    m = len(subspace)
    if form_degree < 0 or form_degree > m or poly_degree < 0:
        return [], [], []
    monos, wedges = monomials_and_wedges(m, poly_degree, form_degree)
    return _phase_rows(generator_actions(chi, rep, subspace), chi.order, monos, wedges), monos, wedges


def monomials_and_wedges(m: int, poly_degree: int, form_degree: int):
    """(monos, wedges): the monomials of the polynomial degree on m vectors,
    v_1^d first, and the wedges of the form degree, in the order the index
    a * W + b of (monos[a], wedges[b]) runs, W = len(wedges)."""
    wedges = list(combinations(range(m), form_degree))
    # the multisets of poly_degree symbols in lex order give exponents descending, v_1^d first
    return [tuple(map(c.count, range(m))) for c in combinations_with_replacement(range(m), poly_degree)], wedges


def keyed_rows(rows, monos, wedges) -> list[dict]:
    """Index-keyed rows {a * W + b: e} keyed instead by basis[a * W + b] =
    (monos[a], wedges[b]), as `polyforms.semiinvariant_rows` keys them."""
    basis = [(mu, S) for mu in monos for S in wedges]
    return [{basis[i]: e for i, e in row.items()} for row in rows]


def _phase_rows(actions, F, monos, wedges):
    """Reduced echelon basis of the span of the chi-semi-invariants, as
    sparse rows {a * W + b: e}, each entry meaning zeta_F^e at the basis
    element (monos[a], wedges[b]), W = len(wedges); `actions` as in
    `CharacterTable.actions` over a generating set S of H.

    Each (pi, texp, chi_e) sends b = (mu, S) to zeta_F^e b' with a single
    integer exponent e (chi's inverse folded in), where b' = (mu read
    through pi^-1, the sorted image of S).  So each action is read once
    per call into two integer tables: per monomial, its image's index
    times W and the phase texp . mu; per wedge, its image's index and the
    phase of its sorting sign, of the duals' texp and of chi's inverse.
    An edge adds one entry of each.  A breadth-first walk from each
    unreached b follows these edges through b's orbit, giving s.b' the
    phase of b' plus e.  The projector's image of b is a multiple of
    sum zeta_F^{phase(b')} b' over the orbit if every h in the stabilizer
    of b has h.b = chi(h) b, and 0 otherwise.  An edge into an element
    already reached with another phase kills the orbit, and this is exact:
    if every edge agrees, every word in S, so every stabilizer element,
    acts on b by chi; if one disagrees, the loop it closes is a Schreier
    generator of the stabilizer that does not (Schreier's lemma).  Orbits
    are disjoint and each walk starts at the smallest index of its orbit,
    so these rows, taken in scan order, are already the reduced echelon
    form.  The work is (|monos| + W) * |S| table entries, |monos| * W * |S| edges."""
    # a triple that acts as the identity gives self-loops only
    actions = [(pi, texp, e) for pi, texp, e in actions if e or not is_identity_action(pi, texp)]
    W = len(wedges)
    mono_at, wedge_at = {mu: a * W for a, mu in enumerate(monos)}, {S: b for b, S in enumerate(wedges)}
    tables = []  # per action: monomial a -> (image's index * W, phase), wedge b -> (image's index, phase)
    for pi, texp, chi_e in actions:
        pi_inv, phased = sorted(range(len(pi)), key=pi.__getitem__), any(texp)
        tables.append((
            [(mono_at[tuple([mu[j] for j in pi_inv])], sum(map(mul, texp, mu)) if phased else 0) for mu in monos],
            [(wedge_at[tuple(sorted(img := tuple([pi[j] for j in S])))],
              F // 2 * (perm_sign(img) < 0) - sum(texp[j] for j in S) - chi_e) for S in wedges],
        ))
    phase: list = [None] * (len(monos) * W)  # no monomial: V^g = 0 in a positive degree
    rows = []
    for start in range(len(phase)):
        if phase[start] is not None:
            continue
        phase[start] = 0
        orbit = [start]
        agree = True
        for i in orbit:  # the list grows while it is read
            a, b = i // W, i % W
            here = phase[i]
            for mono, wedge in tables:
                ta, ea = mono[a]
                tb, eb = wedge[b]
                target, e = ta + tb, (here + ea + eb) % F
                if phase[target] is None:
                    phase[target] = e
                    orbit.append(target)
                elif phase[target] != e:
                    agree = False
        if agree:
            rows.append({i: phase[i] for i in orbit})
    return rows


def dense_spaces(g, rep):
    """(kernel basis, column-space basis) of matrix(g) - 1, each read off a
    dense reduced row echelon form."""
    M = matrix(g, rep)
    D = M - CycloMatrix.identity(g.n, M.order)
    return D.kernel_basis(), D.column_space_basis()


def dense_codim2_form(g, rep, c):
    """c (x_1 (x) x_2 - x_2 (x) x_1) for g with codim V^g = 2, where x_1, x_2
    are the last two rows of the inverse of the matrix whose columns are
    `dense_spaces`' kernel basis, then its column-space basis."""
    n = g.n
    kernel, image = dense_spaces(g, rep)
    cols = kernel + image
    x1, x2 = CycloMatrix([[v[i] for v in cols] for i in range(n)]).inverse().entries[n - 2:]
    return SkewForm([[(x1[i] * x2[j] - x1[j] * x2[i]) * c for j in range(n)] for i in range(n)])


@lru_cache(maxsize=None)
def _inverse_pairs(r, p, n):
    return tuple((inverse(h), h) for h in elements(r, p, n))


@lru_cache(maxsize=None)
def class_members(g, r, p, n):
    """{h^-1 g h : h in G(r,p,n)}, as a frozenset."""
    return frozenset(multiply(multiply(h_inv, g), h) for h_inv, h in _inverse_pairs(r, p, n))


def root_exponent(x, r):
    """The t in [0, r) with x = zeta_r^t, or None."""
    return next((t for t in range(r) if x == root_of_unity(r, t)), None)


def param_space_dense_oracle(r, p, n, rep):
    """Dimension of the space of families passing pbw_check, computed by
    assembling the equivariance and Jacobi conditions as one exact linear
    system over free per-element forms."""
    G = elements(r, p, n)
    idx = {g: i for i, g in enumerate(G)}
    pairs = list(combinations(range(n), 2))
    pair_pos = {pr: t for t, pr in enumerate(pairs)}
    nvars = len(G) * len(pairs)

    def var(g, i, j):
        """(coefficient sign, variable index) for a_g(v_{i+1}, v_{j+1})."""
        if i == j:
            return 0, None
        if i < j:
            return 1, idx[g] * len(pairs) + pair_pos[(i, j)]
        return -1, idx[g] * len(pairs) + pair_pos[(j, i)]

    rows = []
    inverses = {h: inverse(h) for h in G}
    for h in generators(r, p, n):
        pi, t = monomial_action(h, rep)
        for g in G:
            g1 = multiply(multiply(inverses[h], g), h)
            for (i, j) in pairs:
                row: dict = {}
                s, v = var(g1, i, j)
                row[v] = cyclo(s)
                s2, v2 = var(g, pi[i] - 1, pi[j] - 1)
                if v2 is not None:
                    e = (t[i] + t[j]) % r
                    coeff = cyclo(-s2) * root_of_unity(r, e)
                    cur = row.get(v2)
                    row[v2] = cur + coeff if cur is not None else coeff
                rows.append(row)
    for g in G:
        pi, t = monomial_action(g, rep)
        for i, j, k in combinations(range(n), 3):
            for coord in range(n):
                row: dict = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    s, v = var(g, b, c)
                    if v is None:
                        continue
                    coeff = zero()
                    if coord == a:
                        coeff = coeff + s
                    if coord == pi[a] - 1:
                        e = t[a] % r
                        coeff = coeff - cyclo(s) * root_of_unity(r, e)
                    if not coeff.is_zero():
                        cur = row.get(v)
                        row[v] = cur + coeff if cur is not None else coeff
                if row:
                    rows.append(row)
    rank = len(echelon_rows(rows))
    return nvars - rank


def classes_by_search(r, p, n):
    """The conjugacy classes of G(r,p,n) as ConjClasses, by listing: each
    class is the orbit of the first element, in sorted order, that no earlier
    class holds, grown breadth first on (exps, perm) pairs under
    x -> s^-1 x s for s in `generators(r, p, n)`."""
    by = [(inverse(s), s) for s in generators(r, p, n)]
    seen: set = set()
    classes = []
    # exponent vectors, then permutations, in lexicographic order: sorted
    for key in product(product(range(r), repeat=n), permutations(range(1, n + 1))):
        if key in seen or sum(key[0]) % p:
            continue
        seen.add(key)
        orbit = [key]
        for x in orbit:  # the list grows while it is read
            for t, s in by:
                y = _mul(r, *_mul(r, t.exps, t.perm, *x), s.exps, s.perm)
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        classes.append(ConjClass(rep=GroupElement(r, n, *key), size=len(orbit)))
    return classes


def least_members_by_scan(r: int, n: int) -> list[GroupElement]:
    """The least member of each class of G(r,1,n), unsorted.  A class is a
    multiset of (colour, length) cycles.  Each of its c cycles of nonzero
    colour needs a nonzero exponent, so its least exponent vector is
    (0, ..., 0, a_1, ..., a_c), the nonzero colours ascending, one on each
    of those cycles, and its least permutation is the first, in
    lexicographic order, whose cycles take these colours."""
    reps = []
    for c in range(n + 1):
        for colours in combinations_with_replacement(range(1, r), c):
            exps = (0,) * (n - c) + colours
            found = set()
            for perm in permutations(range(1, n + 1)):
                cycles = perm_cycles(perm)
                kind = tuple(sorted((sum(exps[i - 1] for i in cyc) % r, len(cyc)) for cyc in cycles))
                if kind not in found and tuple(a for a, _ in kind if a) == colours:
                    found.add(kind)
                    reps.append(_element(r, n, exps, perm))
    return reps


def solved_centralizer(g, p) -> tuple:
    """Z_{G(r,p,n)}(g), sorted.  h = (b, tau) commutes with g = (a, sigma)
    iff tau sigma = sigma tau and a + sigma.b = b + tau.a, that is
    b_{sigma(j)} = b_j + c_{sigma(j)} for every j, with c = a - tau.a.
    Along each cycle of sigma this fixes b from one free value at the
    cycle's first point, and it is solvable iff c sums to 0 mod r over the
    cycle."""
    r, n, a, sigma = g.r, g.n, g.exps, g.perm
    cycles = perm_cycles(sigma)
    out = []
    for tau in permutations(range(1, n + 1)):
        if any(tau[s - 1] != sigma[t - 1] for s, t in zip(sigma, tau)):
            continue
        c = [0] * n  # c_{tau(j)} = a_{tau(j)} - a_j
        for j, t in enumerate(tau):
            c[t - 1] = (a[t - 1] - a[j]) % r
        offset = [0] * n  # b_j minus the free value of j's cycle
        for cyc in cycles:
            total = 0
            for j in cyc[1:]:
                total += c[j - 1]
                offset[j - 1] = total
            if (total + c[cyc[0] - 1]) % r:
                break
        else:
            for free in product(range(r), repeat=len(cycles)):
                b = [0] * n
                for x, cyc in zip(free, cycles):
                    for j in cyc:
                        b[j - 1] = (x + offset[j - 1]) % r
                if sum(b) % p == 0:
                    out.append(_element(r, n, tuple(b), tau))
    out.sort(key=GroupElement.sort_key)
    return tuple(out)


def _scalar_and_cycle(g: GroupElement, cyc) -> list[GroupElement]:
    """The scalar xi on the support of the cycle cyc of g, and the element
    that is g on that support and the identity off it; they generate an
    abelian group of order rk, not always cyclic."""
    r, n = g.r, g.n
    on = [i + 1 in cyc for i in range(n)]
    return [diag(r, n, on), _element(
        r, n, tuple(g.exps[i] if on[i] else 0 for i in range(n)),
        tuple(g.perm[i] if on[i] else i + 1 for i in range(n)),
    )]


def centralizer_generators(g: GroupElement, p: int) -> tuple[GroupElement, ...]:
    """Generators of Z_{G(r,p,n)}(g) read off g's cycles, with no identity
    or repeat.  Per (a,k) type: `_scalar_and_cycle` of its first cycle, and
    the `_swaps` of its cycles: `centralizer_order_formula` in all.  For
    p > 1, cut down by `_within`."""
    by_type = _cycles_by_type(g).values()
    gens = [h for same in by_type for h in _scalar_and_cycle(g, same[0])]
    gens += [h for same in by_type for h in _swaps(g, same)]
    return _within(gens, g.r, g.n, p)


def a_conjugate(g, p, draws=20):
    """h^-1 g h for the first of `draws` seeded draws h from G(r,p,n) with
    h^-1 g h != g, or g if every draw centralizes it."""
    rng = random.Random(repr((g, p)))
    G = elements(g.r, p, g.n)
    for _ in range(draws):
        h = rng.choice(G)
        other = multiply(multiply(inverse(h), g), h)
        if other != g:
            return other
    return g


def listed_hochschild_character(g, rep, p):
    """chi_g listed over `solved_centralizer`: (Z, {h: e}) with
    e = det(h|V) minus det(h|V^g), both as `det_exponent`s mod lcm(2, r),
    on every h, the second read off h's action on `fixed_basis`."""
    r = g.r
    F = lcm(2, r)
    Z = solved_centralizer(g, p)
    pairs = subspace_actions(Z, rep, fixed_basis(g, rep))
    faithful = rep == RepKind.FAITHFUL
    exps = {
        h: (det_exponent(h.perm, h.exps if faithful else (), r) - det_exponent(pi, texp, r)) % F
        for h, (pi, texp) in zip(Z, pairs)
    }
    return Z, exps


def passes_det_filter_by_listing(g, rep, p):
    """The determinant filter by scanning the listed character: det(g) = 1,
    codim V^g in {0, 2}, and chi_g(h) = 1 on every h of Z(g) that acts as
    the identity on V^g."""
    fixed = fixed_basis(g, rep)
    if det_exponent(*monomial_action(g, rep), g.r) or g.n - len(fixed) not in (0, 2):
        return False
    Z, exps = listed_hochschild_character(g, rep, p)
    return not any(exps[h] and is_identity_action(*pair) for h, pair in zip(Z, subspace_actions(Z, rep, fixed)))


def in_subgroup(g, p):
    """g lies in G(r,p,n) iff the exponent sum is 0 mod p."""
    if g.r % p:
        raise ValueError("p must divide r")
    return sum(g.exps) % p == 0


def elementary_symmetric(k, polys):
    polys = list(polys)
    if not 1 <= k <= len(polys):
        raise ValueError("k out of range")
    n = polys[0].n
    out = Polynomial.zero(n)
    for combo in combinations(polys, k):
        prod = Polynomial.constant(n, 1)
        for f in combo:
            prod = prod * f
        out = out + prod
    return out


def invariant_ring_generators(r, p, m):
    """Basic invariants of G(r,p,m): e_1..e_{m-1} in the r-th powers of the
    variables, then (v_1...v_m)^{r/p}."""
    if r % p:
        raise ValueError("p must divide r")
    powers = [Polynomial.monomial(m, tuple(r if j == i else 0 for j in range(m))) for i in range(m)]
    gens = [elementary_symmetric(k, powers) for k in range(1, m)]
    gens.append(Polynomial.monomial(m, (r // p,) * m))
    return gens


def symmetric_group_derivations(m) -> list[PolyForm]:
    """Corrected basic derivations for the permutation action of S_m:
    theta_j = sum_i v_i^{j-1} (x) x_i, degrees 0..m-1."""
    return [_power_derivation(m, j) for j in range(m)]


def param_space_by_reynolds(r, p, n, rep):
    """hecke.param_space's report, by a loop over the classes: d counts the
    codimension-2 classes whose Hochschild character is trivial, and each
    class acting trivially on V gets the dimension of the Z(g)-invariant
    alternating 2-forms, from the trivial character of its centralizer."""
    d = 0
    lambda2 = {}
    paper_count = 0
    for cls in conjugacy_classes(r, p, n):
        g = cls.rep
        if n - len(fixed_basis(g, rep)) == 2:
            if hochschild_character(g, rep, p).is_trivial():
                d += 1
            if rep == RepKind.PERMUTATION and is_three_cycle(g.perm):
                paper_count += 1
        pi, t = monomial_action(g, rep)
        if pi == tuple(range(1, n + 1)) and all(x % r == 0 for x in t):
            chi = trivial_character(solved_centralizer(g, p))
            lambda2[g] = len(reynolds_basis_by_walk(chi, rep, 0, 2))
    total = d + sum(lambda2.values())
    if rep == RepKind.PERMUTATION:
        return GHAParamReport(d, lambda2, total, paper_count, paper_count != total)
    return GHAParamReport(d, lambda2, total, None, False)


# -- the G-listing linear oracle -------------------------------------------------


def _equivariance_classes(r: int, p: int, n: int, rep: RepKind):
    """(root, phase, dead) for the unknowns x_u = a_g(v_{i+1}, v_{j+1}),
    i < j, u = g's index in `elements` times C(n, 2) plus the pair's index
    in `combinations`: x_u = zeta_M^phase[u] x_root[u], M = lcm(2, r), and
    the orbit of root[u] is 0 iff root[u] is in dead.

    Each generator h of G gives the equivariance rows
    x_{h^-1gh,(i,j)} = +-zeta_r^(t_i + t_j) x_{g,(pi i, pi j)}, h.v_i =
    zeta_r^t_i v_{pi i}, read off two tables: g -> index(h^-1gh), built on
    (exps, perm) pairs by `group._conj`, and the pair (pi i, pi j), put in
    order, -> (index of (i, j), phase), the phase holding the sign's M/2
    when pi i > pi j.  Each row links two unknowns, so the rows tie them
    into orbits, and one `group.walk` from each unknown not yet reached
    carries the phases x = zeta_M^v x_start.  By the walk's argument a
    clash is a word fixing x_start that moves its phase, x_start =
    zeta_M^d x_start with d != 0, so the orbit is 0; with no clash every
    row in the orbit holds."""
    G = elements(r, p, n)
    keys = [(g.exps, g.perm) for g in G]
    index = {x: gi for gi, x in enumerate(keys)}
    pairs = list(combinations(range(n), 2))
    slot = {pair: s for s, pair in enumerate(pairs)}
    C, M = len(pairs), lcm(2, r)
    tables = []
    for h in generators(r, p, n):
        pi, t = monomial_action(h, rep)
        by = h.exps, h.perm, inverse(h).perm
        pair = [None] * C
        for s, (i, j) in enumerate(pairs):
            a, b = pi[i] - 1, pi[j] - 1
            pair[slot[min(a, b), max(a, b)]] = s, ((t[i] + t[j]) * M // r + (M // 2 if a > b else 0)) % M
        tables.append(([index[_conj(r, *x, *by)] for x in keys], pair))

    def move(u, v, table):
        gi, s = divmod(u, C)
        s, e = table[1][s]
        return table[0][gi] * C + s, (v + e) % M

    root, phase, dead = [None] * (len(G) * C), [0] * (len(G) * C), set()
    for u in range(len(root)):
        if root[u] is None:
            values, clashes = walk(u, 0, tables, move)
            for y, v in values.items():
                root[y], phase[y] = u, v
            if clashes:
                dead.add(u)
    return root, phase, dead


def param_space_by_orbits(r: int, p: int, n: int, rep: RepKind) -> int:
    """Dimension of the space of families passing pbw_check, computed as an
    exact linear system over free per-element forms, as
    `hecke.param_space_linear_oracle` computed it before it counted class
    by class.  Independent of the Reynolds route: no characters,
    semi-invariants or Hochschild data.

    Each equivariance row links exactly two unknowns, so those rows are
    solved as orbits, walked by `_equivariance_classes` over conjugation
    tables.  The Jacobi rows are then written over the live roots, read
    off (root, phase) per unknown, with coefficients kept as integer counts
    of powers of zeta_M until exact repeats are removed, summed by
    `power_sum` and reduced by `echelon_rows`.  The dimension is the number
    of live roots minus their rank.

    Rows are written only for the elements that hold a live root: under
    equivariance the rows of h^-1 g h are those of g with coordinates moved
    by h, so any one element of a class spans its rows.  A class with a
    live unknown holds its orbit's root; in one with none, the rows vanish."""
    root, phase, dead = _equivariance_classes(r, p, n, rep)
    M = lcm(2, r)
    half = M // 2
    slot = {pair: s for s, pair in enumerate(combinations(range(n), 2))}
    C = len(slot)
    # a_g(v_b, v_c) = zeta_M^e x_{g, slot}: e = half when b > c
    cyclic = [
        [(a, slot[min(b, c), max(b, c)], half if b > c else 0) for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
        for i, j, k in combinations(range(n), 3)
    ]
    G, live, jacobi = elements(r, p, n), set(root) - dead, set()
    for gi in {u // C for u in live}:
        pi, t = monomial_action(G[gi], rep)
        for triple in cyclic:
            # a(v_j,v_k)(v_i - g v_i) + cyclic, as {(coord, root, e): count}
            # over zeta_M^e, e < half, since zeta_M^(e + half) = -zeta_M^e
            counts: dict = {}
            for a, s, e in triple:
                u = gi * C + s
                if root[u] in dead:
                    continue
                e += phase[u]
                for coord, f in ((a, e), (pi[a] - 1, e + t[a] * M // r + half)):
                    key = (coord, root[u], f % half)
                    counts[key] = counts.get(key, 0) + (1 if f % M < half else -1)
            by_coord: dict = {}
            for (coord, ru, f), c in counts.items():
                if c:
                    by_coord.setdefault(coord, []).append((ru, f, c))
            jacobi.update(tuple(sorted(row)) for row in by_coord.values())
    rows = [{} for _ in jacobi]
    for row, terms in zip(rows, sorted(jacobi)):
        for ru, same in groupby(terms, lambda term: term[0]):
            _, fs, cs = zip(*same)
            row[ru] = CycloNum(M, power_sum(fs, cs, M), 1)
    return len(live) - len(echelon_rows(rows))


def param_space_by_class_rank(r: int, p: int, n: int, rep: RepKind) -> int:
    """Dimension of the space of families passing pbw_check, counted as an
    exact linear system class by class, as `hecke.param_space_linear_oracle`
    computed it before it solved the invariance rows as orbits: every
    invariance and Jacobi row of a class ranked together in Q(zeta_M).
    Independent of the Reynolds route: no characters, semi-invariants or
    Hochschild data.

    A family is equivariant iff each class representative g's form a_g is
    Z(g)-invariant and the rest of the family is its conjugation extension
    h^-1 g h -> a_g(h(.), h(.)) (`_extend_by_conjugation`).  Jacobi at
    h^-1 g h for that extension is h applied to Jacobi at g, so it holds iff
    Jacobi holds at g.  The h fixing a form are a group, so Z(g)-invariance
    is invariance under the generators of `centralizer_of(g, p)`.  The dimension is
    therefore the sum over the classes of C(n, 2) minus the rank of the rows
    on the unknowns x_s = a_g(v_{i+1}, v_{j+1}), s the index of i < j in
    `combinations`: for each generator h, h.v_i = zeta_r^t_i v_{pi i}, the
    rows a_g(h v_i, h v_j) - a_g(v_i, v_j), and the Jacobi rows
    a_g(v_j,v_k)(v_i - g v_i) + cyclic, one per coordinate.  A term
    zeta_M^e x_s, M = lcm(2, r), is kept as an integer count at (s, e mod
    M/2), since zeta_M^(e + M/2) = -zeta_M^e, so rows that vanish or repeat
    exactly are dropped before each is summed by `power_sum` and the class's
    rows are reduced by `echelon_rows`."""
    M = lcm(2, r)
    half = M // 2
    slot = {pair: s for s, pair in enumerate(combinations(range(n), 2))}

    def term(b, c, e):  # zeta_M^e a_g(v_{b+1}, v_{c+1}) as (slot, e), b != c
        return slot[min(b, c), max(b, c)], e + half * (b > c)

    def row(terms):  # the sorted nonzero (slot, e < half, count) of a row
        counts: dict = {}
        for s, e in terms:
            counts[s, e % half] = counts.get((s, e % half), 0) + (1 if e % M < half else -1)
        return tuple(sorted((s, e, c) for (s, e), c in counts.items() if c))

    total = 0
    for cls in conjugacy_classes(r, p, n):
        g = cls.rep
        rows = set()
        for h in centralizer_of(g, p).generators:
            pi, t = monomial_action(h, rep)
            for (i, j), s in slot.items():
                rows.add(row([term(pi[i] - 1, pi[j] - 1, (t[i] + t[j]) * M // r), (s, half)]))
        pi, t = monomial_action(g, rep)
        for i, j, k in combinations(range(n), 3):
            by_coord: dict = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                s, e = term(b, c, 0)
                by_coord.setdefault(a, []).append((s, e))
                by_coord.setdefault(pi[a] - 1, []).append((s, e + t[a] * M // r + half))
            rows.update(row(terms) for terms in by_coord.values())
        rows.discard(())
        reduced = []
        for terms in rows:
            reduced.append({})
            for s, same in groupby(terms, lambda x: x[0]):
                _, es, cs = zip(*same)
                reduced[-1][s] = CycloNum(M, power_sum(es, cs, M), 1)
        total += len(slot) - len(echelon_rows(reduced))
    return total


# -- the Fraction-tuple cyclotomic arithmetic ---------------------------------


def _fraction_divmod(num, den):
    """Division of Fraction coefficient lists (low degree first)."""
    num, dd = list(num), len(den) - 1
    quot = [Fraction(0)] * max(len(num) - dd, 0)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] / den[-1]
        if c:
            quot[k - dd] = c
            for i, dc in enumerate(den):
                num[k - dd + i] -= c * dc
    while num and not num[-1]:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def fraction_cyclotomic_polynomial(r: int) -> tuple:
    num = [Fraction(0)] * (r + 1)
    num[0], num[r] = Fraction(-1), Fraction(1)
    for d in range(1, r):
        if r % d == 0:
            num, rem = _fraction_divmod(num, fraction_cyclotomic_polynomial(d))
            assert not rem
    return tuple(num)


@lru_cache(maxsize=None)
def fraction_power_table(r: int) -> tuple:
    """zeta_r^k in the power basis as Fractions, for 0 <= k < max(r, 2 phi - 1)."""
    poly = fraction_cyclotomic_polynomial(r)
    phi = len(poly) - 1
    cur, rows = [Fraction(1)] + [Fraction(0)] * (phi - 1), []
    for _ in range(max(r, 2 * phi - 1)):
        rows.append(tuple(cur))
        # x * cur, with x^phi = -(poly[0] + ... + poly[phi-1] x^(phi-1))
        cur = [a - cur[-1] * c for a, c in zip([Fraction(0)] + cur[:-1], poly)]
    return tuple(rows)


class FractionCyclo:
    """An element of Q(zeta_order) as a tuple of Fractions on the power
    basis, with the mixed-order rule of `cyclo.CycloNum` (operands embed
    into Q(zeta_lcm)): the arithmetic CycloNum used before it held integer
    numerators over one denominator."""

    def __init__(self, order: int, coeffs):
        self.order, self.coeffs = order, tuple(map(Fraction, coeffs))

    def embed(self, big: int) -> "FractionCyclo":
        assert big % self.order == 0
        if big == self.order:
            return self
        table, step = fraction_power_table(big), big // self.order
        out = [Fraction(0)] * len(table[0])
        for k, c in enumerate(self.coeffs):
            for t, rv in enumerate(table[k * step % big]):
                out[t] += c * rv
        return FractionCyclo(big, out)

    def _pair(self, other):
        r = lcm(self.order, other.order)
        return self.embed(r), other.embed(r)

    def __add__(self, other):
        a, b = self._pair(other)
        return FractionCyclo(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __sub__(self, other):
        a, b = self._pair(other)
        return FractionCyclo(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __mul__(self, other):
        a, b = self._pair(other)
        table, phi = fraction_power_table(a.order), len(a.coeffs)
        out = [Fraction(0)] * phi
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                for t, rv in enumerate(table[i + j]):
                    out[t] += x * y * rv
        return FractionCyclo(a.order, out)

    def _sigma(self, s: int) -> "FractionCyclo":
        """The Galois automorphism zeta -> zeta^s, for s prime to the order."""
        r, table = self.order, fraction_power_table(self.order)
        out = [Fraction(0)] * len(self.coeffs)
        for k, c in enumerate(self.coeffs):
            if c:
                for t, rv in enumerate(table[k * s % r]):
                    if rv:
                        out[t] += c * rv
        return FractionCyclo(r, out)

    def conjugate(self) -> "FractionCyclo":
        return self._sigma(-1)

    def least(self) -> "FractionCyclo":
        """self in Q(zeta_d) for the least d dividing the order whose field
        holds it, by the Galois criterion: x lies in Q(zeta_d) iff
        sigma_s(x) = x for every s = 1 (mod d) prime to the order.  The
        coordinates solve embed(y) = x by elimination on the equations."""
        m = self.order
        d = next(d for d in range(1, m + 1) if m % d == 0 and all(
            self._sigma(s) == self for s in range(2, m + 1) if s % d == 1 % d and gcd(s, m) == 1))
        phi = len(fraction_power_table(d)[0])
        basis = [FractionCyclo(d, [int(i == k) for i in range(phi)]).embed(m).coeffs for k in range(phi)]
        rows = [[b[i] for b in basis] + [x] for i, x in enumerate(self.coeffs)]
        for k in range(phi):
            piv, *rest = sorted(rows[k:], key=lambda row: row[k] == 0)  # a pivot row first
            rows[k:] = [piv] + [[a - row[k] / piv[k] * b for a, b in zip(row, piv)] for row in rest]
        coords = [Fraction(0)] * phi
        for k in reversed(range(phi)):
            coords[k] = (rows[k][-1] - sum(rows[k][j] * coords[j] for j in range(k + 1, phi))) / rows[k][k]
        assert not any(row[-1] for row in rows[phi:]) and FractionCyclo(d, coords).embed(m) == self
        return FractionCyclo(d, coords)

    def invert(self) -> "FractionCyclo":
        """By the extended Euclidean algorithm modulo Phi_order."""
        r0, r1 = list(fraction_cyclotomic_polynomial(self.order)), list(self.coeffs)
        while r1 and not r1[-1]:
            r1.pop()
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, rem = _fraction_divmod(r0, r1)
            s_new = list(s0) + [Fraction(0)] * max(len(q) + len(s1) - 1 - len(s0), 0)
            for i, qc in enumerate(q):
                for j, sc in enumerate(s1):
                    s_new[i + j] -= qc * sc
            r0, r1, s0, s1 = r1, rem, s1, s_new
        out = [sc / r1[0] for sc in s1] + [Fraction(0)] * (len(self.coeffs) - len(s1))
        return FractionCyclo(self.order, out)

    def __eq__(self, other):
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def to_json(self) -> dict:
        """In the least field that holds the number (`least`)."""
        x = self.least()
        terms = [
            {"exp": k, "num": str(c.numerator), "den": str(c.denominator)}
            for k, c in enumerate(x.coeffs)
            if c
        ]
        return {"order": x.order, "terms": terms}
