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
- `reynolds_rows_by_projector`: the semi-invariant rows from the Reynolds
  projector summed over every h in the subgroup, orbit by orbit, then
  echelon-reduced, with wedge signs from `sort_with_sign`;
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
- `param_space_by_reynolds`: the parameter-space report by its own loop
  over the classes, as `hecke.param_space` computed it before it read
  `hh2_total`: the Hochschild character's triviality for each
  codimension-2 class, and the trivial character of the centralizer on
  Lambda^2 V* for each class acting trivially;
- `root_exponent`: the t with x = zeta_r^t, by search;
- `faithful_family_2_1_4`: a PBW family under the faithful action whose
  monomial actions carry root-of-unity phases;
- the dense and brute-force helpers the tests read: `trivial_character`,
  `act`, `coact`, `matrix`, `conjugate_in_full_group` and
  `dimension_by_enumeration`.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from heckeforge.cyclo import CycloMatrix, add_term, cyclo, echelon_rows, one, root_of_unity, zero
from heckeforge.group import (
    RepKind,
    centralizer,
    conjugacy_classes,
    cycle_type,
    diag,
    elements,
    from_cycles,
    generators,
    identity,
    inverse,
    is_three_cycle,
    monomial_action,
    multiply,
    three_cycle,
    transposition,
)
from heckeforge.hecke import (
    GHAParamReport,
    PBWReport,
    SkewForm,
    conjugate_form,
    forms_from_semiinvariants,
)
from heckeforge.hochschild import fixed_basis, hochschild_character
from heckeforge.ncalg import NCElement, _exps_of, _word_of, _xi_pair
from heckeforge.polyforms import CharacterTable, reynolds_semiinvariant_basis


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
    els = tuple(subgroup)
    r = els[0].r if els else 1
    return CharacterTable(els, lcm(2, r), {h: 0 for h in els})


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
    per-element Jacobi condition; witnesses as in hecke.pbw_check."""
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


def faithful_family_2_1_4():
    """forms_from_semiinvariants on the two codimension-2 classes of G(2,1,4)
    with trivial Hochschild character under the faithful action, each at
    scalar 1; the xi4(3,4) class puts phases into the monomial actions."""
    entries = [(three_cycle(2, 4, 2, 3, 4), 1), (from_cycles(2, 4, [(3, 4)], exps=[0, 0, 0, 1]), 1)]
    fam = forms_from_semiinvariants(entries, 2, 1, 4, RepKind.FAITHFUL)
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
    weights = Counter(actions)
    for start, (mu, S) in enumerate(basis):
        if visited[start]:
            continue
        counts: dict = {}
        for (pi, texp, chi_e), weight in weights.items():
            img_mu = [0] * len(mu)
            e = -chi_e
            for j, k in enumerate(mu):
                if k:
                    img_mu[pi[j]] = k
                    e += texp[j] * k
            imgS, sign = sort_with_sign(pi[j] for j in S)
            for j in S:
                e -= texp[j]
            if sign < 0:
                e += half
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
            chi = trivial_character(centralizer(g, p))
            lambda2[g] = len(reynolds_semiinvariant_basis(chi, rep, 0, 2))
    total = d + sum(lambda2.values())
    if rep == RepKind.PERMUTATION:
        return GHAParamReport(d, lambda2, total, paper_count, paper_count != total)
    return GHAParamReport(d, lambda2, total, None, False)
