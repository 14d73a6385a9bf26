"""Exact multivariate polynomials and polynomial differential forms with
G-actions: the algebra S(V) (x) Lambda(V*).

A PolyForm maps strictly increasing wedge index sets x_S to polynomials.
Group elements act on polynomials by substitution and on wedge factors by
the contragredient action, with the sign of the permutation that re-sorts
the wedge indices.  A chi-semi-invariant basis is read off the orbits of
the monomial-times-wedge basis, walked breadth first under generators of
the subgroup with integer phases: one basis element per orbit on whose
stabilizer chi agrees with the action, in reduced echelon form, so
repeated runs agree byte-for-byte.  Counting the orbits gives a dimension;
the basis elements are assembled only when asked for.

A subspace is given by an integer basis: one tuple of (coordinate, t)
pairs per vector, w = sum zeta_r^t v_i, on disjoint supports.  A group
element's action on it and the wedge duals of its vectors are read off
these integers, with no elimination, inverse or determinant.  So are the
reflection roots behind Solomon's check (`reflection_root`).
`restriction_matrix` is the dense reference, on bases of cyclotomic
vectors, and the one reader of dense algebra left here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import lcm, prod
from operator import mul

from .cyclo import CycloMatrix, CycloNum, SparseSum, add_term, cyclo, one, power_sum, root_of_unity, twist, zero
from .group import (
    GroupElement, RepKind, _element, _mul, monomial_action, monomial_image, perm_sign, walk
)


class Polynomial(SparseSum):
    """Exact polynomial in n variables: a map exponent vector -> CycloNum."""

    __slots__ = ("n",)

    def __init__(self, n: int, terms: dict):
        self.n = n
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    def _like(self, terms: dict) -> "Polynomial":
        return Polynomial(self.n, terms)

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n, {})

    @staticmethod
    def constant(n: int, c) -> "Polynomial":
        return Polynomial(n, {(0,) * n: cyclo(c)})

    @staticmethod
    def variable(n: int, i: int) -> "Polynomial":
        e = [0] * n
        e[i - 1] = 1
        return Polynomial(n, {tuple(e): one()})

    @staticmethod
    def monomial(n: int, exps, c=1) -> "Polynomial":
        return Polynomial(n, {tuple(exps): cyclo(c)})

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return Polynomial(self.n, out)

    def __repr__(self):
        return format_polynomial(self) or "0"


def format_polynomial(f: Polynomial) -> str:
    bits = []
    for e in sorted(f.terms, reverse=True):
        c = f.terms[e]
        mono = "*".join(
            f"v{i+1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k
        )
        cs = str(c)
        if mono:
            bits.append(f"({cs}) * {mono}" if ("+" in cs or "-" in cs[1:]) else f"{cs} * {mono}")
        else:
            bits.append(f"({cs})" if "+" in cs or "-" in cs[1:] else cs)
    return " + ".join(bits)


class PolyForm(SparseSum):
    """Element of S(V) (x) Lambda(V*): wedge index set -> Polynomial."""

    __slots__ = ("n",)

    def __init__(self, n: int, terms: dict):
        comps = {}
        for S, p in terms.items():
            S = tuple(S)
            if list(S) != sorted(set(S)):
                raise ValueError("wedge index sets must be strictly increasing")
            if not p.is_zero():
                comps[S] = p
        self.n = n
        self.terms = comps

    def _like(self, terms: dict) -> "PolyForm":
        return PolyForm(self.n, terms)

    def poly_degree(self) -> int:
        """Degree of the polynomial of highest degree over all components."""
        return max((p.degree() for p in self.terms.values()), default=-1)

    def __repr__(self):
        bits = []
        for S in sorted(self.terms):
            poly = format_polynomial(self.terms[S])
            if S:
                wedge = "^".join(f"x{i}" for i in S)
                bits.append(f"({poly}) ^ {wedge}")
            else:
                bits.append(poly)
        return " + ".join(bits) or "0"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "components": [
                {
                    "wedge": list(S),
                    "terms": [
                        {"exps": list(e), "coeff": c.to_json()}
                        for e, c in sorted(p.terms.items(), reverse=True)
                    ],
                }
                for S, p in sorted(self.terms.items())
            ],
        }


# -- group actions -----------------------------------------------------------


def act_poly(g: GroupElement, f: Polynomial, rep: RepKind) -> Polynomial:
    """Substitution action: v_i |-> g(v_i)."""
    out: dict = {}
    for e, c in f.terms.items():
        key, zexp = monomial_image(e, g, rep)
        add_term(out, key, twist(c, g.r, zexp))
    return Polynomial(f.n, out)


def act_form(g: GroupElement, w: PolyForm, rep: RepKind) -> PolyForm:
    """Action on S(V) (x) Lambda(V*): substitution on the polynomial part,
    contragredient action with sorting sign on the wedge part."""
    pi, t = monomial_action(g, rep)
    out = {}
    for S, p in w.terms.items():
        img = tuple(pi[i - 1] for i in S)
        coeff = twist(cyclo(perm_sign(img)), g.r, -sum(t[i - 1] for i in S))
        out[tuple(sorted(img))] = act_poly(g, p, rep).scale(coeff)  # pi is a bijection: a new key
    return PolyForm(w.n, out)


# -- classical invariant theory ----------------------------------------------


def _power_derivation(m: int, e: int) -> PolyForm:
    """sum_i v_i^e (x) x_i."""
    monos = [tuple(e * (t == i) for t in range(m)) for i in range(m)]
    return PolyForm(m, {(i + 1,): Polynomial.monomial(m, mu) for i, mu in enumerate(monos)})


def basic_derivations(r: int, p: int, m: int) -> list[PolyForm]:
    """theta_j = sum_i v_i^{(j-1)r+1} (x) x_i for j <= m, with the alternative
    last derivation sum_i (v_1..v^_i..v_m)^{r-1} (x) x_i when p = r."""
    if r % p:
        raise ValueError("p must divide r")
    out = [_power_derivation(m, (j - 1) * r + 1) for j in range(1, m + (p != r))]
    if p == r:
        out.append(PolyForm(m, {
            (i + 1,): Polynomial.monomial(m, tuple((r - 1) * (t != i) for t in range(m))) for i in range(m)
        }))
    return out


def _poly_matrix_determinant(rows: list[list[Polynomial]]) -> Polynomial:
    m = len(rows)
    n = rows[0][0].n
    if m == 1:
        return rows[0][0]
    out = Polynomial.zero(n)
    for j in range(m):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[rows[i][t] for t in range(m) if t != j] for i in range(1, m)]
        term = entry * _poly_matrix_determinant(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def reflection_root(g: GroupElement, rep: RepKind):
    """The root of g, a vector of Q(zeta_r) numbers spanning im(g - 1), if g
    is a reflection; None otherwise.  Read off the monomial action: a single
    moved coordinate i gives e_i, a transposition (i j), i < j, with
    t_i + t_j = 0 mod r and every other coordinate fixed gives
    e_i - zeta_r^{t_i} e_j.  Scaled so its first nonzero entry is 1, as a
    reduced echelon basis of the column space of g - 1 is."""
    r, n = g.r, g.n
    pi, t = monomial_action(g, rep)
    moved = [i for i in range(n) if pi[i] != i + 1 or t[i] % r]
    vec = [zero(r)] * n
    if len(moved) == 2 and pi[moved[0]] == moved[1] + 1 and (t[moved[0]] + t[moved[1]]) % r == 0:
        vec[moved[1]] = -root_of_unity(r, t[moved[0]])
    elif len(moved) != 1:
        return None
    vec[moved[0]] = one(r)
    return tuple(vec)


def reflection_arrangement_polynomial(group_elements, rep: RepKind) -> Polynomial:
    """Q = product of the (deduplicated) linear forms cutting out the moved
    lines of the reflections in the listed group, computed in S(V)."""
    elems = list(group_elements)
    n = elems[0].n
    lines = {}
    for g in elems:
        root = reflection_root(g, rep)
        if root is not None:
            lines.setdefault(tuple((c.order, c.nums, c.den) for c in root), root)
    Q = Polynomial.constant(n, 1)
    for vec in lines.values():
        Q = Q * Polynomial(n, {
            tuple(1 if t == i else 0 for t in range(n)): c for i, c in enumerate(vec) if not c.is_zero()
        })
    return Q


def solomon_check(thetas: list[PolyForm], group_elements, rep: RepKind) -> dict:
    """Check the hypotheses of Solomon's theorem for a derivation family:
    each theta fixed by the whole listed group, and the coefficient-matrix
    determinant equal to a nonzero scalar times the arrangement polynomial Q."""
    elems = list(group_elements)
    n = thetas[0].n
    invariant = all(act_form(g, th, rep) == th for g in elems for th in thetas)
    rows = [
        [th.terms.get((i,), Polynomial.zero(n)) for i in range(1, n + 1)]
        for th in thetas
    ]
    det = _poly_matrix_determinant(rows)
    Q = reflection_arrangement_polynomial(elems, rep)
    if det.is_zero():
        determinant_is_q = False
    else:
        key = next(iter(sorted(Q.terms, reverse=True)))
        if key not in det.terms:
            determinant_is_q = False
        else:
            c = det.terms[key] / Q.terms[key]
            determinant_is_q = (not c.is_zero()) and det == Q.scale(c)
    return {"invariant": invariant, "determinant_is_Q": determinant_is_q}


# -- characters and the Reynolds projector -----------------------------------


class CharacterError(ValueError):
    pass


class CharacterTable:
    """A linear character chi of a subgroup H of G(r,p,n), held by its
    values on a generating set: chi(generators[j]) = zeta_order^{exponents[j]},
    where `order` is a multiple of lcm(2, r), so a sign is order / 2, and
    `subgroup_order` is the claimed |H|.

    H is listed only if `subgroup`, `exponents` or `chi(h)` are read, by the
    walk that extends the values over H and proves the claim (`exponents`).
    The table keeps the generators' integer action data per subspace
    (`actions`), so every polynomial degree reuses them.
    """

    def __init__(self, r: int, n: int, order: int, generators, exponents, subgroup_order: int):
        if order % lcm(2, r):
            raise ValueError("the exponent modulus must be a multiple of lcm(2, r)")
        self.r, self.n, self.order = r, n, order
        self.generators = tuple(generators)
        self._generator_exponents = tuple(e % order for e in exponents)
        self.subgroup_order = subgroup_order
        self._exponents = None
        self._actions: dict = {}

    @property
    def subgroup(self) -> tuple:
        """H, sorted: the keys of `exponents`."""
        return tuple(self.exponents)

    @property
    def exponents(self) -> dict:
        """Every exponent, keyed by H in sorted order: the values of the
        `group.walk` from the identity under the generators S, with
        e(x s) = e(x) + e(s) mod `order`.  With no clash, e is a function on
        H, and e(xy) = e(x) + e(y) for all x, y in H by induction on the
        length of y in S.  The walk must also reach exactly `subgroup_order`
        elements, so S generates H.  Raises CharacterError otherwise."""
        if self._exponents is None:
            r, n, order = self.r, self.n, self.order
            start = ((0,) * n, tuple(range(1, n + 1)))
            by = [(s.exps, s.perm, e) for s, e in zip(self.generators, self._generator_exponents, strict=True)]
            e, clashes = walk(start, 0, by, lambda x, v, s: (_mul(r, *x, s[0], s[1]), (v + s[2]) % order))
            if clashes:
                raise CharacterError("the generator values do not extend to a homomorphism")
            if len(e) != self.subgroup_order:
                raise CharacterError(f"the generators reach {len(e)} elements, not {self.subgroup_order}")
            self._exponents = {_element(r, n, *x): e[x] for x in sorted(e)}
        return self._exponents

    def __call__(self, h: GroupElement) -> CycloNum:
        return root_of_unity(self.order, self.exponents[h])

    def is_trivial(self) -> bool:
        return not any(self._generator_exponents)

    def actions(self, rep: RepKind, subspace) -> list:
        """The distinct triples (pi, texp * F / r, e(s)) over the generators
        s, in the order of their first s, where s.w_j = zeta_r^{texp[j]}
        w_{pi[j]} on the integer subspace basis w (see `subspace_actions`);
        equal triples act alike on every monomial-times-wedge element.
        Built once and kept on the table."""
        if (rep, subspace) not in self._actions:
            self.keep_actions(rep, subspace, subspace_actions(self.generators, rep, subspace))
        return self._actions[rep, subspace]

    def keep_actions(self, rep: RepKind, subspace, pairs) -> None:
        """Keep the `subspace_actions(generators, rep, subspace)` pairs of a
        caller that already has them, as `actions(rep, subspace)`."""
        step = self.order // self.r
        self._actions[rep, subspace] = list(dict.fromkeys(
            (pi, tuple(t * step for t in texp), e) for (pi, texp), e in zip(pairs, self._generator_exponents)
        ))


def is_identity_action(pi, texp) -> bool:
    """True iff a (pi, texp) pair of `subspace_action`, with texp reduced or
    rescaled, is the identity on the subspace."""
    return not any(texp) and all(j == k for k, j in enumerate(pi))


def subspace_action(h: GroupElement, rep: RepKind, vectors):
    """(pi, texp) with h.w_j = zeta_r^{texp[j]} w_{pi[j]} (0-based), for an
    integer subspace basis w: one tuple of (coordinate, t) pairs per vector,
    meaning w_j = sum zeta_r^t v_i over its pairs, on disjoint supports.

    Raises ValueError if the span is not h-stable or h does not permute the
    w_j up to powers of zeta_r.  `hochschild.fixed_basis` always qualifies
    for h in Z(g): it has one vector per cycle of g with phase sum 0, and h
    permutes the cycles of g.
    """
    return subspace_actions([h], rep, vectors)[0]


def subspace_actions(elements, rep: RepKind, vectors) -> list:
    """`subspace_action` of each listed element, reading the basis once."""
    elements = list(elements)
    if not elements:
        return []
    r = elements[0].r
    owner = {}  # coordinate -> (index of the vector it supports, its t)
    for k, v in enumerate(vectors):
        if not v:
            raise ValueError("subspace basis contains the zero vector")
        for i, t in v:
            if i in owner:
                raise ValueError("subspace vectors must have disjoint supports")
            owner[i] = (k, t)
    out = []
    for h in elements:
        hpi, ht = monomial_action(h, rep)
        pi, texp = [], []
        for v in vectors:
            # h.w = sum zeta^{t + ht[i]} v_{hpi[i]}: a multiple of one w_k iff
            # every image lands on w_k's support with one shift of phase
            hits = set()
            for i, t in v:
                k, tk = owner.get(hpi[i] - 1, (None, 0))
                hits.add((k, (t + ht[i] - tk) % r))
            (k, shift) = hits.pop()
            if hits or k is None or len(vectors[k]) != len(v):
                raise ValueError("subspace is not permuted monomially by the group element")
            pi.append(k)
            texp.append(shift)
        out.append((tuple(pi), tuple(texp)))
    return out


def _vectors_key(vectors):
    """Hashable exact form of a list of vectors."""
    return tuple(tuple((c.order, c.nums, c.den) for c in map(cyclo, v)) for v in vectors)


@lru_cache(maxsize=1024)
def _subspace_frame(key):
    """(W, pivots, inverse of W's pivot rows) for the subspace with exact
    vectors `key` (see `_vectors_key`), W holding the vectors as columns."""
    vectors = [[CycloNum(*c) for c in v] for v in key]
    m = len(vectors)
    n = len(vectors[0]) if vectors else 0
    W = CycloMatrix([[vectors[j][i] for j in range(m)] for i in range(n)])
    pivots = W.transpose()._rref()[1]
    if len(pivots) != m:
        raise ValueError("subspace basis is linearly dependent")
    WR_inv = CycloMatrix([[W.entries[i][j] for j in range(m)] for i in pivots]).inverse()
    return W, pivots, WR_inv


# bench/tracer.py binds this function by name
def restriction_matrix(g: GroupElement, rep: RepKind, subspace):
    """Matrix C of g on the span of the subspace vectors: g.w_j = sum C[i][j] w_i.

    The dense reference for `subspace_action`, on vectors of cyclotomic
    numbers; unlike it, accepts any stable basis.  Raises ValueError if the subspace is not g-stable.  The
    pivot block of a subspace is inverted once and cached.
    """
    n = g.n
    W, pivots, WR_inv = _subspace_frame(_vectors_key(subspace))
    m = len(pivots)
    pi, t = monomial_action(g, rep)
    # image matrix U = M_g W, using the monomial structure of M_g
    pi_inv = [0] * n
    for i in range(n):
        pi_inv[pi[i] - 1] = i
    U = [
        [W.entries[pi_inv[a]][j] * root_of_unity(g.r, t[pi_inv[a]]) for j in range(m)]
        for a in range(n)
    ]
    C = WR_inv * CycloMatrix([U[i] for i in pivots])
    # stability check on the non-pivot rows (pivot rows hold by construction)
    pivset = set(pivots)
    for a in range(n):
        if a in pivset:
            continue
        for j in range(m):
            s = zero()
            for i2 in range(m):
                s = s + W.entries[a][i2] * C.entries[i2][j]
            if s != U[a][j]:
                raise ValueError("subspace is not stable under the group element")
    return C


def reynolds_semiinvariant_basis(
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
    and subspace (`CharacterTable.actions`); later degrees reuse them.
    The rows come from `semiinvariant_rows`, which alone gives their
    number; only this function assembles them into PolyForms.
    """
    if subspace is None:
        subspace = tuple(((i, 0),) for i in range(chi.n))
    rows, monos, wedges = semiinvariant_rows(chi, rep, poly_degree, form_degree, subspace)
    return [_assemble_polyform(row, monos, wedges, chi.n, chi.r, chi.order, subspace) for row in rows]


def semiinvariant_rows(chi: CharacterTable, rep: RepKind, poly_degree: int, form_degree: int, subspace):
    """(rows, monos, wedges): the monomials mu of the polynomial degree on
    the subspace basis, v_1^d first, the wedges S of the form degree, and
    the `_phase_rows` of the basis they span, one row per element of
    `reynolds_semiinvariant_basis`: so the row count is the dimension."""
    m = len(subspace)
    if form_degree < 0 or form_degree > m or poly_degree < 0:
        return [], [], []
    wedges = list(combinations(range(m), form_degree))
    # the multisets of poly_degree symbols in lex order give exponents descending, v_1^d first
    monos = [tuple(map(c.count, range(m))) for c in combinations_with_replacement(range(m), poly_degree)]
    return _phase_rows(chi.actions(rep, subspace), chi.order, monos, wedges), monos, wedges


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


def _duals(vectors) -> list:
    """The covector dual to each integer subspace vector w = sum zeta_r^t v_i
    over its support c, as (|c|, ((i, -t), ...)), meaning
    (1/|c|) sum zeta_r^{-t} x_i.  It is 1 on w and vanishes on the other
    vectors and on the complement named in `reynolds_semiinvariant_basis`."""
    return [(len(v), tuple((i, -t) for i, t in v)) for v in vectors]


def _assemble_polyform(row, monos, wedges, n, r, F, vectors):
    """The ambient PolyForm of a row of `_phase_rows`, with the subspace
    vectors substituted and their duals (`_duals`) expanded.

    Every coefficient is carried as an integer phase mod F with a rational
    weight, and becomes a cyclotomic number once per ambient term, through
    `power_sum`.  A product of the vectors has the phase sum e_i t_i on its
    ambient term v^e, since each coordinate lies in one support.  The duals'
    supports are disjoint too, so a wedge of them is the sum, over one
    coordinate taken from each support, of the product of the entries times
    the sign that sorts the coordinates."""
    step = F // r
    phase_at = {i: t for v in vectors for i, t in v}
    duals = _duals(vectors)
    acc: dict = {}  # wedge -> exponents -> {phase mod F: weight}
    for idx, a in row.items():
        mu, S = monos[idx // len(wedges)], wedges[idx % len(wedges)]
        poly = {(0,) * n: 1}  # prod w_j^{mu_j} without its phases
        for j, k in enumerate(mu):
            for _ in range(k):
                nxt: dict = {}
                for e, c in poly.items():
                    for i, _ in vectors[j]:
                        f = e[:i] + (e[i] + 1,) + e[i + 1:]
                        nxt[f] = nxt.get(f, 0) + c
                poly = nxt
        size = prod(duals[j][0] for j in S)
        for choice in product(*(duals[j][1] for j in S)):
            coords = tuple(i + 1 for i, _ in choice)
            sign = perm_sign(coords)
            weight = sign if size == 1 else Fraction(sign, size)
            dual_phase = sum(t for _, t in choice)
            terms = acc.setdefault(tuple(sorted(coords)), {})
            for e, c in poly.items():
                ph = dual_phase + sum(k * phase_at[i] for i, k in enumerate(e) if k)
                slot = terms.setdefault(e, {})
                x = (a + step * ph) % F
                slot[x] = slot.get(x, 0) + c * weight
    return PolyForm(n, {
        T: Polynomial(n, {e: CycloNum(F, power_sum(slot, slot.values(), F)) for e, slot in terms.items()})
        for T, terms in acc.items()
    })
