"""Exact multivariate polynomials and polynomial differential forms with
G-actions: the algebra S(V) (x) Lambda(V*).

A PolyForm maps strictly increasing wedge index sets x_S to polynomials.
Group elements act on polynomials by substitution and on wedge factors by
the contragredient action, with the sign of the permutation that re-sorts
the wedge indices.  A chi-semi-invariant basis is read off the orbits of
the monomial-times-wedge basis, with integer phases: one basis element per
orbit on whose stabilizer chi agrees with the action, in reduced echelon
form, so repeated runs agree byte-for-byte.

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
from itertools import combinations, product
from math import lcm, prod

from .cyclo import CycloMatrix, CycloNum, add_term, cyclo, one, root_of_unity, twist, zero
from .group import (
    GroupElement, RepKind, generators_by_closure, identity, monomial_action, monomial_image, perm_sign
)


class Polynomial:
    """Exact polynomial in n variables: a map exponent vector -> CycloNum."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

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

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            add_term(out, e, c)
        return Polynomial(self.n, out)

    def __neg__(self):
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    prod = c1 * c2
                    out[key] = out[key] + prod if key in out else prod
            return Polynomial(self.n, out)
        c = cyclo(other)
        return Polynomial(self.n, {e: v * c for e, v in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Polynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self - other).is_zero()

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


class PolyForm:
    """Element of S(V) (x) Lambda(V*): wedge index set -> Polynomial."""

    __slots__ = ("n", "components")

    def __init__(self, n: int, components: dict):
        comps = {}
        for S, p in components.items():
            S = tuple(S)
            if list(S) != sorted(set(S)):
                raise ValueError("wedge index sets must be strictly increasing")
            if not p.is_zero():
                comps[S] = p
        self.n = n
        self.components = comps

    @staticmethod
    def zero(n: int) -> "PolyForm":
        return PolyForm(n, {})

    def is_zero(self) -> bool:
        return not self.components

    def poly_degree(self) -> int:
        """Degree of the polynomial of highest degree over all components."""
        return max((p.degree() for p in self.components.values()), default=-1)

    def __add__(self, other):
        out = dict(self.components)
        for S, p in other.components.items():
            add_term(out, S, p)
        return PolyForm(self.n, out)

    def __neg__(self):
        return PolyForm(self.n, {S: -p for S, p in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "PolyForm":
        return PolyForm(self.n, {S: p * c for S, p in self.components.items()})

    def __eq__(self, other):
        if not isinstance(other, PolyForm):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        bits = []
        for S in sorted(self.components):
            poly = format_polynomial(self.components[S])
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
                for S, p in sorted(self.components.items())
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
    for S, p in w.components.items():
        img = tuple(pi[i - 1] for i in S)
        coeff = twist(cyclo(perm_sign(img)), g.r, -sum(t[i - 1] for i in S))
        out[tuple(sorted(img))] = act_poly(g, p, rep) * coeff  # pi is a bijection: a new key
    return PolyForm(w.n, out)


# -- classical invariant theory ----------------------------------------------


def elementary_symmetric(k: int, polys) -> Polynomial:
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


def invariant_ring_generators(r: int, p: int, m: int) -> list[Polynomial]:
    """Basic invariants of G(r,p,m): e_1..e_{m-1} in the r-th powers of the
    variables, then (v_1...v_m)^{r/p}."""
    if r % p:
        raise ValueError("p must divide r")
    powers = [Polynomial.monomial(m, tuple(r if j == i else 0 for j in range(m))) for i in range(m)]
    gens = [elementary_symmetric(k, powers) for k in range(1, m)]
    gens.append(Polynomial.monomial(m, (r // p,) * m))
    return gens


def basic_derivations(r: int, p: int, m: int) -> list[PolyForm]:
    """theta_j = sum_i v_i^{(j-1)r+1} (x) x_i for j < m, with the alternative
    last derivation sum_i (v_1..v^_i..v_m)^{r-1} (x) x_i when p = r."""
    if r % p:
        raise ValueError("p must divide r")
    out = []
    for j in range(1, m):
        e = (j - 1) * r + 1
        out.append(
            PolyForm(
                m,
                {
                    (i,): Polynomial.monomial(m, tuple(e if t == i - 1 else 0 for t in range(m)))
                    for i in range(1, m + 1)
                },
            )
        )
    if p != r:
        e = (m - 1) * r + 1
        last = {
            (i,): Polynomial.monomial(m, tuple(e if t == i - 1 else 0 for t in range(m)))
            for i in range(1, m + 1)
        }
    else:
        last = {
            (i,): Polynomial.monomial(m, tuple(0 if t == i - 1 else r - 1 for t in range(m)))
            for i in range(1, m + 1)
        }
    out.append(PolyForm(m, last))
    return out


def symmetric_group_derivations(m: int) -> list[PolyForm]:
    """Corrected basic derivations for the permutation action of S_m:
    theta_j = sum_i v_i^{j-1} (x) x_i, degrees 0..m-1."""
    out = []
    for j in range(1, m + 1):
        out.append(
            PolyForm(
                m,
                {
                    (i,): Polynomial.monomial(m, tuple(j - 1 if t == i - 1 else 0 for t in range(m)))
                    for i in range(1, m + 1)
                },
            )
        )
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
            lines.setdefault(tuple((c.order, c.coeffs) for c in root), root)
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
        [th.components.get((i,), Polynomial.zero(n)) for i in range(1, n + 1)]
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
            determinant_is_q = (not c.is_zero()) and det == Q * c
    return {"invariant": invariant, "determinant_is_Q": determinant_is_q}


# -- characters and the Reynolds projector -----------------------------------


class CharacterError(ValueError):
    pass


class CharacterTable:
    """A linear character of a listed subgroup H of G(r,p,n), held as
    exponents: chi(h) = zeta_order^{exponents[h]}, where `order` is a
    multiple of lcm(2, r), so a sign is order / 2.

    The table is verified once (`check_multiplicative`) and keeps its
    integer action data per subspace (`actions`), so every polynomial degree
    of a class reuses both.
    """

    def __init__(self, subgroup, order: int, exponents: dict):
        self.subgroup = tuple(subgroup)
        if self.subgroup and order % lcm(2, self.subgroup[0].r):
            raise ValueError("the exponent modulus must be a multiple of lcm(2, r)")
        self.order = order
        self.exponents = {h: e % order for h, e in exponents.items()}
        self._verified = False
        self._actions: dict = {}

    def __call__(self, h: GroupElement) -> CycloNum:
        return root_of_unity(self.order, self.exponents[h])

    def is_trivial(self) -> bool:
        return not any(self.exponents.values())

    def check_multiplicative(self):
        """Prove chi(xy) = chi(x) chi(y) on H; the work is done once per table.

        For the generating set S of `generators_by_closure`, checks e(1) = 0
        and e(x s) = e(x) + e(s) mod F for every x in H and s in S.  Every
        element of the finite group H is a word in S, so induction on word
        length gives the identity for all pairs.  An all-zero table is a
        character of any subgroup and needs no closure.  Raises
        CharacterError otherwise, also when H is not a subgroup.
        """
        if self._verified:
            return
        if not self.is_trivial():
            exps, els = self.exponents, self.subgroup
            if exps.get(identity(els[0].r, els[0].n)):
                raise CharacterError("character is not 1 at the identity")
            try:
                gens, products = generators_by_closure(els)
            except ValueError as exc:
                raise CharacterError(str(exc)) from exc
            F = self.order
            e = [exps[h] for h in els]
            for i, row in enumerate(products):
                for s, k in zip(gens, row):
                    if (e[i] + e[s] - e[k]) % F:
                        raise CharacterError("character is not multiplicative on the subgroup")
        self._verified = True

    def actions(self, rep: RepKind, subspace) -> list:
        """The distinct triples (pi, texp * F / r, e(h)) over h in H, in the
        order of their first h, where h.w_j = zeta_r^{texp[j]} w_{pi[j]} on
        the integer subspace basis w (see `subspace_actions`).  Elements
        with equal triples act alike on every monomial-times-wedge element,
        so readers need each triple once.  Built once per (rep, subspace)
        and kept on the table."""
        out = self._actions.get((rep, subspace))
        if out is None:
            out = self.keep_actions(rep, subspace, subspace_actions(self.subgroup, rep, subspace))
        return out

    def keep_actions(self, rep: RepKind, subspace, pairs) -> list:
        """Store the `subspace_actions(H, rep, subspace)` pairs of a caller
        that already has them as `actions(rep, subspace)`, and return that
        list."""
        step = self.order // self.subgroup[0].r
        exps = self.exponents
        out = list(dict.fromkeys(
            (pi, tuple(t * step for t in texp), exps[h])
            for h, (pi, texp) in zip(self.subgroup, pairs)
        ))
        self._actions[rep, subspace] = out
        return out


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
    return tuple(tuple((c.order, c.coeffs) for c in map(cyclo, v)) for v in vectors)


@lru_cache(maxsize=1024)
def _subspace_frame(key):
    """(W, pivots, inverse of W's pivot rows) for the subspace with exact
    vectors `key` (see `_vectors_key`), W holding the vectors as columns."""
    vectors = [[CycloNum(order, coeffs) for order, coeffs in v] for v in key]
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


def _monomials_of_degree(m: int, d: int):
    """Exponent tuples of total degree d in m symbols, lexicographically
    descending (v_1^d first)."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for k in range(remaining, -1, -1):
            rec(prefix + (k,), remaining - k, slots - 1)

    if m == 0:
        return [()] if d == 0 else []
    rec((), d, m)
    return out


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

    Every element of `chi.subgroup` must permute the subspace basis up to
    roots of unity, so H = chi.subgroup permutes the monomial-times-wedge
    basis up to phases zeta_F^e.  The Reynolds projector
    (1/|H|) sum chi(h)^{-1} h then maps a basis element b into the span of
    its orbit, and is nonzero there exactly when every h in the stabilizer
    of b has h.b = chi(h) b: the stabilizer's twisted character is
    otherwise nontrivial and sums to 0.  So each surviving orbit gives one
    basis element, read off by comparing integer phases, with no projector
    sum (see `_phase_rows`).  The character is verified and its action data
    are built on the first call for a table and subspace
    (`CharacterTable.check_multiplicative`, `CharacterTable.actions`); later
    degrees reuse both.
    """
    elems = chi.subgroup
    if not elems:
        raise ValueError("empty subgroup")
    chi.check_multiplicative()
    r, n = elems[0].r, elems[0].n
    if subspace is None:
        subspace = tuple(((i, 0),) for i in range(n))
    m = len(subspace)
    if form_degree < 0 or form_degree > m or poly_degree < 0:
        return []

    monos = _monomials_of_degree(m, poly_degree)
    wedges = list(combinations(range(m), form_degree))
    basis = [(mu, S) for mu in monos for S in wedges]
    if not basis:
        return []
    rows = _phase_rows(chi.actions(rep, subspace), chi.order, basis)
    return [_assemble_polyform(row, basis, n, r, chi.order, subspace) for row in rows]


def _phase_rows(actions, F, basis):
    """Reduced echelon basis of the span of the chi-semi-invariants, as
    sparse rows {index into `basis`: e}, each entry meaning zeta_F^e;
    `actions` as in `CharacterTable.actions`.

    Each (pi, texp, chi_e) sends b = (mu, S) to zeta_F^e b' with a single
    integer exponent e (chi's inverse folded in), so one walk over the
    actions from b reaches its orbit with a phase per element.  When two
    elements send b to the same b' with different phases, the stabilizer of
    b acts by a nontrivial character, whose sum is 0, so the projector kills
    the orbit.  Otherwise the projector's image of b is a multiple of
    sum_{b'} zeta_F^{e(b') - e(b)} b'.  Orbits are disjoint and each walk
    starts at the smallest index of its orbit, so these rows, taken in scan
    order, are already the reduced echelon form."""
    index = {b: i for i, b in enumerate(basis)}
    reached = [False] * len(basis)
    half = F // 2
    rows = []
    for start, (mu, S) in enumerate(basis):
        if reached[start]:
            continue
        phases: dict = {}
        agree = True
        for pi, texp, chi_e in actions:
            img_mu = [0] * len(mu)
            e = -chi_e
            for j, k in enumerate(mu):
                if k:
                    img_mu[pi[j]] = k
                    e += texp[j] * k
            img = tuple([pi[j] for j in S])
            for j in S:
                e -= texp[j]
            if perm_sign(img) < 0:
                e += half
            e %= F
            if phases.setdefault(index[tuple(img_mu), tuple(sorted(img))], e) != e:
                agree = False
        for idx in phases:
            reached[idx] = True
        if agree:
            e0 = phases[start]
            rows.append({idx: (e - e0) % F for idx, e in phases.items()})
    return rows


def _duals(vectors) -> list:
    """The covector dual to each integer subspace vector w = sum zeta_r^t v_i
    over its support c, as (|c|, ((i, -t), ...)), meaning
    (1/|c|) sum zeta_r^{-t} x_i.  It is 1 on w and vanishes on the other
    vectors and on the complement named in `reynolds_semiinvariant_basis`."""
    return [(len(v), tuple((i, -t) for i, t in v)) for v in vectors]


def _assemble_polyform(row, basis, n, r, F, vectors):
    """The ambient PolyForm of a row of `_phase_rows`, with the subspace
    vectors substituted and their duals (`_duals`) expanded.

    Every coefficient is carried as an integer phase mod F with a rational
    weight, and becomes a cyclotomic number once per ambient term.  A
    product of the vectors has the phase sum e_i t_i on its ambient term
    v^e, since each coordinate lies in one support.  The duals' supports are
    disjoint too, so a wedge of them is the sum, over one coordinate taken
    from each support, of the product of the entries times the sign that
    sorts the coordinates."""
    step = F // r
    phase_at = {i: t for v in vectors for i, t in v}
    duals = _duals(vectors)
    acc: dict = {}  # wedge -> exponents -> {phase mod F: weight}
    for idx, a in row.items():
        mu, S = basis[idx]
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
    zeta = [root_of_unity(F, x) for x in range(F)]

    def value(slot):
        parts = [zeta[x] if w == 1 else zeta[x] * w for x, w in slot.items() if w]
        return sum(parts[1:], parts[0]) if parts else zero(F)

    return PolyForm(n, {
        T: Polynomial(n, {e: value(slot) for e, slot in terms.items()}) for T, terms in acc.items()
    })
