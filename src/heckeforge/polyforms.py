"""Exact multivariate polynomials and polynomial differential forms with
G-actions: the algebra S(V) (x) Lambda(V*).

A PolyForm maps strictly increasing wedge index sets x_S to polynomials.
Group elements act on polynomials by substitution and on wedge factors by
the contragredient action, with the sign of the permutation that re-sorts
the wedge indices.  A class's chi-semi-invariant basis is read off the
orbits of its centralizer Z(g) = D_p . P on the monomial-times-wedge basis
of S(V^g) (x) Lambda((V^g)*): one element per block-sorted representative
on whose stabilizer chi agrees with the action, tested on generators with
integer phases (`_survivors`).  Counting the survivors gives a dimension
with no basis listed; only for a basis is each survivor's orbit walked over
the swaps, into rows in reduced echelon form, so repeated runs agree
byte-for-byte.

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
from typing import NamedTuple

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
    """

    def __init__(self, r: int, n: int, order: int, generators, exponents, subgroup_order: int):
        if order % lcm(2, r):
            raise ValueError("the exponent modulus must be a multiple of lcm(2, r)")
        self.r, self.n, self.order = r, n, order
        self.generators = tuple(generators)
        self._generator_exponents = tuple(e % order for e in exponents)
        self.subgroup_order = subgroup_order
        self._exponents = None

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


class ClassAction(NamedTuple):
    """Z(g) = D_p . P (`group.centralizer_of`) and chi_g on the
    monomial-times-wedge basis of S(V^g) (x) Lambda((V^g)*), on the integer
    basis w = `vectors` of V^g, in exponents mod F = lcm(2, r)
    (`hochschild.class_action`).  `diagonal` holds (texp, e) per element h
    with h.w_j = zeta_F^{texp[j]} w_j and chi(h) = zeta_F^e: the generators
    of D_p, and the swaps of cycles with no vector.  `chain` lists the
    vectors block by block, one block per (a,k) type in `_swaps` order, as
    (j, e): e is None at a block's start, else chi(s) = zeta_F^e for the
    swap s of w_j's cycle with the one before.  `kernel` holds (exponent
    sum mod p, e) with det(h|V) = zeta_F^e per generator h of the pointwise
    stabilizer of V^g in D.P, for the filter; no count reads it."""

    n: int
    r: int
    F: int
    vectors: tuple
    diagonal: tuple
    chain: tuple
    kernel: tuple


def _survivors(action: ClassAction, max_degree: int, form_degree: int, listing: bool) -> dict:
    """Per polynomial degree d <= max_degree, the number of chi-semi-invariant
    orbits of form degree `form_degree`, or with `listing` (degree
    max_degree only) their representatives, as tuples of keys
    (mu_j, [j in S]) in chain order.

    The Reynolds projector (1/|Z|) sum chi(h)^-1 h is nonzero on the orbit
    of a basis element b iff its stabilizer acts on b by chi.  D_p scales
    every basis element and P permutes each block's vectors as the
    symmetric group on its cycles, up to phases.  So each orbit has one
    representative whose keys do not decrease along each block, whose
    stabilizer D_p times the permutations of equal keys is generated by
    `diagonal` and the swaps of equal neighbours.  Both act by characters,
    so b survives iff each h in `diagonal` gives sum_j texp[j] (mu_j -
    [j in S]) = e (monomial and dual phases), and each swap of equal keys
    (mu, f), whose phases t and -t cancel there, gives its wedge sign:
    (F/2) f = e.  One pass over the chain builds the representatives key by
    key, merging prefixes with equal last key, degree, form degree and
    pending phases: a `diagonal` phase, offset by -e, is pending until the
    last vector it scales, where it must be 0."""
    F, chain, K = action.F, action.chain, form_degree
    pending = tuple(-e % F for _, e in action.diagonal)
    coefs = [tuple(texp[j] for texp, _ in action.diagonal) for j, _ in chain]
    last = {h: i for i, coef in enumerate(coefs) for h, x in enumerate(coef) if x}
    if K < 0 or any(x and h not in last for h, x in enumerate(pending)):
        return {}  # no wedges, or an element fixing every basis element acts by chi != 1
    lowest = max_degree if listing else 0  # a listing serves one degree
    states = {(None, 0, 0, pending): [()] if listing else 1}
    for i, (coef, (_, e)) in enumerate(zip(coefs, chain)):
        tied = e is not None  # to the last key, by a swap with chi e
        scales, closing = any(coef), [h for h, x in enumerate(coef) if x and last[h] == i]
        final = i + 1 == len(chain)
        ends_block = final or chain[i + 1][1] is None  # so the next key need not see this one
        # the flags [j in S] open after k factors; at the last vector, the one that makes K
        flags = [((K - k,) if K - k < 2 else ()) if final else (0, 1)[: K - k + 1] for k in range(K + 1)]
        nxt: dict = {}
        for (prev, d, k, phases), val in states.items():
            fs, low = flags[k], lowest - d if final and lowest > d else 0
            for mu in range(prev[0] if tied and prev[0] > low else low, max_degree - d + 1):
                for f in fs:
                    key = (mu, f)
                    if tied and (key < prev or key == prev and (F // 2 * f - e) % F):
                        continue
                    phases_ = tuple((y + x * (mu - f)) % F for y, x in zip(phases, coef)) if scales else phases
                    if closing and any(phases_[h] for h in closing):
                        continue
                    state = (None if ends_block else key, d + mu, k + f, phases_)
                    add = [t + (key,) for t in val] if listing else val
                    nxt[state] = nxt[state] + add if state in nxt else add
        states = nxt
    out: dict = {}
    for (_, d, k, _), val in states.items():
        if k == form_degree:
            out[d] = out[d] + val if d in out else val
    return out


def semiinvariant_dims(action: ClassAction, max_degree: int, form_degree: int) -> dict[int, int]:
    """Per polynomial degree up to max_degree, the number of surviving
    representatives (`_survivors`): the dimension, with no basis listed."""
    counts = _survivors(action, max_degree, form_degree, False)
    return {d: counts.get(d, 0) for d in range(max_degree + 1)}


def semiinvariant_rows(action: ClassAction, poly_degree: int, form_degree: int):
    """(rows, monos, wedges): the monomials of the polynomial degree on the
    vectors, v_1^d first, the wedges of the form degree, and the reduced
    echelon basis of the chi-semi-invariants as rows {a * W + b: e}, each
    meaning zeta_F^e at (monos[a], wedges[b]), W = len(wedges).

    Each survivor (`_survivors`) gives one row: its orbit, walked over the
    swaps (`group.walk`) with phase 0 at its least index, each edge adding
    the swap's phase less chi.  A swap of w_i and w_j, with phases t and -t,
    acts on (mu, S) by its wedge sign and t ((mu_i - [i in S]) - (mu_j -
    [j in S])), which is 0 on a survivor's orbit: under the faithful action
    xi_i xi_j^-1 lies in D_p, has chi 0 and acts by that difference times
    F/r, and under the permutation action t = 0.  So no edge clashes, and
    the disjoint orbits, in order of least index, are the echelon form."""
    m, F = len(action.vectors), action.F
    if not 0 <= form_degree <= m:
        return [], [], []
    wedges = list(combinations(range(m), form_degree))
    # the multisets of poly_degree symbols in lex order give exponents descending, v_1^d first
    monos = [tuple(map(c.count, range(m))) for c in combinations_with_replacement(range(m), poly_degree)]
    W = len(wedges)
    mono_at, wedge_at = {mu: a * W for a, mu in enumerate(monos)}, {S: b for b, S in enumerate(wedges)}
    swaps = [(action.chain[i - 1][0], j, e) for i, (j, e) in enumerate(action.chain) if e is not None]

    def move(x, v, s):
        (mu, S), (i, j, e) = x, s
        img = tuple(j if a == i else i if a == j else a for a in S)
        nu = list(mu)
        nu[i], nu[j] = mu[j], mu[i]
        return (tuple(nu), tuple(sorted(img))), (v + F // 2 * (perm_sign(img) < 0) - e) % F

    rows = []
    for keys in _survivors(action, poly_degree, form_degree, True).get(poly_degree, []):
        placed = sorted(zip([j for j, _ in action.chain], keys))  # the chain holds each vector once
        mu, S = tuple(x for _, (x, _) in placed), tuple(j for j, (_, f) in placed if f)
        phase, clashes = walk((mu, S), 0, swaps, move)
        if clashes:
            raise RuntimeError("a kept orbit's stabilizer does not act by chi")
        at = {mono_at[nu] + wedge_at[T]: e for (nu, T), e in phase.items()}
        base = at[min(at)]
        rows.append({i: (at[i] - base) % F for i in sorted(at)})
    rows.sort(key=min)
    return rows, monos, wedges


# bench/tracer.py binds this function by name
def reynolds_semiinvariant_basis(action: ClassAction, poly_degree: int, form_degree: int) -> list[PolyForm]:
    """The reduced echelon basis of the chi-semi-invariants of polynomial
    degree `poly_degree` and form degree `form_degree`: a PolyForm per row
    of `semiinvariant_rows`, in the vectors w_j and their duals (`_duals`),
    for `hochschild.fixed_basis` those of V^g along im(g - 1)."""
    rows, monos, wedges = semiinvariant_rows(action, poly_degree, form_degree)
    return [_assemble_polyform(row, monos, wedges, action.n, action.r, action.F, action.vectors) for row in rows]


def _duals(vectors) -> list:
    """The covector dual to each integer subspace vector w = sum zeta_r^t v_i
    over its support c, as (|c|, ((i, -t), ...)), meaning
    (1/|c|) sum zeta_r^{-t} x_i.  It is 1 on w and vanishes on the other
    vectors and on the complement named in `reynolds_semiinvariant_basis`."""
    return [(len(v), tuple((i, -t) for i, t in v)) for v in vectors]


def _assemble_polyform(row, monos, wedges, n, r, F, vectors):
    """The ambient PolyForm of a row of `semiinvariant_rows`, with the subspace
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
