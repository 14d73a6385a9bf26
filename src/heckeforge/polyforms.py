"""Exact multivariate polynomials and polynomial differential forms with
G-actions: the algebra S(V) (x) Lambda(V*).

A PolyForm maps strictly increasing wedge index sets x_S to polynomials.
Group elements act on polynomials by substitution and on wedge factors by
the contragredient action, with the sign of the permutation that re-sorts
the wedge indices.  The Reynolds projector (1/|H|) sum chi(h)^{-1} h cuts
out a chi-semi-invariant subspace; bases are returned echelon-canonical so
repeated runs agree byte-for-byte.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from .cyclo import (
    CycloMatrix,
    CycloNum,
    as_root_exponent,
    cyclo,
    echelon_rows,
    one,
    root_of_unity,
    zero,
)
from .group import GroupElement, RepKind, generators_by_closure, identity, monomial_action


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
            out[e] = out[e] + c if e in out else c
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

    def homogeneous_part(self, d: int) -> "Polynomial":
        return Polynomial(self.n, {e: c for e, c in self.terms.items() if sum(e) == d})

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

    @staticmethod
    def from_polynomial(p: Polynomial) -> "PolyForm":
        return PolyForm(p.n, {(): p})

    def is_zero(self) -> bool:
        return not self.components

    def poly_degree(self) -> int:
        """Degree of the polynomial of highest degree over all components."""
        return max((p.degree() for p in self.components.values()), default=-1)

    def form_degrees(self) -> set[int]:
        return {len(S) for S in self.components}

    def __add__(self, other):
        out = dict(self.components)
        for S, p in other.components.items():
            out[S] = out[S] + p if S in out else p
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


def _sort_with_sign(indices):
    """(sorted tuple, sign); sign 0 when an index repeats."""
    lst = list(indices)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return tuple(lst), 0
    return tuple(lst), sign


# -- group actions -----------------------------------------------------------


def act_poly(g: GroupElement, f: Polynomial, rep: RepKind) -> Polynomial:
    """Substitution action: v_i |-> g(v_i)."""
    pi, t = monomial_action(g, rep)
    out: dict = {}
    for e, c in f.terms.items():
        img = [0] * f.n
        zexp = 0
        for i, k in enumerate(e):
            if k:
                img[pi[i] - 1] = k
                zexp += t[i] * k
        key = tuple(img)
        val = c * root_of_unity(g.r, zexp) if zexp % g.r else c
        out[key] = out[key] + val if key in out else val
    return Polynomial(f.n, out)


def act_form(g: GroupElement, w: PolyForm, rep: RepKind) -> PolyForm:
    """Action on S(V) (x) Lambda(V*): substitution on the polynomial part,
    contragredient action with sorting sign on the wedge part."""
    pi, t = monomial_action(g, rep)
    out = PolyForm.zero(w.n)
    for S, p in w.components.items():
        imgS, sign = _sort_with_sign(pi[i - 1] for i in S)
        if sign == 0:
            continue
        zexp = -sum(t[i - 1] for i in S)
        coeff = root_of_unity(g.r, zexp) * sign if zexp % g.r else cyclo(sign)
        out = out + PolyForm(w.n, {imgS: act_poly(g, p, rep) * coeff})
    return out


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


def reflection_arrangement_polynomial(group_elements, rep: RepKind) -> Polynomial:
    """Q = product of the (deduplicated) linear forms cutting out the moved
    lines of the reflections in the listed group, computed in S(V)."""
    elems = list(group_elements)
    n = elems[0].n
    lines = {}
    for g in elems:
        M = CycloMatrix(
            [
                [
                    matrix_entry(g, i, j, rep) - (one(g.r) if i == j else zero(g.r))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        basis = M.column_space_basis()
        if len(basis) != 1:
            continue
        # canonical generator of the moved line, keyed hashably for dedup
        key = tuple((e.order, e.coeffs) for e in basis[0])
        lines[key] = basis[0]
    Q = Polynomial.constant(n, 1)
    for vec in lines.values():
        form = Polynomial(n, {})
        for i, c in enumerate(vec):
            if not c.is_zero():
                form = form + Polynomial.monomial(n, tuple(1 if t == i else 0 for t in range(n)), c)
        Q = Q * form
    return Q


def matrix_entry(g: GroupElement, i: int, j: int, rep: RepKind) -> CycloNum:
    pi, t = monomial_action(g, rep)
    if pi[j] - 1 == i:
        return root_of_unity(g.r, t[j])
    return zero(g.r)


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
    exponents: chi(h) = zeta_F^{e(h)} with F = lcm(2, r, orders of the values).

    `CharacterTable(H, values)` takes the values as cyclotomic numbers and
    reads their exponents once, on first use, after which the values are
    dropped; `from_exponents` takes the integers directly.  The table is
    verified once (`check_multiplicative`) and keeps its integer action data
    per subspace (`actions`), so every polynomial degree of a class reuses
    both.
    """

    def __init__(self, subgroup, values):
        self.subgroup = tuple(subgroup)
        self._values = values  # constructor input only, until `exponents` reads it
        self._order = None
        self._exps = None
        self._verified = False
        self._actions: dict = {}

    @classmethod
    def from_exponents(cls, subgroup, order: int, exponents: dict) -> "CharacterTable":
        """chi(h) = zeta_order^{exponents[h]}; order must be a multiple of
        lcm(2, r)."""
        table = cls(subgroup, None)
        if table.subgroup and order % lcm(2, table.subgroup[0].r):
            raise ValueError("the exponent modulus must be a multiple of lcm(2, r)")
        table._order = order
        table._exps = {h: e % order for h, e in exponents.items()}
        return table

    def __call__(self, h: GroupElement) -> CycloNum:
        return root_of_unity(self.order, self.exponents[h])

    @property
    def exponents(self) -> dict:
        """h -> e(h) mod `order`; raises CharacterError for a value that is
        not a root of unity."""
        if self._exps is None:
            r = self.subgroup[0].r if self.subgroup else 1
            F = lcm(2, r, *(cyclo(v).order for v in self._values.values()))
            exps = {}
            for h in self.subgroup:
                e = as_root_exponent(cyclo(self._values[h]), F)
                if e is None:
                    raise CharacterError(
                        f"character value {self._values[h]} is not an {F}-th root of unity"
                    )
                exps[h] = e
            self._order, self._exps = F, exps
            self._values = None
        return self._exps

    @property
    def order(self) -> int:
        """The exponent modulus F."""
        self.exponents
        return self._order

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
            exps, els = self._exps, self.subgroup
            if exps.get(identity(els[0].r, els[0].n)):
                raise CharacterError("character is not 1 at the identity")
            try:
                gens, products = generators_by_closure(els)
            except ValueError as exc:
                raise CharacterError(str(exc)) from exc
            F = self._order
            e = [exps[h] for h in els]
            for i, row in enumerate(products):
                for s, k in zip(gens, row):
                    if (e[i] + e[s] - e[k]) % F:
                        raise CharacterError("character is not multiplicative on the subgroup")
        self._verified = True

    def actions(self, rep: RepKind, subspace=None) -> list:
        """(pi, texp * F / r, e(h)) for each h of H in order, where
        h.w_j = zeta_r^{texp[j]} w_{pi[j]} on the subspace basis w, or on the
        coordinate basis when subspace is None (see `subspace_actions`).
        Built once per (rep, subspace) and kept on the table."""
        out = self._actions.get(_actions_key(rep, subspace))
        if out is None:
            els = self.subgroup
            if subspace is None:
                pairs = [monomial_action(h, rep) for h in els]
                pairs = [(tuple(i - 1 for i in pi), t) for pi, t in pairs]
            else:
                pairs = subspace_actions(els, rep, subspace)
            out = self.keep_actions(rep, subspace, pairs)
        return out

    def keep_actions(self, rep: RepKind, subspace, pairs) -> list:
        """Store the `subspace_actions(H, rep, subspace)` pairs of a caller
        that already has them as `actions(rep, subspace)`, and return that
        list."""
        step = self.order // self.subgroup[0].r
        exps = self.exponents
        out = [
            (pi, tuple(t * step for t in texp), exps[h])
            for h, (pi, texp) in zip(self.subgroup, pairs)
        ]
        self._actions[_actions_key(rep, subspace)] = out
        return out


def trivial_character(subgroup) -> CharacterTable:
    els = tuple(subgroup)
    r = els[0].r if els else 1
    return CharacterTable.from_exponents(els, lcm(2, r), {h: 0 for h in els})


def _actions_key(rep: RepKind, subspace):
    return rep, None if subspace is None else _vectors_key(subspace)


def _vectors_key(vectors):
    """Hashable exact form of a list of vectors."""
    return tuple(tuple((c.order, c.coeffs) for c in map(cyclo, v)) for v in vectors)


def _root_exponents(v, r):
    """{coordinate: t} for a vector whose nonzero entries are zeta_r^t."""
    out = {}
    for i, c in enumerate(v):
        c = cyclo(c)
        if c.is_zero():
            continue
        t = as_root_exponent(c, r)
        if t is None:
            raise ValueError("subspace vector entries must be r-th roots of unity")
        out[i] = t
    if not out:
        raise ValueError("subspace basis contains the zero vector")
    return out


def subspace_action(h: GroupElement, rep: RepKind, vectors):
    """(pi, texp) with h.w_j = zeta_r^{texp[j]} w_{pi[j]} (0-based), for a
    basis w of vectors with r-th root-of-unity entries on disjoint supports.

    Raises ValueError if the span is not h-stable or h does not permute the
    w_j up to powers of zeta_r.  Fixed-space bases always qualify for h in
    Z(g): the RREF kernel basis of g - 1 has one such vector per cycle of g
    with zeta-product 1, and h permutes the cycles of g.
    """
    return subspace_actions([h], rep, vectors)[0]


def subspace_actions(elements, rep: RepKind, vectors) -> list:
    """`subspace_action` of each listed element, reading the basis once."""
    elements = list(elements)
    if not elements:
        return []
    r = elements[0].r
    profiles = [_root_exponents(v, r) for v in vectors]
    owner = {}
    for j, prof in enumerate(profiles):
        for i in prof:
            if i in owner:
                raise ValueError("subspace vectors must have disjoint supports")
            owner[i] = j
    out = []
    for h in elements:
        hpi, ht = monomial_action(h, rep)
        pi, texp = [], []
        for prof in profiles:
            img = {hpi[i] - 1: t + ht[i] for i, t in prof.items()}
            k = owner.get(next(iter(img)))
            if k is None or profiles[k].keys() != img.keys():
                raise ValueError("subspace is not permuted monomially by the group element")
            shifts = {(t - profiles[k][i]) % r for i, t in img.items()}
            if len(shifts) != 1:
                raise ValueError("subspace is not permuted monomially by the group element")
            pi.append(k)
            texp.append(shifts.pop())
        out.append((tuple(pi), tuple(texp)))
    return out


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


def restriction_matrix(g: GroupElement, rep: RepKind, subspace):
    """Matrix C of g on the span of the subspace vectors: g.w_j = sum C[i][j] w_i.

    The dense reference for `subspace_action`; unlike it, accepts any
    stable basis.  Raises ValueError if the subspace is not g-stable.  The
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


def reynolds_apply(subgroup, chi: CharacterTable, rep: RepKind, form: PolyForm) -> PolyForm:
    """The projector (1/|H|) sum_h chi(h)^{-1} h applied to an ambient form."""
    els = list(subgroup)
    acc = PolyForm.zero(form.n)
    for h in els:
        acc = acc + act_form(h, form, rep).scale(chi(h).invert())
    return acc.scale(Fraction(1, len(els)))


def reynolds_semiinvariant_basis(
    subgroup,
    chi: CharacterTable,
    rep: RepKind,
    poly_degree: int,
    form_degree: int,
    subspace=None,
    complement=None,
) -> list[PolyForm]:
    """Echelon-canonical basis of the chi-semi-invariants of polynomial
    degree exactly `poly_degree` and form degree `form_degree`, inside the
    span of monomial-times-wedge elements built on the given subspace
    (polynomial variables from the subspace basis, wedge factors from its
    duals).  `subspace=None` means the ambient coordinate space.

    `subgroup` must list `chi.subgroup`, and every element must permute the
    subspace basis up to roots of unity (see `subspace_action`), so the
    projector is summed orbit by orbit with integer phase exponents.  The
    character is verified and its action data are built on the first call
    for a table and subspace (`CharacterTable.check_multiplicative`,
    `CharacterTable.actions`); later degrees reuse both.
    """
    elems = tuple(subgroup)
    if not elems:
        raise ValueError("empty subgroup")
    if elems != chi.subgroup:
        raise ValueError("subgroup must list the character's subgroup")
    chi.check_multiplicative()
    n = elems[0].n
    ambient = subspace is None
    if ambient:
        m = n
        vectors = None
    else:
        vectors = [tuple(cyclo(x) for x in v) for v in subspace]
        m = len(vectors)

    if form_degree < 0 or form_degree > m or poly_degree < 0:
        return []

    monos = _monomials_of_degree(m, poly_degree)
    wedges = list(combinations(range(m), form_degree))
    basis = [(mu, S) for mu in monos for S in wedges]
    if not basis:
        return []
    index = {b: i for i, b in enumerate(basis)}

    actions = chi.actions(rep, vectors)
    rows = echelon_rows(_reynolds_orbits(actions, chi.order, basis, index, len(elems)))
    return [
        _assemble_polyform(row, basis, n, m, vectors, complement, form_degree, ambient)
        for row in rows
    ]


def _reynolds_orbits(actions, F, basis, index, order):
    """Projector images of one representative per monomial orbit.

    Each (pi, texp, chi_e) sends (mu, S) to zeta_F^e (mu', S') with a single
    integer exponent e, so coefficient sums are accumulated as counters per
    exponent class and materialized into cyclotomic numbers once."""
    visited = [False] * len(basis)
    out = []
    half = F // 2
    zeta_cache = [root_of_unity(F, e) for e in range(F)]
    inv_order = Fraction(1, order)
    for start, (mu, S) in enumerate(basis):
        if visited[start]:
            continue
        counts: dict = {}
        for pi, texp, chi_e in actions:
            img_mu = [0] * len(mu)
            e = -chi_e
            for j, k in enumerate(mu):
                if k:
                    img_mu[pi[j]] = k
                    e += texp[j] * k
            imgS, sign = _sort_with_sign(pi[j] for j in S)
            for j in S:
                e -= texp[j]
            if sign < 0:
                e += half
            key = (tuple(img_mu), imgS)
            slot = counts.setdefault(key, [0] * F)
            slot[e % F] += 1
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
    return out


def _assemble_polyform(row, basis, n, m, vectors, complement, form_degree, ambient):
    """Convert a sparse row over the (monomial, wedge) basis into an ambient
    PolyForm, substituting subspace vectors and expanding subspace duals."""
    if ambient:
        comps: dict = {}
        for idx, c in row.items():
            mu, S = basis[idx]
            wedge = tuple(i + 1 for i in S)
            p = Polynomial.monomial(n, mu, c)
            comps[wedge] = comps[wedge] + p if wedge in comps else p
        return PolyForm(n, comps)

    # powers of the subspace vectors as ambient polynomials, cached
    subs_polys = []
    for v in vectors:
        f = Polynomial(n, {})
        for i, c in enumerate(v):
            if not c.is_zero():
                f = f + Polynomial.monomial(n, tuple(1 if t == i else 0 for t in range(n)), c)
        subs_polys.append(f)
    pow_cache: dict = {}

    def vec_power(j, k):
        key = (j, k)
        if key not in pow_cache:
            pow_cache[key] = subs_polys[j] ** k
        return pow_cache[key]

    dual_rows = None
    if form_degree > 0:
        if m == n:
            B = CycloMatrix([[vectors[j][i] for j in range(m)] for i in range(n)])
        else:
            if complement is None:
                raise ValueError(
                    "a complement basis is required to express subspace duals "
                    "in ambient coordinates"
                )
            cols = list(vectors) + [tuple(cyclo(x) for x in v) for v in complement]
            if len(cols) != n:
                raise ValueError("subspace plus complement must span the ambient space")
            B = CycloMatrix([[cols[j][i] for j in range(n)] for i in range(n)])
        dual_rows = B.inverse().entries[:m]  # row j = ambient covector of u_j-dual

    out = PolyForm.zero(n)
    for idx, c in row.items():
        mu, S = basis[idx]
        p = Polynomial.constant(n, c)
        for j, k in enumerate(mu):
            if k:
                p = p * vec_power(j, k)
        if not S:
            out = out + PolyForm(n, {(): p})
            continue
        for T in combinations(range(n), form_degree):
            sub = CycloMatrix([[dual_rows[a][b] for b in T] for a in S])
            dt = sub.determinant()
            if dt.is_zero():
                continue
            wedge = tuple(i + 1 for i in T)
            out = out + PolyForm(n, {wedge: p * dt})
    return out
