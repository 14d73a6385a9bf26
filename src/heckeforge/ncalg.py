"""Normal-form arithmetic in Drinfeld-presented algebras and in the
generators-and-relations algebra H*(r,n).

Elements are stored as sum of c * v^mu gbar with the group element on the
right and the variables sorted.  One rewriting core (`_AlgebraBase`)
multiplies in every presentation, which supplies two rules: `_push` moves a
group element rightward past a variable word, and `_bracket` gives the
degree-0 corrections of a swap of adjacent variables.  Words are sorted at
their first descent; termination follows from the lexicographic descent in
(polynomial degree, inversion count).  The core works on integers from
operand to returned term: group parts are indices of interned elements, and
it memoizes their products, the normal form of each variable word and, for
H*, each push.  A term pair and push entry give one integer scalar, added
over one common denominator (`_Sum`, Cohen, GTM 138, 4.2) in one field
Q(zeta_K) per product; `multiply` builds a CycloNum only for each term it
returns.  Confluence is not assumed; it is certified by small-degree
associativity checks, which fail for families violating the PBW conditions.

S(V)#G itself is the Drinfeld algebra of the empty family
(`skew_group_algebra`), so the two-cocycle mu_1 that a family induces on it
(`Mu1`) and the cocycle check compute in the same normal forms.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb, gcd, lcm

from .cyclo import CycloNum, SparseSum, add_term, cyclo, power_sum, twist
from .group import (
    GroupElement,
    RepKind,
    _element,
    _mul,
    diag,
    elements,
    from_cycles,
    group_order,
    identity,
    monomial_action,
    monomial_image,
    multiply,
    transposition,
    xi,
)
from .hecke import SkewFormFamily, build_preset, psi2


def _term_order(item):
    """Print order of a ((exps, g), coeff) item: degree, exponents, g."""
    (mu, g), _c = item
    return sum(mu), mu, g.sort_key()


class NCElement(SparseSum):
    """Sum of c * v^mu gbar in a fixed presentation.  A product the core
    builds keeps its terms as given and carries their order as `_field`."""

    __slots__ = ("algebra", "_field")

    def __init__(self, algebra, terms: dict, field: int | None = None):
        self.algebra, self._field = algebra, field
        self.terms = terms if field else {k: c for k, c in terms.items() if not c.is_zero()}

    def _like(self, terms: dict) -> "NCElement":
        return NCElement(self.algebra, terms)

    def filtration_degree(self) -> int:
        return max((sum(mu) for mu, _ in self.terms), default=-1)

    def __mul__(self, other: "NCElement") -> "NCElement":
        self._check(other)
        return self.algebra.multiply(self, other)

    def _check(self, other) -> None:
        """+, - and * stay inside one presentation; == does not check it, so
        an H* element compares with an S(V)#G element (`verify_iso`)."""
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different presentations")

    def __repr__(self):
        bits = []
        for (mu, g), c in sorted(self.terms.items(), key=_term_order):
            mono = "".join(f"v{i+1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(mu) if k)
            bits.append(f"({c})" + (f" {mono}" if mono else "") + (f" [{g!r}]" if not g.is_identity() else ""))
        return " + ".join(bits) or "0"

    def to_json(self) -> dict:
        return {
            "terms": [
                {"coeff": c.to_json(), "exps": list(mu), "g": g.to_json()}
                for (mu, g), c in sorted(self.terms.items(), key=_term_order)
            ]
        }


def commutator(x: NCElement, y: NCElement) -> NCElement:
    return x * y - y * x


def filtration_degree(x: NCElement) -> int:
    return x.filtration_degree()


def _word_of(mu):
    return [i + 1 for i, k in enumerate(mu) for _ in range(k)]


def _exps_of(word, n):
    mu = [0] * n
    for k in word:
        mu[k - 1] += 1
    return tuple(mu)


class _Memo(dict):
    """key -> make(key), each value made on first lookup."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


def _scalar(c: CycloNum, K: int):
    """(x, den) with c = x / den, c of order dividing K; the core's scalar x is
    an int at K = 1, above a list of (exponent of zeta_K, int) pairs."""
    return c.nums[0] if K == 1 else [(k * (K // c.order), x) for k, x in enumerate(c.nums) if x], c.den


def _times(x, y, K: int):
    """The product of two scalars."""
    return x * y if K == 1 else [((e + k) % K, a * b) for e, a in x for k, b in y]


class _Sum:
    """A term dict (exps, group index) -> coeff in Q(zeta_K), as the core
    adds into it: integer numerators over one positive denominator `den`,
    which grows by lcm when an addend's denominator does not divide it.  At
    K = 1 a key holds one int; above, K ints indexed by the exponent of
    zeta_K, reduced to the power basis once per key by `values`.  The word
    forms it adds are over Q(zeta_F), F | K, zeta_F = zeta_K^step."""

    __slots__ = ("K", "step", "den", "nums")

    def __init__(self, K: int, F: int):
        self.K, self.step, self.den, self.nums = K, K // F, 1, {}

    def add(self, num, den: int, form, relabel) -> None:
        """Add num / den * form, for a scalar num and a cached word form
        (den, entries), its group indices t read as relabel[t]."""
        den, entries, K = den * form[0], form[1], self.K
        if self.den % den:
            grow = lcm(self.den, den) // self.den
            self.den *= grow
            self.nums = {k: v * grow if K == 1 else [x * grow for x in v] for k, v in self.nums.items()}
        nums, f, step = self.nums, self.den // den, self.step
        if K == 1:
            f *= num
            get = nums.get
            for exps, t, a in entries:
                key = exps, relabel[t]
                nums[key] = get(key, 0) + f * a
            return
        for exps, t, a in entries:
            v = nums.setdefault((exps, relabel[t]), [0] * K)
            for k, y in ((0, a),) if step == K else a:  # a form over Q holds ints
                for e, x in num:
                    v[(e + k * step) % K] += f * x * y

    def values(self):
        """(key, numerators on the power basis of Q(zeta_K)) of each nonzero sum."""
        K = self.K
        if K == 1:
            return [(key, (v,)) for key, v in self.nums.items() if v]
        items = [(key, power_sum(range(K), v, K)) for key, v in self.nums.items()]
        return [(key, v) for key, v in items if any(v)]

    def form(self) -> tuple:
        """The sum as a cached word form: (den, entries (exps, group index,
        numerator)), in lowest terms, each numerator a scalar."""
        items, K = self.values(), self.K
        g = gcd(self.den, *(x for _, v in items for x in v))
        return self.den // g, [
            (exps, t, v[0] // g if K == 1 else [(k, x // g) for k, x in enumerate(v) if x]) for (exps, t), v in items]

    def terms(self, elems) -> dict:
        """The sum as a term dict (exps, elems[t]) -> CycloNum of order K."""
        out, den = {}, self.den
        if self.K == 1:
            for (exps, t), v in self.nums.items():
                if v:
                    g = gcd(den, v)
                    out[exps, elems[t]] = CycloNum(1, (v // g,), den // g)
            return out
        for (exps, t), v in self.values():
            g = gcd(den, *v)
            out[exps, elems[t]] = CycloNum(self.K, tuple([x // g for x in v]), den // g)
        return out


class _AlgebraBase:
    """The rewriting core of H* and the Drinfeld algebras.  A presentation
    supplies two rules, the two kinds of overlap of the diamond lemma:
    - `_push(t, word)`: the normal form of gbar v_word, g = `_elems[t]`, as
      entries (w, u, e, a), each the term a zeta_F^e v_w ubar of u =
      `_elems[u]`, with the group on the right and w not yet sorted;
    - `_bracket(k, m)`: the (group, CycloNum) corrections in
      v_k v_m = v_m v_k + sum c gbar, for k > m, read once per (k, m).
    F = `_field` holds every push phase and bracket coefficient.  Group
    parts are indices into `_elems`.  Memos fill on first lookup: `_ids` by
    (exps, perm), whose `_intern` is the one place the core builds a
    GroupElement, `_id` by GroupElement, `_prod[j][i]` the index of
    elems[i] * elems[j], `_words`, `_word_cache` (`_Sum.form` of each
    variable word) and `_brackets`.  `multiply` adds one scalar per term
    pair and push entry into a `_Sum` over Q(zeta_K), K the lcm of F and
    the operands' fields, and builds one CycloNum per term it returns; the
    product carries K."""

    def __init__(self, r: int, p: int, n: int, field: int = 1):
        self.r, self.p, self.n, self._field = r, p, n, field
        self._identity = identity(r, n)
        self._elems, self._ids, self._prod = [], _Memo(self._intern), []
        self._id = _Memo(self._element_id)
        self._id[self._identity]  # index 0
        self._words = _Memo(lambda mu: tuple(_word_of(mu)))
        self._word_cache = _Memo(self._word_form)
        self._brackets = _Memo(lambda km: [(self._id[g], *_scalar(c, field)) for g, c in self._bracket(*km)])

    def element(self, terms: dict) -> NCElement:
        return NCElement(self, terms)

    def term(self, exps, g: GroupElement, coeff=1) -> NCElement:
        return NCElement(self, {(tuple(exps), g): cyclo(coeff)})

    def one(self) -> NCElement:
        return self.term((0,) * self.n, self._identity)

    def var(self, k: int) -> NCElement:
        return self.term(_exps_of((k,), self.n), self._identity)

    def group(self, g: GroupElement) -> NCElement:
        return self.term((0,) * self.n, g)

    def multiply(self, x: NCElement, y: NCElement) -> NCElement:
        F = self._field
        K = lcm(F, *(z._field or lcm(*{c.order for c in z.terms.values()}) for z in (x, y)))
        out, push, forms, prod = _Sum(K, F), self._push, self._word_cache, self._prod
        ids, words, step = self._id, self._words, out.step
        ys = [(words[nu], prod[ids[h]], *_scalar(c, K)) for (nu, h), c in y.terms.items()]
        for (mu, g), c in x.terms.items():
            prefix, t, (n1, d1) = words[mu], ids[g], _scalar(c, K)
            for word, times_h, n2, d2 in ys:
                num, den = _times(n1, n2, K), d1 * d2
                for pushed, t2, e, a in push(t, word):
                    num2 = _times(num, a if K == 1 else [(e * step, a)], K)
                    out.add(num2, den, forms[prefix + pushed], prod[times_h[t2]])
        return NCElement(self, out.terms(self._elems), K)

    def _element_id(self, g: GroupElement) -> int:
        if g.r != self.r or g.n != self.n:
            raise ValueError("elements live in different groups")
        return self._ids[g.exps, g.perm]

    def _intern(self, parts: tuple) -> int:
        """The index of a new element with these (exps, perm) parts."""
        self._elems.append(_element(self.r, self.n, *parts))
        self._prod.append(_Memo(partial(self._product, len(self._prod))))
        return len(self._prod) - 1

    def _product(self, j: int, t: int) -> int:
        """The index of elems[t] * elems[j], by `group._mul` on their parts."""
        g, h = self._elems[t], self._elems[j]
        return self._ids[_mul(self.r, g.exps, g.perm, h.exps, h.perm)]

    def _word_form(self, word: tuple) -> tuple:
        """Normal form of the variable word v_{word[0]} v_{word[1]} ... as a
        word form over group indices.  Each swap at the first descent adds
        prefix . c gpbar . suffix per bracket correction, with gpbar pushed
        past the suffix and the words it gives sorted in turn."""
        # the swaps run in a loop, so only corrections recurse, each on a
        # word two letters shorter
        F = self._field
        out = _Sum(F, F)
        w = list(word)
        i = 0
        while True:
            # w[:i] is sorted; find the first descent at or after i - 1
            i = max(i - 1, 0)
            while i < len(w) - 1 and w[i] <= w[i + 1]:
                i += 1
            if i >= len(w) - 1:
                break
            k, m = w[i], w[i + 1]
            prefix, suffix = tuple(w[:i]), tuple(w[i + 2:])
            for t, num, den in self._brackets[k, m]:
                for pushed, t2, e, a in self._push(t, suffix):
                    num2 = _times(num, a if F == 1 else [(e, a)], F)
                    out.add(num2, den, self._word_cache[prefix + pushed], self._prod[t2])
            w[i], w[i + 1] = m, k
        unit = 1 if F == 1 else [(0, 1)]
        out.add(unit, 1, (1, [(_exps_of(w, self.n), 0, unit)]), (0,))
        return out.form()


class HStarAlgebra(_AlgebraBase):
    """The algebra generated by CG(r,1,n) and commuting variables v_1..v_n
    with xibar_i v_k = v_k xibar_i and
    sbar_i v_{i+1} = v_i sbar_i + sum_a xibar_i^a xibar_{i+1}^{-a}.

    The variables commute, so `_bracket` is empty, and `_push` keeps sorted
    words, memoized in `_push_cache` per (group index, word), with integer
    coefficients and phase 0.  gbar v_k has a closed form (`_pushed`), and
    a longer word is pushed one letter at a time."""

    def __init__(self, r: int, n: int):
        super().__init__(r, 1, n)
        self._push_cache = _Memo(lambda key: self._pushed(*key))

    def group_move(self, g: GroupElement, k: int) -> dict:
        """Normal form of gbar v_k as a term dict; the one main term is
        v_{sigma(k)} gbar, every correction has degree 0."""
        return {(w, self._elems[t]): a for w, t, _e, a in self._push(self._id[g], (k,))}

    def _bracket(self, k: int, m: int):
        return ()

    def _push(self, t: int, word: tuple):
        return self._push_cache[t, word]

    def _pushed(self, t: int, word: tuple):
        """The normal form of gbar v_word, g = (a, sigma) = `_elems[t]`.  For a
        letter k, gbar v_k = v_{sigma(k)} gbar + D(g, k): D(g, k) sums +E_j
        over j < k with sigma(j) > sigma(k) and -E_j over j > k with
        sigma(j) < sigma(k), E_j = sum_{c in Z/r} (g (j k) xi_j^c xi_k^-c)bar,
        whose parts are sigma with j and k swapped, and a plus c at sigma(k)
        and minus c at sigma(j).
        Proof, by induction on the length of sigma; a diagonal g commutes
        with v_k.  Else g = s_i w at a left descent i of sigma, tau = s_i sigma
        is w's permutation, and gbar v_k = sbar_i (v_{tau(k)} wbar + D(w, k))
        = v_{sigma(k)} gbar + e sum_c (xi_i^c xi_{i+1}^-c w)bar + sbar_i D(w, k),
        e = 1, -1 or 0 as tau(k) is i + 1, i or neither.  sbar_i takes w's E_j
        to g's.  sigma's inversions at k are tau's and, if e != 0, the pair
        of k and j' = tau^-1(s_i tau(k)), on the side of k that e gives; and
        s_i tau = tau (j' k), so the middle sum is e times g's E_j'."""
        out: Counter = Counter()
        if len(word) > 1:
            for w1, t1, _e, a1 in self._push(t, word[:1]):
                for w2, t2, _e, a2 in self._push(t1, word[1:]):
                    out[tuple(sorted(w1 + w2)), t2] += a1 * a2
        elif not word:
            out[word, t] = 1
        else:
            r, g, k = self.r, self._elems[t], word[0]
            a, sigma = g.exps, g.perm
            sk = sigma[k - 1]
            out[(sk,), t] = 1
            for j, sj in enumerate(sigma, 1):
                sign = (j < k and sj > sk) - (j > k and sj < sk)
                if not sign:
                    continue
                perm, exps = list(sigma), list(a)
                perm[j - 1], perm[k - 1] = sk, sj
                perm = tuple(perm)
                for c in range(r):
                    exps[sk - 1], exps[sj - 1] = (a[sk - 1] + c) % r, (a[sj - 1] - c) % r
                    out[(), self._ids[tuple(exps), perm]] = sign
        return [(w, t2, 0, c) for (w, t2), c in out.items() if c]


class DrinfeldAlgebra(_AlgebraBase):
    """T(V)#G modulo vw - wv = sum_g a_g(v,w) gbar, for a skew-form family.

    `_push` gives the one entry zeta^{sum t} g(v_word) gbar, its phase a
    single exponent sum, and is not memoized; it reads `monomial_action`
    once per group index.  `_bracket` yields the family's nonzero
    a_g(v_k, v_m) in reverse support order, the order in which a depth-first
    rewrite that stacks the corrections pops them.  Its field is the lcm of
    the family's nonzero entry orders and, unless the action is the
    permutation action, whose phases are 0, of r.  A product reuses a cached
    word form by right-multiplying its group parts by the pushed g times h,
    one `_prod` lookup per term.

    Arithmetic is only trustworthy for families passing pbw_check; for bad
    families the rewriting is still deterministic but associativity fails,
    which pbw_dimension_check detects.
    """

    def __init__(self, family: SkewFormFamily):
        orders = (e.order for A in family.support.values() for row in A.matrix for e in row if e)
        super().__init__(family.r, family.p, family.n, lcm(family.r if family.repkind == RepKind.FAITHFUL else 1, *orders))
        self.family = family
        self.rep = family.repkind
        self._actions = _Memo(self._action)

    def _action(self, t: int):
        """pi and the zeta_F phase exponents (None if all 0) of `_elems[t]`."""
        pi, tvals = monomial_action(self._elems[t], self.rep)
        return pi, [s * (self._field // self.r) for s in tvals] if any(tvals) else None

    def _push(self, t: int, word: tuple):
        pi, phases = self._actions[t]
        return ((tuple([pi[s - 1] for s in word]), t, sum([phases[s - 1] for s in word]) if phases else 0, 1),)

    def _bracket(self, k: int, m: int):
        for gp, A in reversed(self.family.support.items()):
            a = A.matrix[k - 1][m - 1]
            if not a.is_zero():
                yield gp, a


# -- S(V)#G and the two-cocycle mu_1 ----------------------------------------------


def skew_group_algebra(r: int, p: int, n: int, rep: RepKind) -> DrinfeldAlgebra:
    """S(V)#G(r,p,n): the Drinfeld algebra of the empty family, in which
    (v^mu gbar)(v^nu hbar) = v^mu g(v^nu) (gh)bar."""
    return DrinfeldAlgebra(SkewFormFamily(r, p, n, rep, {}))


class Mu1:
    """The Hochschild two-cocycle of S(V)#G induced by a skew-form family:
    mu_1(r gbar (x) s hbar) = ((f o psi_2)(1 (x) r (x) g(s) (x) 1)) gbar hbar,
    where f contracts the Koszul wedge slot against the family.  Arguments
    are read as sums of terms; values belong to `self.algebra`, the skew
    group algebra of the family's group and action."""

    def __init__(self, family: SkewFormFamily):
        self.family = family
        self.rep = family.repkind
        self.algebra = skew_group_algebra(family.r, family.p, family.n, family.repkind)

    def on_terms(self, out: dict, mu, g: GroupElement, nu, h: GroupElement, coeff) -> None:
        """Add coeff * mu_1(v^mu gbar, v^nu hbar) into the term dict out."""
        gs, e0 = monomial_image(nu, g, self.rep)
        gh = multiply(g, h)
        coeff = twist(coeff, g.r, e0)
        for left, right, (i, j) in psi2(mu, gs):
            for gp, A in self.family.support.items():
                aval = A.matrix[i - 1][j - 1]
                if aval.is_zero():
                    continue
                img, e1 = monomial_image(right, gp, self.rep)
                val = twist(aval * coeff, gp.r, e1)
                add_term(out, (tuple(a + b for a, b in zip(left, img)), multiply(gp, gh)), val)

    def __call__(self, x: NCElement, y: NCElement) -> NCElement:
        out: dict = {}
        for (mu, g), c1 in x.terms.items():
            for (nu, h), c2 in y.terms.items():
                self.on_terms(out, mu, g, nu, h, c1 * c2)
        return NCElement(self.algebra, out)


def cocycle_spot_check(mu1: Mu1, triples) -> bool:
    """mu_1(a, bc) + a mu_1(b, c) = mu_1(ab, c) + mu_1(a, b) c on the samples,
    with every product taken in `mu1.algebra`.

    The chain-map formula for mu_1 is a cocycle relative to the subalgebra
    S(V): the identity holds whenever the left argument a is a pure
    polynomial (b and c may carry group parts), which is the full range the
    Jacobi-identity argument needs.  psi_2 itself is not equivariant, so the
    identity genuinely fails for group-decorated left arguments; use
    sample_cocycle_triples to stay in the valid range."""
    mul = mu1.algebra.multiply
    for a, b, c in triples:
        lhs = mu1(a, mul(b, c)) + mul(a, mu1(b, c))
        rhs = mu1(mul(a, b), c) + mul(mu1(a, b), c)
        if not lhs == rhs:
            return False
    return True


def sample_cocycle_triples(
    r: int, p: int, n: int, count: int, seed: int = 0, max_degree: int = 2
):
    """Deterministic low-degree sample triples for cocycle_spot_check:
    a is a pure monomial, b and c are monomial-times-group terms.  They are
    built in S(V)#G under the faithful action; cocycle_spot_check reads them
    as sums of terms, so they serve a cocycle of either action."""
    rng = random.Random(seed)
    G = elements(r, p, n)
    alg = skew_group_algebra(r, p, n, RepKind.FAITHFUL)

    def exps():
        out = [0] * n
        for _ in range(rng.randrange(max_degree + 1)):
            out[rng.randrange(n)] += 1
        return tuple(out)

    triples = []
    for _ in range(count):
        a = alg.term(exps(), identity(r, n), Fraction(rng.randrange(1, 4)))
        b = alg.term(exps(), rng.choice(G))
        c = alg.term(exps(), rng.choice(G), Fraction(rng.randrange(1, 3)))
        triples.append((a, b, c))
    return triples


def commutator_sum(F: SkewFormFamily, i: int, j: int) -> NCElement:
    """sum_g a_g(v_i, v_j) gbar, in the skew group algebra of F's group."""
    zero_exps = (0,) * F.n
    terms = {(zero_exps, g): A.entry(i, j) for g, A in F.support.items()}
    return NCElement(skew_group_algebra(F.r, F.p, F.n, F.repkind), terms)


# -- H* specific constructions -------------------------------------------------


def _xi_pair(r: int, n: int, i: int, j: int, a: int) -> GroupElement:
    """xi_i^a xi_j^{-a}."""
    return diag(r, n, [a if t == i - 1 else -a if t == j - 1 else 0 for t in range(n)])


def tilde_generator(k: int, algebra: HStarAlgebra) -> NCElement:
    """vtilde_k = v_k + (1/2) sum_{j != k} sum_a (-1)^{[j<k]}
    (xi_k^a xi_j^{-a} (k,j))bar, in normal form."""
    r, n = algebra.r, algebra.n
    out = algebra.var(k)
    half = Fraction(1, 2)
    for j in range(1, n + 1):
        if j == k:
            continue
        sign = -1 if j < k else 1
        for a in range(r):
            gkj = multiply(_xi_pair(r, n, k, j, a), transposition(r, n, k, j))
            out = out + algebra.group(gkj).scale(half * sign)
    return out


def _xi_sum(algebra: HStarAlgebra, i: int, j: int, perm=None) -> NCElement:
    """sum_a (xi_i^a xi_j^{-a} perm)bar."""
    r, n = algebra.r, algebra.n
    out = algebra.element({})
    for a in range(r):
        d = _xi_pair(r, n, i, j, a)
        g = d if perm is None else multiply(d, perm)
        out = out + algebra.group(g)
    return out


def verify_reln4(j: int, k: int, m: int, r: int, n: int, algebra: HStarAlgebra | None = None) -> bool:
    """Check the normal form of (j,k)bar v_m against the four displayed cases."""
    if not 1 <= j < k <= n:
        raise ValueError("need j < k")
    alg = algebra or HStarAlgebra(r, n)
    lhs = alg.group(transposition(r, n, j, k)) * alg.var(m)
    tjk = alg.group(transposition(r, n, j, k))
    if m < j or k < m:
        rhs = alg.var(m) * tjk
    elif j < m < k:
        rhs = (
            alg.var(m) * tjk
            + _xi_sum(alg, m, k, from_cycles(r, n, [(j, m, k)]))
            - _xi_sum(alg, j, m, from_cycles(r, n, [(j, k, m)]))
        )
    elif m == j:
        rhs = alg.var(k) * tjk - _xi_sum(alg, j, k)
        for i in range(j + 1, k):
            rhs = rhs - _xi_sum(alg, i, k, from_cycles(r, n, [(j, i, k)]))
    else:  # m == k
        rhs = alg.var(j) * tjk + _xi_sum(alg, j, k)
        for i in range(j + 1, k):
            rhs = rhs + _xi_sum(alg, i, j, from_cycles(r, n, [(k, i, j)]))
    return lhs == rhs


@dataclass
class IsoReport:
    r: int
    n: int
    checks: dict

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {"r": self.r, "n": self.n, "checks": dict(self.checks), "ok": self.ok}


def verify_iso(r: int, n: int) -> IsoReport:
    """Mechanical verification that the tilde generators of H*(r,n) satisfy
    the relations of the Drinfeld-presented deformation supported on the
    class of (1,2,3): the xibar and sbar exchange relations, the bracket
    relation with coefficient 1/4, and the 4/3-scaling match with the
    commutator sum of the preset family (the relation-level form of the
    generator map v_k -> (2/sqrt 3) vtilde_k, keeping all scalars in Q(zeta_r))."""
    if n < 3:
        raise ValueError("the bracket relation needs n >= 3")
    alg = HStarAlgebra(r, n)
    tildes = {k: tilde_generator(k, alg) for k in range(1, n + 1)}
    family = build_preset("a_r1n", r, n)
    drin = DrinfeldAlgebra(family)
    checks = {}

    xbars = [alg.group(xi(r, n, i)) for i in range(1, n + 1)]
    checks["xi_commutes"] = all(x * t == t * x for x in xbars for t in tildes.values())
    sbars = {i: alg.group(transposition(r, n, i, i + 1)) for i in range(1, n)}
    checks["s_commutes_off_support"] = all(
        s * tildes[k] == tildes[k] * s for i, s in sbars.items() for k in tildes if k not in (i, i + 1)
    )
    checks["s_intertwines"] = all(s * tildes[i] == tildes[i + 1] * s for i, s in sbars.items())

    ok = True
    quarter = Fraction(1, 4)
    for m_ in range(1, n + 1):
        for k_ in range(m_ + 1, n + 1):
            lhs = tildes[m_] * tildes[k_] - tildes[k_] * tildes[m_]
            rhs = alg.element({})
            for i in range(1, n + 1):
                if i in (m_, k_):
                    continue
                for a in range(r):
                    for b in range(r):
                        exps = [0] * n
                        exps[m_ - 1], exps[k_ - 1], exps[i - 1] = a, b, -a - b
                        d = diag(r, n, exps)
                        plus = multiply(d, from_cycles(r, n, [(m_, k_, i)]))
                        minus = multiply(d, from_cycles(r, n, [(m_, i, k_)]))
                        rhs = rhs + alg.group(plus).scale(quarter) - alg.group(minus).scale(quarter)
            # the 4/3-scaled bracket must match the Drinfeld commutator sum
            scaled = lhs.scale(Fraction(4, 3))
            drin_comm = commutator(drin.var(m_), drin.var(k_))
            ok = ok and lhs == rhs and scaled == commutator_sum(family, m_, k_) and scaled == drin_comm
    checks["tilde_bracket"] = ok
    return IsoReport(r, n, checks)


# -- PBW dimension / associativity surrogate ------------------------------------


@dataclass
class PBWDimensionReport:
    count: int
    expected: int
    associative: bool
    witness: tuple | None

    @property
    def ok(self) -> bool:
        return self.count == self.expected and self.associative


def pbw_dimension_check(
    algebra, N: int, n_triples: int = 100, seed: int = 0
) -> PBWDimensionReport:
    """Re-multiply every variable triple and sampled triples to confirm the
    normal forms compose associatively (the confluence surrogate), and
    report `count` next to `expected` = C(n+N, n) |G|.

    `count` adds |G| for each monomial of degree <= N, so it equals
    `expected` by construction: it counts the candidate normal words and
    does not test that they are independent.  Only the associativity
    samples can fail."""
    r, n = algebra.r, algebra.n
    p = algebra.p
    count = group_order(r, p, n) * sum(sum(mu) <= N for mu in product(range(N + 1), repeat=n))
    expected = comb(n + N, n) * group_order(r, p, n)
    rng = random.Random(seed)
    G = elements(r, p, n)
    witness = None
    associative = True

    def check(x, y, z):
        nonlocal witness, associative
        if not ((x * y) * z) == (x * (y * z)):
            associative = False
            if witness is None:
                witness = (x, y, z)

    # all variable triples first: these expose Jacobi failures directly
    for i, j, k in product(range(1, n + 1), repeat=3):
        if not associative:
            break
        check(algebra.var(i), algebra.var(j), algebra.var(k))
    trials = 0
    while associative and trials < n_triples:
        trials += 1

        def rand_term():
            mu = [0] * n
            for _ in range(rng.randrange(3)):
                mu[rng.randrange(n)] += 1
            return algebra.term(mu, rng.choice(G), rng.randrange(1, 4))

        check(rand_term(), rand_term(), rand_term())
    return PBWDimensionReport(count, expected, associative, witness)
