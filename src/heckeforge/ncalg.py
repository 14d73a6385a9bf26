"""Normal-form arithmetic in Drinfeld-presented algebras and in the
generators-and-relations algebra H*(r,n).

Elements are stored as sum of c * v^mu gbar with the group element on the
right and the variables sorted.  One rewriting core (`_AlgebraBase`)
multiplies in every presentation, which supplies two rules: `_push` moves a
group element rightward past a variable word, and `_bracket` gives the
degree-0 corrections of a swap of adjacent variables.  Words are sorted at
their first descent; termination follows from the lexicographic descent in
(polynomial degree, inversion count).  The core memoizes the normal form of
each variable word, and H* also memoizes its pushes.  Confluence is not
assumed; it is certified by small-degree associativity checks, which fail
for families violating the PBW conditions.

S(V)#G itself is the Drinfeld algebra of the empty family
(`skew_group_algebra`), so the two-cocycle mu_1 that a family induces on it
(`Mu1`) and the cocycle check compute in the same normal forms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .cyclo import add_term, cyclo, one, twist, zero
from .group import (
    DEFAULT_BUDGET,
    GroupElement,
    RepKind,
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

# the unit coefficient of the rewriting rules; the core skips multiplying by it
_ONE = one()


def _term_order(item):
    """Print order of a ((exps, g), coeff) item: degree, exponents, g."""
    (mu, g), _c = item
    return sum(mu), mu, g.sort_key()


class NCElement:
    """Sum of c * v^mu gbar in a fixed presentation."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms: dict):
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def filtration_degree(self) -> int:
        return max((sum(mu) for mu, _ in self.terms), default=-1)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return NCElement(self.algebra, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "NCElement":
        c = cyclo(c)
        if c.is_zero():
            return NCElement(self.algebra, {})
        return NCElement(self.algebra, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NCElement):
            self._check(other)
            return self.algebra.multiply(self, other)
        return self.scale(other)

    __rmul__ = scale

    def __eq__(self, other):
        if not isinstance(other, NCElement):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        z = zero()
        return all(self.terms.get(k, z) == other.terms.get(k, z) for k in keys)

    def _check(self, other):
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


class _AlgebraBase:
    """The rewriting core of H* and the Drinfeld algebras.  A presentation
    supplies two rules, the two kinds of overlap of the diamond lemma:
    - `_push(g, word)`: the normal form of gbar v_word, a term dict
      (word, group) -> coeff with the group on the right and the words not
      yet sorted;
    - `_bracket(k, m)`: the (group, coeff) corrections in
      v_k v_m = v_m v_k + sum c gbar, for k > m.
    `_word_cache` memoizes the normal form of each variable word,
    `_push_cache` serves a presentation that memoizes its pushes, and
    `_shared` keeps one copy of each group element in a cached word form."""

    def __init__(self, r: int, p: int, n: int):
        self.r, self.p, self.n = r, p, n
        self._identity = identity(r, n)
        self._word_cache: dict = {}
        self._push_cache: dict = {}
        self._shared: dict = {}

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
        out: dict = {}
        for (mu, g), c1 in x.terms.items():
            for (nu, h), c2 in y.terms.items():
                self._term_product(out, mu, g, nu, h, c1 * c2)
        return NCElement(self, out)

    def _word_form(self, word: tuple) -> dict:
        """Normal form of the variable word v_{word[0]} v_{word[1]} ... as a
        term dict (exps, group) -> coeff.  Each swap at the first descent
        adds prefix . c gpbar . suffix per bracket correction, with gpbar
        pushed past the suffix and the words it gives sorted in turn."""
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        # the swaps run in a loop, so only corrections recurse, each on a
        # word two letters shorter
        out: dict = {}
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
            for gp, a in self._bracket(k, m):
                for (pushed, g2), c in self._push(gp, suffix).items():
                    c = a if c is _ONE else a * c
                    for (exps, t), c2 in self._word_form(prefix + pushed).items():
                        tg = multiply(t, g2)
                        add_term(out, (exps, self._shared.setdefault(tg, tg)), c if c2 is _ONE else c2 * c)
            w[i], w[i + 1] = m, k
        add_term(out, (_exps_of(w, self.n), self._identity), _ONE)
        self._word_cache[word] = out
        return out

    def _term_product(self, out: dict, mu, g, nu, h, coeff) -> None:
        """Add coeff * (v^mu gbar)(v^nu hbar) into the term dict out."""
        prefix = tuple(_word_of(mu))
        for (pushed, g2), c in self._push(g, tuple(_word_of(nu))).items():
            c = coeff if c is _ONE else coeff * c
            g2h = multiply(g2, h)
            for (exps, t), c2 in self._word_form(prefix + pushed).items():
                add_term(out, (exps, multiply(t, g2h)), c if c2 is _ONE else c2 * c)


class HStarAlgebra(_AlgebraBase):
    """The algebra generated by CG(r,1,n) and commuting variables v_1..v_n
    with xibar_i v_k = v_k xibar_i and
    sbar_i v_{i+1} = v_i sbar_i + sum_a xibar_i^a xibar_{i+1}^{-a}.

    The variables commute, so `_bracket` is empty, and `_push` keeps sorted
    words, memoized in `_push_cache` per (g, word).  gbar v_k is
    sbar_i (g'bar v_k) at a left descent i of g's permutation, and a longer
    word is pushed one letter at a time."""

    def __init__(self, r: int, n: int):
        super().__init__(r, 1, n)

    def group_move(self, g: GroupElement, k: int) -> dict:
        """Normal form of gbar v_k as a term dict; the one main term is
        v_{sigma(k)} gbar, every correction has degree 0."""
        return self._push(g, (k,))

    def _bracket(self, k: int, m: int):
        return ()

    def _push(self, g: GroupElement, word: tuple) -> dict:
        key = (g, word)
        cached = self._push_cache.get(key)
        if cached is not None:
            return cached
        r, n = self.r, self.n
        i = next((i for i in range(1, n) if g.perm.index(i) > g.perm.index(i + 1)), None)
        out: dict = {}
        if len(word) > 1:
            for (w1, g1), c1 in self._push(g, word[:1]).items():
                for (w2, g2), c2 in self._push(g1, word[1:]).items():
                    add_term(out, (tuple(sorted(w1 + w2)), g2), c1 * c2)
        elif not word or i is None:  # a diagonal g commutes with v_k
            out[(word, g)] = _ONE
        else:
            s_i = transposition(r, n, i, i + 1)
            for (w, h), c in self._push(multiply(s_i, g), word).items():
                add_term(out, (tuple(s_i.perm[j - 1] for j in w), multiply(s_i, h)), c)
                if w and w[0] in (i, i + 1):
                    # sbar_i v_{i+1} = v_i sbar_i + sum_a ..., sbar_i v_i = v_{i+1} sbar_i - sum_a ...
                    for a in range(r):
                        add_term(out, ((), multiply(_xi_pair(r, n, i, i + 1, a), h)), c if w[0] > i else -c)
            assert [w for (w, _t) in out if w] == [(g.perm[word[0] - 1],)], (g, word)
        self._push_cache[key] = out
        return out


class DrinfeldAlgebra(_AlgebraBase):
    """T(V)#G modulo vw - wv = sum_g a_g(v,w) gbar, for a skew-form family.

    `_push` gives the one term zeta^{sum t} g(v_word) gbar, its phase a
    single exponent sum, and is not memoized.  `_bracket` yields the
    family's nonzero a_g(v_k, v_m) in reverse support order, the order in
    which a depth-first rewrite that stacks the corrections pops them.  A
    coefficient's field order (the lcm over its additions since it was last
    zero) can depend on that order when corrections of different orders
    cancel.  A cached word form has identity group part,
    so a product reuses it by right-multiplying the group parts by gh.

    Arithmetic is only trustworthy for families passing pbw_check; for bad
    families the rewriting is still deterministic but associativity fails,
    which pbw_dimension_check detects.
    """

    def __init__(self, family: SkewFormFamily):
        super().__init__(family.r, family.p, family.n)
        self.family = family
        self.rep = family.repkind

    def _push(self, g: GroupElement, word: tuple) -> dict:
        pi, tvals = monomial_action(g, self.rep)
        zexp = sum(tvals[s - 1] for s in word)
        return {(tuple(pi[s - 1] for s in word), g): twist(_ONE, self.r, zexp)}

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


def verify_iso(r: int, n: int, budget: int | None = DEFAULT_BUDGET) -> IsoReport:
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
    family = build_preset("a_r1n", r, n, budget=budget)
    drin = DrinfeldAlgebra(family)
    checks = {}

    ok = True
    for i in range(1, n + 1):
        xbar = alg.group(xi(r, n, i))
        for k in range(1, n + 1):
            if not (xbar * tildes[k]) == (tildes[k] * xbar):
                ok = False
    checks["xi_commutes"] = ok

    ok = True
    for i in range(1, n):
        sbar = alg.group(transposition(r, n, i, i + 1))
        for k in range(1, n + 1):
            if k in (i, i + 1):
                continue
            if not (sbar * tildes[k]) == (tildes[k] * sbar):
                ok = False
    checks["s_commutes_off_support"] = ok

    ok = True
    for i in range(1, n):
        sbar = alg.group(transposition(r, n, i, i + 1))
        if not (sbar * tildes[i]) == (tildes[i + 1] * sbar):
            ok = False
    checks["s_intertwines"] = ok

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
                        d = diag(
                            r,
                            n,
                            [
                                a if t == m_ - 1 else b if t == k_ - 1 else (-a - b) % r if t == i - 1 else 0
                                for t in range(n)
                            ],
                        )
                        plus = multiply(d, from_cycles(r, n, [(m_, k_, i)]))
                        minus = multiply(d, from_cycles(r, n, [(m_, i, k_)]))
                        rhs = rhs + alg.group(plus).scale(quarter) - alg.group(minus).scale(quarter)
            if not lhs == rhs:
                ok = False
            # the 4/3-scaled bracket must match the Drinfeld commutator sum
            scaled = lhs.scale(Fraction(4, 3))
            target = commutator_sum(family, m_, k_)
            if not scaled == target:
                ok = False
            drin_comm = commutator(drin.var(m_), drin.var(k_))
            if not scaled == drin_comm:
                ok = False
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
    count = 0
    for mu in product(range(N + 1), repeat=n):
        if sum(mu) <= N:
            count += group_order(r, p, n)
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
            return algebra.term(mu, rng.choice(G), Fraction(rng.randrange(1, 4)))

        check(rand_term(), rand_term(), rand_term())
    return PBWDimensionReport(count, expected, associative, witness)
