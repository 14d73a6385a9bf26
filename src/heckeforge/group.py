"""The monomial groups G(r,p,n).

An element xi_1^{a_1}...xi_n^{a_n} sigma is stored as the exponent vector
(a_1..a_n) over Z/r together with the permutation sigma (image list,
1-based).  Its matrix has entry zeta^{a_{sigma(i)}} in row sigma(i),
column i.  Conjugacy in G(r,1,n) is decided by (a,k)-cycle type.  For every
p, conjugacy classes are grown by breadth-first search under conjugation by
a generating set, and centralizers are solved for from the cycle structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import permutations, product

from .cyclo import CycloNum, json_int, root_of_unity

DEFAULT_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    pass


class RepKind(str, Enum):
    FAITHFUL = "faithful"
    PERMUTATION = "permutation"


@dataclass(frozen=True)
class GroupElement:
    r: int
    n: int
    exps: tuple[int, ...]
    perm: tuple[int, ...]  # perm[i-1] = sigma(i)

    def __post_init__(self):
        n, r = self.n, self.r
        if len(self.exps) != n or len(self.perm) != n:
            raise ValueError("exps and perm must have length n")
        for a in self.exps:
            if not 0 <= a < r:
                raise ValueError("exponents must lie in [0, r)")
        seen = 0
        for v in self.perm:
            if not 1 <= v <= n or seen >> v & 1:
                raise ValueError("perm is not a bijection of 1..n")
            seen |= 1 << v

    def is_identity(self) -> bool:
        return not any(self.exps) and self.perm == tuple(range(1, self.n + 1))

    def is_diagonal(self) -> bool:
        return self.perm == tuple(range(1, self.n + 1))

    def sort_key(self):
        return (self.exps, self.perm)

    def to_json(self) -> dict:
        return {"r": self.r, "n": self.n, "exps": list(self.exps), "perm": list(self.perm)}

    @staticmethod
    def from_json(data: dict) -> "GroupElement":
        r, exps, perm = json_int(data["r"]), data["exps"], data["perm"]
        if not (isinstance(exps, list) and isinstance(perm, list)):
            raise ValueError("exps and perm must be lists of integers")
        return GroupElement(
            r, json_int(data["n"]), tuple(json_int(a) % r for a in exps), tuple(map(json_int, perm))
        )

    def __repr__(self):
        xs = "".join(f"xi{i+1}^{a}" if a > 1 else f"xi{i+1}" for i, a in enumerate(self.exps) if a)
        cyc = _cycle_notation(self.perm)
        return (xs + cyc) or "1"


def _cycle_notation(perm) -> str:
    return "".join("(" + ",".join(map(str, c)) + ")" for c in perm_cycles(perm) if len(c) > 1)


# -- constructors ------------------------------------------------------------


def identity(r: int, n: int) -> GroupElement:
    return GroupElement(r, n, (0,) * n, tuple(range(1, n + 1)))


def diag(r: int, n: int, exps) -> GroupElement:
    return GroupElement(r, n, tuple(a % r for a in exps), tuple(range(1, n + 1)))


def xi(r: int, n: int, i: int, a: int = 1) -> GroupElement:
    e = [0] * n
    e[i - 1] = a % r
    return diag(r, n, e)


def from_cycles(r: int, n: int, cycles, exps=None) -> GroupElement:
    """Element with permutation given by disjoint cycles and optional exps.
    Raises ValueError for an index outside 1..n or one used twice."""
    perm = list(range(1, n + 1))
    used = [i for cyc in cycles for i in cyc]
    if len(set(used)) < len(used) or not all(1 <= i <= n for i in used):
        raise ValueError(f"cycles need distinct indices in 1..{n}: {list(cycles)}")
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a - 1] = b
    e = tuple(a % r for a in exps) if exps is not None else (0,) * n
    return GroupElement(r, n, e, tuple(perm))


def transposition(r: int, n: int, i: int, j: int) -> GroupElement:
    return from_cycles(r, n, [(i, j)])


def three_cycle(r: int, n: int, i: int, j: int, k: int) -> GroupElement:
    return from_cycles(r, n, [(i, j, k)])


# -- group operations --------------------------------------------------------


def _perm_inverse(perm):
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return tuple(inv)


def _mul(r: int, a, sigma, b, tau):
    """(exps, perm) of the product (a, sigma)(b, tau) over Z/r, as in
    `multiply`: (sigma.b)_{sigma(j)} = b_j."""
    exps = list(a)
    for s, x in zip(sigma, b):
        exps[s - 1] = (exps[s - 1] + x) % r
    return tuple(exps), tuple([sigma[t - 1] for t in tau])


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """(a, sigma)(b, tau) = (a + sigma.b, sigma o tau), (sigma.b)_i = b_{sigma^-1(i)}."""
    if g.r != h.r or g.n != h.n:
        raise ValueError("elements live in different groups")
    return GroupElement(g.r, g.n, *_mul(g.r, g.exps, g.perm, h.exps, h.perm))


def generators_by_closure(elements):
    """(gens, products) for a listed subgroup H.

    gens indexes a generating set of H, found by scanning H in sorted order
    and keeping each element that the closure of the kept ones has not
    reached yet.  The closure grows incrementally: the elements reached
    before a new generator s are multiplied by s only, each newly reached one
    by every generator so far.  So products[i][j], the index of
    elements[i] * elements[gens[j]], is formed exactly once per pair.
    Raises ValueError if H lacks the identity, a product leaves H, or the
    closure does not reach every listed element.
    """
    elements = tuple(elements)
    index = {h: i for i, h in enumerate(elements)}
    start = index.get(identity(elements[0].r, elements[0].n)) if elements else None
    if start is None:
        raise ValueError("the listed elements do not contain the identity")
    gens: list[int] = []
    products: list[list[int]] = [[] for _ in elements]
    reached = [start]
    seen = {start}

    def extend(i, gen_ids):
        for j in gen_ids:
            k = index.get(multiply(elements[i], elements[j]))
            if k is None:
                raise ValueError("the listed elements are not closed under multiplication")
            products[i].append(k)
            if k not in seen:
                seen.add(k)
                reached.append(k)

    for s in sorted(range(len(elements)), key=lambda i: elements[i].sort_key()):
        if s in seen:
            continue
        old = len(reached)
        gens.append(s)
        for t in range(old):
            extend(reached[t], (s,))
        t = old
        while t < len(reached):
            extend(reached[t], gens)
            t += 1
    if len(reached) != len(elements):
        raise ValueError("the closure does not reach every listed element")
    return gens, products


def inverse(g: GroupElement) -> GroupElement:
    inv = _perm_inverse(g.perm)
    exps = tuple((-g.exps[g.perm[i] - 1]) % g.r for i in range(g.n))
    return GroupElement(g.r, g.n, exps, inv)


def conjugate(g: GroupElement, h: GroupElement) -> GroupElement:
    """h^-1 g h."""
    return multiply(multiply(inverse(h), g), h)


# -- actions on V and V* -----------------------------------------------------


def monomial_action(g: GroupElement, rep: RepKind):
    """(pi, t) with g.v_i = zeta^{t[i-1]} v_{pi[i-1]}; t = 0 for Permutation."""
    if rep == RepKind.PERMUTATION:
        return g.perm, (0,) * g.n
    return g.perm, tuple(g.exps[g.perm[i] - 1] for i in range(g.n))


def monomial_image(exps, g: GroupElement, rep: RepKind):
    """g(v^exps) as (image exponent vector, zeta exponent)."""
    pi, t = monomial_action(g, rep)
    img = [0] * len(exps)
    e = 0
    for i, k in enumerate(exps):
        if k:
            img[pi[i] - 1] = k
            e += t[i] * k
    return tuple(img), e % g.r


def perm_cycles(perm):
    """Cycles of a permutation (image list, 1-based), fixed points included."""
    seen, cycles = set(), []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cyc, cur = [start], perm[start - 1]
        seen.add(start)
        while cur != start:
            seen.add(cur)
            cyc.append(cur)
            cur = perm[cur - 1]
        cycles.append(tuple(cyc))
    return cycles


@lru_cache(maxsize=None)
def perm_sign(perm: tuple) -> int:
    """(-1)^(inversions) of a tuple of distinct values, so a permutation's
    sign in one-line notation, 0- or 1-based alike."""
    return (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])


def is_three_cycle(perm) -> bool:
    """True iff the permutation is a single 3-cycle: it moves exactly three
    points, and a nontrivial cycle has length at least 2."""
    return sum(i != v for i, v in enumerate(perm, 1)) == 3


def det_exponent(pi, t, r: int) -> int:
    """The e with sign(pi) zeta_r^{sum t} = zeta_F^e, F = lcm(2, r): the
    determinant of the monomial action v_i -> zeta_r^{t_i} v_{pi(i)}, with
    the sign as F/2."""
    F = math.lcm(2, r)
    return (sum(t) * (F // r) + (F // 2 if perm_sign(pi) < 0 else 0)) % F


def det(g: GroupElement, rep: RepKind) -> CycloNum:
    return root_of_unity(math.lcm(2, g.r), det_exponent(*monomial_action(g, rep), g.r))


# -- subgroup membership, cycle types, conjugacy -----------------------------


def in_subgroup(g: GroupElement, p: int) -> bool:
    """g lies in G(r,p,n) iff the exponent sum is 0 mod p."""
    if g.r % p:
        raise ValueError("p must divide r")
    return sum(g.exps) % p == 0


@dataclass(frozen=True)
class CycleType:
    """Multiset of (a,k)-cycles, stored as a sorted tuple of (a, k, multiplicity)."""

    pairs: tuple[tuple[int, int, int], ...]

    def __repr__(self):
        return "{" + ", ".join(f"({a},{k}):{m}" for a, k, m in self.pairs) + "}"


def cycle_type(g: GroupElement) -> CycleType:
    counts: dict[tuple[int, int], int] = {}
    for cyc in perm_cycles(g.perm):
        a = sum(g.exps[i - 1] for i in cyc) % g.r
        key = (a, len(cyc))
        counts[key] = counts.get(key, 0) + 1
    return CycleType(tuple(sorted((a, k, m) for (a, k), m in counts.items())))


def centralizer_order_formula(g: GroupElement) -> int:
    """|Z_{G(r,1,n)}(g)| = prod m_{a,k}! k^m r^m over the cycle type."""
    out = 1
    for _, k, m in cycle_type(g).pairs:
        out *= math.factorial(m) * (k**m) * (g.r**m)
    return out


# -- enumeration -------------------------------------------------------------


def group_order(r: int, p: int, n: int) -> int:
    if r % p:
        raise ValueError("p must divide r")
    return r**n * math.factorial(n) // p


def check_group(r: int, p: int, n: int) -> None:
    """ValueError unless G(r,p,n) is defined: r, n >= 1 and p | r."""
    if r < 1 or n < 1 or p < 1 or r % p:
        raise ValueError("need r, n >= 1 and p | r")


def check_budget(r: int, p: int, n: int, budget: int | None = DEFAULT_BUDGET):
    if budget is not None and group_order(r, p, n) > budget:
        raise BudgetExceededError(
            f"|G({r},{p},{n})| = {group_order(r, p, n)} exceeds the budget {budget}"
        )


@lru_cache(maxsize=None)
def _elements(r: int, p: int, n: int) -> tuple[GroupElement, ...]:
    out = []
    for exps in product(range(r), repeat=n):
        if sum(exps) % p:
            continue
        for perm in permutations(range(1, n + 1)):
            out.append(GroupElement(r, n, exps, perm))
    out.sort(key=GroupElement.sort_key)
    return tuple(out)


def elements(r: int, p: int, n: int, budget: int | None = DEFAULT_BUDGET):
    check_budget(r, p, n, budget)
    return _elements(r, p, n)


def generators(r: int, p: int, n: int) -> list[GroupElement]:
    """A generating set of G(r,p,n): the transpositions (i,i+1), which
    generate S_n, then xi_1 xi_2^-1 (n >= 2), whose S_n-conjugates generate
    the diagonal matrices of determinant 1, and xi_1^p; identities left out."""
    gens = [transposition(r, n, i, i + 1) for i in range(1, n)]
    if n >= 2:
        gens.append(diag(r, n, [1, r - 1] + [0] * (n - 2)))
    gens.append(xi(r, n, 1, p))
    return [g for g in gens if not g.is_identity()]


@dataclass(frozen=True)
class ConjClass:
    rep: GroupElement
    size: int


@lru_cache(maxsize=None)
def _conjugacy_classes(r: int, p: int, n: int) -> tuple[ConjClass, ...]:
    # Each class is the orbit of its first unseen element under x -> s^-1 x s
    # for s in `generators(r, p, n)`, grown breadth first on (exps, perm)
    # pairs; a set closed under conjugation by generators of a finite group
    # is closed under conjugation by the whole group.
    by = [(inverse(s), s) for s in generators(r, p, n)]
    seen: set = set()
    classes = []
    for g in _elements(r, p, n):  # sorted, so the first unseen member is the lex-min rep
        key = (g.exps, g.perm)
        if key in seen:
            continue
        seen.add(key)
        orbit = [key]
        for x in orbit:  # the list grows while it is read
            for t, s in by:
                y = _mul(r, *_mul(r, t.exps, t.perm, *x), s.exps, s.perm)
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        classes.append(ConjClass(rep=g, size=len(orbit)))
    return tuple(classes)


def conjugacy_classes(r: int, p: int, n: int, budget: int | None = DEFAULT_BUDGET):
    check_budget(r, p, n, budget)
    return _conjugacy_classes(r, p, n)


@lru_cache(maxsize=4096)
def _centralizer(g: GroupElement, p: int) -> tuple[GroupElement, ...]:
    # h = (b, tau) commutes with g = (a, sigma) iff tau sigma = sigma tau and
    # a + sigma.b = b + tau.a, that is b_{sigma(j)} = b_j + c_{sigma(j)} for
    # every j, with c = a - tau.a.  Along each cycle of sigma this fixes b
    # from one free value at the cycle's first point, and it is solvable iff
    # c sums to 0 mod r over the cycle.
    r, n, a, sigma = g.r, g.n, g.exps, g.perm
    cycles = perm_cycles(sigma)
    out = []
    for tau in permutations(range(1, n + 1)):
        if any(tau[s - 1] != sigma[t - 1] for s, t in zip(sigma, tau)):
            continue
        tau_inv = _perm_inverse(tau)
        c = [(a[i] - a[tau_inv[i] - 1]) % r for i in range(n)]
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
                    out.append(GroupElement(r, n, tuple(b), tau))
    out.sort(key=GroupElement.sort_key)
    return tuple(out)


def centralizer(g: GroupElement, p: int):
    """Z_{G(r,p,n)}(g), sorted, solved for from the cycle structure of g:
    O(n) work per permutation of n points and per element of Z_{G(r,1,n)}(g),
    independent of |G|, so no budget applies."""
    return list(_centralizer(g, p))
