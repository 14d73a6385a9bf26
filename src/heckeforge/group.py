"""The monomial groups G(r,p,n).

An element xi_1^{a_1}...xi_n^{a_n} sigma is stored as the exponent vector
(a_1..a_n) over Z/r together with the permutation sigma (image list,
1-based).  Its matrix has entry zeta^{a_{sigma(i)}} in row sigma(i),
column i.  Conjugacy in G(r,1,n) is decided by (a,k)-cycle type; for
p > 1 classes are computed by full orbit enumeration since they may split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import permutations, product

from .cyclo import CycloMatrix, CycloNum, cyclo, root_of_unity, zero

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
        return GroupElement(
            int(data["r"]),
            int(data["n"]),
            tuple(int(a) % int(data["r"]) for a in data["exps"]),
            tuple(int(i) for i in data["perm"]),
        )

    def __repr__(self):
        xs = "".join(f"xi{i+1}^{a}" if a > 1 else f"xi{i+1}" for i, a in enumerate(self.exps) if a)
        cyc = _cycle_notation(self.perm)
        return (xs + cyc) or "1"


def _cycle_notation(perm) -> str:
    seen, out = set(), []
    for start in range(1, len(perm) + 1):
        if start in seen or perm[start - 1] == start:
            continue
        cyc, cur = [start], perm[start - 1]
        while cur != start:
            cyc.append(cur)
            cur = perm[cur - 1]
        seen.update(cyc)
        out.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(out)


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
    """Element with permutation given by disjoint cycles and optional exps."""
    perm = list(range(1, n + 1))
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


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """(a, sigma)(b, tau) = (a + sigma.b, sigma o tau), (sigma.b)_i = b_{sigma^-1(i)}."""
    if g.r != h.r or g.n != h.n:
        raise ValueError("elements live in different groups")
    ginv = _perm_inverse(g.perm)
    exps = tuple((g.exps[i] + h.exps[ginv[i] - 1]) % g.r for i in range(g.n))
    perm = tuple(g.perm[h.perm[i] - 1] for i in range(g.n))
    return GroupElement(g.r, g.n, exps, perm)


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


def power(g: GroupElement, e: int) -> GroupElement:
    out = identity(g.r, g.n)
    if e < 0:
        g, e = inverse(g), -e
    while e:
        if e & 1:
            out = multiply(out, g)
        g = multiply(g, g)
        e >>= 1
    return out


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


def act(g: GroupElement, i: int, rep: RepKind):
    """Image of the basis vector v_i: a pair (index, scalar)."""
    pi, t = monomial_action(g, rep)
    return pi[i - 1], root_of_unity(g.r, t[i - 1])


def coact(g: GroupElement, i: int, rep: RepKind):
    """Contragredient image of the dual vector x_i: (g.x)(v) = x(g^-1 v)."""
    pi, t = monomial_action(g, rep)
    return pi[i - 1], root_of_unity(g.r, -t[i - 1])


def matrix(g: GroupElement, rep: RepKind = RepKind.FAITHFUL) -> CycloMatrix:
    pi, t = monomial_action(g, rep)
    rows = [[zero(g.r)] * g.n for _ in range(g.n)]
    for i in range(g.n):
        rows[pi[i] - 1][i] = root_of_unity(g.r, t[i])
    return CycloMatrix(rows)



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


def perm_sign(perm) -> int:
    sign, seen = 1, set()
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        length, cur = 0, start
        while cur not in seen:
            seen.add(cur)
            cur = perm[cur - 1]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det(g: GroupElement, rep: RepKind) -> CycloNum:
    s = perm_sign(g.perm)
    if rep == RepKind.PERMUTATION:
        return cyclo(s)
    return root_of_unity(g.r, sum(g.exps)) * s


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


def conjugate_in_full_group(g: GroupElement, h: GroupElement) -> bool:
    """Conjugacy test in G(r,1,n): equality of (a,k)-cycle types."""
    return cycle_type(g) == cycle_type(h)


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


@dataclass(frozen=True)
class ConjClass:
    rep: GroupElement
    size: int
    members: frozenset


@lru_cache(maxsize=None)
def _conjugacy_classes(r: int, p: int, n: int) -> tuple[ConjClass, ...]:
    elems = _elements(r, p, n)
    inverses = {g: inverse(g) for g in elems}
    seen = set()
    classes = []
    for g in elems:  # sorted, so the first unseen member is the lex-min rep
        if g in seen:
            continue
        orbit = {multiply(multiply(inverses[h], g), h) for h in elems}
        seen.update(orbit)
        classes.append(ConjClass(rep=g, size=len(orbit), members=frozenset(orbit)))
    return tuple(classes)


def conjugacy_classes(r: int, p: int, n: int, budget: int | None = DEFAULT_BUDGET):
    check_budget(r, p, n, budget)
    return _conjugacy_classes(r, p, n)


@lru_cache(maxsize=4096)
def _centralizer(g: GroupElement, p: int) -> tuple[GroupElement, ...]:
    return tuple(h for h in _elements(g.r, p, g.n) if multiply(g, h) == multiply(h, g))


def centralizer(g: GroupElement, p: int, budget: int | None = DEFAULT_BUDGET):
    """Z_{G(r,p,n)}(g), by filtering the full element list."""
    check_budget(g.r, p, g.n, budget)
    return list(_centralizer(g, p))
