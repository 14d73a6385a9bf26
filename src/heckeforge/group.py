"""The monomial groups G(r,p,n).

An element xi_1^{a_1}...xi_n^{a_n} sigma is stored as the exponent vector
(a_1..a_n) over Z/r together with the permutation sigma (image list,
1-based).  Its matrix has entry zeta^{a_{sigma(i)}} in row sigma(i),
column i.  Conjugacy in G(r,1,n) is decided by (a,k)-cycle type, so its
classes are its coloured cycle types, each least member built directly,
with no listing of the group, and the number of G(r,p,n)-classes a class
splits into is read off its type.  A class that splits is grown once, and
cut into its pieces by a label its walk carries.  Each centralizer is read
once off g's cycles as D.P (`centralizer_of`), as group elements; the HH
class path reads the cycles as integers (`hochschild.class_action`).  Every
walk from generators is the one `walk` and rests on its argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import permutations, product
from typing import NamedTuple

from .cyclo import CycloNum, json_int, root_of_unity

DEFAULT_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    pass


class RepKind(str, Enum):
    FAITHFUL = "faithful"
    PERMUTATION = "permutation"


@dataclass(frozen=True)
class GroupElement:
    __slots__ = ("r", "n", "exps", "perm", "_hash")
    r: int
    n: int
    exps: tuple[int, ...]
    perm: tuple[int, ...]  # perm[i-1] = sigma(i)

    def __new__(cls, r, n, exps, perm):
        # checks outside data; the library builds from valid parts with `_element`
        if len(exps) != n or len(perm) != n:
            raise ValueError("exps and perm must have length n")
        for a in exps:
            if not 0 <= a < r:
                raise ValueError("exponents must lie in [0, r)")
        seen = 0
        for v in perm:
            if not 1 <= v <= n or seen >> v & 1:
                raise ValueError("perm is not a bijection of 1..n")
            seen |= 1 << v
        return object.__new__(cls)

    def __post_init__(self):
        # runs once for every element built, checked or not
        object.__setattr__(self, "_hash", hash((self.exps, self.perm)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return GroupElement, (self.r, self.n, self.exps, self.perm)

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


def _element(r: int, n: int, exps: tuple, perm: tuple) -> GroupElement:
    """The GroupElement (exps, perm), unchecked: for parts of valid elements."""
    g = object.__new__(GroupElement)
    g.__init__(r, n, exps, perm)
    return g


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
    used = [i for cyc in cycles for i in cyc]
    if len(set(used)) < len(used) or not all(1 <= i <= n for i in used):
        raise ValueError(f"cycles need distinct indices in 1..{n}: {list(cycles)}")
    e = tuple(a % r for a in exps) if exps is not None else (0,) * n
    return GroupElement(r, n, e, _cycles_perm(n, cycles))


def _cycles_perm(n: int, cycles) -> tuple:
    """The image list of the product of disjoint cycles in 1..n, unchecked."""
    image = {a: b for cyc in cycles for a, b in zip(cyc, cyc[1:] + cyc[:1])}
    return tuple(image.get(i, i) for i in range(1, n + 1))


def transposition(r: int, n: int, i: int, j: int) -> GroupElement:
    return from_cycles(r, n, [(i, j)])


def three_cycle(r: int, n: int, i: int, j: int, k: int) -> GroupElement:
    return from_cycles(r, n, [(i, j, k)])


# -- group operations --------------------------------------------------------


def _mul(r: int, a, sigma, b, tau):
    """(exps, perm) of the product (a, sigma)(b, tau) over Z/r, as in
    `multiply`: (sigma.b)_{sigma(j)} = b_j."""
    exps = list(a)
    for s, x in zip(sigma, b):
        exps[s - 1] = (exps[s - 1] + x) % r
    return tuple(exps), tuple([sigma[t - 1] for t in tau])


def _conj(r: int, a, sigma, b, tau, tau_inv):
    """(exps, perm) of h^-1 (a, sigma) h, h = (b, tau), in one pass: exponent
    a_j - b_j + b_k at tau^-1(j), j = sigma(k), and permutation tau^-1 sigma tau."""
    y = [0] * len(a)
    for k, j in enumerate(sigma):
        y[tau_inv[j - 1] - 1] = (a[j - 1] - b[j - 1] + b[k]) % r
    return tuple(y), tuple([tau_inv[sigma[t - 1] - 1] for t in tau])


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """(a, sigma)(b, tau) = (a + sigma.b, sigma o tau), (sigma.b)_i = b_{sigma^-1(i)}."""
    if g.r != h.r or g.n != h.n:
        raise ValueError("elements live in different groups")
    return _element(g.r, g.n, *_mul(g.r, g.exps, g.perm, h.exps, h.perm))


def walk(start, value, gens, move):
    """(values, clashes) of the breadth-first walk from `start`, where a
    point x with value v has an edge (y, w) = move(x, v, s) per s in gens:
    `values` maps each point reached, in order, to the value of the first
    path to it, and `clashes` lists each edge (y, w) with w != values[y].

    Words in gens act on points and, by `move`, bijectively on values; for a
    finite group they reach the orbit of `start`.  By Schreier's lemma
    (A. Seress, Permutation Group Algorithms, 2003) the words fixing `start`
    are generated by one u s u'^-1 per edge x -> y, u and u' the first paths
    to x and y, which moves the start's value iff the edge clashes.  So with
    no clash each point's value is the one every path to it carries; where
    values are path products, each clash (y, w) gives the Schreier
    generator w values[y]^-1 of the stabilizer of `start`."""
    values, clashes = {start: value}, []
    todo = [start]
    for x in todo:  # the list grows while it is read
        v = values[x]
        for s in gens:
            y, w = move(x, v, s)
            if y not in values:
                values[y] = w
                todo.append(y)
            elif values[y] != w:
                clashes.append((y, w))
    return values, clashes


def closure(r: int, n: int, gens) -> list[GroupElement]:
    """The group that gens generate, listed breadth first from the identity
    under right multiplication (`walk` on (exps, perm) pairs)."""
    start = ((0,) * n, tuple(range(1, n + 1)))
    reached, _ = walk(start, None, gens, lambda x, _, s: (_mul(r, *x, s.exps, s.perm), None))
    return [_element(r, n, *key) for key in reached]


def inverse(g: GroupElement) -> GroupElement:
    inv = [0] * g.n
    for i, v in enumerate(g.perm):
        inv[v - 1] = i + 1
    exps = tuple((-g.exps[g.perm[i] - 1]) % g.r for i in range(g.n))
    return _element(g.r, g.n, exps, tuple(inv))


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


# -- cycle types, conjugacy -------------------------------------------------


def cycle_type(g: GroupElement) -> tuple[tuple[int, int, int], ...]:
    """The multiset of g's (a,k)-cycles, as a sorted tuple of (a, k, multiplicity)."""
    return tuple(sorted((a, k, len(same)) for (a, k), same in _cycles_by_type(g).items()))


def centralizer_order_formula(g: GroupElement, ctype=None) -> int:
    """|Z_{G(r,1,n)}(g)| = prod m_{a,k}! k^m r^m over the cycle type: ctype,
    if the caller holds g's, else `cycle_type(g)`."""
    return math.prod(math.factorial(m) * (k * g.r) ** m for _, k, m in ctype or cycle_type(g))


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
    """BudgetExceededError if |G(r,p,n)| > budget: r^k k! grows to k = n or past budget*p."""
    if budget is None:
        return
    if r % p:
        raise ValueError("p must divide r")
    size, k = 1, 0
    while k < n and size <= budget * p:
        k += 1
        size *= r * k
    if size > budget * p:
        order = f" = {size // p}" if k == n else ""
        raise BudgetExceededError(f"|G({r},{p},{n})|{order} exceeds the budget {budget}")


@lru_cache(maxsize=None)
def _elements(r: int, p: int, n: int) -> tuple[GroupElement, ...]:
    """G(r,p,n) in (exps, perm) order, in which `product` and `permutations` list."""
    diagonals = [exps for exps in product(range(r), repeat=n) if sum(exps) % p == 0]
    perms = list(permutations(range(1, n + 1)))
    return tuple(_element(r, n, exps, perm) for exps in diagonals for perm in perms)


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


def _cycle_types(r: int, n: int, least=(0, 1)):
    """Every (a,k)-cycle type of total length n with no (a,k) below least,
    as `cycle_type` gives it: for least = (0, 1), the r-coloured
    multipartitions of n (I. G. Macdonald, Symmetric Functions and Hall
    Polynomials, 2nd ed., App. B)."""
    if not n:
        yield ()
    for a, k in product(range(r), range(1, n + 1)):
        for m in range(1, n // k + 1) if (a, k) >= least else ():
            for rest in _cycle_types(r, n - k * m, (a, k + 1)):
                yield ((a, k, m),) + rest


def _least_member(r: int, n: int, ctype) -> GroupElement:
    """The least member, in (exps, perm) order, of the class of G(r,1,n) of
    cycle type ctype.  Each of its c coloured cycles needs a nonzero exponent:
    its exponents are n - c zeros, then those colours ascending.  Its cycles
    take consecutive points: the colour-0 cycles, shortest first, then the
    coloured ones of length k > 1, longest first, ties by ascending colour,
    each the next k - 1 points and the first unused point of its colour;
    the coloured points left over are fixed."""
    colours = [a for a, _, m in ctype if a for _ in range(m)]
    exps = (0,) * (n - len(colours)) + tuple(colours)
    unused = {a: i for i, a in reversed(list(enumerate(exps, 1)))}  # first point of each colour
    cycles, at = [], 1
    for a, k, m in ctype:  # sorted, so the colour-0 cycles come shortest first
        for _ in range(m if a == 0 else 0):
            cycles.append(list(range(at, at + k)))
            at += k
    for a, k, m in sorted(ctype, key=lambda t: (-t[1], t[0])):
        for _ in range(m if a and k > 1 else 0):
            cycles.append(list(range(at, at + k - 1)) + [unused[a]])
            at += k - 1
            unused[a] += 1
    return _element(r, n, exps, _cycles_perm(n, cycles))


@lru_cache(maxsize=None)
def conjugacy_classes(r: int, p: int, n: int) -> tuple[ConjClass, ...]:
    # The classes of G(r,1,n) are its coloured cycle types, each built as its
    # `_least_member` g, of size |G(r,1,n)| / |Z(g)|, both read off the type.
    # The class of g lies in G(r,p,n) iff its colours sum to 0 mod p, and
    # splits there into s = `_split_count` classes.
    # Only a class that splits is listed: a `walk` under conjugation by the
    # generators of G(r,1,n) labels each h^-1 g h with sum(h.exps) mod s.
    # Z_{G(r,1,n)}(g) sums onto sZ/p, so a clash is an error, and the
    # label's fibres are the s classes, each represented by its least member.
    order = r**n * math.factorial(n)
    by = [((t.exps, t.perm, inverse(t).perm), sum(t.exps)) for t in generators(r, 1, n)]
    classes = []
    for ctype in _cycle_types(r, n):
        if sum(a * m for a, _, m in ctype) % p:
            continue
        g = _least_member(r, n, ctype)
        size = order // centralizer_order_formula(g, ctype)
        s = _split_count(ctype, p)
        if s == 1:
            classes.append(ConjClass(g, size))
            continue
        labels, clashes = walk((g.exps, g.perm), 0, by, lambda x, v, t: (_conj(r, *x, *t[0]), (v + t[1]) % s))
        if clashes:
            raise RuntimeError(f"the labels mod {s} are not constant on the class of {g!r}")
        least: dict = {}
        for key, label in labels.items():
            least[label] = min(key, least.get(label, key))
        del labels  # before the next class is walked
        classes += [ConjClass(_element(r, n, *key), size // s) for key in least.values()]
    classes.sort(key=lambda cls: cls.rep.sort_key())
    return tuple(classes)


def _cycles_by_type(g: GroupElement) -> dict:
    """g's cycles grouped by (a,k) type, the types in order of first cycle."""
    by_type: dict = {}
    for cyc in perm_cycles(g.perm):
        by_type.setdefault((sum(g.exps[i - 1] for i in cyc) % g.r, len(cyc)), []).append(cyc)
    return by_type


def _swaps(g: GroupElement, same) -> list[GroupElement]:
    """A swap of each adjacent pair c1, c2 of the cycles `same` of one (a,k)
    type: tau swaps the j-th points of c1 and c2, and b solves
    b_{sigma(x)} = b_x + a_{sigma(x)} - a_{tau^-1 sigma(x)}, which (b, tau)
    must solve to commute with g = (a, sigma).  They permute the cycles,
    conjugating the first cycle's xi_c and g_c (`Centralizer`) onto each."""
    r, n, a = g.r, g.n, g.exps
    out = []
    for c1, c2 in zip(same, same[1:]):
        b, perm, t = [0] * n, list(range(1, n + 1)), 0
        for x, y in zip(c1, c2):
            t += a[x - 1] - a[y - 1]
            b[x - 1], b[y - 1] = t % r, -t % r
            perm[x - 1], perm[y - 1] = y, x
        out.append(_element(r, n, tuple(b), tuple(perm)))
    return out


def _within(gens, r: int, n: int, p: int) -> tuple[GroupElement, ...]:
    """Generators of the intersection of <gens> with G(r,p,n), with no
    identity or repeat.  For p > 1, the Schreier generators of the kernel of
    h -> sum(h.exps) mod p, read off the clashes of the `walk` on its
    values, each carrying a coset representative."""
    if p > 1:
        reps, clashes = walk(0, identity(r, n), gens, lambda x, t, s: ((x + sum(s.exps)) % p, multiply(t, s)))
        gens = [multiply(w, inverse(reps[y])) for y, w in clashes]
    return tuple(h for h in dict.fromkeys(gens) if not h.is_identity())


def _split_count(ctype, p: int) -> int:
    """The number of G(r,p,n)-classes in the G(r,1,n)-class of cycle type
    ctype: the index in Z/p of the image of Z_{G(r,1,n)}(g) under
    h -> sum(h.exps), spanned by the sums of `Centralizer`'s D and P: each
    cycle's length and colour, and 0 per swap."""
    return math.gcd(p, *(x for a, k, _ in ctype for x in (a, k)))


class Centralizer(NamedTuple):
    """Z = Z_{G(r,p,n)}(g), g = (a, sigma), read off g's cycles as D_p.P
    (Macdonald, App. B).  For a cycle c of length k and colour a_c, xi_c is
    the scalar xi on c's support and g_c is g there and 1 elsewhere.  Both
    commute with g and each other, and g_c^k = xi_c^(a_c), so <xi_c, g_c>
    = {xi_c^i g_c^j : i < r, j < k} is abelian of order rk, not always
    cyclic: for g = (1,2) in G(2,1,2) it is a Klein four group.  D is their
    product over the cycles and P is generated by the `_swaps` of each
    type's cycles, of exponent sum 0 mod r.  Z_{G(r,1,n)}(g) = D x| P: an h
    in it permutes the cycles of each type, and past an element of P it
    fixes each cycle, so lies in D.  Its order is `centralizer_order_formula`,
    and Z is its part of exponent sum 0 mod p, of index p / `_split_count`."""

    generators: tuple  # per type the first xi_c, g_c (P moves them onto the rest), then the swaps, cut by `_within`
    order: int


@lru_cache(maxsize=4096)
def centralizer_of(g: GroupElement, p: int) -> Centralizer:
    """g's `Centralizer` in G(r,p,n), in one pass over its cycles."""
    r, n = g.r, g.n
    firsts, swaps, ctype = [], [], []
    for (a, k), same in _cycles_by_type(g).items():
        ctype.append((a, k, len(same)))
        on = [i + 1 in same[0] for i in range(n)]
        firsts.append(_element(r, n, tuple(o % r for o in on), tuple(range(1, n + 1))))
        firsts.append(_element(r, n, tuple(x if o else 0 for x, o in zip(g.exps, on)), _cycles_perm(n, [same[0]])))
        swaps += _swaps(g, same)
    order = centralizer_order_formula(g, ctype) * _split_count(ctype, p) // p
    return Centralizer(_within(firsts + swaps, r, n, p), order)


def centralizer(g: GroupElement, p: int) -> list[GroupElement]:
    """Z_{G(r,p,n)}(g), sorted: the `closure` of `centralizer_of`'s
    generators, work in |Z(g)| and independent of |G|."""
    return sorted(closure(g.r, g.n, centralizer_of(g, p).generators), key=GroupElement.sort_key)
