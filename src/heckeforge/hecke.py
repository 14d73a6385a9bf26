"""Graded-Hecke parameter spaces and the deformation bridge.

A candidate deformation parameter is a finitely supported family of
skew-symmetric bilinear forms g |-> a_g on V.  The family defines a graded
Hecke algebra exactly when it is conjugation-equivariant and satisfies the
mixed Jacobi condition; `pbw_check` tests both directly.  The bridge to
Hochschild cohomology goes through the chain map psi_2 from the bar
resolution to the Koszul resolution of S(V): a family induces a two-cocycle
mu_1 on S(V)#G via mu_1(r gbar, s hbar) = (f o psi_2)(1 (x) r (x) g(s) (x) 1) gbar hbar
(`ncalg.Mu1`, which computes in S(V)#G as the Drinfeld algebra of the empty
family), and degree-0 class semi-invariants convert back into families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, groupby
from math import lcm

from .cyclo import (
    MAX_N, CycloNum, check_order, cyclo, echelon_rows, json_int, one, power_sum, twist, zero
)
from .group import (
    _conj,
    _element,
    GroupElement,
    RepKind,
    check_group,
    centralizer_of,
    conjugacy_classes,
    cycle_type,
    generators,
    inverse,
    is_three_cycle,
    monomial_action,
    multiply,
    three_cycle,
    walk,
)
from .hochschild import fixed_basis, hh2_total


class IllDefinedFamilyError(ValueError):
    """The conjugation extension of a class form is inconsistent."""


# -- skew forms ---------------------------------------------------------------


class SkewForm:
    """Skew-symmetric bilinear form a(v,w) = v^T A w on coordinate vectors.
    A zero entry is held as `zero()`, whatever field it was computed in."""

    __slots__ = ("n", "matrix")

    def __init__(self, matrix):
        grid = tuple(tuple(cyclo(e) if e else zero() for e in row) for row in matrix)
        n = len(grid)
        if any(len(row) != n for row in grid):
            raise ValueError("skew form matrix must be square")
        for i in range(n):
            for j in range(i, n):
                if not grid[i][j] == -grid[j][i]:
                    raise ValueError("matrix is not skew-symmetric")
        self.n = n
        self.matrix = grid

    @classmethod
    def _of_skew_grid(cls, grid) -> "SkewForm":
        """The form on a square grid of CycloNums, zeros held as `zero()`,
        that is skew by construction: nothing is converted or checked."""
        A = object.__new__(cls)
        A.n, A.matrix = len(grid), grid
        return A

    @staticmethod
    def zero(n: int) -> "SkewForm":
        return SkewForm([[0] * n for _ in range(n)])

    def __call__(self, v, w) -> CycloNum:
        out = zero()
        for i, vi in enumerate(v):
            vi = cyclo(vi)
            if vi.is_zero():
                continue
            for j, wj in enumerate(w):
                wj = cyclo(wj)
                if not wj.is_zero() and not self.matrix[i][j].is_zero():
                    out = out + vi * self.matrix[i][j] * wj
        return out

    def entry(self, i: int, j: int) -> CycloNum:
        """a(v_i, v_j), 1-based."""
        return self.matrix[i - 1][j - 1]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.matrix for e in row)

    def __eq__(self, other):
        if not isinstance(other, SkewForm):
            return NotImplemented
        return self.n == other.n and all(
            self.matrix[i][j] == other.matrix[i][j]
            for i in range(self.n)
            for j in range(self.n)
        )


def conjugate_form(A: SkewForm, h: GroupElement, rep: RepKind) -> SkewForm:
    """The form (v,w) |-> a(h(v), h(w)), using the monomial structure of h;
    the image of a skew form is skew, so it is not checked again."""
    pi, t = monomial_action(h, rep)
    z, M = zero(), A.matrix
    return SkewForm._of_skew_grid(tuple(
        tuple(z if (val := M[a - 1][b - 1]).is_zero() else twist(val, h.r, t[i] + t[j]) for j, b in enumerate(pi))
        for i, a in enumerate(pi)))


@dataclass
class SkewFormFamily:
    """A finitely supported map g -> skew form; absent keys mean zero."""

    r: int
    p: int
    n: int
    repkind: RepKind
    support: dict

    def __post_init__(self):
        for g, A in self.support.items():
            if (g.r, g.n) != (self.r, self.n) or sum(g.exps) % self.p:
                raise ValueError("support element outside the configured group")
            if A.n != self.n:
                raise ValueError(f"skew form at {g!r} is {A.n}x{A.n}, expected {self.n}x{self.n}")
        self.support = {g: A for g, A in self.support.items() if not A.is_zero()}

    def form(self, g: GroupElement) -> SkewForm:
        A = self.support.get(g)
        return SkewForm.zero(self.n) if A is None else A

    def __eq__(self, other):
        if not isinstance(other, SkewFormFamily):
            return NotImplemented
        if (self.r, self.p, self.n, self.repkind) != (other.r, other.p, other.n, other.repkind):
            return False
        keys = set(self.support) | set(other.support)
        return all(self.form(g) == other.form(g) for g in keys)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "p": self.p,
            "n": self.n,
            "rep": self.repkind.value,
            "forms": [
                {
                    "g": g.to_json(),
                    "matrix": [[e.to_json() for e in row] for row in A.matrix],
                }
                for g, A in sorted(self.support.items(), key=lambda kv: kv[0].sort_key())
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "SkewFormFamily":
        """The family `to_json` wrote; ValueError (KeyError for a missing
        key) on data that is not one, before any group arithmetic runs,
        also on two forms for one support element."""
        if not isinstance(data, dict):
            raise ValueError("a forms file holds a JSON object")
        try:
            r, p, n = (json_int(data[k]) for k in "rpn")
            check_group(r, p, n)
            check_order(r, r)
            if n > MAX_N:
                raise ValueError(f"n must be at most {MAX_N}, got {n}")
            rep = RepKind(data["rep"])
            if not isinstance(data["forms"], list):
                raise ValueError("forms must be a list")
            support = {}
            for item in data["forms"]:
                if (json_int(item["g"]["r"]), json_int(item["g"]["n"])) != (r, n):
                    raise ValueError("support element outside the configured group")
                if not isinstance(item["matrix"], list):
                    raise ValueError("a form's matrix must be a list of rows")
                for e in (e for row in item["matrix"] for e in row):
                    check_order(json_int(e["order"]), r)
                A = SkewForm([[CycloNum.from_json(e) for e in row] for row in item["matrix"]])
                g = GroupElement.from_json(item["g"])
                if g in support:
                    raise ValueError(f"two forms for the support element {g!r}")
                support[g] = A
        except (TypeError, OverflowError) as exc:  # a value of the wrong JSON type, or infinite
            raise ValueError(str(exc)) from None
        return SkewFormFamily(r, p, n, rep, support)


# -- parameter space (degree-0 HH^2) ------------------------------------------


@dataclass
class GHAParamReport:
    d: int
    lambda2_dims: dict
    total: int
    paper_count: int | None
    discrepancy_flag: bool

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "lambda2_dims": [
                {"class": g.to_json(), "dim": v} for g, v in sorted(
                    self.lambda2_dims.items(), key=lambda kv: kv[0].sort_key()
                )
            ],
            "total": self.total,
            "paper_count": self.paper_count,
            "discrepancy_flag": self.discrepancy_flag,
        }


def param_space(r: int, p: int, n: int, rep: RepKind) -> GHAParamReport:
    """Dimension data for the space of graded-Hecke parameters, read off the
    polynomial-degree-0 part of HH^2 (`hh2_total` at degree 0): d counts the
    codimension-2 classes with a component there (those whose Hochschild
    character is trivial), and every class acting trivially on V
    (codimension 0) contributes the Z(g)-invariant alternating 2-forms,
    0 where `hh2_total` dropped the class."""
    comps = {c.rep: c for c in hh2_total(r, p, n, rep, 0)}
    d = sum(c.codim == 2 for c in comps.values())
    classes = [cls.rep for cls in conjugacy_classes(r, p, n)]
    lambda2 = {
        g: comps[g].dims_by_degree[0] if g in comps else 0
        for g in classes
        if not n - len(fixed_basis(g, rep))
    }
    total = d + sum(lambda2.values())
    if rep == RepKind.PERMUTATION:
        paper_count = sum(is_three_cycle(g.perm) for g in classes)
        return GHAParamReport(d, lambda2, total, paper_count, paper_count != total)
    return GHAParamReport(d, lambda2, total, None, False)


# -- preset families ----------------------------------------------------------


def three_cycle_classes(r: int, n: int):
    """Conjugacy classes of G(r,1,n) of diagonal-times-3-cycle form."""
    return [cls for cls in conjugacy_classes(r, 1, n) if is_three_cycle(cls.rep.perm)]


def _codim2_form(g: GroupElement, rep: RepKind, c: CycloNum) -> SkewForm:
    """c (y_a (x) y_b - y_b (x) y_a) for g with codim V^g = 2: y_a, y_b are
    dual to the basis of im(g - 1) along V^g, indexed by the two coordinates
    a < b that are not the last of a fixed support, and are read off
    `fixed_basis`.  For a fixed vector u = sum zeta_r^{t_j} v_j over a
    support s with last coordinate m (t_m = 0), each other i in s has
    y_i = x_i - (zeta_r^{t_i} / |s|) sum_{j in s} zeta_r^{-t_j} x_j; an i
    outside every fixed support has y_i = x_i.  Every entry is one phase
    times a rational, and stays rational when the phase is 0 mod r."""
    r, n = g.r, g.n
    duals = {i: [(i, 0, 1)] for i in range(n)}  # i -> y_i as (coordinate, phase, weight)
    for u in fixed_basis(g, rep):
        del duals[u[-1][0]]
        for i, ti in u[:-1]:
            duals[i] = [(k, ti - tk, (k == i) - Fraction(1, len(u))) for k, tk in u]
    ya, yb = (duals[i] for i in sorted(duals))
    terms: dict = {}  # (i, j) -> [phase, weight]; both products at (i, j) share the phase
    for i, e, w in ya:
        for j, f, x in yb:
            terms.setdefault((i, j), [e + f, 0])[1] += w * x
            terms.setdefault((j, i), [e + f, 0])[1] -= w * x
    grid = [[zero()] * n for _ in range(n)]
    for (i, j), (e, w) in terms.items():
        grid[i][j] = twist(cyclo(w), r, e) * c
    return SkewForm(grid)


def _extend_by_conjugation(seeds: dict, r: int, p: int, n: int, rep: RepKind) -> dict:
    """Extend class-representative forms to their full classes: a
    `group.walk` from each seed under x -> s^-1 x s, s over
    `generators(r, p, n)`, carrying the form along each edge as
    a_x(s(.), s(.)).  Both are right actions (see `pbw_check`).

    A clash of the walk, or a member whose form disagrees with another
    seed's class, raises IllDefinedFamilyError, and the check is exact: the
    words that fix g are Z(g), so by the walk's argument every edge agrees
    iff Z(g) fixes a_g, and then every h^-1 g h gets a_g(h(.), h(.))."""
    by = [((s.exps, s.perm, inverse(s).perm), s) for s in generators(r, p, n)]

    def move(x, A, edge):
        return _conj(r, *x, *edge[0]), conjugate_form(A, edge[1], rep)

    support: dict = {}
    for g0, A0 in seeds.items():
        forms, clashes = walk((g0.exps, g0.perm), A0, by, move)
        for x, A in chain(forms.items(), clashes):
            g = _element(r, n, *x)
            if support.setdefault(g, A) != A:
                raise IllDefinedFamilyError(f"conjugation extension is inconsistent at {g!r}")
    return support


def build_preset(preset: str, r: int, n: int, scalars=None) -> SkewFormFamily:
    """Preset parameter families for G(r,1,n) under the permutation action.

    "a_r1n": supported on the class of (1,2,3), normalized by
    a_{(1,2,3)}(v_1 - v_2, v_2 - v_3) = 1.  "generic": one scalar per
    diagonal-times-3-cycle class, in the order of `three_cycle_classes`."""
    if n < 3:
        raise ValueError("presets need n >= 3")
    classes = three_cycle_classes(r, n)
    if preset == "a_r1n":
        base = cycle_type(three_cycle(r, n, 1, 2, 3))  # a complete invariant for p = 1
        weights = [one() if cycle_type(cls.rep) == base else zero() for cls in classes]
    elif preset == "generic":
        if scalars is None or len(scalars) != len(classes):
            raise ValueError(
                f"generic preset needs one scalar per class ({len(classes)} classes)"
            )
        weights = [cyclo(c) for c in scalars]
    else:
        raise ValueError(f"unknown preset {preset!r}")
    seeds = {
        cls.rep: _codim2_form(cls.rep, RepKind.PERMUTATION, w)
        for cls, w in zip(classes, weights)
        if not w.is_zero()
    }
    support = _extend_by_conjugation(seeds, r, 1, n, RepKind.PERMUTATION)
    return SkewFormFamily(r, 1, n, RepKind.PERMUTATION, support)


# -- PBW check ----------------------------------------------------------------


@dataclass
class PBWReport:
    invariance: bool
    jacobi: bool
    witnesses: list

    @property
    def ok(self) -> bool:
        return self.invariance and self.jacobi


def pbw_check(F: SkewFormFamily) -> PBWReport:
    """Test that the family defines a graded Hecke algebra:
    conjugation equivariance a_{h^-1gh}(v,w) = a_g(h(v),h(w)) for all g and
    all h in G, and the per-group-element Jacobi condition
    a_g(v,w)(u - g.u) + a_g(w,u)(v - g.v) + a_g(u,v)(w - g.w) = 0.

    Equivariance is tested for g in the support and h in the generators of
    G(r,p,n) only, which is exact.  A generator h that passes maps the
    support into itself (h.a_g != 0 when a_g != 0) injectively, so onto
    itself, and the condition then also holds off the support, where both
    sides vanish.  The h passing at every g are closed under products,
    since conjugate_form(A, h1 h2) = conjugate_form(conjugate_form(A, h1), h2),
    so they are all of G once they include the generators.  The witness of
    a failure is the first (g, s) of the scan, s a generator."""
    by = [(inverse(s), s) for s in generators(F.r, F.p, F.n)]
    bad = next(((g, s) for g, A in F.support.items() for s_inv, s in by
                if not F.form(multiply(multiply(s_inv, g), s)) == conjugate_form(A, s, F.repkind)), None)
    invariance = bad is None
    witnesses = [] if invariance else [("invariance", *bad)]
    rep = F.repkind
    jacobi = True
    n = F.n
    for g, A in F.support.items():
        pi, t = monomial_action(g, rep)
        for i, j, k in combinations(range(n), 3):
            # coefficient vector of a(v_j,v_k)(v_i - g v_i) + cyclic
            coords = [zero() for _ in range(n)]
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                val = A.matrix[b][c]
                if val.is_zero():
                    continue
                coords[a] = coords[a] + val
                coords[pi[a] - 1] = coords[pi[a] - 1] - twist(val, g.r, t[a])
            if any(not x.is_zero() for x in coords):
                jacobi = False
                witnesses.append(("jacobi", g, (i + 1, j + 1, k + 1)))
                break
        if not jacobi:
            break
    return PBWReport(invariance, jacobi, witnesses)


# -- the chain map psi_2 -------------------------------------------------------


def psi2(k_exps, m_exps):
    """Bar-to-Koszul chain map in degree 2 on the monomial pair
    (v^k, v^m): a list of (left exps, right exps, (i, j)) with i < j,
    unit coefficients.  In particular psi2(v_i, v_j) = 1 (x) 1 (x) v_i ^ v_j
    for i < j and 0 otherwise."""
    n = len(k_exps)
    out = []
    for i in range(n):
        if not k_exps[i]:
            continue
        for j in range(i + 1, n):
            if not m_exps[j]:
                continue
            for b in range(1, m_exps[j] + 1):
                for a in range(1, k_exps[i] + 1):
                    left = [0] * n
                    left[i] = k_exps[i] - a
                    for t in range(i + 1, j):
                        left[t] = k_exps[t]
                    left[j] = k_exps[j] + m_exps[j] - b
                    for t in range(j + 1, n):
                        left[t] = k_exps[t] + m_exps[t]
                    right = [0] * n
                    for t in range(i):
                        right[t] = k_exps[t] + m_exps[t]
                    right[i] = m_exps[i] + a - 1
                    for t in range(i + 1, j):
                        right[t] = m_exps[t]
                    right[j] = b - 1
                    out.append((tuple(left), tuple(right), (i + 1, j + 1)))
    return out


# -- forms from degree-0 semi-invariants -----------------------------------------


def forms_from_semiinvariants(entries, r: int, p: int, n: int, rep: RepKind) -> SkewFormFamily:
    """Convert per-class degree-0 Hochschild data into a skew-form family.

    Each entry is (class representative g, data): for a codimension-2 class
    the data is the scalar value of f_g (its wedge part is the dual wedge of
    the basis of im(g - 1) read off g's cycles, see `_codim2_form`); for a
    trivially-acting class it is a dict {(i, j): coeff} describing an
    invariant 2-form, 1-based i < j.  The seeds are extended by conjugation
    on generators (`_extend_by_conjugation`, IllDefinedFamilyError unless
    each is Z(g)-invariant), and the family must pass pbw_check; neither
    step lists G."""
    seeds = {}
    for g, data in entries:
        codim = n - len(fixed_basis(g, rep))
        if codim == 2:
            # c keeps its own field, so rational data under the permutation
            # action keeps the rewriting core on its integer path
            c = cyclo(data)
            if not c.is_zero():
                seeds[g] = _codim2_form(g, rep, c)
        elif codim == 0:
            grid = [[zero() for _ in range(n)] for _ in range(n)]
            for (i, j), cval in data.items():
                cval = cyclo(cval)
                grid[i - 1][j - 1] = grid[i - 1][j - 1] + cval
                grid[j - 1][i - 1] = grid[j - 1][i - 1] - cval
            A = SkewForm(grid)
            if not A.is_zero():
                seeds[g] = A
        else:
            raise ValueError("class data is not degree-0 (codimension not in {0, 2})")
    family = SkewFormFamily(r, p, n, rep, _extend_by_conjugation(seeds, r, p, n, rep))
    report = pbw_check(family)
    if not report.ok:
        raise IllDefinedFamilyError(f"converted family fails pbw_check: {report.witnesses}")
    return family


# -- independent linear-system oracle ---------------------------------------------


def param_space_linear_oracle(r: int, p: int, n: int, rep: RepKind) -> int:
    """Dimension of the space of families passing pbw_check, counted as an
    exact linear system class by class.  Independent of the Reynolds route:
    no characters, semi-invariants or Hochschild data.

    A family is equivariant iff each class representative g's form a_g is
    Z(g)-invariant and the rest of the family is its conjugation extension
    h^-1 g h -> a_g(h(.), h(.)) (`_extend_by_conjugation`).  Jacobi at
    h^-1 g h for that extension is h applied to Jacobi at g, so it holds iff
    Jacobi holds at g.  The h fixing a form are a group, so Z(g)-invariance
    is invariance under the generators of `centralizer_of(g, p)`.  The dimension is
    therefore the sum over the classes of C(n, 2) minus the rank of the rows
    on the unknowns x_s = a_g(v_{i+1}, v_{j+1}), s the index of i < j in
    `combinations`: for each generator h, h.v_i = zeta_r^t_i v_{pi i}, the
    rows a_g(h v_i, h v_j) - a_g(v_i, v_j), and the Jacobi rows
    a_g(v_j,v_k)(v_i - g v_i) + cyclic, one per coordinate.  A term
    zeta_M^e x_s, M = lcm(2, r), is kept as an integer count at (s, e mod
    M/2), since zeta_M^(e + M/2) = -zeta_M^e, so rows that vanish or repeat
    exactly are dropped before each is summed by `power_sum` and the class's
    rows are reduced by `echelon_rows`."""
    M = lcm(2, r)
    half = M // 2
    slot = {pair: s for s, pair in enumerate(combinations(range(n), 2))}

    def term(b, c, e):  # zeta_M^e a_g(v_{b+1}, v_{c+1}) as (slot, e), b != c
        return slot[min(b, c), max(b, c)], e + half * (b > c)

    def row(terms):  # the sorted nonzero (slot, e < half, count) of a row
        counts: dict = {}
        for s, e in terms:
            counts[s, e % half] = counts.get((s, e % half), 0) + (1 if e % M < half else -1)
        return tuple(sorted((s, e, c) for (s, e), c in counts.items() if c))

    total = 0
    for cls in conjugacy_classes(r, p, n):
        g = cls.rep
        rows = set()
        for h in centralizer_of(g, p).generators:
            pi, t = monomial_action(h, rep)
            for (i, j), s in slot.items():
                rows.add(row([term(pi[i] - 1, pi[j] - 1, (t[i] + t[j]) * M // r), (s, half)]))
        pi, t = monomial_action(g, rep)
        for i, j, k in combinations(range(n), 3):
            by_coord: dict = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                s, e = term(b, c, 0)
                by_coord.setdefault(a, []).append((s, e))
                by_coord.setdefault(pi[a] - 1, []).append((s, e + t[a] * M // r + half))
            rows.update(row(terms) for terms in by_coord.values())
        rows.discard(())
        reduced = []
        for terms in rows:
            reduced.append({})
            for s, same in groupby(terms, lambda x: x[0]):
                _, es, cs = zip(*same)
                reduced[-1][s] = CycloNum(M, power_sum(es, cs, M), 1)
        total += len(slot) - len(echelon_rows(reduced))
    return total
