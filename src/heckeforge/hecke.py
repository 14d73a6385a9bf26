"""Graded-Hecke parameter spaces and the deformation bridge.

A candidate deformation parameter is a finitely supported family of
skew-symmetric bilinear forms g |-> a_g on V.  The family defines a graded
Hecke algebra exactly when it is conjugation-equivariant and satisfies the
mixed Jacobi condition; `pbw_check` tests both directly.  The bridge to
Hochschild cohomology goes through the chain maps psi_1, psi_2 from the bar
resolution to the Koszul resolution of S(V): a family induces a two-cocycle
mu_1 on S(V)#G via mu_1(r gbar, s hbar) = (f o psi_2)(1 (x) r (x) g(s) (x) 1) gbar hbar,
and degree-0 class semi-invariants convert back into families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .cyclo import CycloMatrix, CycloNum, cyclo, echelon_rows, one, root_of_unity, zero
from .group import (
    DEFAULT_BUDGET,
    GroupElement,
    RepKind,
    centralizer,
    check_budget,
    conjugacy_classes,
    diag,
    elements,
    identity,
    inverse,
    monomial_action,
    monomial_image,
    perm_cycles,
    multiply,
    three_cycle,
    transposition,
    xi,
)
from .hochschild import (
    acts_trivially,
    fixed_space,
    hochschild_character,
    perp_space,
)
from .polyforms import reynolds_semiinvariant_basis, trivial_character


class IllDefinedFamilyError(ValueError):
    """The conjugation extension of a class form is inconsistent."""


# -- skew forms ---------------------------------------------------------------


class SkewForm:
    """Skew-symmetric bilinear form a(v,w) = v^T A w on coordinate vectors."""

    __slots__ = ("n", "matrix")

    def __init__(self, matrix):
        grid = tuple(tuple(cyclo(e) for e in row) for row in matrix)
        n = len(grid)
        if any(len(row) != n for row in grid):
            raise ValueError("skew form matrix must be square")
        for i in range(n):
            for j in range(i, n):
                if not grid[i][j] == -grid[j][i]:
                    raise ValueError("matrix is not skew-symmetric")
        self.n = n
        self.matrix = grid

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

    def __add__(self, other):
        return SkewForm(
            [
                [self.matrix[i][j] + other.matrix[i][j] for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def scale(self, c) -> "SkewForm":
        return SkewForm([[e * c for e in row] for row in self.matrix])


def conjugate_form(A: SkewForm, h: GroupElement, rep: RepKind) -> SkewForm:
    """The form (v,w) |-> a(h(v), h(w)), using the monomial structure of h."""
    pi, t = monomial_action(h, rep)
    n = A.n
    out = [[zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            val = A.matrix[pi[i] - 1][pi[j] - 1]
            if not val.is_zero():
                e = (t[i] + t[j]) % h.r
                out[i][j] = val * root_of_unity(h.r, e) if e else val
    return SkewForm(out)


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
            if (g.r, g.n) != (self.r, self.n):
                raise ValueError("support element outside the configured group")
            if A.n != self.n:
                raise ValueError(f"skew form at {g!r} is {A.n}x{A.n}, expected {self.n}x{self.n}")
        self.support = {g: A for g, A in self.support.items() if not A.is_zero()}

    def form(self, g: GroupElement) -> SkewForm:
        return self.support.get(g, SkewForm.zero(self.n))

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
        support = {}
        for item in data["forms"]:
            g = GroupElement.from_json(item["g"])
            A = SkewForm([[CycloNum.from_json(e) for e in row] for row in item["matrix"]])
            support[g] = A
        return SkewFormFamily(
            int(data["r"]), int(data["p"]), int(data["n"]), RepKind(data["rep"]), support
        )


# -- parameter space (Reynolds route) ----------------------------------------


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


def param_space(
    r: int, p: int, n: int, rep: RepKind, budget: int | None = DEFAULT_BUDGET
) -> GHAParamReport:
    """Dimension data for the space of graded-Hecke parameters: the count d
    of codimension-2 classes with trivial Hochschild character, plus, for
    every class acting trivially on V, the dimension of the Z(g)-invariant
    alternating 2-forms."""
    check_budget(r, p, n, budget)
    d = 0
    lambda2: dict = {}
    paper_count = 0
    for cls in conjugacy_classes(r, p, n, budget):
        g = cls.rep
        fixed = fixed_space(g, rep)
        codim = n - len(fixed)
        if codim == 2:
            chi = hochschild_character(g, rep, p, budget)
            if chi.is_trivial():
                d += 1
            lengths = sorted(len(c) for c in perm_cycles(g.perm))
            if rep == RepKind.PERMUTATION and lengths == [1] * (n - 3) + [3]:
                paper_count += 1
        if acts_trivially(g, rep):
            Z = centralizer(g, p, budget)
            basis = reynolds_semiinvariant_basis(Z, trivial_character(Z), rep, 0, 2)
            lambda2[g] = len(basis)
    total = d + sum(lambda2.values())
    if rep == RepKind.PERMUTATION:
        return GHAParamReport(d, lambda2, total, paper_count, paper_count != total)
    return GHAParamReport(d, lambda2, total, None, False)


# -- preset families ----------------------------------------------------------


def three_cycle_classes(r: int, n: int, budget: int | None = DEFAULT_BUDGET):
    """Conjugacy classes of G(r,1,n) of diagonal-times-3-cycle form."""
    out = []
    for cls in conjugacy_classes(r, 1, n, budget):
        lengths = sorted(len(c) for c in perm_cycles(cls.rep.perm))
        if lengths == [1] * (n - 3) + [3]:
            out.append(cls)
    return out


def _class_base_form(g0: GroupElement, scalar) -> SkewForm:
    """The defining form on a class member whose permutation part is (1,2,3):
    a(v_1 - v_2, v_2 - v_3) = scalar and a(V^{(1,2,3)}, V) = 0."""
    n = g0.n
    w1 = [0] * n
    w1[0], w1[1] = 1, -1
    w2 = [0] * n
    w2[1], w2[2] = 1, -1
    f0 = [0] * n
    f0[0] = f0[1] = f0[2] = 1
    cols = [w1, w2, f0] + [
        [1 if t == i else 0 for t in range(n)] for i in range(3, n)
    ]
    B = CycloMatrix([[cols[j][i] for j in range(n)] for i in range(n)])
    Binv = B.inverse()
    x1, x2 = Binv.entries[0], Binv.entries[1]
    c = cyclo(scalar)
    A = [
        [(x1[i] * x2[j] - x1[j] * x2[i]) * c for j in range(n)]
        for i in range(n)
    ]
    return SkewForm(A)


def _extend_by_conjugation(
    seeds: dict, r: int, p: int, n: int, rep: RepKind, budget
) -> dict:
    """Extend class-representative forms to their full classes by
    a_{h^-1 g h}(v, w) = a_g(h(v), h(w)), checking well-definedness."""
    support: dict = {}
    G = elements(r, p, n, budget)
    inverses = {h: inverse(h) for h in G}
    for g0, A0 in seeds.items():
        for h in G:
            g1 = multiply(multiply(inverses[h], g0), h)
            A1 = conjugate_form(A0, h, rep)
            if g1 in support:
                if not support[g1] == A1:
                    raise IllDefinedFamilyError(
                        f"conjugation extension is inconsistent at {g1!r} (via {h!r})"
                    )
            else:
                support[g1] = A1
    return support


def build_preset(
    preset: str,
    r: int,
    n: int,
    scalars=None,
    budget: int | None = DEFAULT_BUDGET,
) -> SkewFormFamily:
    """Preset parameter families for G(r,1,n) under the permutation action.

    "a_r1n": supported on the class of (1,2,3), normalized by
    a_{(1,2,3)}(v_1 - v_2, v_2 - v_3) = 1.  "generic": one scalar per
    diagonal-times-3-cycle class, in the order of `three_cycle_classes`."""
    if n < 3:
        raise ValueError("presets need n >= 3")
    classes = three_cycle_classes(r, n, budget)
    if preset == "a_r1n":
        base = three_cycle(r, n, 1, 2, 3)
        weights = [one() if base in cls.members else zero() for cls in classes]
    elif preset == "generic":
        if scalars is None or len(scalars) != len(classes):
            raise ValueError(
                f"generic preset needs one scalar per class ({len(classes)} classes)"
            )
        weights = [cyclo(c) for c in scalars]
    else:
        raise ValueError(f"unknown preset {preset!r}")
    seeds = {}
    for cls, w in zip(classes, weights):
        if w.is_zero():
            continue
        # seed on a member whose permutation part is exactly (1,2,3)
        target = (2, 3, 1) + tuple(range(4, n + 1))
        member = min((m for m in cls.members if m.perm == target), key=GroupElement.sort_key)
        seeds[member] = _class_base_form(member, w)
    support = _extend_by_conjugation(seeds, r, 1, n, RepKind.PERMUTATION, budget)
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


def pbw_check(F: SkewFormFamily, budget: int | None = DEFAULT_BUDGET) -> PBWReport:
    """Test that the family defines a graded Hecke algebra:
    conjugation equivariance a_{h^-1gh}(v,w) = a_g(h(v),h(w)) for all h, and
    the per-group-element Jacobi condition
    a_g(v,w)(u - g.u) + a_g(w,u)(v - g.v) + a_g(u,v)(w - g.w) = 0."""
    G = elements(F.r, F.p, F.n, budget)
    inverses = {h: inverse(h) for h in G}
    rep = F.repkind
    witnesses = []
    invariance = True
    for g, A in F.support.items():
        for h in G:
            g1 = multiply(multiply(inverses[h], g), h)
            expected = conjugate_form(A, h, rep)
            if not F.form(g1) == expected:
                invariance = False
                witnesses.append(("invariance", g, h))
                break
        if not invariance:
            break
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
                e = t[a] % g.r
                img = val * root_of_unity(g.r, e) if e else val
                coords[pi[a] - 1] = coords[pi[a] - 1] - img
            if any(not x.is_zero() for x in coords):
                jacobi = False
                witnesses.append(("jacobi", g, (i + 1, j + 1, k + 1)))
                break
        if not jacobi:
            break
    return PBWReport(invariance, jacobi, witnesses)


# -- chain maps psi_1, psi_2 ---------------------------------------------------


def psi1(exps):
    """Bar-to-Koszul chain map in degree 1 on the monomial v^exps: a list of
    (left exps, right exps, variable index) with unit coefficients."""
    n = len(exps)
    out = []
    for i in range(n):
        for a in range(1, exps[i] + 1):
            left = [0] * n
            left[i] = exps[i] - a
            for t in range(i + 1, n):
                left[t] = exps[t]
            right = [0] * n
            for t in range(i):
                right[t] = exps[t]
            right[i] = a - 1
            out.append((tuple(left), tuple(right), i + 1))
    return out


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


# -- skew group algebra helpers (monomial-times-group terms) -------------------


def sg_term(exps, g: GroupElement, coeff=1) -> dict:
    c = cyclo(coeff)
    return {} if c.is_zero() else {(tuple(exps), g): c}


def sg_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for key, c in y.items():
        cur = out.get(key)
        s = c if cur is None else cur + c
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    return out


def sg_scale(x: dict, c) -> dict:
    c = cyclo(c)
    if c.is_zero():
        return {}
    return {key: v * c for key, v in x.items()}


def sg_mul(x: dict, y: dict, rep: RepKind) -> dict:
    """Product in S(V)#G: (v^mu gbar)(v^nu hbar) = v^mu g(v^nu) (gh)bar."""
    out: dict = {}
    for (mu, g), c1 in x.items():
        for (nu, h), c2 in y.items():
            img, e = monomial_image(nu, g, rep)
            key = (tuple(a + b for a, b in zip(mu, img)), multiply(g, h))
            val = c1 * c2
            if e:
                val = val * root_of_unity(g.r, e)
            cur = out.get(key)
            s = val if cur is None else cur + val
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return out


def sg_eq(x: dict, y: dict) -> bool:
    keys = set(x) | set(y)
    z = zero()
    for key in keys:
        if not x.get(key, z) == y.get(key, z):
            return False
    return True


# -- the induced two-cocycle ----------------------------------------------------


class Mu1:
    """The Hochschild two-cocycle of S(V)#G induced by a skew-form family:
    mu_1(r gbar (x) s hbar) = ((f o psi_2)(1 (x) r (x) g(s) (x) 1)) gbar hbar,
    where f contracts the Koszul wedge slot against the family."""

    def __init__(self, family: SkewFormFamily):
        self.family = family
        self.rep = family.repkind

    def on_terms(self, mu, g: GroupElement, nu, h: GroupElement) -> dict:
        gs, e0 = monomial_image(nu, g, self.rep)
        gh = multiply(g, h)
        out: dict = {}
        scale0 = root_of_unity(g.r, e0) if e0 else one()
        for left, right, (i, j) in psi2(mu, gs):
            for gp, A in self.family.support.items():
                aval = A.matrix[i - 1][j - 1]
                if aval.is_zero():
                    continue
                img, e1 = monomial_image(right, gp, self.rep)
                key = (
                    tuple(a + b for a, b in zip(left, img)),
                    multiply(gp, gh),
                )
                val = aval * scale0
                if e1:
                    val = val * root_of_unity(gp.r, e1)
                cur = out.get(key)
                s = val if cur is None else cur + val
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return out

    def __call__(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for (mu, g), c1 in x.items():
            for (nu, h), c2 in y.items():
                out = sg_add(out, sg_scale(self.on_terms(mu, g, nu, h), c1 * c2))
        return out


def mu1_from_family(F: SkewFormFamily) -> Mu1:
    return Mu1(F)


def cocycle_spot_check(mu1: Mu1, triples) -> bool:
    """mu_1(a, bc) + a mu_1(b, c) = mu_1(ab, c) + mu_1(a, b) c on the samples.

    The chain-map formula for mu_1 is a cocycle relative to the subalgebra
    S(V): the identity holds whenever the left argument a is a pure
    polynomial (b and c may carry group parts), which is the full range the
    Jacobi-identity argument needs.  psi_2 itself is not equivariant, so the
    identity genuinely fails for group-decorated left arguments; use
    sample_cocycle_triples to stay in the valid range."""
    rep = mu1.rep
    for a, b, c in triples:
        lhs = sg_add(mu1(a, sg_mul(b, c, rep)), sg_mul(a, mu1(b, c), rep))
        rhs = sg_add(mu1(sg_mul(a, b, rep), c), sg_mul(mu1(a, b), c, rep))
        if not sg_eq(lhs, rhs):
            return False
    return True


def sample_cocycle_triples(
    r: int, p: int, n: int, count: int, seed: int = 0, max_degree: int = 2
):
    """Deterministic low-degree sample triples for cocycle_spot_check:
    a is a pure monomial, b and c are monomial-times-group terms."""
    import random

    rng = random.Random(seed)
    G = elements(r, p, n)

    def exps():
        out = [0] * n
        for _ in range(rng.randrange(max_degree + 1)):
            out[rng.randrange(n)] += 1
        return tuple(out)

    triples = []
    for _ in range(count):
        a = sg_term(exps(), identity(r, n), Fraction(rng.randrange(1, 4)))
        b = sg_term(exps(), rng.choice(G))
        c = sg_term(exps(), rng.choice(G), Fraction(rng.randrange(1, 3)))
        triples.append((a, b, c))
    return triples


def commutator_sum(F: SkewFormFamily, i: int, j: int) -> dict:
    """sum_g a_g(v_i, v_j) gbar, as a skew group algebra element."""
    n = F.n
    out: dict = {}
    for g, A in F.support.items():
        c = A.entry(i, j)
        if not c.is_zero():
            out[((0,) * n, g)] = c
    return out


# -- forms from degree-0 semi-invariants -----------------------------------------


def forms_from_semiinvariants(
    entries, r: int, p: int, n: int, rep: RepKind, budget: int | None = DEFAULT_BUDGET
) -> SkewFormFamily:
    """Convert per-class degree-0 Hochschild data into a skew-form family.

    Each entry is (class representative g, data): for a codimension-2 class
    the data is the scalar value of f_g (its wedge part is the dual wedge of
    the perp basis of g); for a trivially-acting class it is a dict
    {(i, j): coeff} describing an invariant 2-form, 1-based i < j.  The
    result is extended by conjugation and must pass pbw_check."""
    seeds = {}
    for g, data in entries:
        fixed = fixed_space(g, rep)
        codim = n - len(fixed)
        if codim == 2:
            c = cyclo(data)
            if c.is_zero():
                continue
            perp = perp_space(g, rep)
            cols = [list(v) for v in fixed] + [list(v) for v in perp]
            B = CycloMatrix([[cols[j][i] for j in range(n)] for i in range(n)])
            Binv = B.inverse()
            x1, x2 = Binv.entries[n - 2], Binv.entries[n - 1]
            A = [
                [(x1[i] * x2[j] - x1[j] * x2[i]) * c for j in range(n)]
                for i in range(n)
            ]
            seeds[g] = SkewForm(A)
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
    support = _extend_by_conjugation(seeds, r, p, n, rep, budget)
    family = SkewFormFamily(r, p, n, rep, support)
    report = pbw_check(family, budget)
    if not report.ok:
        raise IllDefinedFamilyError(f"converted family fails pbw_check: {report.witnesses}")
    return family


# -- independent linear-system oracle ---------------------------------------------


def _generators(r: int, p: int, n: int):
    gens = [transposition(r, n, i, i + 1) for i in range(1, n)]
    if r > 1:
        gens.append(diag(r, n, [1, r - 1] + [0] * (n - 2)))
        gens.append(xi(r, n, 1, p))
    return [g for g in gens if not g.is_identity()]


def param_space_linear_oracle(
    r: int, p: int, n: int, rep: RepKind, budget: int | None = DEFAULT_BUDGET
) -> int:
    """Dimension of the space of families passing pbw_check, computed by
    assembling the equivariance and Jacobi conditions as one exact linear
    system over free per-element forms.  Independent of the Reynolds route."""
    G = elements(r, p, n, budget)
    idx = {g: i for i, g in enumerate(G)}
    pairs = list(combinations(range(n), 2))
    pair_pos = {pr: t for t, pr in enumerate(pairs)}
    nvars = len(G) * len(pairs)

    def var(g, i, j):
        """(coefficient sign, variable index) for a_g(v_{i+1}, v_{j+1})."""
        if i == j:
            return 0, None
        if i < j:
            return 1, idx[g] * len(pairs) + pair_pos[(i, j)]
        return -1, idx[g] * len(pairs) + pair_pos[(j, i)]

    rows = []
    inverses = {h: inverse(h) for h in G}
    for h in _generators(r, p, n):
        pi, t = monomial_action(h, rep)
        for g in G:
            g1 = multiply(multiply(inverses[h], g), h)
            for (i, j) in pairs:
                row: dict = {}
                s, v = var(g1, i, j)
                row[v] = cyclo(s)
                s2, v2 = var(g, pi[i] - 1, pi[j] - 1)
                if v2 is not None:
                    e = (t[i] + t[j]) % r
                    coeff = cyclo(-s2) * root_of_unity(r, e)
                    cur = row.get(v2)
                    row[v2] = cur + coeff if cur is not None else coeff
                rows.append(row)
    for g in G:
        pi, t = monomial_action(g, rep)
        for i, j, k in combinations(range(n), 3):
            for coord in range(n):
                row: dict = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    s, v = var(g, b, c)
                    if v is None:
                        continue
                    coeff = zero()
                    if coord == a:
                        coeff = coeff + s
                    if coord == pi[a] - 1:
                        e = t[a] % r
                        coeff = coeff - cyclo(s) * root_of_unity(r, e)
                    if not coeff.is_zero():
                        cur = row.get(v)
                        row[v] = cur + coeff if cur is not None else coeff
                if row:
                    rows.append(row)
    rank = len(echelon_rows(rows))
    return nvars - rank
