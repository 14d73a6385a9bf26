"""Per-conjugacy-class degree-2 Hochschild components of S(V)#G(r,p,n).

The brute-force path realizes each class contribution as the chi_g-semi-
invariant part of S(V^g) (x) Lambda^{m-codim}((V^g)*) over the centralizer
Z(g), computed degree by degree with the Reynolds projector.  V^g is read
off the cycles of g as integers (`fixed_basis`): one vector per cycle whose
phases sum to 0 mod r, with root-of-unity entries on the cycle's support,
so Z(g) permutes the basis up to phases and the wedge duals are read off
the same integers, dual to V^g along im(g - 1).  No matrix is reduced,
inverted or expanded on this path; `fixed_space` builds cyclotomic
vectors from the same data for the dense references.  The closed-form
path emits free-module descriptions (base generator degrees plus module
generator degrees) for the known class cases, telling classes apart by
(a,k)-cycle type, and `compare` checks the two against each other at
every polynomial degree up to a bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import lcm

from .cyclo import root_of_unity, zero
from .group import (
    DEFAULT_BUDGET,
    GroupElement,
    RepKind,
    centralizer,
    conjugacy_classes,
    cycle_type,
    det_exponent,
    from_cycles,
    is_three_cycle,
    monomial_action,
    perm_cycles,
    three_cycle,
)
from .polyforms import (
    CharacterTable,
    PolyForm,
    reynolds_semiinvariant_basis,
    subspace_action,
    subspace_actions,
)


class NotApplicableError(ValueError):
    """Raised when a closed-form catalog is requested outside its range."""


class FilterDiscrepancyError(RuntimeError):
    """A class skipped by the determinant filter has nonzero semi-invariants."""


# -- fixed spaces --------------------------------------------------------------


@lru_cache(maxsize=4096)
def fixed_basis(g: GroupElement, rep: RepKind) -> tuple:
    """V^g = ker(g - 1) as integer data: one tuple of (coordinate, t) pairs
    per basis vector u, 0-based and sorted, meaning u = sum zeta_r^t v_i.

    g sends v_i to zeta_r^{t_i} v_{pi(i)}, so a cycle c of pi carries one
    fixed vector iff sum_{i in c} t_i = 0 mod r: u_m = 1 at m = max(c) and
    u_{pi(i)} = zeta_r^{t_i} u_i around the cycle.  Ordered by m, these are
    the reduced echelon kernel basis of g - 1.  The centralizer permutes
    the cycles of g, so it permutes this basis up to powers of zeta_r."""
    pi, t = monomial_action(g, rep)
    out = []
    for cyc in sorted(perm_cycles(pi), key=max):
        if sum(t[i - 1] for i in cyc) % g.r:
            continue
        k = cyc.index(max(cyc))
        walk = cyc[k:] + cyc[:k]  # from m, following pi
        phases = accumulate((t[i - 1] for i in walk[:-1]), initial=0)
        out.append(tuple(sorted((i - 1, e % g.r) for i, e in zip(walk, phases))))
    return tuple(out)


# bench/tracer.py binds this function by name
def fixed_space(g: GroupElement, rep: RepKind):
    """`fixed_basis` as vectors of cyclotomic numbers."""
    r, n = g.r, g.n
    out = []
    for u in fixed_basis(g, rep):
        vec = [zero(r)] * n
        for i, e in u:
            vec[i] = root_of_unity(r, e)
        out.append(tuple(vec))
    return out


def _is_identity_action(pi, texp) -> bool:
    """True iff a (pi, texp) pair of `subspace_action`, with texp reduced or
    rescaled, is the identity on the subspace."""
    return not any(texp) and all(j == k for k, j in enumerate(pi))


# -- Hochschild character ------------------------------------------------------


def hochschild_character(g: GroupElement, rep: RepKind, p: int = 1) -> CharacterTable:
    """chi_g(h) = det of h restricted to (V^g)-perp, for h in Z_{G(r,p,n)}(g),
    computed as det(h|V) / det(h|V^g) from the monomial action on V^g and
    held as exponents mod lcm(2, r).  One table per (g, rep, p) is cached,
    however p is passed, so its verification and action data serve every
    degree."""
    return _hochschild_character(g, rep, p)


@lru_cache(maxsize=4096)
def _hochschild_character(g: GroupElement, rep: RepKind, p: int) -> CharacterTable:
    # V = V^g (+) im(g - 1) with both summands Z(g)-stable, so
    # det(h | perp) = det(h | V) / det(h | V^g).  det(h | V) is
    # sign(h.perm) zeta_r^{sum h.exps}, or sign(h.perm) under the permutation
    # action; h permutes the fixed basis monomially, so
    # det(h | V^g) = sign(pi) zeta_r^{sum texp}.  Both are `det_exponent`s
    # mod F = lcm(2, r).
    # The fixed-basis pairs are kept on the table for the Reynolds projector
    # and the det filter.
    r = g.r
    Z = centralizer(g, p)
    fixed = fixed_basis(g, rep)
    pairs = subspace_actions(Z, rep, fixed)
    faithful = rep == RepKind.FAITHFUL
    exps = {
        h: det_exponent(h.perm, h.exps if faithful else (), r) - det_exponent(pi, texp, r)
        for h, (pi, texp) in zip(Z, pairs)
    }
    chi = CharacterTable(Z, lcm(2, r), exps)
    chi.keep_actions(rep, fixed, pairs)
    return chi


def _fixes_space_pointwise(h: GroupElement, rep: RepKind, vectors) -> bool:
    """True iff h fixes every vector of an integer basis (so all of their
    span); the basis must be permuted monomially by h, as `fixed_basis` is
    by the centralizer."""
    return _is_identity_action(*subspace_action(h, rep, vectors))


# -- class components ----------------------------------------------------------


@dataclass
class ClassComponent:
    rep: GroupElement
    repkind: RepKind
    codim: int
    fixed_basis: tuple
    chi: CharacterTable
    dims_by_degree: dict[int, int]
    basis_by_degree: dict[int, list[PolyForm]] | None = None

    def is_zero(self) -> bool:
        return not any(self.dims_by_degree.values())

    def to_json(self, source: str = "brute", match: bool | None = None) -> dict:
        out = {
            "class": self.rep.to_json(),
            "codim": self.codim,
            "dims": {str(d): v for d, v in sorted(self.dims_by_degree.items())},
            "source": source,
        }
        if match is not None:
            out["match"] = match
        return out


def hh_component(
    g: GroupElement,
    rep: RepKind,
    m: int,
    max_poly_degree: int,
    p: int = 1,
    include_basis: bool = False,
) -> ClassComponent:
    """The g-class contribution in cohomological degree m:
    (S(V^g) (x) Lambda^{m - codim V^g}((V^g)*))^{chi_g}, per polynomial degree
    up to max_poly_degree.  A negative exterior power gives the zero space."""
    fixed = fixed_basis(g, rep)
    codim = g.n - len(fixed)
    k = m - codim
    chi = hochschild_character(g, rep, p)
    dims: dict[int, int] = {}
    bases: dict[int, list[PolyForm]] = {}
    if k < 0 or k > len(fixed):
        dims = {d: 0 for d in range(max_poly_degree + 1)}
        return ClassComponent(g, rep, codim, fixed, chi, dims, bases if include_basis else None)
    for d in range(max_poly_degree + 1):
        basis = reynolds_semiinvariant_basis(chi, rep, d, k, fixed)
        dims[d] = len(basis)
        if include_basis:
            bases[d] = basis
    return ClassComponent(g, rep, codim, fixed, chi, dims, bases if include_basis else None)


def _passes_det_filter(g: GroupElement, rep: RepKind, p: int) -> bool:
    """Necessary conditions for HH^2(g) != 0: det(g) = 1,
    codim V^g in {0, 2}, and no centralizer element acting as the identity
    on V^g with determinant != 1."""
    if det_exponent(*monomial_action(g, rep), g.r):
        return False
    fixed = fixed_basis(g, rep)
    codim = g.n - len(fixed)
    if codim not in (0, 2):
        return False
    # on an h fixing V^g pointwise, det(h | V^g) = 1, so chi_g(h) = det(h)
    chi = hochschild_character(g, rep, p)
    for pi, texp, e in chi.actions(rep, fixed):
        if e and _is_identity_action(pi, texp):
            return False
    return True


def hh2_total(
    r: int,
    p: int,
    n: int,
    rep: RepKind,
    max_poly_degree: int,
    include_basis: bool = False,
    validate_skipped: bool = False,
    budget: int | None = DEFAULT_BUDGET,
) -> list[ClassComponent]:
    """All nonzero HH^2 class components, one per conjugacy class of G(r,p,n).

    Classes failing the determinant/codimension filter are skipped; with
    validate_skipped=True each skipped class is recomputed at degree <= 2
    and a FilterDiscrepancyError is raised if anything nonzero shows up."""
    out = []
    for cls in conjugacy_classes(r, p, n, budget):
        g = cls.rep
        if _passes_det_filter(g, rep, p):
            comp = hh_component(g, rep, 2, max_poly_degree, p, include_basis)
            if not comp.is_zero():
                out.append(comp)
        elif validate_skipped:
            comp = hh_component(g, rep, 2, min(2, max_poly_degree), p)
            if not comp.is_zero():
                raise FilterDiscrepancyError(
                    f"class of {g!r} was skipped by the determinant filter "
                    f"but has nonzero semi-invariants: {comp.dims_by_degree}"
                )
    return out


# -- free module descriptions ---------------------------------------------------


@dataclass(frozen=True)
class FreeModuleDescription:
    """A free module over C[base generators] on the listed module generators,
    recorded by degrees only.  Dimension in degree d is the number of pairs
    (module generator, base monomial) with degrees summing to d."""

    base_generator_degrees: tuple[int, ...]
    module_generator_degrees: tuple[int, ...]

    def __post_init__(self):
        if any(b <= 0 for b in self.base_generator_degrees):
            raise ValueError("base generator degrees must be positive")
        if any(g < 0 for g in self.module_generator_degrees):
            raise ValueError("module generator degrees must be nonnegative")

    def base_monomial_count(self, d: int) -> int:
        if d < 0:
            return 0
        ways = [0] * (d + 1)
        ways[0] = 1
        for b in self.base_generator_degrees:
            for x in range(b, d + 1):
                ways[x] += ways[x - b]
        return ways[d]

    def dimension(self, d: int) -> int:
        return sum(self.base_monomial_count(d - g) for g in self.module_generator_degrees)

    def dims_up_to(self, D: int) -> dict[int, int]:
        return {d: self.dimension(d) for d in range(D + 1)}


ZERO_MODULE = FreeModuleDescription((), ())


@dataclass(frozen=True)
class CatalogEntry:
    case: str
    module: FreeModuleDescription

    def dims_up_to(self, D: int) -> dict[int, int]:
        return self.module.dims_up_to(D)


# -- closed-form builders (faithful action) -------------------------------------


def _derivation_degrees(r: int, p: int, n: int) -> list[int]:
    degs = [(j - 1) * r + 1 for j in range(1, n)]
    degs.append((n - 1) * (r - 1) if p == r else (n - 1) * r + 1)
    return degs


def identity_component_module(r: int, p: int, n: int) -> FreeModuleDescription:
    """(S(V) (x) Lambda^2 V*)^G as a free module over the invariant ring on
    the pairwise wedges of the basic derivations."""
    base = tuple([i * r for i in range(1, n)] + [n * r // p])
    degs = _derivation_degrees(r, p, n)
    gens = tuple(
        sorted(degs[i] + degs[j] for i in range(n) for j in range(i + 1, n))
    )
    return FreeModuleDescription(base, gens)


def three_cycle_component_module(r: int, p: int, n: int) -> FreeModuleDescription:
    """The (1,2,3)-class component: free over C[f_0^r, f_1..f_{n'-1}, f_{n'}^m]
    on the monomials f_0^i f_{n'}^j with i = 2 + 3jr/p mod r."""
    if n < 4:
        raise NotApplicableError("three-cycle closed form needs n >= 4")
    np_ = n - 3
    m = p // 3 if p % 3 == 0 else p
    fnp_deg = np_ * r // p
    base = tuple([r] + [i * r for i in range(1, np_)] + [m * fnp_deg])
    gens = tuple(
        sorted(
            i + j * fnp_deg
            for i in range(r)
            for j in range(m)
            if (i - 2 - 3 * j * r // p) % r == 0
        )
    )
    return FreeModuleDescription(base, gens)


def neg_transposition_component_module(r: int, p: int, n: int) -> FreeModuleDescription:
    """The (1,-2)-class component for r = 2p: free over
    C[f_1..f_{n'-1}, f_{n'}^r] on the f_{n'}^i with 2 = -2ir/p mod r.
    The congruence can be empty, in which case the module is zero."""
    if r != 2 * p:
        raise NotApplicableError("the (1,-2) component is nonzero only for r = 2p")
    np_ = n - 2
    fnp_deg = np_ * r // p
    gens = tuple(
        sorted(i * fnp_deg for i in range(r) if (2 + 2 * (r // p) * i) % r == 0)
    )
    if not gens:
        return ZERO_MODULE
    base = tuple([i * r for i in range(1, np_)] + [r * fnp_deg])
    return FreeModuleDescription(base, gens)


def opposed_diagonal_component_module(r: int, n: int) -> FreeModuleDescription:
    """The xi_1^l xi_2^-l class component in G(r,r,n), l != r/2: free over
    C[f_1..f_{n'-1}, f_{n'}^r] on f_{n'}^{r-1}, with f_{n'} = v_3...v_n."""
    if n < 3:
        raise NotApplicableError("needs n >= 3")
    np_ = n - 2
    base = tuple([i * r for i in range(1, np_)] + [r * np_])
    return FreeModuleDescription(base, ((r - 1) * np_,))


# -- closed-form builders (nonfaithful action) ----------------------------------


def permutation_diagonal_module(blocks) -> FreeModuleDescription:
    """Diagonal-class component under the permutation representation, with
    eigenvalue multiplicities `blocks`: free over the product of symmetric
    invariant rings on the pairwise wedges of per-block basic derivations of
    degrees 0..n_i - 1 (the corrected symmetric-group exponents)."""
    base = tuple(sorted(d for b in blocks for d in range(1, b + 1)))
    derivs = [(bi, j) for bi, b in enumerate(blocks) for j in range(b)]
    gens = tuple(
        sorted(
            derivs[s][1] + derivs[t][1]
            for s in range(len(derivs))
            for t in range(s + 1, len(derivs))
        )
    )
    return FreeModuleDescription(base, gens)


def permutation_three_cycle_module(tail_blocks) -> FreeModuleDescription:
    """Diagonal-times-3-cycle component under the permutation representation:
    the polynomial ring C[f_0, per-block elementary symmetrics]."""
    base = tuple(sorted([1] + [d for b in tail_blocks for d in range(1, b + 1)]))
    return FreeModuleDescription(base, (0,))


def _diag_blocks(exps) -> tuple[int, ...]:
    counts: dict[int, int] = {}
    for a in exps:
        counts[a] = counts.get(a, 0) + 1
    return tuple(sorted(counts.values(), reverse=True))


# -- catalog assembly ------------------------------------------------------------


def closed_form_catalog(
    r: int, p: int, n: int, rep: RepKind, budget: int | None = DEFAULT_BUDGET
) -> dict[GroupElement, CatalogEntry]:
    """Closed-form HH^2 description for every conjugacy class of G(r,p,n).

    Faithful action: requires n >= 4.  Permutation action: requires p = 1
    and n >= 3 (for p > 1 the centralizer structure differs at small n)."""
    if rep == RepKind.FAITHFUL:
        if n < 4:
            raise NotApplicableError("faithful closed forms are stated for n >= 4")
    else:
        if p != 1:
            raise NotApplicableError("nonfaithful closed forms implemented for p = 1")
        if n < 3:
            raise NotApplicableError("nonfaithful closed forms need n >= 3")
    out = {}
    for cls in conjugacy_classes(r, p, n, budget):
        if rep == RepKind.FAITHFUL:
            out[cls.rep] = _faithful_entry(r, p, n, cls.rep)
        else:
            out[cls.rep] = _permutation_entry(r, n, cls.rep)
    return out


def _faithful_entry(r: int, p: int, n: int, g: GroupElement) -> CatalogEntry:
    if g.is_identity():
        return CatalogEntry("identity", identity_component_module(r, p, n))
    if det_exponent(g.perm, g.exps, r):
        return CatalogEntry("det_ne_1", ZERO_MODULE)
    if g.is_diagonal():
        nonzero = [a for a in g.exps if a]
        if len(nonzero) != 2:
            return CatalogEntry("diagonal_codim_ne_2", ZERO_MODULE)
        l1 = nonzero[0]
        if p != r:
            return CatalogEntry("opposed_diagonal_p_ne_r", ZERO_MODULE)
        if 2 * l1 % r == 0:
            return CatalogEntry("opposed_diagonal_half_turn", ZERO_MODULE)
        return CatalogEntry("opposed_diagonal", opposed_diagonal_component_module(r, n))
    # n >= 4, so xi_4 centralizes (1,2,3) and xi_3 centralizes xi_2^{r/2} (1,2):
    # neither class splits in G(r,p,n), and cycle type decides membership
    if is_three_cycle(g.perm):
        if cycle_type(g) == cycle_type(three_cycle(r, n, 1, 2, 3)):
            return CatalogEntry("three_cycle", three_cycle_component_module(r, p, n))
        return CatalogEntry("three_cycle_unmatched", ZERO_MODULE)
    if sorted(map(len, perm_cycles(g.perm))) == [1] * (n - 2) + [2]:
        if r % 2 == 0:
            neg2 = from_cycles(r, n, [(1, 2)], exps=[0, r // 2] + [0] * (n - 2))
            if cycle_type(g) == cycle_type(neg2):
                if r != 2 * p:
                    return CatalogEntry("neg_transposition_r_ne_2p", ZERO_MODULE)
                return CatalogEntry(
                    "neg_transposition", neg_transposition_component_module(r, p, n)
                )
        return CatalogEntry("transposition_other", ZERO_MODULE)
    return CatalogEntry("other", ZERO_MODULE)


def _permutation_entry(r: int, n: int, g: GroupElement) -> CatalogEntry:
    if g.is_diagonal():
        return CatalogEntry("diagonal", permutation_diagonal_module(_diag_blocks(g.exps)))
    if is_three_cycle(g.perm):
        tail = [i for i in range(1, n + 1) if g.perm[i - 1] == i]
        blocks = _diag_blocks(tuple(g.exps[i - 1] for i in tail)) if tail else ()
        return CatalogEntry("diagonal_three_cycle", permutation_three_cycle_module(blocks))
    return CatalogEntry("other", ZERO_MODULE)


# -- comparison -------------------------------------------------------------------


@dataclass
class ComparisonRow:
    rep: GroupElement
    case: str
    brute_dims: dict[int, int]
    closed_dims: dict[int, int]

    @property
    def match(self) -> bool:
        return self.brute_dims == self.closed_dims


@dataclass
class ComparisonReport:
    rows: list[ComparisonRow] = field(default_factory=list)

    @property
    def mismatches(self) -> list[ComparisonRow]:
        return [row for row in self.rows if not row.match]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def compare(
    brute: list[ClassComponent],
    catalog: dict[GroupElement, CatalogEntry],
    D: int,
) -> ComparisonReport:
    """Per class and degree <= D, equality of brute-force and closed-form
    dimensions.  Classes skipped by the brute-force filter count as zero."""
    by_rep = {comp.rep: comp for comp in brute}
    report = ComparisonReport()
    for rep_elem, entry in catalog.items():
        comp = by_rep.get(rep_elem)
        brute_dims = (
            {d: comp.dims_by_degree.get(d, 0) for d in range(D + 1)}
            if comp is not None
            else {d: 0 for d in range(D + 1)}
        )
        report.rows.append(
            ComparisonRow(rep_elem, entry.case, brute_dims, entry.dims_up_to(D))
        )
    extra = set(by_rep) - set(catalog)
    for rep_elem in sorted(extra, key=GroupElement.sort_key):
        comp = by_rep[rep_elem]
        report.rows.append(
            ComparisonRow(
                rep_elem,
                "missing_from_catalog",
                {d: comp.dims_by_degree.get(d, 0) for d in range(D + 1)},
                {d: 0 for d in range(D + 1)},
            )
        )
    return report
