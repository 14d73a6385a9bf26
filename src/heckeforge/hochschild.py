"""Per-conjugacy-class degree-2 Hochschild components of S(V)#G(r,p,n).

The brute-force path realizes each class contribution as the chi_g-semi-
invariant part of S(V^g) (x) Lambda^{m-codim}((V^g)*) over the centralizer
Z(g), computed degree by degree with the Reynolds projector.  The closed-
form path emits free-module descriptions (base generator degrees plus
module generator degrees) for the known class cases, and `compare` checks
the two against each other at every polynomial degree up to a bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import lcm

from .cyclo import CycloMatrix
from .group import (
    DEFAULT_BUDGET,
    ConjClass,
    GroupElement,
    RepKind,
    centralizer,
    check_budget,
    conjugacy_classes,
    det,
    from_cycles,
    monomial_action,
    perm_cycles,
    perm_sign,
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


# -- fixed and perpendicular spaces ------------------------------------------


@lru_cache(maxsize=4096)
def _spaces(g: GroupElement, rep: RepKind):
    from .group import matrix

    M = matrix(g, rep)
    D = M - CycloMatrix.identity(g.n, M.order)
    return tuple(D.kernel_basis()), tuple(D.column_space_basis())


def fixed_space(g: GroupElement, rep: RepKind):
    """Canonical basis of V^g = ker(g - 1)."""
    return list(_spaces(g, rep)[0])


def perp_space(g: GroupElement, rep: RepKind):
    """Canonical basis of (V^g)-perp = im(g - 1); valid since g is normal."""
    return list(_spaces(g, rep)[1])


def acts_trivially(g: GroupElement, rep: RepKind) -> bool:
    pi, t = monomial_action(g, rep)
    return pi == tuple(range(1, g.n + 1)) and all(x % g.r == 0 for x in t)


def _reynolds_subspace(fixed, n):
    """The Reynolds subspace argument for V^g: None when the fixed basis is
    the coordinate basis, so the ambient action is used."""
    if len(fixed) == n and all(
        (j == i) != c.is_zero() and (j != i or c == 1)
        for i, v in enumerate(fixed)
        for j, c in enumerate(v)
    ):
        return None
    return fixed


def _is_identity_action(pi, texp) -> bool:
    """True iff a (pi, texp) pair of `subspace_action`, with texp reduced or
    rescaled, is the identity on the subspace."""
    return not any(texp) and all(j == k for k, j in enumerate(pi))


# -- Hochschild character ------------------------------------------------------


def hochschild_character(
    g: GroupElement, rep: RepKind, p: int = 1, budget: int | None = DEFAULT_BUDGET
) -> CharacterTable:
    """chi_g(h) = det of h restricted to (V^g)-perp, for h in Z_{G(r,p,n)}(g),
    computed as det(h|V) / det(h|V^g) from the monomial action on V^g and
    held as exponents mod lcm(2, r).  One table per (g, rep, p) is cached,
    so its verification and action data serve every degree."""
    centralizer(g, p, budget)  # budget check before using the cache
    return _hochschild_character(g, rep, p)


@lru_cache(maxsize=4096)
def _hochschild_character(g: GroupElement, rep: RepKind, p: int) -> CharacterTable:
    # V = V^g (+) im(g - 1) with both summands Z(g)-stable, so
    # det(h | perp) = det(h | V) / det(h | V^g).  det(h | V) is
    # sign(h.perm) zeta_r^{sum h.exps}, or sign(h.perm) under the permutation
    # action; h permutes the fixed basis monomially, so
    # det(h | V^g) = sign(pi) zeta_r^{sum texp}.  Exponents are kept mod
    # F = lcm(2, r), with the sign as F/2.
    # The fixed-basis pairs are kept on the table for the Reynolds projector
    # and the det filter.
    r = g.r
    F = lcm(2, r)
    Z = centralizer(g, p, None)
    fixed = fixed_space(g, rep)
    pairs = subspace_actions(Z, rep, fixed)
    exps = {}
    for h, (pi, texp) in zip(Z, pairs):
        e = -sum(texp)
        if rep == RepKind.FAITHFUL:
            e += sum(h.exps)
        e *= F // r
        if perm_sign(h.perm) != perm_sign(tuple(j + 1 for j in pi)):
            e += F // 2
        exps[h] = e
    chi = CharacterTable.from_exponents(Z, F, exps)
    chi.keep_actions(rep, _reynolds_subspace(fixed, g.n), pairs)
    return chi


def _fixes_space_pointwise(h: GroupElement, rep: RepKind, vectors) -> bool:
    """True iff h fixes every listed vector (so all of their span); the
    vectors must be permuted monomially by h, as fixed-space bases are by
    the centralizer."""
    return _is_identity_action(*subspace_action(h, rep, vectors))


# -- class components ----------------------------------------------------------


@dataclass
class ClassComponent:
    rep: GroupElement
    repkind: RepKind
    codim: int
    fixed_basis: list
    perp_basis: list
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
    budget: int | None = DEFAULT_BUDGET,
) -> ClassComponent:
    """The g-class contribution in cohomological degree m:
    (S(V^g) (x) Lambda^{m - codim V^g}((V^g)*))^{chi_g}, per polynomial degree
    up to max_poly_degree.  A negative exterior power gives the zero space."""
    fixed = fixed_space(g, rep)
    perp = perp_space(g, rep)
    codim = g.n - len(fixed)
    k = m - codim
    chi = hochschild_character(g, rep, p, budget)
    dims: dict[int, int] = {}
    bases: dict[int, list[PolyForm]] = {}
    if k < 0 or k > len(fixed):
        dims = {d: 0 for d in range(max_poly_degree + 1)}
        return ClassComponent(g, rep, codim, fixed, perp, chi, dims, bases if include_basis else None)
    subspace = _reynolds_subspace(fixed, g.n)
    for d in range(max_poly_degree + 1):
        basis = reynolds_semiinvariant_basis(
            list(chi.subgroup), chi, rep, d, k, subspace=subspace, complement=perp
        )
        dims[d] = len(basis)
        if include_basis:
            bases[d] = basis
    return ClassComponent(g, rep, codim, fixed, perp, chi, dims, bases if include_basis else None)


def _passes_det_filter(g: GroupElement, rep: RepKind, p: int, budget) -> bool:
    """Necessary conditions for HH^2(g) != 0: det(g) = 1,
    codim V^g in {0, 2}, and no centralizer element acting as the identity
    on V^g with determinant != 1."""
    if not det(g, rep) == 1:
        return False
    fixed = fixed_space(g, rep)
    codim = g.n - len(fixed)
    if codim not in (0, 2):
        return False
    # on an h fixing V^g pointwise, det(h | V^g) = 1, so chi_g(h) = det(h)
    chi = hochschild_character(g, rep, p, budget)
    for pi, texp, e in chi.actions(rep, _reynolds_subspace(fixed, g.n)):
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
    check_budget(r, p, n, budget)
    out = []
    for cls in conjugacy_classes(r, p, n, budget):
        g = cls.rep
        if _passes_det_filter(g, rep, p, budget):
            comp = hh_component(g, rep, 2, max_poly_degree, p, include_basis, budget)
            if not comp.is_zero():
                out.append(comp)
        elif validate_skipped:
            comp = hh_component(g, rep, 2, min(2, max_poly_degree), p, False, budget)
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

    def dimension_by_enumeration(self, d: int) -> int:
        """Independent oracle: directly enumerate (generator, base-monomial)
        pairs of total degree d."""
        count = 0
        base = self.base_generator_degrees

        def mono_count(idx: int, remaining: int) -> int:
            if remaining == 0:
                return 1
            if idx == len(base):
                return 0
            total = 0
            step = base[idx]
            k = 0
            while k * step <= remaining:
                total += mono_count(idx + 1, remaining - k * step)
                k += 1
            return total

        for gdeg in self.module_generator_degrees:
            if gdeg <= d:
                count += mono_count(0, d - gdeg)
        return count

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
            out[cls.rep] = _faithful_entry(r, p, n, cls)
        else:
            out[cls.rep] = _permutation_entry(r, n, cls)
    return out


def _faithful_entry(r: int, p: int, n: int, cls: ConjClass) -> CatalogEntry:
    g = cls.rep
    if g.is_identity():
        return CatalogEntry("identity", identity_component_module(r, p, n))
    if not det(g, RepKind.FAITHFUL) == 1:
        return CatalogEntry("det_ne_1", ZERO_MODULE)
    cycles = perm_cycles(g.perm)
    lengths = sorted(len(c) for c in cycles)
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
    if lengths == [1] * (n - 3) + [3]:
        if three_cycle(r, n, 1, 2, 3) in cls.members:
            return CatalogEntry("three_cycle", three_cycle_component_module(r, p, n))
        return CatalogEntry("three_cycle_unmatched", ZERO_MODULE)
    if lengths == [1] * (n - 2) + [2]:
        if r % 2 == 0:
            neg2 = from_cycles(r, n, [(1, 2)], exps=[0, r // 2] + [0] * (n - 2))
            if neg2 in cls.members:
                return CatalogEntry(
                    "neg_transposition", neg_transposition_component_module(r, p, n)
                )
        return CatalogEntry("transposition_other", ZERO_MODULE)
    return CatalogEntry("other", ZERO_MODULE)


def _permutation_entry(r: int, n: int, cls: ConjClass) -> CatalogEntry:
    g = cls.rep
    if g.is_diagonal():
        return CatalogEntry("diagonal", permutation_diagonal_module(_diag_blocks(g.exps)))
    cycles = perm_cycles(g.perm)
    lengths = sorted(len(c) for c in cycles)
    if lengths == [1] * (n - 3) + [3]:
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
