"""Character-count oracle for semi-invariant dimensions.

dim (S_d(W) (x) Lambda^k(W*))^chi = (1/|H|) sum_h chi(h)^-1 h_d(evals) e_k(evals^-1),
where h_d and e_k are the complete homogeneous and elementary symmetric
functions of the eigenvalues of h on W.  Everything is exact cyclotomic
arithmetic over the eigenvalues, read off the cycle structure of the
(monomial) restriction matrices, so this counts dimensions without ever
constructing a basis -- independent of the Reynolds projector path.
"""

from fractions import Fraction
from math import lcm

from heckeforge.cyclo import one, root_of_unity, zero
from heckeforge.group import RepKind, diag, from_cycles, identity, three_cycle, xi
from heckeforge.hochschild import fixed_space, hh_component, hochschild_character
from heckeforge.polyforms import restriction_matrix
from oracles import root_exponent

F = RepKind.FAITHFUL
P = RepKind.PERMUTATION


def _eigenvalues(C):
    """Eigenvalues of a monomial matrix with root-of-unity entries: each
    cycle of length k with scalar product sigma contributes the k-th roots
    of sigma."""
    m = C.rows
    # monomial structure
    pi = [None] * m
    scal = [None] * m
    for j in range(m):
        nz = [i for i in range(m) if not C.entries[i][j].is_zero()]
        assert len(nz) == 1, "oracle needs a monomial restriction"
        pi[j] = nz[0]
        scal[j] = C.entries[nz[0]][j]
    out = []
    seen = set()
    for start in range(m):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = pi[start]
        sigma = scal[start]
        while cur != start:
            seen.add(cur)
            cyc.append(cur)
            sigma = sigma * scal[cur]
            cur = pi[cur]
        k = len(cyc)
        base = lcm(2, sigma.order)
        e = root_exponent(sigma, base)
        assert e is not None
        big = base * k
        out.extend(root_of_unity(big, e + base * j) for j in range(k))
    return out


def _complete_homogeneous(lams, d):
    coeffs = [one()] + [zero() for _ in range(d)]
    for lam in lams:
        powers = [one()]
        for _ in range(d):
            powers.append(powers[-1] * lam)
        new = [zero() for _ in range(d + 1)]
        for e in range(d + 1):
            acc = zero()
            for j in range(e + 1):
                acc = acc + coeffs[j] * powers[e - j]
            new[e] = acc
        coeffs = new
    return coeffs[d]


def _elementary(lams, k):
    coeffs = [one()]
    for lam in lams:
        new = [zero() for _ in range(len(coeffs) + 1)]
        for e, c in enumerate(coeffs):
            new[e] = new[e] + c
            new[e + 1] = new[e + 1] + c * lam
        coeffs = new
    return coeffs[k] if k < len(coeffs) else zero()


def character_dimension(subgroup, chi, rep, subspace, d, k):
    total = zero()
    for h in subgroup:
        C = restriction_matrix(h, rep, subspace)
        lams = _eigenvalues(C)
        hd = _complete_homogeneous(lams, d)
        ek = _elementary([lam.invert() for lam in lams], k)
        total = total + chi(h).invert() * hd * ek
    val = total * Fraction(1, len(subgroup))
    assert val.is_rational()
    q = val.coeffs[0]
    assert q.denominator == 1
    return int(q)


def _check_class(g, rep, p, m, degrees):
    chi = hochschild_character(g, rep, p)
    fixed = fixed_space(g, rep)
    codim = g.n - len(fixed)
    k = m - codim
    comp = hh_component(g, rep, m, max(degrees), p)
    for d in degrees:
        counted = character_dimension(list(chi.subgroup), chi, rep, fixed, d, k)
        assert counted == comp.dims_by_degree[d], (g, d, counted, comp.dims_by_degree)


def test_oracle_neg_transposition_wb4():
    g = from_cycles(2, 4, [(1, 2)], exps=(0, 1, 0, 0))
    _check_class(g, F, 1, 2, range(7))


def test_oracle_opposed_diagonal_g334():
    _check_class(diag(3, 4, (1, 2, 0, 0)), F, 3, 2, range(7))


def test_oracle_three_cycle_g314():
    _check_class(three_cycle(3, 4, 1, 2, 3), F, 1, 2, range(6))


def test_oracle_identity_wedge_g224():
    _check_class(identity(2, 4), F, 2, 2, range(6))


def test_oracle_permutation_diagonal_g313():
    _check_class(xi(3, 3, 3), P, 1, 2, range(5))


def test_oracle_higher_cohomological_degree():
    _check_class(three_cycle(2, 4, 1, 2, 3), F, 1, 3, range(5))
