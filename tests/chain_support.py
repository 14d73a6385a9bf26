"""Shared independent oracle for the bar-to-Koszul chain-map identity:
both sides of d_2 o psi_2 = psi_1 o delta_2 expanded symbolically into
Koszul-degree-1 coordinates (left exps, right exps, variable index), with
the degree-1 chain map psi_1 itself, which the library does not need."""

from collections import defaultdict

from heckeforge.hecke import psi2


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


def _add(acc, key, c):
    acc[key] += c
    if not acc[key]:
        del acc[key]


def d2_psi2(k, m):
    acc = defaultdict(int)
    for L, R, (i, j) in psi2(k, m):

        def bump(e, t):
            e = list(e)
            e[t - 1] += 1
            return tuple(e)

        _add(acc, (bump(L, i), R, j), 1)
        _add(acc, (L, bump(R, i), j), -1)
        _add(acc, (bump(L, j), R, i), -1)
        _add(acc, (L, bump(R, j), i), 1)
    return dict(acc)


def psi1_delta2(k, m):
    acc = defaultdict(int)
    for L, R, i in psi1(m):
        _add(acc, (tuple(a + b for a, b in zip(k, L)), R, i), 1)
    for L, R, i in psi1(tuple(a + b for a, b in zip(k, m))):
        _add(acc, (L, R, i), -1)
    for L, R, i in psi1(k):
        _add(acc, (L, tuple(a + b for a, b in zip(R, m)), i), 1)
    return dict(acc)
