"""Exact arithmetic in cyclotomic fields Q(zeta_r), plus exact linear algebra.

A field element is stored as integer numerators on the power basis
1, zeta, ..., zeta^(phi(r)-1) of Q[x]/Phi_r(x) over one positive common
denominator, in lowest terms (Cohen, GTM 138, 4.2), so equality and zero
testing are exact and cheap and arithmetic costs one gcd per operation.
`power_sum` is the one rule from root-of-unity exponents to that basis:
products, JSON input, the embedding and the Galois automorphisms (one
substitution zeta -> zeta_m^s) use it, and so does the prime descent that
prints a number in the least field Q(zeta_d), d | order, that holds it, so
what is printed depends on the value only.  Mixed-order arithmetic embeds
both operands into Q(zeta_lcm); the inverse is the product of the
conjugates other than x, divided by the norm.  `echelon_rows` is the one
Gauss-Jordan reduction, of sparse rows and of `CycloMatrix` rows alike.
`add_term` and `SparseSum` are the one arithmetic of finite sums of terms,
which polynomials, forms and normal-form elements share.  All values are
immutable; every operation is a pure function.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod

Rational = Fraction


@lru_cache(maxsize=None)
def euler_phi(r: int) -> int:
    return sum(1 for k in range(1, r + 1) if gcd(k, r) == 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_r, low degree first: the product of the
    (x^d - 1)^mu(r/d) over the d | r with r/d squarefree, one pass each.
    The factors with mu = 1 come first, so each division is exact over Z."""
    if r < 1:
        raise ValueError("r must be positive")
    primes = [q for q in range(2, r + 1) if r % q == 0 and all(q % f for f in range(2, q))]
    squarefree = [s for c in range(len(primes) + 1) for s in combinations(primes, c)]
    num = [1]
    for sub in sorted(squarefree, key=lambda s: len(s) % 2):
        d = r // prod(sub)
        if len(sub) % 2 == 0:  # times x^d - 1, from the top
            num += [0] * d
            for i in reversed(range(len(num))):
                num[i] = (num[i - d] if i >= d else 0) - num[i]
        else:  # divided by x^d - 1, from the bottom: num_i = q_{i-d} - q_i
            for i in range(len(num) - d):
                num[i] = (num[i - d] if i >= d else 0) - num[i]
            del num[-d:]
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(r: int) -> tuple[tuple[int, ...], ...]:
    """zeta_r^k in the power basis, for 0 <= k < max(r, 2*phi(r)-1)."""
    phi = euler_phi(r)
    # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1})
    top = [-c for c in cyclotomic_polynomial(r)[:phi]]
    rows = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(max(r, 2 * phi - 1)):
        rows.append(tuple(cur))
        nxt = [0] + cur[:-1]
        overflow = cur[-1]
        if overflow:
            nxt = [a + overflow * b for a, b in zip(nxt, top)]
        cur = nxt
    return tuple(rows)


def _rational(q) -> Fraction | int:
    """q as an exact rational; TypeError for a float or a boolean, which
    would enter as a binary fraction or as 0 and 1."""
    if isinstance(q, (bool, float)):
        raise TypeError(f"expected an int or a Fraction, got {q!r}")
    return q if isinstance(q, (int, Fraction)) else Fraction(q)


def power_sum(exps, xs, m: int) -> tuple[int, ...]:
    """The coefficients of sum x zeta_m^e over e, x in zip(exps, xs), on the
    power basis of Q(zeta_m): integers for integer xs."""
    table = _power_table(m)
    out = [0] * euler_phi(m)
    for e, x in zip(exps, xs):
        if x:
            for t, rv in enumerate(table[e % m]):
                if rv:
                    out[t] += x * rv
    return tuple(out)


def _lowest(order: int, nums, den: int) -> "CycloNum":
    """The CycloNum sum nums[k] zeta^k / den, for den > 0, in lowest terms."""
    g = gcd(den, *nums)
    return CycloNum(order, tuple([a // g for a in nums]), den // g)


class CycloNum:
    """An element of Q(zeta_order): integer numerators `nums` on the power
    basis over one positive denominator `den`, in lowest terms."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs, den: int | None = None):
        """sum coeffs[k] zeta^k for ints or Fractions coeffs; given `den`,
        coeffs are the integer numerators over it, already in lowest terms."""
        if den is None:
            qs = [_rational(c) for c in coeffs]
            den = lcm(*(q.denominator for q in qs))
            coeffs = tuple(q.numerator * (den // q.denominator) for q in qs)
        self.order, self.nums, self.den = order, coeffs, den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q, order: int = 1) -> "CycloNum":
        q = _rational(q)
        return CycloNum(order, (q.numerator,) + (0,) * (euler_phi(order) - 1), q.denominator)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    # -- field operations --------------------------------------------------

    def _substitute(self, m: int, s: int) -> "CycloNum":
        """sum nums[k] zeta_m^(k*s) / den, the image of self under the ring
        map zeta -> zeta_m^s, for zeta_m^s a primitive root of order
        `order`: the embedding (s = m / order) or an automorphism (m = order,
        gcd(s, m) = 1).  Either keeps lowest terms, as Z[zeta_order] maps
        onto itself or into Z[zeta_m], in which it is saturated."""
        return CycloNum(m, power_sum(range(0, s * len(self.nums), s), self.nums, m), self.den)

    def embed(self, new_order: int) -> "CycloNum":
        """Embed into Q(zeta_new_order); requires order | new_order."""
        if new_order == self.order:
            return self
        if new_order % self.order:
            raise ValueError("embedding target must be a multiple of the order")
        return self._substitute(new_order, new_order // self.order)

    def _pair(self, other):
        if not isinstance(other, CycloNum):
            other = CycloNum.from_rational(other)
        if self.order == other.order:
            return self, other
        r = lcm(self.order, other.order)
        return self.embed(r), other.embed(r)

    def __add__(self, other):
        if other.__class__ is CycloNum and other.order == self.order and len(self.nums) == 1:
            (a,), d, (b,), e = self.nums, self.den, other.nums, other.den
            if d == e:
                a += b
            else:
                a, d = a * e + b * d, d * e
            g = gcd(a, d)
            return CycloNum(self.order, (a // g,), d // g)
        x, y = self._pair(other)
        d, e = x.den, y.den
        if d == e:
            return _lowest(x.order, [a + b for a, b in zip(x.nums, y.nums)], d)
        return _lowest(x.order, [a * e + b * d for a, b in zip(x.nums, y.nums)], d * e)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.order, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        return self + -cyclo(other)

    def __mul__(self, other):
        if other.__class__ is CycloNum and other.order == self.order and len(self.nums) == 1:
            a, d = self.nums[0] * other.nums[0], self.den * other.den
            g = gcd(a, d)
            return CycloNum(self.order, (a // g,), d // g)
        if not isinstance(other, CycloNum):
            q = _rational(other)
            return _lowest(self.order, [a * q.numerator for a in self.nums], self.den * q.denominator)
        x, y = self._pair(other)
        phi = len(x.nums)
        conv = [0] * (2 * phi - 1)
        for i, a in enumerate(x.nums):
            if a:
                for j, b in enumerate(y.nums):
                    if b:
                        conv[i + j] += a * b
        high = power_sum(range(phi, 2 * phi - 1), conv[phi:], x.order)
        return _lowest(x.order, [a + b for a, b in zip(conv, high)], x.den * y.den)

    __rmul__ = __mul__

    def invert(self) -> "CycloNum":
        """Multiplicative inverse by the norm: for x != 0, the product of the
        Galois conjugates sigma_k(x), k in (Z/order)^x, is a nonzero
        rational N(x), so x^-1 = prod_{k != 1} sigma_k(x) / N(x)
        (Washington, GTM 83, ch. 2)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        r, a = self.order, self.nums[0]
        if self.is_rational():
            return CycloNum(r, (self.den if a > 0 else -self.den,) + self.nums[1:], abs(a))
        rest = prod(self._substitute(r, k) for k in range(2, r) if gcd(k, r) == 1)
        norm = self * rest
        return rest * Fraction(norm.den, norm.nums[0])

    def __truediv__(self, other):
        if isinstance(other, CycloNum):
            return self * other.invert()
        return self * (1 / Fraction(_rational(other)))

    def conjugate(self) -> "CycloNum":
        """The automorphism zeta -> zeta^-1."""
        return self._substitute(self.order, -1)

    def __eq__(self, other):
        if other.__class__ is CycloNum and other.order == self.order:
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.nums[0] * other.denominator == other.numerator * self.den
        if not isinstance(other, CycloNum):
            return NotImplemented
        x, y = self._pair(other)
        return x.den == y.den and x.nums == y.nums

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"CycloNum({self!s})"

    def _least(self) -> "CycloNum":
        """self in the least Q(zeta_d), d | order, that holds it, by descent
        over the primes p of the order m, q = m/p: self = sum_{i<p} w^i y_i,
        y_i in Q(zeta_q), with w = zeta_m, zeta_m^k = w^(k mod p) zeta_q^(k div p)
        if p | q, else w = zeta_p, zeta_m^k = zeta_p^(ka) zeta_q^(kb), aq + bp = 1.
        The w^i are a basis over Q(zeta_q), except that for p not dividing q
        zeta_p^(p-1) is minus the sum of the others.  So self is in Q(zeta_q)
        iff every y_i, i > 0, equals y_{p-1} (0 if p | q), and is y_0 - y_{p-1}.
        The fields holding self are closed under gcd (Washington, GTM 83, ch. 2),
        so a failed prime stays failed and the descent ends at the least field."""
        m, nums = self.order, self.nums
        for p in range(2, m + 1):
            while m % p == 0 and all(p % f for f in range(2, p)):
                q = m // p
                a = pow(q, -1, p) if q % p else 0
                parts = [([], []) for _ in range(p)]
                for k, c in enumerate(nums):
                    i, e = (k * a % p, k * (1 - a * q) // p) if a else (k % p, k // p)
                    parts[i][0].append(e)
                    parts[i][1].append(c)
                ys = [power_sum(es, cs, q) for es, cs in parts]
                last = ys[-1] if a else (0,) * euler_phi(q)
                if any(y != last for y in ys[1:]):
                    break
                m, nums = q, [y - z for y, z in zip(ys[0], last)]
        return _lowest(m, nums, self.den)

    def __str__(self):
        if self.is_zero():
            return "0"
        x = self._least()
        bits = []
        for k, c in enumerate(x.coeffs):
            z = f"z{x.order}" + (f"^{k}" if k > 1 else "")
            if c:
                bits.append(str(c) if k == 0 else z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        return bits[0] + "".join(f" - {b[1:]}" if b.startswith("-") else f" + {b}" for b in bits[1:])

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        """Each nonzero coefficient as its own reduced num/den, in the least
        field that holds the number (`_least`)."""
        x = self._least()
        terms = [{"exp": k, "num": str(c.numerator), "den": str(c.denominator)} for k, c in enumerate(x.coeffs) if c]
        return {"order": x.order, "terms": terms}

    @staticmethod
    def from_json(data: dict) -> "CycloNum":
        r = json_int(data["order"])
        if r < 1:
            raise ValueError(f"a cyclotomic order must be positive, got {r}")
        if not all(json_int(t["den"]) for t in data["terms"]):
            raise ValueError("a coefficient has a zero denominator")
        cs = [Fraction(json_int(t["num"]), json_int(t["den"])) for t in data["terms"]]
        return CycloNum(r, power_sum([json_int(t["exp"]) for t in data["terms"]], cs, r))


def json_int(value) -> int:
    """An integer read from JSON, given as a number or a decimal string;
    ValueError for a float or a boolean, which int() would truncate or
    read as 0 and 1."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def cyclo(value, order: int = 1) -> CycloNum:
    """Coerce an int/Fraction/CycloNum to a CycloNum (of at least `order`);
    TypeError for a float or a boolean."""
    if isinstance(value, CycloNum):
        if order == value.order:
            return value
        return value.embed(lcm(value.order, order))
    return CycloNum.from_rational(value, order)


def zero(order: int = 1) -> CycloNum:
    return CycloNum(order, (0,) * euler_phi(order), 1)


def one(order: int = 1) -> CycloNum:
    return CycloNum.from_rational(1, order)


MAX_ORDER = 1024
MAX_N = 64  # the largest n of a forms file, which `pbw-check` reads with no budget


def check_order(order: int, r: int) -> int:
    """`order` if it divides lcm(2, r), which holds for every field order
    that data over G(r,p,n) needs, and is at most MAX_ORDER; ValueError
    otherwise.  Readers of outside input call it before building
    Q(zeta_order), whose power table costs time and memory quadratic in the
    order: about 17 MB at an order near MAX_ORDER."""
    if order > MAX_ORDER:
        raise ValueError(f"a cyclotomic order must be at most {MAX_ORDER}, got {order}")
    if order < 1 or lcm(2, r) % order:
        raise ValueError(f"a cyclotomic order must divide lcm(2, r) = {lcm(2, r)}, got {order}")
    return order


def root_of_unity(r: int, k: int = 1) -> CycloNum:
    """zeta_r^k, reduced to the power basis."""
    if r < 1:
        raise ValueError("r must be positive")
    return CycloNum(r, _power_table(r)[k % r], 1)


def twist(c, r: int, e: int):
    """c * zeta_r^e, and c itself when e = 0 mod r, so a family of order 1
    stays of order 1, which the rewriting core multiplies over the integers."""
    return c * root_of_unity(r, e) if e % r else c


def add_term(out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    cur = out.get(key)
    s = c if cur is None else cur + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


class SparseSum:
    """A finite sum held as `terms`, a dict from key to nonzero coefficient;
    a coefficient is a CycloNum or itself a SparseSum.  A subclass keeps its
    constructor and its product, builds a sum of its own kind from a term
    dict in `_like`, and may refuse an operand of + and - in `_check`.  The
    subclass constructor is the one zero filter, so `+` sums plainly.
    Equality compares terms only: neither side stores a zero, so equal sums
    have the same keys."""

    __slots__ = ("terms",)

    def _check(self, other) -> None:
        pass

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Every coefficient times the number c."""
        c = cyclo(c)
        return self._like({
            k: v.scale(c) if isinstance(v, SparseSum) else v * c for k, v in self.terms.items()
        })

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        theirs = other.terms
        return self.terms.keys() == theirs.keys() and all(c == theirs[k] for k, c in self.terms.items())


# ---------------------------------------------------------------------------
# Exact dense linear algebra
# ---------------------------------------------------------------------------


class CycloMatrix:
    """Dense matrix over one cyclotomic field; entries share a common order."""

    __slots__ = ("rows", "cols", "order", "entries")

    def __init__(self, entries):
        grid = [[cyclo(e) for e in row] for row in entries]
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0
        if any(len(row) != self.cols for row in grid):
            raise ValueError("matrix rows have unequal length")
        order = 1
        for row in grid:
            for e in row:
                order = lcm(order, e.order)
        self.order = order
        self.entries = tuple(
            tuple(e.embed(order) if e.order != order else e for e in row)
            for row in grid
        )

    @staticmethod
    def identity(n: int, order: int = 1) -> "CycloMatrix":
        return CycloMatrix(
            [[one(order) if i == j else zero(order) for j in range(n)] for i in range(n)]
        )

    def __eq__(self, other):
        if not isinstance(other, CycloMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __mul__(self, other):
        if isinstance(other, CycloMatrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            return CycloMatrix(
                [
                    [
                        sum(
                            (self.entries[i][k] * other.entries[k][j] for k in range(self.cols)),
                            zero(),
                        )
                        for j in range(other.cols)
                    ]
                    for i in range(self.rows)
                ]
            )
        return CycloMatrix([[e * other for e in row] for row in self.entries])

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return CycloMatrix(
            [
                [self.entries[i][j] - other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def transpose(self) -> "CycloMatrix":
        return CycloMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    # -- elimination -------------------------------------------------------

    def _rref(self):
        """(rows, pivots): the nonzero rows of the reduced row echelon form,
        dense, and their pivot columns.  A row space has one RREF, so this
        is `echelon_rows` on the rows, keyed by column."""
        rows = echelon_rows([dict(enumerate(row)) for row in self.entries])
        z = zero(self.order)
        return [[row.get(j, z) for j in range(self.cols)] for row in rows], [min(row) for row in rows]

    def rank(self) -> int:
        return len(self._rref()[1])

    def kernel_basis(self) -> list[tuple[CycloNum, ...]]:
        """Canonical kernel basis read off the RREF (one vector per free column)."""
        rows, pivots = self._rref()
        pivset = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivset:
                continue
            vec = [zero(self.order)] * self.cols
            vec[free] = one(self.order)
            for t, p in enumerate(pivots):
                vec[p] = -rows[t][free]
            basis.append(tuple(vec))
        return basis

    def column_space_basis(self) -> list[tuple[CycloNum, ...]]:
        """Canonical basis of the column space: nonzero rows of rref(M^T)."""
        return [tuple(row) for row in self.transpose()._rref()[0]]

    def inverse(self) -> "CycloMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = CycloMatrix(
            [
                list(self.entries[i]) + [one() if j == i else zero() for j in range(n)]
                for i in range(n)
            ]
        )
        rows, pivots = aug._rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return CycloMatrix([row[n:] for row in rows])

    def determinant(self) -> CycloNum:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        rows = [list(row) for row in self.entries]
        det = one(self.order)
        for col in range(n):
            src = next((i for i in range(col, n) if not rows[i][col].is_zero()), None)
            if src is None:
                return zero(self.order)
            if src != col:
                rows[col], rows[src] = rows[src], rows[col]
                det = -det
            piv = rows[col][col]
            det = det * piv
            inv = piv.invert()
            for i in range(col + 1, n):
                if not rows[i][col].is_zero():
                    f = rows[i][col] * inv
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
        return det

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"CycloMatrix[{body}]"


def echelon_rows(rows) -> list[dict]:
    """Reduced echelon form of sparse rows (dicts key -> CycloNum), pivoting
    on the smallest key of each row; returns canonical rows sorted by lead."""
    basis: list[tuple] = []  # (lead key, row dict)
    for row in rows:
        row = {k: v for k, v in row.items() if not v.is_zero()}
        for lead, brow in basis:
            if lead in row:
                f = -row[lead]
                for k, v in brow.items():
                    add_term(row, k, f * v)
        if not row:
            continue
        lead = min(row)
        inv = row[lead].invert()
        row = {k: v * inv for k, v in row.items()}
        for i, (l0, b0) in enumerate(basis):
            if lead in b0:
                f = -b0[lead]
                nb = dict(b0)
                for k, v in row.items():
                    add_term(nb, k, f * v)
                basis[i] = (l0, nb)
        basis.append((lead, row))
    basis.sort(key=lambda t: t[0])
    return [row for _, row in basis]

