"""Exact arithmetic in cyclotomic fields Q(zeta_r), plus exact linear algebra.

A field element is stored in the power basis 1, zeta, ..., zeta^(phi(r)-1)
of Q[x]/Phi_r(x), so equality and zero testing are exact and cheap.
Mixed-order arithmetic embeds both operands into Q(zeta_lcm) before
operating.  All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Rational = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


@lru_cache(maxsize=None)
def euler_phi(r: int) -> int:
    return sum(1 for k in range(1, r + 1) if gcd(k, r) == 1)


def _poly_divmod(num, den):
    """Exact division of Fraction coefficient lists (low degree first)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [_F0] * max(len(num) - dd, 0)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] / lead
        if c:
            quot[k - dd] = c
            for i, dc in enumerate(den):
                num[k - dd + i] -= c * dc
    while num and not num[-1]:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_r, low degree first; computed as
    (x^r - 1) / prod of Phi_d over proper divisors d of r."""
    if r < 1:
        raise ValueError("r must be positive")
    num = [_F0] * (r + 1)
    num[0], num[r] = -_F1, _F1
    for d in range(1, r):
        if r % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            if rem:
                raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(r: int) -> tuple[tuple[Fraction, ...], ...]:
    """zeta_r^k in the power basis, for 0 <= k < max(r, 2*phi(r)-1)."""
    phi = euler_phi(r)
    phi_poly = cyclotomic_polynomial(r)
    # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1})
    top = [-c for c in phi_poly[:phi]]
    rows = []
    cur = [_F0] * phi
    cur[0] = _F1
    count = max(r, 2 * phi - 1)
    for _ in range(count):
        rows.append(tuple(cur))
        nxt = [_F0] + cur[:-1]
        overflow = cur[-1]
        if overflow:
            nxt = [a + overflow * b for a, b in zip(nxt, top)]
        cur = nxt
    return tuple(rows)


@lru_cache(maxsize=None)
def _zero_coeffs(r: int) -> tuple[Fraction, ...]:
    return (_F0,) * euler_phi(r)


def _reduce_power(r: int, k: int) -> tuple[Fraction, ...]:
    return _power_table(r)[k % r]


class CycloNum:
    """An element of Q(zeta_order) in canonical power-basis coordinates."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        self.order = order
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q, order: int = 1) -> "CycloNum":
        c = list(_zero_coeffs(order))
        c[0] = Fraction(q)
        return CycloNum(order, tuple(c))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    # -- field operations --------------------------------------------------

    def embed(self, new_order: int) -> "CycloNum":
        """Embed into Q(zeta_new_order); requires order | new_order."""
        r, big = self.order, new_order
        if big == r:
            return self
        if big % r:
            raise ValueError("embedding target must be a multiple of the order")
        step = big // r
        table = _power_table(big)
        out = list(_zero_coeffs(big))
        for k, c in enumerate(self.coeffs):
            if c:
                row = table[(k * step) % big]
                for t, rv in enumerate(row):
                    if rv:
                        out[t] += c * rv
        return CycloNum(big, tuple(out))

    def _pair(self, other):
        if not isinstance(other, CycloNum):
            other = CycloNum.from_rational(other)
        if self.order == other.order:
            return self, other
        r = lcm(self.order, other.order)
        return self.embed(r), other.embed(r)

    def __add__(self, other):
        a, b = self._pair(other)
        return CycloNum(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.order, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        return CycloNum(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return CycloNum(self.order, _zero_coeffs(self.order))
            q = Fraction(other)
            return CycloNum(self.order, tuple(x * q for x in self.coeffs))
        a, b = self._pair(other)
        r = a.order
        phi = len(a.coeffs)
        if phi == 1:
            return CycloNum(r, (a.coeffs[0] * b.coeffs[0],))
        conv = [_F0] * (2 * phi - 1)
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    if bj:
                        conv[i + j] += ai * bj
        table = _power_table(r)
        out = conv[:phi]
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                row = table[k]
                for t, rv in enumerate(row):
                    if rv:
                        out[t] += c * rv
        return CycloNum(r, tuple(out))

    __rmul__ = __mul__

    def invert(self) -> "CycloNum":
        """Multiplicative inverse via the extended Euclidean algorithm
        on the power-basis polynomial modulo Phi_order."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        if self.is_rational():
            return CycloNum.from_rational(1 / self.coeffs[0], self.order)
        r = self.order
        r0 = list(cyclotomic_polynomial(r))
        r1 = list(self.coeffs)
        while r1 and not r1[-1]:
            r1.pop()
        s0, s1 = [], [_F1]  # Bezout coefficients on the self side
        while len(r1) > 1:
            q, rem = _poly_divmod(r0, r1)
            s_new = list(s0)
            # s_new = s0 - q*s1
            prod_len = len(q) + len(s1) - 1 if q and s1 else 0
            prod = [_F0] * prod_len
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        if sc:
                            prod[i + j] += qc * sc
            width = max(len(s_new), len(prod))
            s_new += [_F0] * (width - len(s_new))
            for i, pc in enumerate(prod):
                s_new[i] -= pc
            r0, r1, s0, s1 = r1, rem, s1, s_new
        if not r1:
            raise ArithmeticError("element not invertible modulo Phi_r")
        unit = r1[0]
        out = list(_zero_coeffs(r))
        for i, sc in enumerate(s1):
            if sc and i < len(out):
                out[i] = sc / unit
        # degrees >= phi cannot appear: s1 has degree < deg(Phi_r)
        return CycloNum(r, tuple(out))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.invert()

    def __rtruediv__(self, other):
        return CycloNum.from_rational(other) / self

    def conjugate(self) -> "CycloNum":
        """The ring automorphism sending every root of unity to its inverse."""
        r = self.order
        out = list(_zero_coeffs(r))
        for k, c in enumerate(self.coeffs):
            if c:
                row = _reduce_power(r, (-k) % r)
                for t, rv in enumerate(row):
                    if rv:
                        out[t] += c * rv
        return CycloNum(r, tuple(out))

    def __pow__(self, e: int):
        if e < 0:
            return self.invert() ** (-e)
        out = CycloNum.from_rational(1, self.order)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"CycloNum({self!s})"

    def __str__(self):
        if self.is_zero():
            return "0"
        bits = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                bits.append(str(c))
            else:
                z = f"z{self.order}" + (f"^{k}" if k > 1 else "")
                if c == 1:
                    bits.append(z)
                elif c == -1:
                    bits.append(f"-{z}")
                else:
                    bits.append(f"{c}*{z}")
        out = bits[0]
        for b in bits[1:]:
            out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
        return out

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        terms = [
            {"exp": k, "num": str(c.numerator), "den": str(c.denominator)}
            for k, c in enumerate(self.coeffs)
            if c
        ]
        return {"order": self.order, "terms": terms}

    @staticmethod
    def from_json(data: dict) -> "CycloNum":
        r = json_int(data["order"])
        if r < 1:
            raise ValueError(f"a cyclotomic order must be positive, got {r}")
        out = CycloNum(r, _zero_coeffs(r))
        for t in data["terms"]:
            if not json_int(t["den"]):
                raise ValueError("a coefficient has a zero denominator")
            c = Fraction(json_int(t["num"]), json_int(t["den"]))
            out = out + CycloNum(r, _reduce_power(r, json_int(t["exp"]))) * c
        return out


def json_int(value) -> int:
    """An integer read from JSON, given as a number or a decimal string;
    ValueError for a float or a boolean, which int() would truncate or
    read as 0 and 1."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def cyclo(value, order: int = 1) -> CycloNum:
    """Coerce an int/Fraction/CycloNum to a CycloNum (of at least `order`)."""
    if isinstance(value, CycloNum):
        if order == value.order:
            return value
        return value.embed(lcm(value.order, order))
    return CycloNum.from_rational(value, order)


def zero(order: int = 1) -> CycloNum:
    return CycloNum(order, _zero_coeffs(order))


def one(order: int = 1) -> CycloNum:
    return CycloNum.from_rational(1, order)


def check_order(order: int, r: int) -> int:
    """`order` if it divides lcm(2, r), which holds for every field order
    that data over G(r,p,n) needs; ValueError otherwise.  Readers of outside
    input call it before building Q(zeta_order), whose power table costs
    time and memory quadratic in the order."""
    if order < 1 or lcm(2, r) % order:
        raise ValueError(f"a cyclotomic order must divide lcm(2, r) = {lcm(2, r)}, got {order}")
    return order


def root_of_unity(r: int, k: int = 1) -> CycloNum:
    """zeta_r^k, reduced to the power basis."""
    if r < 1:
        raise ValueError("r must be positive")
    return CycloNum(r, _reduce_power(r, k))


def twist(c, r: int, e: int):
    """c * zeta_r^e, and c itself when e = 0 mod r, so a zero phase leaves c
    in its own field."""
    return c * root_of_unity(r, e) if e % r else c


def add_term(out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    cur = out.get(key)
    s = c if cur is None else cur + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


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

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

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

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return CycloMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
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
        """Reduced row echelon form; pivots on the first nonzero entry in
        row-major order so bases are deterministic."""
        rows = [list(row) for row in self.entries]
        pivots = []
        lead = 0
        for col in range(self.cols):
            src = next((i for i in range(lead, self.rows) if not rows[i][col].is_zero()), None)
            if src is None:
                continue
            rows[lead], rows[src] = rows[src], rows[lead]
            inv = rows[lead][col].invert()
            rows[lead] = [e * inv for e in rows[lead]]
            for i in range(self.rows):
                if i != lead and not rows[i][col].is_zero():
                    f = rows[i][col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[lead])]
            pivots.append(col)
            lead += 1
            if lead == self.rows:
                break
        return rows, pivots

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
        rows, pivots = self.transpose()._rref()
        return [tuple(rows[t]) for t in range(len(pivots))]

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
        if len(pivots) != n or pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return CycloMatrix([row[n:] for row in rows[:n]])

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

