"""Finite fields GF(p^k) with element-indexed exact arithmetic.

Elements are indexed 0..p^k-1 by the base-p digit expansion of their
coefficient vector over the power basis 1, x, ..., x^(k-1); index 0 is zero
and index 1 is one.  The defining modulus is the numerically smallest monic
irreducible polynomial of degree k (lower coefficients read as little-endian
base-p digits), so a field is reproducible from (p, k) alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caps import Caps, capped_power, check_characteristic
from .errors import ConstructionError

Poly = tuple[int, ...]  # little-endian coefficients over Z/p, no trailing zeros


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _trim(coeffs: list[int]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def poly_mod(a: Poly, m: Poly, p: int) -> Poly:
    """Remainder of a by the monic polynomial m."""
    assert m and m[-1] == 1
    r = list(a)
    while len(r) >= len(m):
        lead = r[-1] % p
        if lead:
            shift = len(r) - len(m)
            for i, cm in enumerate(m):
                r[shift + i] = (r[shift + i] - lead * cm) % p
        r.pop()
    return _trim(r)


def _is_irreducible(m: Poly, p: int) -> bool:
    """Trial division by all monic polynomials of degree 1..deg(m)//2."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            if not poly_mod(m, _monic(code, p, d), p):
                return False
    return True


def _monic(code: int, p: int, d: int) -> Poly:
    """The monic polynomial of degree d whose lower coefficients are the
    little-endian base-p digits of code."""
    low = []
    while code:
        low.append(code % p)
        code //= p
    return tuple(low) + (0,) * (d - len(low)) + (1,)


def smallest_irreducible(p: int, k: int) -> Poly:
    """Numerically first monic irreducible of degree k over Z/p."""
    if k == 1:
        return (0, 1)
    for code in range(p**k):
        m = _monic(code, p, k)
        if _is_irreducible(m, p):
            return m
    raise ConstructionError(f"no irreducible of degree {k} over Z/{p}")  # unreachable


def _poly_name(coeffs: list[int]) -> str:
    """Little-endian coefficients as a polynomial in x, highest term first."""
    parts = []
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        if d == 0:
            parts.append(str(c))
        else:
            var = "x" if d == 1 else f"x^{d}"
            parts.append(var if c == 1 else f"{c}{var}")
    return "+".join(reversed(parts)) or "0"


class FiniteField:
    """GF(p^k) backed by exp/log tables over a deterministic modulus."""

    def __init__(self, p: int, k: int, caps: Caps | None = None):
        size = field_size(p, k, caps or Caps())
        self.p = p
        self.k = k
        self.size = size
        self.modulus: Poly = smallest_irreducible(p, k)
        self._digits = self._digit_matrix()
        self._exp, self._log = self._build_exp_log()
        self._verify_inverses()
        self._add_table: np.ndarray | None = None
        self._mul_table: np.ndarray | None = None
        self._labels: list[str] | None = None

    # -- element codecs ----------------------------------------------------

    def _digit_matrix(self) -> np.ndarray:
        idx = np.arange(self.size)
        cols = []
        for _ in range(self.k):
            cols.append(idx % self.p)
            idx = idx // self.p
        return np.stack(cols, axis=1).astype(np.int16)

    def coeffs(self, i: int) -> Poly:
        return _trim(list(self._digits[i]))

    def encode(self, coeffs: Poly) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + int(c) % self.p
        return v

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        s = (self._digits[a] + self._digits[b]) % self.p
        return int(s @ (self.p ** np.arange(self.k)))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        t = (int(self._log[a]) + int(self._log[b])) % (self.size - 1)
        return int(self._exp[t])

    def _mul_poly(self, a: int, b: int) -> int:
        prod = poly_mul(self.coeffs(a), self.coeffs(b), self.p)
        return self.encode(poly_mod(prod, self.modulus, self.p))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e > 0 else 1
        t = (int(self._log[a]) * e) % (self.size - 1)
        return int(self._exp[t])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        t = (-int(self._log[a])) % (self.size - 1)
        return int(self._exp[t])

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    # -- tables --------------------------------------------------------------

    def _build_exp_log(self) -> tuple[np.ndarray, np.ndarray]:
        q = self.size
        if q == 2:
            return np.array([1], dtype=np.int16), np.array([0, 0], dtype=np.int64)
        for g in range(2, q):
            power, seen = 1, 0
            exp = []
            while True:
                exp.append(power)
                power = self._mul_poly(power, g)
                seen += 1
                if power == 1:
                    break
            if seen == q - 1:
                log = np.zeros(q, dtype=np.int64)
                for t, v in enumerate(exp):
                    log[v] = t
                return np.array(exp, dtype=np.int16), log
        raise ConstructionError("no primitive element found")  # unreachable

    def add_table(self) -> np.ndarray:
        if self._add_table is None:
            d = self._digits.astype(np.int32)
            s = (d[:, None, :] + d[None, :, :]) % self.p
            weights = self.p ** np.arange(self.k)
            self._add_table = (s @ weights).astype(np.int16)
            self._add_table.flags.writeable = False
        return self._add_table

    def mul_table(self) -> np.ndarray:
        if self._mul_table is None:
            q = self.size
            t = np.zeros((q, q), dtype=np.int16)
            if q > 1:
                lg = self._log[1:]
                t[1:, 1:] = self._exp[(lg[:, None] + lg[None, :]) % (q - 1)]
            t.flags.writeable = False
            self._mul_table = t
        return self._mul_table

    def _verify_inverses(self) -> None:
        for a in range(1, self.size):
            if self.mul(a, self.inv(a)) != 1:
                raise ConstructionError("inverse table inconsistent")

    def labels(self) -> list[str]:
        """The name of every element by index, such as "x^2+2x+1", formed once."""
        if self._labels is None:
            self._labels = [_poly_name(row) for row in self._digits.tolist()]
        return self._labels

    def label(self, i: int) -> str:
        return self.labels()[i]

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.k})"


@dataclass(frozen=True)
class SubfieldEmbedding:
    subfield: "FiniteField"
    parent: "FiniteField"
    # index map subfield -> parent; image is the fixed set of x -> x^(p^j)
    image: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.image[i]


def field_size(p: int, k: int, caps: Caps) -> int:
    """p**k, once p and k are checked as FiniteField checks them: a builder
    of a larger ring over GF(p^k) calls it to refuse that ring before the
    field is built."""
    if k < 1:
        raise ConstructionError(f"extension degree must be >= 1, got {k}")
    check_characteristic(p, caps.max_ring_size)
    if not is_prime(p):
        raise ConstructionError(f"characteristic {p} is not prime")
    return capped_power(p, k, caps.max_ring_size, "field")


def gf_build(p: int, k: int, caps: Caps | None = None) -> FiniteField:
    return FiniteField(p, k, caps=caps)


def subfield(field: FiniteField, j: int) -> SubfieldEmbedding:
    """The subfield GF(p^j) of GF(p^k) with its canonical embedding.

    The embedding sends the generator class of GF(p^j) to the smallest-index
    root of its modulus inside the parent; the image equals the fixed set of
    the j-fold Frobenius.
    """
    if field.k % j != 0:
        raise ConstructionError(f"degree {j} does not divide {field.k}")
    sub = FiniteField(field.p, j)
    if j == field.k and sub.modulus == field.modulus:
        emb = tuple(range(field.size))
        return SubfieldEmbedding(sub, field, emb)
    root = None
    for x in range(field.size):
        acc = 0
        for c in reversed(sub.modulus):  # Horner in the parent field
            acc = field.add(field.mul(acc, x), field.encode((c,)))
        if acc == 0:
            root = x
            break
    if root is None:
        raise ConstructionError("modulus of subfield has no root in parent")
    emb = []
    for i in range(sub.size):
        val, xp = 0, 1
        for c in sub.coeffs(i):
            val = field.add(val, field.mul(field.encode((int(c),)), xp))
            xp = field.mul(xp, root)
        emb.append(val)
    fixed = {x for x in range(field.size) if field.pow(x, field.p**j) == x}
    if set(emb) != fixed or len(set(emb)) != sub.size:
        raise ConstructionError("subfield embedding does not match Frobenius fixed set")
    for a in range(sub.size):
        for b in range(sub.size):
            if emb[sub.add(a, b)] != field.add(emb[a], emb[b]):
                raise ConstructionError("embedding not additive")
            if emb[sub.mul(a, b)] != field.mul(emb[a], emb[b]):
                raise ConstructionError("embedding not multiplicative")
    return SubfieldEmbedding(sub, field, tuple(emb))
