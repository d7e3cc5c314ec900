"""GF(p^k), and the other algebras over F_p, as element-indexed tables.

An F_p-algebra with basis e_0, ..., e_(d-1) is given by its structure
constants c[s, t, u] in Z/p, with e_s e_t = sum_u c[s, t, u] e_u.  Its
element i has the base-p digits of i as coordinates, lowest first, so index
0 is zero.  GF(p^k) is F_p[x]/(m) over the power basis 1, x, ..., x^(k-1),
so index 1 is one.  The modulus m is the numerically smallest monic
irreducible polynomial of degree k (lower coefficients read as
little-endian base-p digits), so a field is reproducible from (p, k) alone.
"""

from __future__ import annotations

import numpy as np

from .caps import Caps
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
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


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


def field_size(p: int, k: int, caps: Caps) -> int:
    """p**k, once p and k are checked: every builder over GF(p^k) calls it
    before it seeks the modulus or forms a table."""
    if k < 1:
        raise ConstructionError(f"extension degree must be >= 1, got {k}")
    caps.check_characteristic(p)
    if not is_prime(p):
        raise ConstructionError(f"characteristic {p} is not prime")
    return caps.capped_power(p, k, "field")


def _digits(p: int, d: int) -> np.ndarray:
    """The coordinates of every element of F_p^d, one row per index."""
    return np.arange(p**d)[:, None] // p ** np.arange(d) % p


def algebra_tables(p: int, const: np.ndarray):
    """Tables of the F_p-algebra with structure constants const (d x d x d).
    Returns (digits, add, mul), digits[i] being the coordinates of element i."""
    d = const.shape[0]
    n, cut = p**d, p ** (d // 2)
    weights = p ** np.arange(d)
    digits = _digits(p, d)

    def sums(k):  # the sums of the p^k elements on the lowest k coordinates
        x = digits[: p**k, :k]
        return (x[:, None] + x) % p @ weights[:k]

    def products(rows):  # coordinate u of x*y is sum_(s,t) x_s y_t const[s, t, u]
        return np.matmul(digits, np.tensordot(digits[rows], const, axes=(1, 0))) % p @ weights

    # element i is (i % cut) + (i - i % cut), whose coordinates are apart:
    # sums add part by part, and by distributivity products are sums of
    # the two parts' products
    high, low = divmod(np.arange(n), cut)
    add = sums(d // 2)[low][:, low] + cut * sums(d - d // 2)[high][:, high]
    mul = add.ravel()[n * products(np.arange(cut))[low] + products(np.arange(0, n, cut))[high]]
    return digits, add, mul


def gf_constants(p: int, k: int) -> np.ndarray:
    """The structure constants of GF(p^k) over its power basis: entry
    [a, b, t] is the coefficient of x^t in x^a x^b mod the modulus."""
    low = np.array(smallest_irreducible(p, k)[:-1])
    power = np.zeros((2 * k - 1, k), dtype=np.intp)  # the coordinates of x^e
    power[0, 0] = 1
    for e in range(1, 2 * k - 1):  # x^e = x * x^(e-1), where x^k = -low
        power[e, 1:] = power[e - 1, :-1]
        power[e] = (power[e] - power[e - 1, -1] * low) % p
    i = np.arange(k)
    return power[i[:, None] + i]


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


def gf_labels(p: int, k: int) -> list[str]:
    """The name of every element of GF(p^k) by index, such as "x^2+2x+1"."""
    return [_poly_name(row) for row in _digits(p, k).tolist()]


def gf_tables(p: int, k: int):
    """(add, mul, labels) of GF(p^k).  Every nonzero row of mul must hold 1,
    as it does when the modulus is irreducible."""
    _, add, mul = algebra_tables(p, gf_constants(p, k))
    if not (mul[1:] == 1).any(axis=1).all():
        raise ConstructionError("some nonzero field element has no inverse")
    return add, mul, gf_labels(p, k)


def subfield_image(p: int, j: int, field, sub) -> np.ndarray:
    """The indices in GF(p^k) of the elements of its subfield GF(p^j), given
    the (add, mul) tables of each, with j dividing k.

    GF(p^j)'s x goes to the smallest-index root of its modulus in GF(p^k),
    found by Horner over all elements at once, and sum_t c_t x^t goes to
    sum_t c_t root^t (c_t in F_p has index c_t in either field).  The map
    must be injective and respect + and *.
    """
    add, mul = field[0], field[1]
    x = np.arange(len(add))
    acc = np.zeros_like(x)
    for c in reversed(smallest_irreducible(p, j)):
        acc = add[mul[acc, x], c]
    roots = np.flatnonzero(acc == 0)
    if not roots.size:
        raise ConstructionError("modulus of subfield has no root in parent")
    image, power = np.zeros(p**j, dtype=np.intp), 1
    for coeffs in _digits(p, j).T:
        image = add[image, mul[coeffs, power]]
        power = mul[power, roots[0]]
    hit = np.zeros(len(add), dtype=bool)
    hit[image] = True
    if not (
        np.count_nonzero(hit) == p**j
        and np.array_equal(image[sub[0]], add[image][:, image])
        and np.array_equal(image[sub[1]], mul[image][:, image])
    ):
        raise ConstructionError("subfield embedding is not an injective ring map")
    return image
