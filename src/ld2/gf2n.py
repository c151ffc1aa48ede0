"""Arithmetic in binary extension fields F(2^n) on the polynomial basis.

Field elements are coefficient vectors over the basis {1, g, ..., g^(n-1)}
for a root g of the field modulus, packed into Python ints: bit i of the
int is the coefficient of g^i, so 0 is the additive and 1 the
multiplicative identity.  Every bit string in this package uses the same
packing, and byte/hex serialisation is little-endian: bit i of a string
lands in bit i % 8 of byte i // 8.

Every carry-less product in GF(2)[x] takes one form: Horner's rule over
the bytes of the multiplier from the top byte, one table lookup per digit.
_clmul, behind Field.mul, looks up 4-bit digits in the 16 multiples of its
first factor; _spread, behind Field.sqr and the modulus scan, looks up
whole bytes in their spread squares; clmul_bytes looks up whole bytes in
the 256 multiples that byte_multiples tabulates once for many products.
Up to n elements packed one per byte-aligned lane of 2n bits or more
(Field.pack_lanes) times one element is such a product, and
Field.fold_lanes reduces every lane of it at once.  Field.quotients
divides k pairs with one Field.inv, by Montgomery's simultaneous inversion.

The modulus of each field is the first polynomial in the deterministic
scan order of find_irreducible that passes Ben-Or's irreducibility test
(is_irreducible), so key material and wire formats are reproducible
across runs and machines.
"""

from __future__ import annotations

import functools
import itertools

from .linalg import window_tables


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor in GF(2)[x] of polynomials packed into
    non-negative ints."""
    if a < 0 or b < 0:
        raise ValueError("polynomials are packed into non-negative ints")
    while b:
        d = b.bit_length()
        while a.bit_length() >= d:
            a ^= b << (a.bit_length() - d)
        a, b = b, a  # a is now a mod b
    return a


# byte value -> the same bits spread to even positions, for fast squaring
_SQUARE_SPREAD = tuple(
    sum(((b >> i) & 1) << (2 * i) for i in range(8)) for b in range(256)
)


def _spread(a: int) -> int:
    """The square of a in GF(2)[x], bit i moved to bit 2i: Horner's rule over
    the bytes of a from the top, one 16-bit spread per byte."""
    acc = 0
    for byte in a.to_bytes((a.bit_length() + 7) // 8, "big"):
        acc = acc << 16 | _SQUARE_SPREAD[byte]
    return acc


def _clmul(a: int, b: int) -> int:
    """Carry-less product of a and b: Horner's rule over the bytes of b from
    the top, one lookup per 4-bit digit in a table of the 16 multiples of a."""
    table = [0] * 16
    table[1] = a
    for w in range(2, 16, 2):
        table[w] = table[w >> 1] << 1
        table[w | 1] = table[w] ^ a
    acc = 0
    for byte in b.to_bytes((b.bit_length() + 7) // 8, "big"):
        acc = (acc << 4 ^ table[byte >> 4]) << 4 ^ table[byte & 15]
    return acc


def byte_multiples(a: int) -> tuple[int, ...]:
    """Entry b: the carry-less product of a by the byte value b."""
    return window_tables([a << i for i in range(8)], 8)[0]


def clmul_bytes(multiples, b: int) -> int:
    """The carry-less product of a and b, from multiples = byte_multiples(a),
    by Horner's rule over the bytes of b from the top: one shift and one
    lookup per byte.  Products of many b by one a share the table, where
    _clmul builds 16 multiples of a per product."""
    acc = 0
    for byte in b.to_bytes((b.bit_length() + 7) // 8, "big"):
        acc = acc << 8 ^ multiples[byte]
    return acc


def _fold(v: int, n: int, shifts: tuple[int, ...], low: int) -> int:
    """Reduce v by x^n + sum(x^s for s in shifts), lane by lane.

    x^n is the sum of the low terms, so each round folds the high part of
    every lane onto its low part through the shifts (few of them: canonical
    moduli are sparse).  low masks bits 0..n-1 of every lane; lanes are at
    least 2n bits wide and hold values of degree below 2n - 1, so the high
    part of a lane never reaches the next one.
    """
    hi = v >> n & low
    while hi:
        v &= low
        for s in shifts:
            v ^= hi << s
        hi = v >> n & low
    return v


def is_irreducible(f: int) -> bool:
    """Ben-Or's irreducibility test for f in GF(2)[x] (Ben-Or 1981).

    x^(2^i) - x is the product of the irreducibles whose degree divides i,
    and a reducible f of degree n has a factor of degree at most n/2.  So f
    is irreducible iff gcd(x^(2^i) - x, f) = 1 for i = 1 .. floor(n/2); most
    reducible f fail at a small i.
    """
    if f < 0:
        raise ValueError("polynomials are packed into non-negative ints")
    n = f.bit_length() - 1
    if n < 1:
        return False
    # squares by spreading the bits, reduced through f's low terms
    low = (1 << n) - 1
    shifts = tuple(i for i in range(n) if f >> i & 1)
    t = 2  # the polynomial x
    for _ in range(n // 2):
        t = _fold(_spread(t), n, shifts, low)
        if poly_gcd(t ^ 2, f) != 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def find_irreducible(n: int) -> int:
    """Smallest irreducible degree-n polynomial with constant term 1.

    Candidates are scanned in increasing value of the packed coefficient
    string (constant term in bit 0, leading coefficient in bit n); the
    first irreducible one wins, which makes the choice deterministic.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    base = (1 << n) | 1
    for mid in range(1 << (n - 1)):
        f = base | (mid << 1)
        # an even number of terms means f(1) = 0, i.e. f divisible by x + 1
        if f.bit_count() & 1 and is_irreducible(f):
            return f
    raise AssertionError("irreducible polynomials exist for every degree")


@functools.lru_cache(maxsize=None)
def _trace_mask(f: int) -> int:
    """tau for the irreducible f: bit i is Tr(g^i) for a root g of f.

    The conjugates of g are the roots of f, so Tr(g^i) is their i-th power
    sum p_i, and Newton's identities over GF(2) give p_0 = n mod 2 and
    p_i = i f_(n-i) + sum_(0<j<i) f_(n-j) p_(i-j), with f_k the coefficient
    of x^k.  The sum runs over f's few nonzero terms only.
    """
    n = f.bit_length() - 1
    taps = [j for j in range(1, n) if f >> (n - j) & 1]
    p = [n & 1]
    for i in range(1, n):
        bit = i & 1 & f >> (n - i)
        for j in taps:
            if j >= i:
                break
            bit ^= p[i - j]
        p.append(bit)
    return sum(bit << i for i, bit in enumerate(p))


class Field:
    """F(2^n), n = 2m - 1: arithmetic on element ints and x -> x^(2^m)."""

    __slots__ = (
        "n", "m", "modulus", "lane_bytes", "_mask", "_low_shifts", "_lanes_low", "_trace_mask"
    )

    def __init__(self, n: int):
        if n < 3 or n % 2 == 0:
            raise ValueError("n must be odd and at least 3")
        self.n = n
        self.m = (n + 1) // 2
        self.modulus = find_irreducible(n)
        self._mask = (1 << n) - 1
        # x^n = low part of the modulus, the shifts that _fold applies
        low = self.modulus & self._mask
        self._low_shifts = tuple(i for i in range(n) if low >> i & 1)
        # bits 0..n-1 of each of the n lanes that fold_lanes reduces
        self.lane_bytes = (2 * n + 7) // 8
        self._lanes_low = int.from_bytes(
            self._mask.to_bytes(self.lane_bytes, "little") * n, "little"
        )
        self._trace_mask = _trace_mask(self.modulus)

    @property
    def order(self) -> int:
        return 1 << self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.n, self.modulus))

    def __repr__(self) -> str:
        return f"Field(n={self.n}, modulus={self.modulus:#x})"

    def add(self, a: int, b: int) -> int:
        """Coordinatewise xor; subtraction is the same map."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Product of the representing polynomials, reduced by the modulus."""
        return _fold(_clmul(a, b), self.n, self._low_shifts, self._mask)

    def fold_lanes(self, v: int) -> int:
        """Reduce each lane of v, a carry-less product of one element by up
        to n elements packed by pack_lanes.  Lanes are lane_bytes =
        ceil(2n / 8) bytes wide, room for each unreduced product."""
        return _fold(v, self.n, self._low_shifts, self._lanes_low)

    def pack_lanes(self, elements) -> int:
        """The elements packed one per lane of lane_bytes, the first in lane 0."""
        size = self.lane_bytes
        return int.from_bytes(b"".join(a.to_bytes(size, "little") for a in elements), "little")

    def sqr(self, a: int) -> int:
        """Square by bit spreading; squaring is F_2-linear in characteristic 2."""
        return _fold(_spread(a), self.n, self._low_shifts, self._mask)

    def frobenius(self, a: int) -> int:
        """a^(2^m), through the window tables of frobenius_tables(self, m)."""
        return apply_columns(frobenius_tables(self, self.m), a)

    def pow(self, a: int, e: int) -> int:
        """a^e; 0^0 is defined as 1.

        When e mod (2^n - 1) is 2^k - 1 (k >= 1), the Itoh-Tsujii chain
        computes it: a doubling step x^(2^(2j)-1) = Frob_j(x^(2^j-1)) *
        x^(2^j-1), with Frob_j: x -> x^(2^j) applied through window tables,
        and for each 1 bit of k below its leading one an extra step
        x^(2^(j+1)-1) = (x^(2^j-1))^2 * a.  Every other exponent takes
        square and multiply.
        """
        if e < 0:
            raise ValueError("exponent must be non-negative")
        if a == 0:
            return 1 if e == 0 else 0
        e %= self.order - 1
        if e and e & (e + 1) == 0:
            k = e.bit_length()
            x = a
            j = 1
            for bit in bin(k)[3:]:  # the bits of k below its leading one
                x = self.mul(apply_columns(frobenius_tables(self, j), x), x)
                j *= 2
                if bit == "1":
                    x = self.mul(self.sqr(x), a)
                    j += 1
            return x
        acc = 1
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a = self.sqr(a)
            e >>= 1
        return acc

    def inv(self, a: int) -> int:
        """Multiplicative inverse a^(2^n - 2), the square of a^(2^(n-1) - 1)."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.sqr(self.pow(a, (1 << (self.n - 1)) - 1))

    def quotients(self, fractions) -> list[int]:
        """The quotients r / z of the pairs (r, z) in fractions, every z nonzero.

        Montgomery's simultaneous inversion ("Speeding the Pollard and elliptic
        curve methods of factorization", Math. Comp. 48, 1987) inverts the k
        denominators with one inv and 3(k - 1) mul: the prefix products z_1
        ... z_i (k - 1 products), u the inverse of the last, and then for i =
        k down to 2, 1/z_i = u (z_1 ... z_(i-1)), after which u z_i is the
        inverse of z_1 ... z_(i-1) (two products per step).  One more product
        per pair takes in its numerator.  An empty list costs nothing.
        """
        if not fractions:
            return []
        prefix = list(itertools.accumulate((z for _, z in fractions), self.mul))
        u = self.inv(prefix[-1])
        quotients = []
        for i in range(len(fractions) - 1, 0, -1):
            r, z = fractions[i]
            quotients.append(self.mul(r, self.mul(u, prefix[i - 1])))
            u = self.mul(u, z)
        quotients.append(self.mul(fractions[0][0], u))
        quotients.reverse()
        return quotients

    def trace(self, a: int) -> int:
        """The F_2-valued trace a + a^2 + a^4 + ... + a^(2^(n-1)).

        The trace is F_2-linear, so it is the parity of a & tau, where bit i
        of tau is Tr(g^i) (see _trace_mask).
        """
        return (a & self._trace_mask).bit_count() & 1


# One field's chains and Frobenius use the tables for k = 0 and for the
# binary prefixes of m and n - 1: 10 tables and about 5 MB at n = 257.  The
# bound keeps the last few fields' tables, not every size a process touched.
@functools.lru_cache(maxsize=32)
def frobenius_tables(field: Field, k: int) -> tuple[tuple[int, ...], ...]:
    """Byte-window tables of Frob_k: x -> x^(2^k), which is F_2-linear.

    Table w maps a byte value b to the image of the element b << 8w, so
    apply_columns maps any element with one lookup per byte.  Frob_k is
    Frob_(k//2) applied twice, then squared when k is odd, so the images of
    the basis elements g^j come from the tables for k // 2.
    """
    if k == 0:
        images = [1 << j for j in range(field.n)]
    else:
        half = frobenius_tables(field, k // 2)
        images = [
            apply_columns(half, half[j >> 3][1 << (j & 7)]) for j in range(field.n)
        ]
        if k & 1:
            images = [field.sqr(image) for image in images]
    return window_tables(images, 8)


def apply_columns(tables, a: int) -> int:
    """Apply an F_2-linear map, given by its byte-window tables, to a."""
    acc = 0
    for table, byte in zip(tables, a.to_bytes(len(tables), "little")):
        acc ^= table[byte]
    return acc


def packed_size(nbits: int) -> int:
    return (nbits + 7) // 8


def bits_to_bytes(value: int, nbits: int) -> bytes:
    """Pack a bit string of known length into its little-endian byte form."""
    if not 0 <= value < 1 << nbits:
        raise ValueError("value does not fit the declared bit length")
    return value.to_bytes(packed_size(nbits), "little")


def bytes_to_bits(data: bytes, nbits: int) -> int:
    """Inverse of bits_to_bytes; slack bits beyond nbits must be zero."""
    if len(data) != packed_size(nbits):
        raise ValueError("byte string has the wrong length")
    value = int.from_bytes(data, "little")
    if value >> nbits:
        raise ValueError("nonzero slack bits")
    return value


def bits_to_hex(value: int, nbits: int) -> str:
    return bits_to_bytes(value, nbits).hex()


def hex_to_bits(text: str, nbits: int) -> int:
    try:
        data = bytes.fromhex(text)
    except ValueError as exc:
        raise ValueError("invalid hex string") from exc
    return bytes_to_bits(data, nbits)

