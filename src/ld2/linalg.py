"""Vectors, matrices and affine maps over GF(2).

Vectors are ints (bit j holds coordinate j + 1) and matrices are tuples of
row ints, which keeps elimination down to word-wide xors.  One
elimination, _echelon, serves rank, solve_linear and invert_matrix: the
Method of Four Russians, which clears k columns from each row with one
table lookup, so an n x n matrix takes O(n^3 / log n) bit operations
against Gaussian elimination's O(n^3).  One bit transpose,
bit_column_bytes, serves BitMatrix.transpose, public-key derivation and
the keys' certificate and plane tables, as ints through bit_columns or as
bytes: Hacker's Delight's 8 x 8 transpose8, run on every 64-bit word of a
strided byte slice at once.  window_tables tabulates an F_2-linear map
from the images of the basis vectors, one table per window of input bits:
the elimination's tables of pivot sums, gf2n's byte multiples of
lane-packed elements, the 4-bit windows (nibble_windows, apply_windows)
through which AffineMap applies its matrix and a certified key
(keys._Certified) takes every lane sum of its bit planes, built once
when the certificate passes at the K-th block, and of its lane-major
copy, built from one walk of the key's fields at its first holds after
that, and gf2n's byte-window Frobenius tables.  AffineMap eliminates only
in inverse(): keys.SecretKey checks both secret maps and keeps s^-1, and
the certificate forms M(0) as an AffineMap, reads its columns back from
the tables and keeps its inverse.  Keygen's xorshift64* generator
is here too.
"""

from __future__ import annotations

from dataclasses import dataclass

_MASK64 = (1 << 64) - 1


# the three rounds of transpose8 (Hacker's Delight, 2nd ed., 7-3) on a
# little-endian word, byte k = row k: (shift, mask of the bits that swap
# with the bits shift places up)
_TRANSPOSE8 = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def bit_columns(data: bytes, stride: int, count: int) -> list[int]:
    """The bit transpose of data, read as records of stride bytes.

    Each record is a little-endian bit string; entry i < count of the
    result has bit r equal to bit i of record r (bit_column_bytes).
    """
    return [int.from_bytes(column, "big") for column in bit_column_bytes(data, stride, count)]


def bit_column_bytes(data: bytes, stride: int, count: int) -> list[bytes]:
    """The entries of bit_columns(data, stride, count) as bytes, ceil(r / 8)
    each for r records, most significant byte first.

    Byte b of every record is one strided slice, padded to whole 64-bit
    words and read as one int: word w is then the 8 x 8 bit matrix whose
    row k is byte b of record 8w + k.  Round s of transpose8 swaps the two
    off-diagonal s x s blocks of every aligned 2s x 2s block, for s = 1, 2,
    4, in every word at once: the masks repeat over the int, and no bit
    leaves its word.  Then byte t of word w holds bit 8b + t of records
    8w .. 8w + 7: in the block's bytes reversed, entry 8b + t is the bytes
    [7 - t::8].
    """
    records = len(data) // stride
    pad = bytes(-records % 8)
    size = records + len(pad)
    rounds = [(shift, int.from_bytes(mask.to_bytes(8, "little") * (size // 8), "little"))
              for shift, mask in _TRANSPOSE8]
    columns = []
    for b in range((count + 7) // 8):
        x = int.from_bytes(data[b::stride] + pad, "little")
        for shift, mask in rounds:
            swap = (x ^ x >> shift) & mask
            x ^= swap ^ swap << shift
        block = x.to_bytes(size, "big")
        columns += [block[7 - t::8] for t in range(min(8, count - 8 * b))]
    return columns


def window_tables(images, width: int) -> tuple[tuple[int, ...], ...]:
    """Window tables of the F_2-linear map that sends basis vector j to
    images[j]: table w maps a width-bit value v to the image of
    v << (w * width), the xor of the images its bits select."""
    tables = []
    for w in range(0, len(images), width):
        table = [0]
        for image in images[w:w + width]:
            table += [t ^ image for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def nibble_windows(images) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """window_tables(images, 4) as one (low nibble, high nibble) pair of
    16-entry tables per byte of input, the layout apply_windows reads."""
    tables = window_tables(images, 4)
    return tuple(zip(tables[::2], tables[1::2] + ((0,),)))


def apply_windows(windows, x: int, acc: int) -> int:
    """acc xor the image of x under the map of nibble_windows(images): two
    lookups per byte of x.  x must be in 0 .. 2^len(images) - 1, which the
    callers check: a wider x indexes past a table or overflows the bytes."""
    for (low, high), byte in zip(windows, x.to_bytes(len(windows), "little")):
        acc ^= low[byte & 15] ^ high[byte >> 4]
    return acc


class SingularMatrixError(ValueError):
    """Raised when elimination meets a matrix without full rank."""


@dataclass(frozen=True)
class BitMatrix:
    """Row-major bit matrix; rows[i] bit j holds entry (i, j)."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if min(self.rows) < 0 or max(self.rows) >> self.cols:
            raise ValueError("row does not fit the column count")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(tuple(1 << i for i in range(n)), n)

    def mul_vec(self, x: int) -> int:
        """Matrix-vector product over GF(2)."""
        if not 0 <= x < 1 << self.cols:
            raise ValueError("vector length mismatch")
        y = 0
        for i, row in enumerate(self.rows):
            y |= ((row & x).bit_count() & 1) << i
        return y

    def mul_mat(self, other: BitMatrix) -> BitMatrix:
        if self.cols != other.nrows:
            raise ValueError("matrix dimensions do not match")
        other_cols = other.transpose().rows
        rows = tuple(
            sum(((row & col).bit_count() & 1) << j for j, col in enumerate(other_cols))
            for row in self.rows
        )
        return BitMatrix(rows, other.cols)

    def transpose(self) -> BitMatrix:
        stride = (self.cols + 7) // 8
        data = b"".join(row.to_bytes(stride, "little") for row in self.rows)
        return BitMatrix(tuple(bit_columns(data, stride, self.cols)), self.nrows)

    def to_bits(self) -> int:
        """Rows concatenated row-major into one bit string."""
        acc = 0
        for i, row in enumerate(self.rows):
            acc |= row << (i * self.cols)
        return acc

    @classmethod
    def from_bits(cls, value: int, nrows: int, cols: int) -> BitMatrix:
        if not 0 <= value < 1 << (nrows * cols):
            raise ValueError("bit string does not fit the dimensions")
        mask = (1 << cols) - 1
        return cls(tuple((value >> (i * cols)) & mask for i in range(nrows)), cols)


def _echelon(rows: list[int], cols: int, low: int = 0, reduced: bool = False):
    """Row echelon form, in place, and rank of the matrix in bits
    low .. low + cols - 1 of rows.  Lower bits ride along, so a caller
    augments the matrix there.  Columns are eliminated from the top down:
    row i holds the pivot of the i-th highest pivot column and is zero
    above it.

    The elimination is the Method of Four Russians (Bard, IACR ePrint
    2006/251), k columns at a time.  The pivots of a block are found by
    Gauss-Jordan elimination among themselves, and a column without a pivot
    ends the block early and is skipped.  Each row below then clears the
    whole block with one lookup and one xor in the table of the 2^k sums of
    the pivots.  The rows below are zero above the block, so the lookup
    index is one shift.  With reduced, the rows above clear the block too,
    which leaves the reduced echelon form.

    k grows with cols: the table costs 2^k xors per block and the rows cost
    one lookup per k columns each.
    """
    k = max(1, cols.bit_length() - 3)
    m = len(rows)
    r = 0
    hi = low + cols  # rows r and below are zero in columns hi and up
    while hi > low and r < m:
        stop = max(hi - k, low)
        p, j = r, hi - 1
        while j >= stop and p < m:
            for i in range(p, m):
                row = rows[i]
                if row >> j:  # else the row is zero in columns j and up
                    for l in range(r, p):  # row l holds column hi - 1 - (l - r)
                        if row >> (hi - 1 + r - l) & 1:
                            row ^= rows[l]
                    rows[i] = row
                    if row >> j:
                        break
            else:
                break  # column j has no pivot
            rows[i] = rows[p]
            for l in range(r, p):
                if rows[l] >> j & 1:
                    rows[l] ^= row
            rows[p] = row
            p += 1
            j -= 1
        if p > r:
            # entry v: the sum of the pivots whose columns are the set bits of
            # v << (j + 1), since each pivot is zero in the others' columns
            table = window_tables(rows[r:p][::-1], p - r)[0]
            rows[p:] = [row ^ table[row >> (j + 1)] for row in rows[p:]]
            if reduced:
                mask = len(table) - 1
                rows[:r] = [row ^ table[row >> (j + 1) & mask] for row in rows[:r]]
        hi = j + (j < stop)  # past a column without a pivot
        r = p
    return rows, r


def rank(matrix: BitMatrix) -> int:
    """Rank over GF(2): the number of pivots forward elimination finds."""
    return _echelon(list(matrix.rows), matrix.cols)[1]


def solve_linear(matrix: BitMatrix, b: int) -> int:
    """The unique y with M y = b: forward elimination of [M | b], then back
    substitution.  Raises SingularMatrixError unless M has full rank."""
    n = matrix.cols
    if matrix.nrows != n:
        raise ValueError("matrix must be square")
    if not 0 <= b < 1 << n:
        raise ValueError("right-hand side length mismatch")
    # right-hand side rides along in bit 0 of each working row
    rows = [row << 1 | (b >> i & 1) for i, row in enumerate(matrix.rows)]
    rows, r = _echelon(rows, n, 1)
    if r < n:
        raise SingularMatrixError("matrix is singular")
    # row n - s holds the pivot of column s - 1, which sits at bit s; y is
    # kept shifted up by one, clear of the right-hand side
    y = 0
    for s, row in enumerate(reversed(rows), 1):
        y |= (((row & y).bit_count() ^ row) & 1) << s
    return y >> 1


def invert_matrix(matrix: BitMatrix) -> BitMatrix:
    """Inverse over GF(2): reduced echelon form of [M | I].  Raises
    SingularMatrixError unless M has full rank."""
    n = matrix.cols
    if matrix.nrows != n:
        raise ValueError("matrix must be square")
    rows = [row << n | 1 << i for i, row in enumerate(matrix.rows)]
    rows, r = _echelon(rows, n, n, reduced=True)
    if r < n:
        raise SingularMatrixError("matrix is singular")
    # row n - 1 - a is e_a in the high half, so its low half is row a of M^-1
    low = (1 << n) - 1
    return BitMatrix(tuple(row & low for row in reversed(rows)), n)


class AffineMap:
    """Affine transformation x -> Ax + c on GF(2)^n; construction does no
    elimination.

    Construction tabulates A by 4-bit windows of its columns, and apply
    looks x up byte by byte in a pair of 16-entry tables, one per nibble:
    about 25 KB per map at n = 129.  Every secret-key construction builds
    three maps, so the windows are nibbles: byte windows apply about twice
    as fast but take about three times as long to build.
    """

    __slots__ = ("matrix", "translation", "_windows")

    def __init__(self, matrix: BitMatrix, translation: int):
        if matrix.nrows != matrix.cols:
            raise ValueError("matrix must be square")
        if not 0 <= translation < 1 << matrix.cols:
            raise ValueError("translation length mismatch")
        self.matrix = matrix
        self.translation = translation
        self._windows = nibble_windows(matrix.transpose().rows)

    @property
    def n(self) -> int:
        return self.matrix.cols

    @property
    def columns(self) -> list[int]:
        """The columns of A, read back from the tables: column j is the
        image of the basis vector 1 << j."""
        return [self._windows[j >> 3][j >> 2 & 1][1 << (j & 3)] for j in range(self.n)]

    def apply(self, x: int) -> int:
        if not 0 <= x < 1 << self.matrix.cols:
            raise ValueError("vector length mismatch")
        return apply_windows(self._windows, x, self.translation)

    def inverse(self) -> AffineMap:
        """u -> A^-1 (u + c); raises SingularMatrixError if A is singular."""
        inverse = AffineMap(invert_matrix(self.matrix), 0)
        # its translation A^-1 c, through its own tables
        inverse.translation = inverse.apply(self.translation)
        return inverse

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineMap)
            and self.matrix == other.matrix
            and self.translation == other.translation
        )

    def __hash__(self) -> int:
        return hash((self.matrix, self.translation))

    def __repr__(self) -> str:
        return f"AffineMap(n={self.n})"


_XORSHIFT_MULTIPLIER = 0x2545F4914F6CDD1D
# xorshift64* fixes the all-zero state, so seed 0 is remapped to a constant
_ZERO_SEED_STATE = 0x9E3779B97F4A7C15


class Prng:
    """xorshift64* bit stream; bits leave each 64-bit output most-significant
    first.  Single-owner mutable state: do not share between tasks."""

    __slots__ = ("_state", "_buffer", "_remaining")

    def __init__(self, seed: int):
        if not 0 <= seed < 1 << 64:
            raise ValueError("seed must be a 64-bit integer")
        self._state = seed if seed else _ZERO_SEED_STATE
        self._buffer = 0
        self._remaining = 0

    def next_word(self) -> int:
        s = self._state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self._state = s
        return (s * _XORSHIFT_MULTIPLIER) & _MASK64

    def bits(self, count: int) -> int:
        """Next `count` bits; the first bit drawn lands in bit 0."""
        if count < 0:
            raise ValueError("count must be non-negative")
        # the buffer holds the undrawn bits bit-reversed, next bit in bit 0
        buffer = self._buffer
        have = self._remaining
        while have < count:
            buffer |= int(f"{self.next_word():064b}"[::-1], 2) << have
            have += 64
        self._buffer = buffer >> count
        self._remaining = have - count
        return buffer & ((1 << count) - 1)


def random_invertible(n: int, prng: Prng) -> BitMatrix:
    """Uniformly random invertible n x n matrix by rejection sampling.

    Each attempt fills n^2 bits row-major and succeeds with probability
    about 0.289, so a handful of draws suffice.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    while True:
        candidate = BitMatrix(tuple(prng.bits(n) for _ in range(n)), n)
        if rank(candidate) == n:
            return candidate
