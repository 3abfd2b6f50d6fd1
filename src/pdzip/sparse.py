"""Sublinear compression that stores only the heavy symbols' indices.

A symbol is heavy when p_i >= n^{-1/(c+1)}; at most n^{1/(c+1)} of them
exist, so recording their indices costs roughly n^{1/(c+1)} * log2(n)
bits.  The reconstructed distribution gives the j-th heaviest symbol
weight 3/(pi*j)^2 and splits the remainder uniformly over everything
else, which keeps D(P||Q) within c*H(P) + log2(pi^2/3).

The reconstructed weights are irrational, so this module alone hands out
64-bit floats (to about 1e-12 relative accuracy); every other codec in
the package stays exact.  Selecting the heavy symbols is exact too: one
integer threshold on the weights, found by an integer root.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bits import Bits, concat
from .core import DistributionError, ProbabilityDistribution, Record

# the constant in the bound D(P||Q) <= c*H(P) + log2(pi^2/3)
LOG2_PI2_3 = math.log2(math.pi ** 2 / 3)


class ApproxDistribution(Record):
    """A distribution carried in floats, summing to 1 within 1e-9."""

    __slots__ = _compared = ("entries",)

    def __init__(self, entries: tuple[float, ...]) -> None:
        if len(entries) == 0:
            raise DistributionError("a distribution needs at least one entry")
        total = 0.0
        for p in entries:
            if not 0.0 <= p <= 1.0:
                raise DistributionError("probability outside [0, 1]")
            total += p
        if abs(total - 1.0) > 1e-9:
            raise DistributionError(f"probabilities sum to {total}, not 1")
        super().__init__(entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> float:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)


def _validate_c(c: Fraction) -> Fraction:
    c = Fraction(c)
    if c < 1:
        raise ValueError("c must be at least 1")
    return c


def index_width(n: int) -> int:
    """floor(log2 n) + 1: bits needed for a 0-based index below n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return n.bit_length()


def rank_width(n: int, c: Fraction) -> int:
    """floor(log2(n) / (c+1)) + 1, evaluated in exact integer arithmetic."""
    c = _validate_c(c)
    if n < 1:
        raise ValueError("n must be at least 1")
    cn, cd = c.numerator, c.denominator
    e = cn + cd
    # largest f >= 0 with f*(c+1) <= log2(n), i.e. 2^{f*e} <= n^{cd};
    # n < 2^L, so no f with f*e > cd*L passes: no shift is past cd*L bits
    target, top = n ** cd, cd * n.bit_length()
    f = 0
    while (f + 1) * e <= top and (1 << ((f + 1) * e)) <= target:
        f += 1
    return f + 1


class SparsePayload(Record):
    """Heavy symbol indices (1-based), heaviest first.

    The serialized form stores each index 0-based in floor(log2 n)+1 bits.
    """

    __slots__ = _compared = ("n", "c", "heavy_indices")

    def __init__(self, n: int, c: Fraction, heavy_indices: tuple[int, ...]) -> None:
        if n < 1:
            raise DistributionError("n must be at least 1")
        _validate_c(c)
        seen = set()
        for r in heavy_indices:
            if not 1 <= r <= n:
                raise DistributionError(f"heavy index {r} out of range")
            if r in seen:
                raise DistributionError(f"duplicate heavy index {r}")
            seen.add(r)
        super().__init__(n, c, heavy_indices)

    @property
    def t(self) -> int:
        return len(self.heavy_indices)

    def to_bits(self) -> Bits:
        w = index_width(self.n)
        return concat([Bits.from_int(r - 1, w) for r in self.heavy_indices])

    @classmethod
    def from_bits(cls, bits: Bits, n: int, c: Fraction, t: int) -> "SparsePayload":
        w = index_width(n)
        if len(bits) != t * w:
            raise DistributionError(
                f"expected {t * w} bits for t={t}, got {len(bits)}")
        indices = tuple(bits.uint(j * w, w) + 1 for j in range(t))
        return cls(n, Fraction(c), indices)


class SparseQueryTable(Record):
    """(index, rank) pairs sorted by index, for point queries.

    The serialized form stores, per pair, the 0-based index in
    floor(log2 n)+1 bits and the 0-based rank in
    floor(log2(n)/(c+1))+1 bits.  The decoded values, one per heavy rank
    and one for the light symbols, are computed once when the table is
    made and kept in `rank_values`, so a lookup only searches.
    """

    __slots__ = ("n", "c", "pairs", "rank_values")
    _compared = ("n", "c", "pairs")

    def __init__(self, n: int, c: Fraction, pairs: tuple[tuple[int, int], ...]) -> None:
        if n < 1:
            raise DistributionError("n must be at least 1")
        _validate_c(c)
        t = len(pairs)
        prev = 0
        ranks = set()
        for idx, rank in pairs:
            if not 1 <= idx <= n:
                raise DistributionError(f"index {idx} out of range")
            if idx <= prev:
                raise DistributionError("pair indices must be strictly increasing")
            prev = idx
            if not 1 <= rank <= t:
                raise DistributionError(f"rank {rank} out of range")
            ranks.add(rank)
        if len(ranks) != t:
            raise DistributionError("ranks must be a permutation of 1..t")
        super().__init__(n, c, pairs, _rank_values(n, t))

    @property
    def t(self) -> int:
        return len(self.pairs)

    def lookup(self, i: int) -> tuple[float, int]:
        """(probability of symbol i, number of comparisons made).

        Binary search over the pairs: at most ceil(log2(t+1)) + 1
        comparisons.
        """
        if not 1 <= i <= self.n:
            raise DistributionError(f"symbol index {i} out of range")
        pairs = self.pairs
        lo, hi = 0, len(pairs)
        comparisons = 0
        while lo < hi:
            mid = (lo + hi) // 2
            comparisons += 1
            if pairs[mid][0] < i:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(pairs):
            comparisons += 1
            if pairs[lo][0] == i:
                return self.rank_values[0][pairs[lo][1] - 1], comparisons
        return self.rank_values[1], comparisons

    def query_prob(self, i: int) -> float:
        """The probability of symbol i, as lookup finds it."""
        return self.lookup(i)[0]

    def sparse_payload(self) -> SparsePayload:
        """The heavy indices back in rank order, as select_heavy gave them."""
        ranked = sorted(self.pairs, key=lambda pair: pair[1])
        return SparsePayload(self.n, self.c, tuple(idx for idx, _ in ranked))

    def to_bits(self) -> Bits:
        w = index_width(self.n)
        w2 = rank_width(self.n, self.c)
        parts = []
        for idx, rank in self.pairs:
            parts.append(Bits.from_int(idx - 1, w))
            parts.append(Bits.from_int(rank - 1, w2))
        return concat(parts)

    @classmethod
    def from_bits(cls, bits: Bits, n: int, c: Fraction, t: int) -> "SparseQueryTable":
        c = Fraction(c)
        w = index_width(n)
        w2 = rank_width(n, c)
        if len(bits) != t * (w + w2):
            raise DistributionError(
                f"expected {t * (w + w2)} bits for t={t}, got {len(bits)}")
        pairs = []
        for j in range(t):
            at = j * (w + w2)
            pairs.append((bits.uint(at, w) + 1, bits.uint(at + w, w2) + 1))
        return cls(n, c, tuple(pairs))


def _heavy_value(rank: int) -> float:
    return 3.0 / (math.pi * rank) ** 2


def _rank_values(n: int, t: int) -> tuple[tuple[float, ...], float | None]:
    """(q of heavy ranks 1..t, q of every light symbol).

    Heavy rank j gets 3/(pi*j)^2 and the light symbols share the
    remainder evenly.  When every symbol is heavy (tiny n only) there is
    no remainder to share and no light value, so the heavy values are
    renormalized by their own sum instead.
    """
    heavy = tuple(_heavy_value(j) for j in range(1, t + 1))
    total = sum(heavy)
    if t == n:
        return tuple(v / total for v in heavy), None
    return heavy, (1.0 - total) / (n - t)


def _ceil_root(r: int, e: int) -> int:
    """Least integer t >= 0 with t**e >= r, for r >= 0 and e >= 1.

    Newton's iteration in integers, started above the root from r's bit
    length, falls strictly to floor(r^(1/e)) and stops there.
    """
    if r <= 1:
        return r
    x = 1 << -(-r.bit_length() // e)
    while True:
        y = ((e - 1) * x + r // x ** (e - 1)) // e
        if y >= x:
            break
        x = y
    return x if x ** e == r else x + 1


def select_heavy(dist: ProbabilityDistribution, c: Fraction) -> SparsePayload:
    """Indices with p_i >= n^{-1/(c+1)}, ordered heaviest first.

    With c = cn/cd, e = cn + cd and p_i = w_i/W, membership is
    w_i^e * n^cd >= W^e.  The left side grows with w_i, so symbol i is
    heavy exactly when w_i >= T, the least integer with
    T^e >= ceil(W^e / n^cd); T is computed once, exactly.  Ties in
    probability rank the smaller index first.
    """
    c = _validate_c(c)
    n = dist.n
    e = c.numerator + c.denominator
    threshold = _ceil_root(-(-dist.total ** e // n ** c.denominator), e)
    heavy = sorted((-w, i) for i, w in enumerate(dist.weights, start=1)
                   if w >= threshold)
    return SparsePayload(n, c, tuple(i for _, i in heavy))


# the codec's compress step is the heavy-symbol selection itself
compress_sparse = select_heavy


def decompress_sparse(payload: SparsePayload) -> ApproxDistribution:
    """Each heavy rank's value at its stored index, the light value at
    every other index; _rank_values gives both."""
    heavy, light = _rank_values(payload.n, payload.t)
    q = [light] * payload.n
    for r, value in zip(payload.heavy_indices, heavy):
        q[r - 1] = value
    return ApproxDistribution(tuple(q))


def build_query_table(payload: SparsePayload) -> SparseQueryTable:
    pairs = sorted((r, j) for j, r in enumerate(payload.heavy_indices, start=1))
    return SparseQueryTable(payload.n, payload.c, tuple(pairs))
