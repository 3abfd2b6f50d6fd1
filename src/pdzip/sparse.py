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
from dataclasses import dataclass
from fractions import Fraction

from .bits import Bits, concat
from .core import DistributionError, ProbabilityDistribution


@dataclass(frozen=True)
class ApproxDistribution:
    """A distribution carried in floats, summing to 1 within 1e-9."""

    entries: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.entries) == 0:
            raise DistributionError("a distribution needs at least one entry")
        total = 0.0
        for p in self.entries:
            if not 0.0 <= p <= 1.0:
                raise DistributionError("probability outside [0, 1]")
            total += p
        if abs(total - 1.0) > 1e-9:
            raise DistributionError(f"probabilities sum to {total}, not 1")

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
    # largest f >= 0 with f*(c+1) <= log2(n), i.e. 2^{f*e} <= n^{cd}
    target = n ** cd
    f = 0
    while (1 << ((f + 1) * e)) <= target:
        f += 1
    return f + 1


def max_heavy_count(n: int, c: Fraction) -> int:
    """floor(n^{1/(c+1)}), evaluated in exact integer arithmetic."""
    c = _validate_c(c)
    cn, cd = c.numerator, c.denominator
    e = cn + cd
    target = n ** cd
    m = max(int(n ** (cd / e)), 0)
    while (m + 1) ** e <= target:
        m += 1
    while m > 0 and m ** e > target:
        m -= 1
    return m


@dataclass(frozen=True)
class SparsePayload:
    """Heavy symbol indices (1-based), heaviest first.

    The serialized form stores each index 0-based in floor(log2 n)+1 bits.
    """

    n: int
    c: Fraction
    heavy_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DistributionError("n must be at least 1")
        _validate_c(self.c)
        seen = set()
        for r in self.heavy_indices:
            if not 1 <= r <= self.n:
                raise DistributionError(f"heavy index {r} out of range")
            if r in seen:
                raise DistributionError(f"duplicate heavy index {r}")
            seen.add(r)

    @property
    def t(self) -> int:
        return len(self.heavy_indices)

    @property
    def bit_length(self) -> int:
        return self.t * index_width(self.n)

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


@dataclass(frozen=True)
class SparseQueryTable:
    """(index, rank) pairs sorted by index, for point queries.

    The serialized form stores, per pair, the 0-based index in
    floor(log2 n)+1 bits and the 0-based rank in
    floor(log2(n)/(c+1))+1 bits.
    """

    n: int
    c: Fraction
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DistributionError("n must be at least 1")
        _validate_c(self.c)
        t = len(self.pairs)
        prev = 0
        ranks = set()
        for idx, rank in self.pairs:
            if not 1 <= idx <= self.n:
                raise DistributionError(f"index {idx} out of range")
            if idx <= prev:
                raise DistributionError("pair indices must be strictly increasing")
            prev = idx
            if not 1 <= rank <= t:
                raise DistributionError(f"rank {rank} out of range")
            ranks.add(rank)
        if len(ranks) != t:
            raise DistributionError("ranks must be a permutation of 1..t")

    @property
    def t(self) -> int:
        return len(self.pairs)

    @property
    def bit_length(self) -> int:
        return self.t * (index_width(self.n) + rank_width(self.n, self.c))

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
                value = _heavy_value(pairs[lo][1])
                if self.t == self.n:
                    # no light symbols; mirror the renormalized decoder
                    total = sum(_heavy_value(j)
                                for j in range(1, self.t + 1))
                    value /= total
                return value, comparisons
        return _light_value(self.n, self.t), comparisons

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


def _light_value(n: int, t: int) -> float:
    if t >= n:
        raise DistributionError("no light symbols")
    heavy_mass = sum(_heavy_value(j) for j in range(1, t + 1))
    return (1.0 - heavy_mass) / (n - t)


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
    """Heavy rank j gets 3/(pi*j)^2; the rest share the remainder evenly.

    When every symbol is heavy (tiny n only) there is no remainder to
    share, so the heavy values are renormalized by their own sum instead.
    """
    n, t = payload.n, payload.t
    q = [0.0] * n
    if t == n:
        weights = [_heavy_value(j) for j in range(1, t + 1)]
        total = sum(weights)
        for j, r in enumerate(payload.heavy_indices, start=1):
            q[r - 1] = weights[j - 1] / total
    else:
        light = _light_value(n, t)
        for i in range(n):
            q[i] = light
        for j, r in enumerate(payload.heavy_indices, start=1):
            q[r - 1] = _heavy_value(j)
    return ApproxDistribution(tuple(q))


def build_query_table(payload: SparsePayload) -> SparseQueryTable:
    pairs = sorted((r, j) for j, r in enumerate(payload.heavy_indices, start=1))
    return SparseQueryTable(payload.n, payload.c, tuple(pairs))
