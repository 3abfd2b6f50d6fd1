"""Build a strict binary code tree from a distribution in linear time.

The construction assigns symbol i the first ceil(log2(2/p_i)) bits of the
binary expansion of S_i = p_i/2 + sum_{j<i} p_j.  Those codewords are
prefix-free, and contracting every one-child node of their trie yields a
strict binary tree whose leaf i sits at depth d_i with 2^{d_i} * p_i < 4.

Codewords are held as (value, length) integer pairs so that a codeword of
any length is one bigint, and the contraction works off longest-common-
prefix lengths of consecutive codewords.  This keeps the whole pipeline at
O(n) arithmetic operations instead of one operation per codeword bit,
which matters for skewed inputs whose total codeword length is quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .core import (
    DistributionError,
    ProbabilityDistribution,
    ceil_log2_ratio,
)
from .treecode import StrictTreeShape


class ZeroProbabilityError(DistributionError):
    """A zero entry has no finite codeword; smooth the distribution first."""


class CodewordSetError(ValueError):
    """Codewords that are not prefix-free and strictly increasing."""


@dataclass(frozen=True)
class PrefixMidpoints:
    """S_i = p_i/2 + sum_{j<i} p_j for each i, strictly increasing in [0, 1)."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        prev = None
        for s in self.values:
            if not 0 <= s < 1:
                raise ValueError("midpoint outside [0, 1)")
            if prev is not None and s <= prev:
                raise ValueError("midpoints must be strictly increasing")
            prev = s

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Codeword:
    """A finite bit string, most significant bit first."""

    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0 or self.value < 0 or self.value >> self.length:
            raise ValueError("codeword value does not fit its length")

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> (self.length - 1 - i)) & 1
                     for i in range(self.length))

    def to01(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def __str__(self) -> str:
        return self.to01()


def midpoints(dist: ProbabilityDistribution) -> PrefixMidpoints:
    """The in-order interval midpoints of a strictly positive distribution."""
    vals = []
    acc = Fraction(0)
    for i, p in enumerate(dist.entries):
        if p <= 0:
            raise ZeroProbabilityError(f"entry {i + 1} is zero")
        vals.append(acc + p / 2)
        acc += p
    return PrefixMidpoints(tuple(vals))


def codeword(midpoint: Fraction, prob: Fraction) -> Codeword:
    """The first ceil(log2(2/prob)) bits of midpoint's binary expansion."""
    if not 0 < prob <= 1:
        raise ValueError("probability must be in (0, 1]")
    if not 0 <= midpoint < 1:
        raise ValueError("midpoint must be in [0, 1)")
    length = ceil_log2_ratio(2 * prob.denominator, prob.numerator)
    value = (midpoint.numerator << length) // midpoint.denominator
    return Codeword(value, length)


def contract_to_strict(codewords: Sequence[Codeword]) -> StrictTreeShape:
    """Depths of the codeword trie after removing every one-child node.

    The codewords must be strictly increasing and prefix-free.  Two
    consecutive codewords meet at a branching node whose depth is their
    common prefix length, and leaf i's branching ancestors are where it
    meets its neighbours on either side: the distinct suffix minima of the
    LCPs to its left and the distinct prefix minima of those to its right.
    A stack that keeps the LCPs seen so far strictly increasing holds
    exactly those minima, so one pass each way gives every depth in O(n).
    The two sides never share a depth, and _lcp rejects the unsorted or
    prefix neighbours that could give one node a third child.
    """
    if not codewords:
        raise CodewordSetError("no codewords")
    lcps = [_lcp(a, b) for a, b in zip(codewords, codewords[1:])]
    left = _branch_counts(lcps)
    right = _branch_counts(lcps[::-1])[::-1]
    return StrictTreeShape(tuple(a + b for a, b in zip(left, right)))


def _branch_counts(lcps: list[int]) -> list[int]:
    # entry i: size of the strictly increasing stack after lcps[:i]
    counts = [0]
    stack: list[int] = []
    for lcp in lcps:
        while stack and stack[-1] >= lcp:
            stack.pop()
        stack.append(lcp)
        counts.append(len(stack))
    return counts


def _lcp(a: Codeword, b: Codeword) -> int:
    """Common prefix length of two codewords; validates order and freeness."""
    m = min(a.length, b.length)
    x = a.value >> (a.length - m)
    y = b.value >> (b.length - m)
    diff = x ^ y
    if diff == 0:
        raise CodewordSetError("one codeword is a prefix of another")
    lcp = m - diff.bit_length()
    # sortedness: at the first differing bit the earlier word must hold 0
    if not (y >> (m - lcp - 1)) & 1:
        raise CodewordSetError("codewords are not strictly increasing")
    return lcp


def code_tree(dist: ProbabilityDistribution) -> StrictTreeShape:
    """Strict code tree for a strictly positive distribution.

    Composition of midpoints, codeword extraction, and contraction; the
    resulting leaf depths satisfy 2^{d_i} * p_i < 4.  A single-symbol
    distribution maps straight to the one-leaf tree.
    """
    if dist.n == 1:
        if dist.entries[0] <= 0:
            raise ZeroProbabilityError("entry 1 is zero")
        return StrictTreeShape((0,))
    mids = midpoints(dist)
    words = [codeword(s, p) for s, p in zip(mids.values, dist.entries)]
    return contract_to_strict(words)


def capped_tree(caps: Sequence[int]) -> StrictTreeShape | None:
    """A strict tree with leaf i at depth at most caps[i], leaves in order.

    Each symbol takes the slot of length 2^-caps[i], aligned to that
    length, that starts first at or after the previous symbol's slot
    ends; contracting the trie of those codewords only lifts leaves.  The
    greedy is exact: the deepest allowed length and the leftmost aligned
    slot give the smallest right end at every step, so when the slots run
    past 1 no order-preserving tree meets the caps and None is returned.
    """
    if min(caps) < 0:
        return None
    top = max(caps)
    end = 0
    words = []
    for cap in caps:
        unit = 1 << (top - cap)
        start = -(-end // unit) * unit
        end = start + unit
        if end > 1 << top:
            return None
        words.append(Codeword(start >> (top - cap), cap))
    return contract_to_strict(words)
