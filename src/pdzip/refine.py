"""Refine a stored dyadic distribution with one bit vector per level.

Starting from the tree-method payload (whose implied distribution keeps
every ratio p_i/q_i below 4), each level k = 3, 4, ... doubles the stored
weight of exactly those symbols whose ratio is still at least
1 + 2^{3-k}, then renormalizes.  After the level-k pass the largest ratio
is below 2 + 2^{3-k}, so a k-level payload of k*n - 2 bits guarantees
D(P||Q) < log2(2 + 2^{3-k}).

The decoder never sees P.  Replaying the stored doublings leaves
q_i proportional to 2^(m_i - d_i), where d_i is the base-tree depth and
m_i the number of levels that mark symbol i, so it computes that closed
form once in integers; the encoder's per-level distributions are exactly
the ones this replay passes through.  The normalizer sums over every
leaf depth, so even one q_i needs the whole base tree walked: the query
object, RefinedIndex, makes that one walk when it is opened, keeps the
keys k_i = d_i - m_i and the normalizer S = sum_i 2^(top - k_i), top the
largest key, and then answers each q_i = 2^(top - k_i) / S in O(1).
decompress_refined reads the same keys; a k-level payload has at most
(deepest leaf + k - 1) distinct ones, so it builds each value once per
distinct key, not per symbol.

The encoder's levels are exact, and no symbol's test costs a product.
With P as weights w_i over W and q_i = u_i/U, the level-k mark test
w_i * U * 2^(k-3) >= u_i * (2^(k-3) + 1) * W holds just when w_i reaches
the ceiling of u_i * (2^(k-3) + 1) * W / (U * 2^(k-3)), and the
precondition fails just when it reaches the ceiling of twice that
quotient.  Both thresholds are made once per distinct q weight, so each
symbol makes int comparisons only.  The q weights compress_refined
passes are powers of two, and on a deep tree every threshold is a shift
of one quotient: one big division per level, however many depths the
tree has.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from operator import sub

from .bits import Bits, concat
from .core import DistributionError, ProbabilityDistribution, Record
from .treebuild import ZeroProbabilityError, code_tree
from .treecode import TreePayload, decode_tree, encode_tree


class RefinePayload(Record):
    """Tree payload plus one n-bit doubling vector per level 3..k."""

    __slots__ = _compared = ("k", "base", "levels")

    def __init__(self, k: int, base: TreePayload, levels: tuple[Bits, ...]) -> None:
        if k < 2:
            raise ValueError("k must be at least 2")
        if len(levels) != k - 2:
            raise ValueError(f"expected {k - 2} level vectors")
        for lv in levels:
            if len(lv) != base.n:
                raise ValueError("level vector length must equal n")
        super().__init__(k, base, levels)

    @property
    def n(self) -> int:
        return self.base.n

    def to_bits(self) -> Bits:
        return concat([self.base.bits, *self.levels])

    @classmethod
    def from_bits(cls, bits: Bits, n: int, k: int) -> "RefinePayload":
        if k < 2:
            raise ValueError("k must be at least 2")
        if len(bits) != k * n - 2:
            raise ValueError(f"expected {k * n - 2} bits, got {len(bits)}")
        base = TreePayload(bits.slice(0, 2 * n - 2), n)
        levels = tuple(bits.slice(2 * n - 2 + j * n, 2 * n - 2 + (j + 1) * n)
                       for j in range(k - 2))
        return cls(k, base, levels)


def refine_step(dist: ProbabilityDistribution,
                q_prev: ProbabilityDistribution,
                k: int) -> tuple[Bits, ProbabilityDistribution]:
    """One doubling pass at level k >= 3.

    Requires max p_i/q_i < 2 + 2^{4-k} on entry (4 for k = 3) and returns
    the mark vector together with the renormalized distribution, whose
    largest ratio is below 2 + 2^{3-k}.  Every q_i must be positive, which
    is checked before any symbol is read.  Each distinct q weight u gets
    two thresholds, the least p weights that are marked and that break
    the precondition, and each symbol compares its weight with them.
    When every u is a power of two and U is past the hash modulus, as on
    a deep tree, all thresholds come from one floor quotient by shifts;
    otherwise each u takes one divmod.
    """
    if k < 3:
        raise ValueError("refinement levels start at k = 3")
    if dist.n != q_prev.n:
        raise DistributionError("distributions have different lengths")
    us = q_prev.weights
    if 0 in us:
        raise DistributionError("q_i must be strictly positive")
    # with p = w/W, q = u/U and s = 2^(k-3), the mark test p >= (1 + 1/s) q
    # is w*D >= u*N with N = (s+1)*W and D = U*s, that is w >= ceil(u*N/D),
    # and the precondition p < (2 + 2/s) q is w < ceil(2*u*N/D), which an
    # unmarked symbol meets already
    s = 1 << (k - 3)
    big_n = (s + 1) * dist.total
    big_d = q_prev.total * s
    # both thresholds once per distinct u.  Below the hash modulus an int
    # hashes to itself; above it 2^j hashes to 2^(j mod 61), so the powers
    # of two of a deep tree would crowd a table keyed by u: when every u is
    # a power of two, as in compress_refined, its bit length b keys it
    mark_of = {}  # the least w that is marked
    pre_of = {}   # the least w that breaks the precondition
    keys = us
    if (q_prev.total >= sys.hash_info.modulus
            and sum(map(int.bit_count, us)) == len(us)):
        keys = list(map(int.bit_length, us))
        # ceil(2^e * N/D) for every e from one quotient F = floor(2^hi * N/D):
        # floor(2^e * N/D) is F >> (hi - e), and 2^e * N/D is an integer
        # just when the remainder is 0 and F's low hi - e bits are clear,
        # that is from e = exact on.  u = 2^(b-1) is marked from
        # ceil(2^(b-1) * N/D), and breaks the precondition from key b+1's
        # mark threshold
        hi = max(keys)
        f, rest = divmod(big_n << hi, big_d)
        exact = hi + 1 if rest else hi + 1 - (f & -f).bit_length()
        for b in set(keys):
            mark_of[b] = (f >> (hi - b + 1)) + (b - 1 < exact)
            pre_of[b] = (f >> (hi - b)) + (b < exact)
    else:
        for u in set(us):
            # u*N = f*D + rest, so ceil(2*u*N/D) = 2f + ceil(2*rest/D)
            f, rest = divmod(u * big_n, big_d)
            mark_of[u] = f + (rest > 0)
            pre_of[u] = 2 * f + (rest > 0) + (2 * rest > big_d)
    marks = bytearray()  # ASCII digits, read at the end as one numeral
    weights = []
    for w, u, key in zip(dist.weights, us, keys):
        if w >= mark_of[key]:
            if w >= pre_of[key]:
                raise DistributionError(
                    f"ratio precondition violated at level {k}")
            marks += b"1"
            weights.append(2 * u)
        else:
            marks += b"0"
            weights.append(u)
    return (Bits.from_int(int(marks, 2), len(marks)),
            ProbabilityDistribution._exact(weights, sum(weights)))


def compress_refined(dist: ProbabilityDistribution, k: int) -> RefinePayload:
    """k*n - 2 bit payload: the code tree plus levels 3..k."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if not dist.strictly_positive():
        raise ZeroProbabilityError("zero entries cannot be refined; smooth first")
    shape = code_tree(dist)
    base = encode_tree(shape)
    # the tree's q_i = 2^(top - d_i) / 2^top as weights alone: the levels
    # read no entries, which a decoded distribution builds
    top = max(shape.leaf_depths)
    q = ProbabilityDistribution._exact(
        [1 << (top - d) for d in shape.leaf_depths], 1 << top)
    levels = []
    for level in range(3, k + 1):
        bits, q = refine_step(dist, q, level)
        levels.append(bits)
    return RefinePayload(k, base, tuple(levels))


# '0' and '1' characters to the byte values 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def refined_keys(payload: RefinePayload) -> tuple[list[int], dict[int, int], int]:
    """Keys k_i, the weight of each distinct key, and the normalizer S.

    Every level doubles its marked symbols and renormalizes, so after all
    levels q_i is proportional to 2^(m_i - d_i), where d_i is leaf i's
    depth in the base tree and m_i the number of levels that mark symbol
    i.  With k_i = d_i - m_i and top the largest key, key k has weight
    2^(top - k), and q_i = 2^(top - k_i) / S with S the sum of the
    weights.  The largest key has weight 1, so these are in lowest
    terms.  The base tree is walked once, and the marks are added up as
    lanes of one integer per level, each lane wide enough to hold k - 2.
    """
    depths = decode_tree(payload.base).leaf_depths
    n = payload.n
    width = max(1, -(-len(payload.levels).bit_length() // 8))  # bytes per lane
    total = 0
    for level in payload.levels:
        lanes = bytearray(width * n)
        lanes[width - 1::width] = (
            format(level.as_int(), f"0{n}b").encode().translate(_BIT_BYTES))
        total += int.from_bytes(lanes, "big")
    data = total.to_bytes(width * n, "big")
    marks = data[::width]
    for t in range(1, width):
        marks = [(m << 8) | b for m, b in zip(marks, data[t::width])]
    keys = list(map(sub, depths, marks))
    # few distinct keys: one weight and one term of S per key, not per symbol
    counts = Counter(keys)
    top = max(counts)
    weight = {key: 1 << (top - key) for key in counts}
    return keys, weight, sum(count * weight[key] for key, count in counts.items())


class RefinedIndex:
    """Point queries on a refine payload: one tree walk at open, then each
    q_i = 2^(top - k_i) / S is read from the stored keys in O(1)."""

    __slots__ = ("n", "_keys", "_weight", "_total")

    def __init__(self, payload: RefinePayload):
        self.n = payload.n
        self._keys, self._weight, self._total = refined_keys(payload)

    def query_prob(self, i: int) -> Fraction:
        if not 1 <= i <= self.n:
            raise DistributionError(f"symbol index {i} out of range")
        return Fraction(self._weight[self._keys[i - 1]], self._total)


def decompress_refined(payload: RefinePayload) -> ProbabilityDistribution:
    """The stored distribution, from the payload alone: no access to P.

    The weights 2^(top - k_i) are already in lowest terms over S; each
    distinct key gets one weight and one Fraction entry.
    """
    return ProbabilityDistribution._shared(*refined_keys(payload))
