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
the ones this replay passes through.  In core's dyadic form the keys are
k_i = d_i - m_i: q_i = 2^(top - k_i) / S, top the largest key and
S = sum_i 2^(top - k_i).  A k-level payload has at most
(deepest leaf + k - 1) distinct keys, so a decoded distribution holds
one weight per distinct key, not per symbol.  The normalizer sums over
every leaf depth, so even one q_i needs the whole base tree walked: the
query object, RefinedIndex, makes that one walk when it is opened and
then answers each q_i from its key and S in O(1).

The encoder's levels are exact, and no symbol's test costs a product.
With P as weights w_i over W and q_i = u_i/U, the level-k mark test
w_i * U * 2^(k-3) >= u_i * (2^(k-3) + 1) * W holds just when w_i reaches
the ceiling of u_i * (2^(k-3) + 1) * W / (U * 2^(k-3)), and the
precondition fails just when it reaches the ceiling of twice that
quotient.  Both thresholds are made once per key of Q, so each symbol
makes int comparisons only.  compress_refined starts from the tree's
leaf depths as keys, a level's marks lower the marked keys by one, and
every key's weight is a power of two, so every threshold is a shift of
one quotient: one big division per level, however many depths the tree
has.
"""

from __future__ import annotations

from fractions import Fraction
from operator import lshift, sub

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


# '0' and '1' characters to the byte values 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def refine_step(dist: ProbabilityDistribution,
                q_prev: ProbabilityDistribution,
                k: int) -> tuple[Bits, ProbabilityDistribution]:
    """One doubling pass at level k >= 3.

    Requires max p_i/q_i < 2 + 2^{4-k} on entry (4 for k = 3) and returns
    the mark vector together with the renormalized distribution, whose
    largest ratio is below 2 + 2^{3-k}.  Every q_i must be positive, which
    is checked before any symbol is read.  Each key of q_prev gets two
    thresholds, the least p weights that are marked and that break the
    precondition, and each symbol compares its weight with them.  When
    every key's weight is a power of two, as for a dyadic q_prev, all
    thresholds come from one floor quotient by shifts; otherwise each key
    takes one divmod.  A dyadic q_prev gives a dyadic result, each marked
    key one less.
    """
    if k < 3:
        raise ValueError("refinement levels start at k = 3")
    if dist.n != q_prev.n:
        raise DistributionError("distributions have different lengths")
    if not q_prev.strictly_positive():
        raise DistributionError("q_i must be strictly positive")
    # with p = w/W, q = u/U and s = 2^(k-3), the mark test p >= (1 + 1/s) q
    # is w*D >= u*N with N = (s+1)*W and D = U*s, that is w >= ceil(u*N/D),
    # and the precondition p < (2 + 2/s) q is w < ceil(2*u*N/D), which an
    # unmarked symbol meets already
    s = 1 << (k - 3)
    big_n = (s + 1) * dist.total
    big_d = q_prev.total * s
    keys, weight = q_prev._keyed()
    mark_of = {}  # the least w that is marked
    pre_of = {}   # the least w that breaks the precondition
    if sum(map(int.bit_count, weight.values())) == len(weight):
        # ceil(2^e * N/D) for every e from one quotient F = floor(2^hi * N/D):
        # floor(2^e * N/D) is F >> (hi - e), and 2^e * N/D is an integer
        # just when the remainder is 0 and F's low hi - e bits are clear,
        # that is from e = exact on.  u = 2^(b-1) is marked from
        # ceil(2^(b-1) * N/D) and breaks the precondition from ceil(2^b * N/D)
        hi = max(weight.values()).bit_length()
        f, rest = divmod(big_n << hi, big_d)
        exact = hi + 1 if rest else hi + 1 - (f & -f).bit_length()
        for key, u in weight.items():
            b = u.bit_length()
            mark_of[key] = (f >> (hi - b + 1)) + (b - 1 < exact)
            pre_of[key] = (f >> (hi - b)) + (b < exact)
    else:
        for key, u in weight.items():
            # u*N = f*D + rest, so ceil(2*u*N/D) = 2f + ceil(2*rest/D)
            f, rest = divmod(u * big_n, big_d)
            mark_of[key] = f + (rest > 0)
            pre_of[key] = 2 * f + (rest > 0) + (2 * rest > big_d)
    marks = bytearray()  # ASCII digits, read at the end as one numeral
    for w, key in zip(dist.weights, keys):
        if w >= mark_of[key]:
            if w >= pre_of[key]:
                raise DistributionError(
                    f"ratio precondition violated at level {k}")
            marks += b"1"
        else:
            marks += b"0"
    doubled = marks.translate(_BIT_BYTES)
    if q_prev._keys is None:
        weights = list(map(lshift, keys, doubled))
        q = ProbabilityDistribution._exact(weights, sum(weights))
    else:
        q = ProbabilityDistribution._dyadic(list(map(sub, keys, doubled)))
    return Bits.from_int(int(marks, 2), len(marks)), q


def compress_refined(dist: ProbabilityDistribution, k: int) -> RefinePayload:
    """k*n - 2 bit payload: the code tree plus levels 3..k."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if not dist.strictly_positive():
        raise ZeroProbabilityError("zero entries cannot be refined; smooth first")
    shape = code_tree(dist)
    base = encode_tree(shape)
    q = ProbabilityDistribution._dyadic(shape.leaf_depths)
    levels = []
    for level in range(3, k + 1):
        bits, q = refine_step(dist, q, level)
        levels.append(bits)
    return RefinePayload(k, base, tuple(levels))


def refined_keys(payload: RefinePayload) -> list[int]:
    """The key k_i = d_i - m_i of each symbol.

    Every level doubles its marked symbols and renormalizes, so after all
    levels q_i is proportional to 2^(m_i - d_i), where d_i is leaf i's
    depth in the base tree and m_i the number of levels that mark symbol
    i: these are the keys of a dyadic distribution.  The base tree is
    walked once, and the marks are added up as lanes of one integer per
    level, each lane wide enough to hold k - 2.
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
    return list(map(sub, depths, marks))


class RefinedIndex:
    """Point queries on a refine payload: one tree walk at open, then each
    q_i = 2^(top - k_i) / S is read from the decoded keys in O(1)."""

    __slots__ = ("n", "_q")

    def __init__(self, payload: RefinePayload):
        self.n = payload.n
        self._q = decompress_refined(payload)

    def query_prob(self, i: int) -> Fraction:
        if not 1 <= i <= self.n:
            raise DistributionError(f"symbol index {i} out of range")
        keys, weight = self._q._keyed()
        return Fraction(weight[keys[i - 1]], self._q.total)


def decompress_refined(payload: RefinePayload) -> ProbabilityDistribution:
    """The stored distribution, from the payload alone: no access to P.

    It is dyadic, with the keys k_i, so it holds one weight and builds at
    most one Fraction per distinct key.
    """
    return ProbabilityDistribution._dyadic(refined_keys(payload))
