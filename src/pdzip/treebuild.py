"""Build a strict binary code tree from a distribution in linear time.

The construction assigns symbol i the first ceil(log2(2/p_i)) bits of the
binary expansion of S_i = p_i/2 + sum_{j<i} p_j.  Those codewords are
prefix-free, and contracting every one-child node of their trie yields a
strict binary tree whose leaf i sits at depth d_i with 2^{d_i} * p_i < 4.

Everything is exact integer arithmetic on the distribution's weights w_i
over their sum W: S_i is (2 * prefix_i + w_i) / 2W, codeword i is L bits
long for the least L with w_i * 2^L >= 2W, and its value is
((2 * prefix_i + w_i) << L) // 2W.  `code_tree` holds each codeword as a
(value, length) pair of ints, so that a codeword of any length is one
bigint, and `contract_to_strict` works off the longest-common-prefix
lengths of consecutive codewords.  This keeps the whole pipeline at O(n)
arithmetic operations instead of one operation per codeword bit, which
matters for skewed inputs whose total codeword length is quadratic.

A division costs in proportion to its quotient's length times the
divisor's, and the quotient above is as long as the codeword.  Past
S_i = 1/2 the value is taken from the top end instead, as
floor((S_i - 1) * 2^L) + 2^L, exactly the same integer, whose quotient
has only as many bits as (1 - S_i) * 2^L.  The deep leaves of falling
geometric weights sit just below 1, so their long codewords cost a
short division each.

The contracted trie is the Cartesian tree of those LCPs (Fischer & Heun,
SIAM J. Comput. 2011): codewords j and j+1 part at the branching node
whose depth is their LCP, and its subtree holds the leaves between the
nearest smaller LCPs on either side.  One left-to-right pass over the
LCPs with a stack that keeps them strictly increasing builds the whole
shape.  Pushing the LCP in front of leaf j first pops the nodes whose
subtrees end at leaf j - 1; the pushed node's subtree starts at the leaf
just after the new stack top, so it is one more 1 in the preorder run of
internal nodes before that leaf.  Those runs, each closed by its leaf's
0, are the 2n-1 preorder flags.  The contraction emits flags; depths are
read from them on demand.  A Cartesian tree over the n-1 gaps between n
leaves is always strict, so the shape is made from these flags as they
are, without the checking walk that StrictTreeShape(depths) does.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate
from operator import add

from .core import DistributionError, ProbabilityDistribution
from .treecode import StrictTreeShape


class ZeroProbabilityError(DistributionError):
    """A zero entry has no finite codeword; smooth the distribution first."""


class CodewordSetError(ValueError):
    """Codewords that are not prefix-free and strictly increasing."""


def midpoints(dist: ProbabilityDistribution) -> tuple[int, ...]:
    """Numerators of the S_i = p_i/2 + sum_{j<i} p_j over 2 * dist.total.

    For a strictly positive distribution with weights w_i these are
    2 * (w_1 + ... + w_{i-1}) + w_i, increasing strictly within
    (0, 2 * dist.total).
    """
    weights = dist.weights
    if 0 in weights:
        raise ZeroProbabilityError(f"entry {weights.index(0) + 1} is zero")
    prefix = list(accumulate(weights, initial=0))
    return tuple(map(add, prefix, prefix[1:]))


def contract_to_strict(values: Sequence[int],
                       lengths: Sequence[int]) -> StrictTreeShape:
    """The trie of the codewords (values[j], lengths[j]), every one-child
    node removed, as a shape that holds only its preorder flags.

    Codeword j is the lengths[j]-bit binary form of values[j], so
    0 <= values[j] < 2**lengths[j].  One pass computes each LCP, raises
    CodewordSetError on a codeword that is a prefix of the next or sorts
    after it (the LCPs would then describe no trie of these codewords),
    on an empty list or on lists of different lengths, and runs the
    Cartesian-tree stack described in the module docstring, which counts
    the internal nodes in front of each leaf and nothing else: the leaf
    depths are read from the flags when first asked for.  A value too
    long for its length next to one that fits gives a negative LCP, which
    pops the stack's sentinel; that too raises CodewordSetError.  Other
    values out of range, negative ones among them, are not checked.
    """
    n = len(values)
    if not n:
        raise CodewordSetError("no codewords")
    if len(lengths) != n:
        raise CodewordSetError("values and lengths differ in number")
    runs = [0] * n  # internal nodes right before leaf j in preorder
    stack = [-1]    # LCPs of the nodes still open on the right
    first = [0]     # the leaf just after each stack entry
    a, la = values[0], lengths[0]
    try:
        for j in range(1, n):
            b, lb = values[j], lengths[j]
            if la < lb:
                m, diff = la, a ^ (b >> (lb - la))
            else:
                m, diff = lb, (a >> (la - lb)) ^ b
            if not diff:
                raise CodewordSetError("one codeword is a prefix of another")
            lcp = m - diff.bit_length()
            # sortedness: at the first differing bit the earlier word must
            # hold 0
            if not (b >> (lb - lcp - 1)) & 1:
                raise CodewordSetError("codewords are not strictly increasing")
            while stack[-1] >= lcp:
                stack.pop()
                first.pop()
            runs[first[-1]] += 1
            stack.append(lcp)
            first.append(j)
            a, la = b, lb
    except IndexError:
        # only a negative LCP empties the stack
        raise CodewordSetError(
            "a codeword value does not fit its length") from None
    flags = int("0".join(map("1".__mul__, runs)) + "0", 2)
    return StrictTreeShape._trusted(flags, n, None)


_NEAR_END = 64


def code_tree(dist: ProbabilityDistribution) -> StrictTreeShape:
    """Strict code tree for a strictly positive distribution.

    Codeword i is the first L bits of S_i, for the least L with
    w_i * 2^L >= 2W (the bit lengths of the two sides leave only two
    candidates); `contract_to_strict` turns them into a tree whose leaf
    depths satisfy 2^{d_i} * p_i < 4.  The tree comes back as its flags;
    its depths are read from them only if a caller asks.

    Above S_i = 1/2 a codeword of _NEAR_END bits or more is divided from
    the top end, as the module docstring says; shorter ones keep the
    plain quotient, whose division is then no dearer than the top-end
    form's extra subtraction and addition.  The gate was set by timing:
    with S_i just below 1 over a 1600-bit span the two forms cost the
    same at 64 bits (about 0.55 us each, Python 3.11 on a 2-vCPU VM), and
    the plain one is up to 1.5 times faster below that.  Over the Zipf and
    geometric inputs at n = 1000 (spans of 1000 to 2900 bits) code_tree's
    total stayed within 2% for gates from 32 to 128 bits and rose 5% at
    256.  Counts that total less than 2^62 give no codeword that long and
    pay one comparison per symbol.
    """
    span = 2 * dist.total
    top = span.bit_length()
    half = dist.total  # mid > half just when S_i > 1/2
    values = []
    lengths = []
    for mid, w in zip(midpoints(dist), dist.weights):
        length = top - w.bit_length()
        if w << length < span:
            length += 1
        if length < _NEAR_END or mid <= half:
            values.append((mid << length) // span)
        else:
            values.append(((mid - span) << length) // span + (1 << length))
        lengths.append(length)
    return contract_to_strict(values, lengths)


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
    values = []
    for cap in caps:
        unit = 1 << (top - cap)
        start = -(-end // unit) * unit
        end = start + unit
        if end > 1 << top:
            return None
        values.append(start >> (top - cap))
    return contract_to_strict(values, caps)
