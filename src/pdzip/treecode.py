"""Strict binary trees, their stored preorder form, and their dyadic distributions.

A strict binary tree with n leaves has 2n-1 nodes.  Writing 1 for each
internal node and 0 for each leaf in preorder gives 2n-1 flags whose final
flag is always 0, so only the first 2n-2 are stored.  This module owns that
format and walks it once in each direction.  A shape made from leaf
depths is turned into flags when it is made, which is also what decides
that the depths describe a strict tree.  decode_tree turns stored bits
back into depths, rejecting bits that do not describe a tree, through
_depths_of, the one flags-to-depths walker.  treebuild's contraction
emits flags alone, and the depths of a shape it makes are read from
them on demand, so a tree compress, which stores only the flags,
computes no depth.  decode_tree and the contraction have proved their
trees strict by the time they finish, so they hand their results to the
_trusted constructor that StrictTreeShape inherits from core.Record,
which stores them unchecked, instead of having them walked again.  The
leaf depths d_i of such a tree satisfy sum 2^{-d_i} = 1 exactly, so the
tree itself encodes the distribution q_i = 2^{-d_i}.  The leaf depths
are that distribution's keys in core's dyadic form, so it holds one
weight and one Fraction per distinct depth, not per leaf.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .bits import Bits
from .core import DistributionError, ProbabilityDistribution, Record


class MalformedPayloadError(ValueError):
    """Payload bits do not describe a strict binary tree."""


class StrictTreeShape(Record):
    """A strict binary tree with n leaves, by its 2n-1 preorder flags.

    `flags` holds the flags as an int, most significant first.  Validity
    means the leaf depths, read left to right, are realizable in this
    order by some strict binary tree, which forces the dyadic weights
    2^{-d_i} to sum to exactly one.  Making a shape from depths walks the
    tree they describe to check them and keep its flags; `leaf_depths` of
    a shape made from flags alone is read from them on first use.
    """

    __slots__ = ("flags", "n", "_leaf_depths")
    _compared = ("leaf_depths",)

    def __init__(self, leaf_depths: Sequence[int]) -> None:
        depths = tuple(leaf_depths)
        super().__init__(_preorder_flags(depths), len(depths), depths)

    @property
    def leaf_depths(self) -> tuple[int, ...]:
        """Left-to-right leaf depths, read from the flags on first use."""
        if self._leaf_depths is None:
            # the final flag, always 0, is the one the walk leaves implied
            return self._cache("_leaf_depths",
                               _depths_of(format(self.flags, "b")[:-1]))
        return self._leaf_depths


def _preorder_flags(depths: tuple[int, ...]) -> int:
    # each leaf is the 0 that ends a run of internal-node 1s; `pending`
    # holds the depths of internal nodes whose right subtree is still to
    # come, and the next run starts just below the deepest of them
    runs: list[str] = []
    pending: list[int] = []
    at = 0
    for d in depths:
        if at < 0 or d < at:
            raise ValueError("leaf depths do not describe a strict binary tree")
        runs.append("1" * (d - at) + "0")
        pending.extend(range(at, d))
        at = pending.pop() + 1 if pending else -1
    if at >= 0:
        raise ValueError("leaf depths do not describe a strict binary tree")
    return int("".join(runs), 2)


class TreePayload(Record):
    """The stored form of a strict tree: 2n-2 preorder node-kind bits."""

    __slots__ = _compared = ("bits", "n")

    def __init__(self, bits: Bits, n: int) -> None:
        if n < 1:
            raise MalformedPayloadError("leaf count must be at least 1")
        if len(bits) != 2 * n - 2:
            raise MalformedPayloadError(
                f"expected {2 * n - 2} bits for n={n}, got {len(bits)}")
        super().__init__(bits, n)

    def to_bits(self) -> Bits:
        return self.bits

    @classmethod
    def from_bits(cls, bits: Bits, n: int) -> "TreePayload":
        return cls(bits, n)


class DyadicDistribution(Record):
    """The distribution 2^{-d_i} implied by strict-tree leaf depths."""

    __slots__ = _compared = ("depth_exponents",)

    def __init__(self, depth_exponents: Sequence[int]) -> None:
        depths = tuple(depth_exponents)
        if not depths:
            raise DistributionError("a distribution needs at least one depth")
        if set(map(type, depths)) != {int}:
            raise DistributionError("leaf depths must be ints")
        q = ProbabilityDistribution._dyadic(depths)
        distinct = q._keyed()[1]
        if min(distinct) < 0:
            raise DistributionError("negative leaf depth")
        if q.total != 1 << max(distinct):
            raise DistributionError(
                f"2^-d_i sum to {Fraction(q.total, 1 << max(distinct))}, not 1")
        super().__init__(depths)

    def to_distribution(self) -> ProbabilityDistribution:
        """The depths as the keys of a dyadic ProbabilityDistribution."""
        return ProbabilityDistribution._dyadic(self.depth_exponents)


def encode_tree(shape: StrictTreeShape) -> TreePayload:
    """Preorder node-kind bits of the tree, with the forced final 0 dropped."""
    return TreePayload(Bits.from_int(shape.flags >> 1, 2 * shape.n - 2), shape.n)


def decode_tree(payload: TreePayload) -> StrictTreeShape:
    """Rebuild the tree from payload bits, keeping the depths its checking
    walk reads; bits that describe no tree raise MalformedPayloadError."""
    bits = payload.bits
    return StrictTreeShape._trusted(bits.as_int() << 1, payload.n,
                                    _depths_of(bits.to01()))


def _depths_of(stored: str) -> tuple[int, ...]:
    """Leaf depths from stored preorder flags, a '0'/'1' string with the
    final 0 left implied.

    With that 0 restored, every 0 is a leaf that ends a run of internal
    nodes.  A run of r internal nodes from depth `at` puts its leaf at
    depth at + r, and leaves the right children of its first r - 1 nodes,
    at depths at + 1 .. at + r - 1, pending on a stack; a leaf with no
    run before it sends the walk to the deepest pending right child.  The
    stack's bottom is -1, which the tree's last leaf pops to close it.
    The walk must close the tree at the last leaf and not before; anything
    else raises MalformedPayloadError.
    """
    depths: list[int] = []
    leaf = depths.append
    pending = [-1]
    push, pop, extend = pending.append, pending.pop, pending.extend
    at = 0
    try:
        for run in map(len, stored.split("0")):
            # most runs of a near-balanced tree are 0, 1 or 2 nodes long
            if not run:
                leaf(at)
                at = pop()
            elif run == 1:
                at += 1
                leaf(at)
            elif run == 2:
                push(at + 1)
                at += 2
                leaf(at)
            else:
                extend(range(at + 1, at + run))
                at += run
                leaf(at)
    except IndexError:
        # a leaf popped past the -1: the tree closed before these bits
        raise MalformedPayloadError("bits continue after the tree closed") from None
    if at >= 0:
        # the last leaf did not pop the -1.  If the -1 is still at the
        # bottom the tree never closed; if an earlier leaf popped it, the
        # runs after that one started a new tree at depth -1 + r
        if pending[:1] == [-1]:
            raise MalformedPayloadError("bits ran out before the tree closed")
        raise MalformedPayloadError("bits continue after the tree closed")
    return tuple(depths)


def implied_distribution(shape: StrictTreeShape) -> DyadicDistribution:
    return DyadicDistribution._trusted(shape.leaf_depths)


def compress_tree(dist: ProbabilityDistribution) -> TreePayload:
    """Tree-method compression: 2n-2 bits, max_i p_i/q_i < 4, D(P||Q) < 2."""
    # treebuild makes its trees from the shapes defined here
    from .treebuild import code_tree
    return encode_tree(code_tree(dist))
