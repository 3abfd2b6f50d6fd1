"""Strict binary trees, their stored preorder form, and their dyadic distributions.

A strict binary tree with n leaves has 2n-1 nodes.  Writing 1 for each
internal node and 0 for each leaf in preorder gives 2n-1 flags whose final
flag is always 0, so only the first 2n-2 are stored.  This module owns that
format and walks it once in each direction: a shape's leaf depths are
turned into flags when the shape is made, which is also what decides that
the depths describe a strict tree, and decode_tree turns stored bits back
into depths, rejecting bits that do not describe one.  The leaf depths d_i
of such a tree satisfy sum 2^{-d_i} = 1 exactly, so the tree itself encodes
the distribution q_i = 2^{-d_i}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bits import Bits
from .core import ProbabilityDistribution


class MalformedPayloadError(ValueError):
    """Payload bits do not describe a strict binary tree."""


@dataclass(frozen=True)
class StrictTreeShape:
    """Left-to-right leaf depths of a strict binary tree.

    Validity means the sequence is realizable in this order by some strict
    binary tree, which forces the dyadic weights 2^{-d_i} to sum to exactly
    one.  Making a shape walks the tree the sequence describes and keeps
    its 2n-1 preorder flags, most significant first, in `flags`.
    """

    leaf_depths: tuple[int, ...]
    flags: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "flags", _preorder_flags(self.leaf_depths))

    @property
    def n(self) -> int:
        return len(self.leaf_depths)


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


@dataclass(frozen=True)
class TreePayload:
    """The stored form of a strict tree: 2n-2 preorder node-kind bits."""

    bits: Bits
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise MalformedPayloadError("leaf count must be at least 1")
        if len(self.bits) != 2 * self.n - 2:
            raise MalformedPayloadError(
                f"expected {2 * self.n - 2} bits for n={self.n}, "
                f"got {len(self.bits)}")

    def to_bits(self) -> Bits:
        return self.bits

    @classmethod
    def from_bits(cls, bits: Bits, n: int) -> "TreePayload":
        return cls(bits, n)


@dataclass(frozen=True)
class DyadicDistribution:
    """The distribution 2^{-d_i} implied by strict-tree leaf depths."""

    depth_exponents: tuple[int, ...]

    def probabilities(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(1, 1 << d) for d in self.depth_exponents)

    def to_distribution(self) -> ProbabilityDistribution:
        """Weights 2^(top - d_i) over 2^top, top the deepest leaf's depth."""
        top = max(self.depth_exponents)
        return ProbabilityDistribution._exact(
            [1 << (top - d) for d in self.depth_exponents], 1 << top)


def encode_tree(shape: StrictTreeShape) -> TreePayload:
    """Preorder node-kind bits of the tree, with the forced final 0 dropped."""
    return TreePayload(Bits.from_int(shape.flags >> 1, 2 * shape.n - 2), shape.n)


def decode_tree(payload: TreePayload) -> StrictTreeShape:
    """Rebuild leaf depths from payload bits.

    With the implied final 0 restored, every 0 is a leaf that ends a run of
    internal nodes.  The walk must close the tree at the last leaf and not
    before; anything else raises MalformedPayloadError.
    """
    m = 2 * payload.n - 1
    flags = payload.bits.as_int() << 1
    depths: list[int] = []
    pending: list[int] = []
    at = 0
    for run in format(flags, f"0{m}b").split("0")[:-1]:
        if at < 0:
            raise MalformedPayloadError("bits continue after the tree closed")
        if run:
            # the run's last internal node has this leaf as its left
            # child, so its right subtree comes next: it is never pending
            d = at + len(run)
            pending.extend(range(at, d - 1))
            at = d
        else:
            d = at
            at = pending.pop() + 1 if pending else -1
        depths.append(d)
    if at >= 0:
        raise MalformedPayloadError("bits ran out before the tree closed")
    # the walk has checked the depths; keep its flags rather than walk again
    shape = object.__new__(StrictTreeShape)
    object.__setattr__(shape, "leaf_depths", tuple(depths))
    object.__setattr__(shape, "flags", flags)
    return shape


def implied_distribution(shape: StrictTreeShape) -> DyadicDistribution:
    return DyadicDistribution(shape.leaf_depths)


def compress_tree(dist: ProbabilityDistribution) -> TreePayload:
    """Tree-method compression: 2n-2 bits, max_i p_i/q_i < 4, D(P||Q) < 2."""
    # treebuild makes its trees from the shapes defined here
    from .treebuild import code_tree
    return encode_tree(code_tree(dist))
