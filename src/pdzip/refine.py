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
the ones this replay passes through.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bits import Bits, concat
from .core import DistributionError, ProbabilityDistribution
from .treebuild import ZeroProbabilityError, code_tree
from .treecode import TreePayload, decode_tree, encode_tree, implied_distribution


@dataclass(frozen=True)
class RefinePayload:
    """Tree payload plus one n-bit doubling vector per level 3..k."""

    k: int
    base: TreePayload
    levels: tuple[Bits, ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if len(self.levels) != self.k - 2:
            raise ValueError(f"expected {self.k - 2} level vectors")
        for lv in self.levels:
            if len(lv) != self.base.n:
                raise ValueError("level vector length must equal n")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def total_bits(self) -> int:
        return len(self.base.bits) + sum(len(lv) for lv in self.levels)

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
    largest ratio is below 2 + 2^{3-k}.
    """
    if k < 3:
        raise ValueError("refinement levels start at k = 3")
    if dist.n != q_prev.n:
        raise DistributionError("distributions have different lengths")
    pre_bound = 2 + Fraction(1, 2) ** (k - 4)
    threshold = 1 + Fraction(1, 2) ** (k - 3)
    marks = []
    marked_mass = Fraction(0)
    for p, q in zip(dist.entries, q_prev.entries):
        if q <= 0:
            raise DistributionError("q_i must be strictly positive")
        if p >= pre_bound * q:
            raise DistributionError(
                f"ratio precondition violated at level {k}")
        if p >= threshold * q:
            marks.append(1)
            marked_mass += q
        else:
            marks.append(0)
    normalizer = 1 + marked_mass
    new_q = tuple((2 * q if m else q) / normalizer
                  for m, q in zip(marks, q_prev.entries))
    return Bits.from_iterable(marks), ProbabilityDistribution(new_q)


def compress_refined(dist: ProbabilityDistribution, k: int) -> RefinePayload:
    """k*n - 2 bit payload: the code tree plus levels 3..k."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if not dist.strictly_positive():
        raise ZeroProbabilityError("zero entries cannot be refined; smooth first")
    shape = code_tree(dist)
    base = encode_tree(shape)
    q = implied_distribution(shape).to_distribution()
    levels = []
    for level in range(3, k + 1):
        bits, q = refine_step(dist, q, level)
        levels.append(bits)
    return RefinePayload(k, base, tuple(levels))


def refined_weights(payload: RefinePayload) -> tuple[list[int], int]:
    """Integer weights of the decoded distribution and their sum.

    Every level doubles its marked symbols and renormalizes, so after all
    levels q_i = 2^(m_i - d_i) / sum_j 2^(m_j - d_j), where d_i is leaf i's
    depth in the base tree and m_i the number of levels that mark symbol i.
    """
    depths = decode_tree(payload.base).leaf_depths
    marks = [0] * payload.n
    for level in payload.levels:
        marks = [m + b for m, b in zip(marks, level)]
    top = max(depths)
    weights = [1 << (top - d + m) for d, m in zip(depths, marks)]
    return weights, sum(weights)


def decompress_refined(payload: RefinePayload) -> ProbabilityDistribution:
    """The stored distribution, from the payload alone: no access to P."""
    weights, total = refined_weights(payload)
    return ProbabilityDistribution(tuple(Fraction(w, total) for w in weights))
