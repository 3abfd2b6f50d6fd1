"""Slow, obviously-correct reference implementations for tests.

Everything here recomputes results from first principles with none of
the primary modules' machinery: codewords are built by repeated
doubling of exact fractions, tries hold one node per bit, contraction
is a recursive rewrite, navigation reads explicit parent/child arrays,
and the information measures are direct floating-point sums.  Clarity
over speed; intended for small inputs in the test suite only.

The last section is the exception: it keeps the Fraction formulas that
the package's integer-weight construction replaced (midpoints and
codewords, the refine thresholds, the heavy-symbol test and smoothing)
and feeds them to the package's own `contract_to_strict`, codecs and
container, so a test can require byte-identical containers.

`bits("0101")` spells a Bits value as a 0/1 string.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from pdzip.bits import Bits
from pdzip.core import (DistributionError, ProbabilityDistribution, _log2_ratio,
                        ceil_log2_ratio)
from pdzip.refine import RefinePayload
from pdzip.sparse import SparsePayload
from pdzip.treebuild import capped_tree, contract_to_strict
from pdzip.treecode import StrictTreeShape, encode_tree, implied_distribution


def bits(text: str) -> Bits:
    return Bits.from_int(int(text or "0", 2), len(text))


# ----------------------------------------------------------------------
# codewords by repeated doubling

def naive_codeword_length(p: Fraction) -> int:
    """Smallest L with 2^L >= 2/p, found by doubling."""
    if not 0 < p <= 1:
        raise ValueError("probability must be in (0, 1]")
    length = 0
    power = Fraction(1)
    while power < 2 / p:
        power *= 2
        length += 1
    return length


def naive_codeword_bits(midpoint: Fraction, length: int) -> str:
    """First `length` bits of midpoint's binary expansion, by doubling."""
    if not 0 <= midpoint < 1:
        raise ValueError("midpoint must be in [0, 1)")
    out = []
    x = midpoint
    for _ in range(length):
        x *= 2
        if x >= 1:
            out.append("1")
            x -= 1
        else:
            out.append("0")
    return "".join(out)


def naive_codewords(dist: ProbabilityDistribution) -> list[str]:
    acc = Fraction(0)
    words = []
    for p in dist.entries:
        if p <= 0:
            raise ValueError("zero probability has no codeword")
        mid = acc + p / 2
        words.append(naive_codeword_bits(mid, naive_codeword_length(p)))
        acc += p
    return words


# ----------------------------------------------------------------------
# per-bit trie and recursive contraction

class TrieNode:
    def __init__(self):
        self.children: list[Optional["TrieNode"]] = [None, None]
        self.terminal = False


def naive_trie(codewords: Sequence[str]) -> TrieNode:
    """One node per bit; flags the node at the end of each codeword."""
    root = TrieNode()
    for word in codewords:
        node = root
        for ch in word:
            if node.terminal:
                raise ValueError("a codeword is a prefix of another")
            b = 1 if ch == "1" else 0
            if node.children[b] is None:
                node.children[b] = TrieNode()
            node = node.children[b]
        if node.terminal or node.children[0] or node.children[1]:
            raise ValueError("codewords are not prefix-free")
        node.terminal = True
    return root


def naive_contract(node: TrieNode) -> TrieNode:
    """Recursively splice out every node with exactly one child."""
    kids = [c for c in node.children if c is not None]
    if not kids:
        return node
    if len(kids) == 1:
        return naive_contract(kids[0])
    fresh = TrieNode()
    fresh.children = [naive_contract(node.children[0]),
                      naive_contract(node.children[1])]
    return fresh


def naive_leaf_depths(root: TrieNode) -> tuple[int, ...]:
    depths: list[int] = []

    def walk(node: TrieNode, d: int) -> None:
        kids = [c for c in node.children if c is not None]
        if not kids:
            depths.append(d)
            return
        walk(node.children[0], d + 1)
        walk(node.children[1], d + 1)

    walk(root, 0)
    return tuple(depths)


def naive_code_tree_depths(dist: ProbabilityDistribution) -> tuple[int, ...]:
    """The full pipeline: codewords -> trie -> contract -> depths."""
    if dist.n == 1:
        if dist.entries[0] <= 0:
            raise ValueError("zero probability has no codeword")
        return (0,)
    return naive_leaf_depths(naive_contract(naive_trie(naive_codewords(dist))))


# ----------------------------------------------------------------------
# explicitly linked strict tree for navigation oracles

class LinkedTree:
    """Arrays indexed by preorder position; every answer is a lookup."""

    def __init__(self, shape_bits: Sequence[int]):
        m = len(shape_bits)
        if m % 2 != 1:
            raise ValueError("a strict tree has an odd node count")
        internal = [b == 1 for b in shape_bits]
        parent = [-1] * m
        left = [-1] * m
        right = [-1] * m
        open_nodes: list[int] = []
        for v in range(m):
            if v > 0:
                if not open_nodes:
                    raise ValueError("node flags do not describe one tree")
                p = open_nodes[-1]
                parent[v] = p
                if left[p] < 0:
                    left[p] = v
                else:
                    right[p] = v
                    open_nodes.pop()
            if internal[v]:
                open_nodes.append(v)
        if open_nodes:
            raise ValueError("node flags leave an unfinished tree")
        size = [1] * m
        depth = [0] * m
        for v in range(m - 1, 0, -1):
            size[parent[v]] += size[v]
        for v in range(1, m):
            depth[v] = depth[parent[v]] + 1
        self.m = m
        self.internal = internal
        self.parent_of = parent
        self.left_of = left
        self.right_of = right
        self.size_of = size
        self.depth_of = depth
        self.leaves = [v for v in range(m) if not internal[v]]

    @property
    def n(self) -> int:
        return len(self.leaves)

    def is_leaf(self, v: int) -> bool:
        return not self.internal[v]

    def parent(self, v: int) -> int:
        if v == 0:
            raise ValueError("the root has no parent")
        return self.parent_of[v]

    def left_child(self, v: int) -> int:
        if not self.internal[v]:
            raise ValueError("a leaf has no children")
        return self.left_of[v]

    def right_child(self, v: int) -> int:
        if not self.internal[v]:
            raise ValueError("a leaf has no children")
        return self.right_of[v]

    def num_descendants(self, v: int) -> int:
        return self.size_of[v]

    def leaf_depth(self, i: int) -> int:
        return self.depth_of[self.leaves[i - 1]]

    def leaf_position(self, i: int) -> int:
        return self.leaves[i - 1]


def fraction_decompress_refined(payload: RefinePayload) -> tuple[Fraction, ...]:
    """Replay the stored levels one at a time from the base tree's
    2^{-d_i}: double every marked q_i, then renormalize."""
    tree = LinkedTree(list(payload.base.bits) + [0])
    q = [Fraction(1, 1 << tree.leaf_depth(i)) for i in range(1, tree.n + 1)]
    for level in payload.levels:
        q = [2 * x if b else x for x, b in zip(q, level)]
        total = sum(q)
        q = [x / total for x in q]
    return tuple(q)


# ----------------------------------------------------------------------
# direct-summation measures

def naive_entropy(ps: Sequence) -> float:
    total = 0.0
    for p in ps:
        p = float(p)
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def naive_divergence(ps: Sequence, qs: Sequence) -> float:
    if len(ps) != len(qs):
        raise ValueError("distributions have different lengths")
    total = 0.0
    for p, q in zip(ps, qs):
        p = float(p)
        if p > 0.0:
            total += p * math.log2(p / float(q))
    return total


def log2_fraction(x: Fraction) -> float:
    """log2 of a positive rational through the package's per-term helper,
    stable for huge numerators and denominators."""
    return _log2_ratio(x.numerator, x.denominator)


# ----------------------------------------------------------------------
# the Fraction formulas of the construction, before integer weights

def lcm_weights(entries: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Reduced Fractions summing to 1 as integer weights over the lcm of
    their denominators, and that lcm."""
    total = math.lcm(*(p.denominator for p in entries))
    return tuple(p.numerator * (total // p.denominator) for p in entries), total


def fraction_from_weights(weights) -> tuple[tuple[int, ...], int, tuple[Fraction, ...]]:
    """(weights, total, entries) of w_i / sum(w): each entry a reduced
    Fraction, then all of them over the lcm of their denominators."""
    ws = [Fraction(*w.as_integer_ratio()) for w in weights]
    s = sum(ws)
    entries = tuple(w / s for w in ws)
    return *lcm_weights(entries), entries


def fraction_midpoints(dist: ProbabilityDistribution) -> tuple[Fraction, ...]:
    """S_i = p_i/2 + sum_{j<i} p_j, added up in Fractions."""
    vals = []
    acc = Fraction(0)
    for p in dist.entries:
        if p <= 0:
            raise ValueError("zero probability has no codeword")
        vals.append(acc + p / 2)
        acc += p
    return tuple(vals)


def fraction_codeword(midpoint: Fraction, prob: Fraction) -> tuple[int, int]:
    """The first ceil(log2(2/prob)) bits of midpoint's binary expansion,
    as a (value, length) pair."""
    length = ceil_log2_ratio(2 * prob.denominator, prob.numerator)
    return (midpoint.numerator << length) // midpoint.denominator, length


def fraction_code_tree(dist: ProbabilityDistribution) -> StrictTreeShape:
    if dist.n == 1:
        return StrictTreeShape((0,))
    values, lengths = zip(*map(fraction_codeword, fraction_midpoints(dist),
                               dist.entries))
    return contract_to_strict(values, lengths)


def fraction_refine_step(dist: ProbabilityDistribution,
                         q_prev: ProbabilityDistribution, k: int):
    """Mark p_i >= (1 + 2^(3-k)) q_i, double the marked q_i, renormalize."""
    pre_bound = 2 + Fraction(1, 2) ** (k - 4)
    threshold = 1 + Fraction(1, 2) ** (k - 3)
    marks = []
    marked_mass = Fraction(0)
    for p, q in zip(dist.entries, q_prev.entries):
        if p >= pre_bound * q:
            raise DistributionError(f"ratio precondition violated at level {k}")
        marks.append(1 if p >= threshold * q else 0)
        if marks[-1]:
            marked_mass += q
    normalizer = 1 + marked_mass
    new_q = tuple((2 * q if m else q) / normalizer
                  for m, q in zip(marks, q_prev.entries))
    # weights over math.lcm, stored unchecked: the package's _over_lcm never runs
    q = ProbabilityDistribution._trusted(*lcm_weights(new_q), new_q, None, None,
                                         None)
    return bits("".join(map(str, marks))), q


def fraction_compress_refined(dist: ProbabilityDistribution, k: int) -> RefinePayload:
    shape = fraction_code_tree(dist)
    q = implied_distribution(shape).to_distribution()
    levels = []
    for level in range(3, k + 1):
        bits, q = fraction_refine_step(dist, q, level)
        levels.append(bits)
    return RefinePayload(k, encode_tree(shape), tuple(levels))


def fraction_select_heavy(dist: ProbabilityDistribution, c: Fraction) -> SparsePayload:
    """p_i = a/b is heavy when a^(cn+cd) * n^cd >= b^(cn+cd), per symbol."""
    n = dist.n
    e = c.numerator + c.denominator
    nf = n ** c.denominator
    heavy = [(p, i) for i, p in enumerate(dist.entries, start=1)
             if p > 0 and p.numerator ** e * nf >= p.denominator ** e]
    heavy.sort(key=lambda pi: (-pi[0], pi[1]))
    return SparsePayload(n, c, tuple(i for _, i in heavy))


def max_heavy_count(n: int, c: Fraction) -> int:
    """floor(n^{1/(c+1)}) in exact integers: at most this many p_i reach
    the heavy threshold n^{-1/(c+1)}."""
    cn, cd = c.numerator, c.denominator
    e = cn + cd
    target = n ** cd
    m = max(int(n ** (cd / e)), 0)
    while (m + 1) ** e <= target:
        m += 1
    while m > 0 and m ** e > target:
        m -= 1
    return m


def fraction_smooth(dist: ProbabilityDistribution, eps: Fraction) -> ProbabilityDistribution:
    """p_i/(1 + eps/4) + (eps/4)/((1 + eps/4) n), in Fractions."""
    lam = eps / 4
    floor_term = lam / ((1 + lam) * dist.n)
    return ProbabilityDistribution(
        tuple(p / (1 + lam) + floor_term for p in dist.entries))


def fraction_smoothed_tree(dist: ProbabilityDistribution, eps: Fraction) -> StrictTreeShape:
    """The tree build_smoothed indexes, with its caps taken in Fractions."""
    n = dist.n
    tree = fraction_code_tree(fraction_smooth(dist, eps))
    if any(Fraction(1, 1 << d) <= eps / (4 * n) for d in tree.leaf_depths):
        caps = []
        for p in dist.entries:
            f = max(p / (4 + eps), eps / (4 * n))
            caps.append(ceil_log2_ratio(f.denominator, f.numerator) - 1)
        capped = capped_tree(caps)
        if capped is not None:
            tree = capped
    return tree
