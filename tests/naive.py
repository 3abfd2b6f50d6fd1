"""Slow, obviously-correct reference implementations for tests.

Everything here recomputes results from first principles with none of
the primary modules' machinery: codewords are built by repeated
doubling of exact fractions, tries hold one node per bit, contraction
is a recursive rewrite, navigation reads explicit parent/child arrays,
and the information measures are direct floating-point sums.  Clarity
over speed; intended for small inputs in the test suite only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from pdzip.core import ProbabilityDistribution


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
