"""The slow reference implementations double as their own test targets.

They must agree with the primary pipeline on small inputs; the
acceptance suite runs the same comparison at scale.  The corpus
generators in conftest must keep drawing the same inputs.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from pdzip.core import ProbabilityDistribution, entropy, relative_entropy
from pdzip.treebuild import code_tree
from naive import (
    LinkedTree,
    bits,
    fraction_code_tree,
    fraction_codeword,
    fraction_midpoints,
    naive_code_tree_depths,
    naive_codeword_bits,
    naive_codeword_length,
    naive_codewords,
    naive_divergence,
    naive_entropy,
    naive_trie,
)
from conftest import random_tree_depths


def dist(*weights):
    return ProbabilityDistribution.from_weights([Fraction(w) for w in weights])


class TestNaiveCodewords:
    def test_lengths(self):
        assert naive_codeword_length(Fraction(1, 2)) == 2
        assert naive_codeword_length(Fraction(1, 4)) == 3
        assert naive_codeword_length(Fraction(1, 10)) == 5
        assert naive_codeword_length(Fraction(1)) == 1

    def test_bits(self):
        assert naive_codeword_bits(Fraction(1, 8), 3) == "001"
        assert naive_codeword_bits(Fraction(19, 20), 5) == "11110"

    def test_codewords_match_primary(self):
        rng = random.Random(149)
        for _ in range(50):
            n = rng.randint(1, 6)
            weights = [rng.randint(1, 20) for _ in range(n)]
            p = ProbabilityDistribution.from_weights(weights)
            assert naive_codewords(p) == [
                format(value, f"0{length}b") for value, length in
                map(fraction_codeword, fraction_midpoints(p), p.entries)]
            want = fraction_code_tree(p)
            assert code_tree(p) == want
            assert naive_code_tree_depths(p) == want.leaf_depths


class TestNaivePipeline:
    def test_example(self):
        assert naive_code_tree_depths(dist(2, 1, 1)) == (1, 2, 2)

    def test_single(self):
        assert naive_code_tree_depths(dist(1)) == (0,)

    def test_matches_primary_small(self):
        rng = random.Random(151)
        for _ in range(100):
            n = rng.randint(1, 6)
            weights = [rng.randint(1, 64) for _ in range(n)]
            p = ProbabilityDistribution.from_weights(weights)
            assert naive_code_tree_depths(p) == code_tree(p).leaf_depths

    def test_trie_rejects_prefix_overlap(self):
        with pytest.raises(ValueError):
            naive_trie(["01", "011"])


class TestLinkedTree:
    def test_example_navigation(self):
        t = LinkedTree(bits("1100100"))
        assert t.n == 4
        assert t.left_child(0) == 1
        assert t.right_child(0) == 4
        assert t.parent(6) == 4
        assert t.num_descendants(1) == 3
        assert t.leaf_depth(2) == 2
        assert t.leaf_position(1) == 2

    def test_odd_length_required(self):
        with pytest.raises(ValueError):
            LinkedTree(bits("10"))


class TestNaiveInfoMeasures:
    def test_agree_with_primary(self):
        rng = random.Random(157)
        for _ in range(50):
            n = rng.randint(1, 20)
            p = ProbabilityDistribution.from_weights(
                [rng.randint(1, 30) for _ in range(n)])
            q = ProbabilityDistribution.from_weights(
                [rng.randint(1, 30) for _ in range(n)])
            assert naive_entropy(p) == pytest.approx(entropy(p), abs=1e-9)
            assert naive_divergence(p, q) == pytest.approx(
                relative_entropy(p, q), abs=1e-9)


def test_random_tree_depths_are_pinned():
    # the digest of the trees these seeds made when random_tree_depths
    # still called rng.randint: a faster generator must draw the same ones
    h = hashlib.sha256()
    for seed in range(20):
        rng = random.Random(seed)
        for n in (1, 2, 3, 17, 400, 3000):
            for balanced in (False, True):
                h.update(repr(random_tree_depths(rng, n, balanced)).encode())
    assert h.hexdigest() == (
        "8d8a6b32d192dfd1b784ee9593e2e8cfe8f9c8b61dc49dd29a6657d65c92450c")
