import itertools
import random
from fractions import Fraction

import pytest

from pdzip import treebuild
from pdzip.core import ProbabilityDistribution, max_ratio
from pdzip.treebuild import (
    CodewordSetError,
    StrictTreeShape,
    ZeroProbabilityError,
    capped_tree,
    code_tree,
    contract_to_strict,
    midpoints,
)
from conftest import ordered_tree_fits, random_distribution
from naive import (
    fraction_code_tree,
    fraction_codeword,
    naive_code_tree_depths,
    naive_codeword_length,
    naive_codewords,
    naive_contract,
    naive_leaf_depths,
    naive_trie,
)


def dist(*weights):
    return ProbabilityDistribution.from_weights([Fraction(w) for w in weights])


def contract(*words):
    """contract_to_strict of codewords spelled as 0/1 strings."""
    return contract_to_strict([int(w, 2) if w else 0 for w in words],
                              [len(w) for w in words])


def midpoint_fractions(p):
    # midpoints are numerators over 2 * total
    return tuple(Fraction(m, 2 * p.total) for m in midpoints(p))


class TestMidpoints:
    def test_uniform_four(self):
        assert midpoint_fractions(dist(1, 1, 1, 1)) == (
            Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8))
        assert midpoints(dist(1, 1, 1, 1)) == (1, 3, 5, 7)

    def test_dyadic(self):
        assert midpoint_fractions(dist(2, 1, 1)) == (
            Fraction(1, 4), Fraction(5, 8), Fraction(7, 8))

    def test_single(self):
        assert midpoint_fractions(dist(1)) == (Fraction(1, 2),)

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroProbabilityError, match="entry 2"):
            midpoints(dist(1, 0, 1))

    def test_strictly_increasing_in_unit_interval(self):
        rng = random.Random(23)
        for _ in range(50):
            p = random_distribution(rng, rng.randint(1, 64))
            vals = midpoint_fractions(p)
            assert all(0 < v < 1 for v in vals)
            assert all(a < b for a, b in zip(vals, vals[1:]))


def symbol_at(mid, w, total):
    """A distribution over `total` in which symbol i has weight w and
    midpoint mid / 2total, and that index i."""
    prefix = (mid - w) // 2
    rest = total - prefix - w
    return dist(*(x for x in (prefix, w, rest) if x)), int(prefix > 0)


def assert_matches_references(p, *shapes):
    """code_tree(p), and any shapes given, against the Fraction and naive
    references; a contracted shape reads its depths from its flags."""
    want = fraction_code_tree(p)
    for got in (code_tree(p),) + shapes:
        assert got.leaf_depths == want.leaf_depths == naive_code_tree_depths(p)
        assert got.flags == want.flags == StrictTreeShape(got.leaf_depths).flags


class TestCodeword:
    """code_tree's codeword formula, through the tree it builds, against
    the Fraction formula and the bit-by-bit references."""

    def test_examples(self):
        for mid, w, total, word in ((1, 1, 4, "001"), (1, 1, 2, "01"),
                                    (19, 1, 10, "11110")):
            p, i = symbol_at(mid, w, total)
            assert naive_codewords(p)[i] == word
            assert fraction_codeword(Fraction(mid, 2 * total),
                                     Fraction(w, total)) == (int(word, 2),
                                                             len(word))
            assert_matches_references(p)
        # one leaf, whose flags are the single 0; and a comb of depth 40,
        # one run of 40 internal nodes, from its dyadic weights and from
        # capped_tree over its depths
        assert_matches_references(dist(1))
        comb = tuple(range(1, 41)) + (40,)
        assert_matches_references(dist(*(2 ** (40 - d) for d in comb)),
                                  capped_tree(comb))

    def test_length_rule(self):
        # length is the least L with 2^L >= 2/p
        rng = random.Random(29)
        for _ in range(100):
            den = rng.randint(2, 10 ** 6)
            num = rng.randint(1, den - 1)
            prob = Fraction(num, den)
            start = rng.randint(0, den - 1)
            if start + num > den:  # no distribution holds this interval
                continue
            length = fraction_codeword(Fraction(start, den) + prob / 2,
                                       prob)[1]
            assert length == naive_codeword_length(prob)
            assert Fraction(2) ** length >= 2 / prob
            assert Fraction(2) ** (length - 1) < 2 / prob
            p, i = symbol_at(2 * start + num, num, den)
            assert_matches_references(p)
            assert Fraction(2) ** code_tree(p).leaf_depths[i] * prob < 4

    def test_value_is_truncation(self):
        # codeword bits are the first L binary digits of the midpoint:
        # 5/8 = 0.101b, L = 3
        p, i = symbol_at(5, 1, 4)
        assert p == dist(2, 1, 1) and i == 1
        assert naive_codewords(p)[i] == "101"
        value, length = fraction_codeword(Fraction(5, 8), Fraction(1, 4))
        assert (value, length) == (5, 3)
        assert Fraction(value, 2 ** length) <= Fraction(5, 8)
        assert_matches_references(p)

    def test_out_of_range_rejected(self):
        # a zero weight has no codeword; every midpoint of a distribution
        # lies in (0, 1), so code_tree never sees one out of range
        p = dist(1, 0, 3)
        with pytest.raises(ZeroProbabilityError):
            code_tree(p)
        with pytest.raises(ValueError):
            fraction_code_tree(p)
        with pytest.raises(ValueError):
            naive_code_tree_depths(p)


class TestContraction:
    def test_already_strict(self):
        shape = contract("001", "011", "101", "111")
        assert shape.leaf_depths == (2, 2, 2, 2)

    def test_depth_reduction(self):
        shape = contract("01", "11110")
        assert shape.leaf_depths == (1, 1)

    def test_mixed(self):
        shape = contract("01", "101", "111")
        assert shape.leaf_depths == (1, 2, 2)

    def test_prefix_violation(self):
        # 01, 010
        with pytest.raises(CodewordSetError):
            contract_to_strict([0b01, 0b010], [2, 3])

    def test_out_of_order(self):
        # 10, 01
        with pytest.raises(CodewordSetError):
            contract_to_strict([0b10, 0b01], [2, 2])

    def test_duplicate(self):
        # 01, 01
        with pytest.raises(CodewordSetError):
            contract_to_strict([0b01, 0b01], [2, 2])

    def test_empty(self):
        with pytest.raises(CodewordSetError):
            contract_to_strict([], [])

    def test_every_sorted_set_of_short_codewords(self):
        # all 2^14 sets of distinct codewords of length 1..3, sorted: the
        # result is the per-bit trie contraction exactly when the set is
        # prefix-free, and CodewordSetError otherwise
        words = sorted("".join(bits) for length in (1, 2, 3)
                       for bits in itertools.product("01", repeat=length))
        for mask in range(1, 1 << len(words)):
            chosen = [w for k, w in enumerate(words) if mask >> k & 1]
            try:
                want = naive_leaf_depths(naive_contract(naive_trie(chosen)))
            except ValueError:
                with pytest.raises(CodewordSetError):
                    contract(*chosen)
            else:
                got = contract(*chosen)
                assert got.leaf_depths == want, chosen
                assert got.flags == StrictTreeShape(want).flags, chosen


class TestCodeTree:
    def test_examples(self):
        assert code_tree(dist(2, 1, 1)).leaf_depths == (1, 2, 2)
        assert code_tree(dist(9, 1)).leaf_depths == (1, 1)
        assert code_tree(dist(7, 3)).leaf_depths == (1, 1)

    def test_single_symbol(self):
        assert code_tree(dist(1)).leaf_depths == (0,)

    def test_zero_rejected(self):
        with pytest.raises(ZeroProbabilityError):
            code_tree(dist(1, 0))

    def test_kraft_equality_and_depth_bound(self):
        rng = random.Random(31)
        for _ in range(60):
            p = random_distribution(rng, rng.randint(1, 100))
            depths = code_tree(p).leaf_depths
            assert sum(Fraction(1, 2 ** d) for d in depths) == 1
            for d, prob in zip(depths, p):
                assert Fraction(2) ** d * prob < 4

    def test_implied_ratio_bound(self):
        rng = random.Random(37)
        for _ in range(40):
            p = random_distribution(rng, rng.randint(1, 80))
            depths = code_tree(p).leaf_depths
            q = ProbabilityDistribution(
                tuple(Fraction(1, 2 ** d) for d in depths))
            assert max_ratio(p, q) < 4


class TestCappedTree:
    def test_greedy_agrees_with_interval_dp(self):
        # every cap vector up to n = 5: the greedy finds a tree exactly
        # when the exhaustive interval DP says one exists
        for n in range(1, 6):
            for caps in itertools.product(range(-1, 4), repeat=n):
                shape = capped_tree(caps)
                assert (shape is not None) == ordered_tree_fits(caps), caps
                if shape is not None:
                    assert all(d <= c for d, c in
                               zip(shape.leaf_depths, caps))


def test_trees_contract_through_contract_to_strict(monkeypatch):
    # the per-layer trace times the contraction by rebinding
    # treebuild.contract_to_strict, so code_tree and capped_tree must look
    # it up by that name: each tree built is one call, a refusal is none
    rng = random.Random(41)
    dists = [dist(1), dist(2, 1, 1)] + [random_distribution(rng, n)
                                        for n in (2, 50, 300)]
    # slack over a code tree's depths always fits; (3, 1, 2, 3) never does
    caps = [(3, 2, 4, 4, 2), (3, 1, 2, 3)] + [
        tuple(d + rng.randint(0, 2) for d in code_tree(p).leaf_depths)
        for p in dists]
    calls = []
    real = treebuild.contract_to_strict

    def counting(values, lengths):
        calls.append(len(values))
        return real(values, lengths)
    monkeypatch.setattr(treebuild, "contract_to_strict", counting)
    for p in dists:
        assert code_tree(p).leaf_depths == naive_code_tree_depths(p)
        assert calls.pop() == p.n and not calls
    for c in caps:
        shape = capped_tree(c)
        assert calls == ([len(c)] if shape else []), c
        calls.clear()
    assert capped_tree((3, 1, 2, 3)) is None


class TestStrictTreeShape:
    def test_valid_shapes(self):
        StrictTreeShape((0,))
        StrictTreeShape((1, 1))
        StrictTreeShape((1, 2, 2))
        StrictTreeShape((2, 2, 1))
        StrictTreeShape((2, 2, 2, 2))

    def test_invalid_shapes(self):
        for bad in ((1,), (2, 1, 1), (1, 1, 2), (1, 2), (0, 0), (1, 2, 2, 2)):
            with pytest.raises(ValueError):
                StrictTreeShape(bad)

    def test_n(self):
        assert StrictTreeShape((1, 2, 2)).n == 3
