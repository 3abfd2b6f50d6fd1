import itertools
import random
from fractions import Fraction

import pytest

from pdzip.core import ProbabilityDistribution, max_ratio
from pdzip.treebuild import (
    Codeword,
    CodewordSetError,
    StrictTreeShape,
    ZeroProbabilityError,
    capped_tree,
    code_tree,
    codeword,
    contract_to_strict,
    midpoints,
)
from conftest import ordered_tree_fits, random_distribution
from naive import naive_contract, naive_leaf_depths, naive_trie


def dist(*weights):
    return ProbabilityDistribution.from_weights([Fraction(w) for w in weights])


def cw(s):
    return Codeword(int(s, 2) if s else 0, len(s))


class TestMidpoints:
    def test_uniform_four(self):
        m = midpoints(dist(1, 1, 1, 1))
        assert m.values == (Fraction(1, 8), Fraction(3, 8),
                            Fraction(5, 8), Fraction(7, 8))

    def test_dyadic(self):
        m = midpoints(dist(2, 1, 1))
        assert m.values == (Fraction(1, 4), Fraction(5, 8), Fraction(7, 8))

    def test_single(self):
        assert midpoints(dist(1)).values == (Fraction(1, 2),)

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroProbabilityError, match="entry 2"):
            midpoints(dist(1, 0, 1))

    def test_strictly_increasing_in_unit_interval(self):
        rng = random.Random(23)
        for _ in range(50):
            p = random_distribution(rng, rng.randint(1, 64))
            vals = midpoints(p).values
            assert all(0 < v < 1 for v in vals)
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestCodeword:
    def test_examples(self):
        assert codeword(Fraction(1, 8), Fraction(1, 4)).to01() == "001"
        assert codeword(Fraction(1, 4), Fraction(1, 2)).to01() == "01"
        assert codeword(Fraction(19, 20), Fraction(1, 10)).to01() == "11110"

    def test_length_rule(self):
        # length is the least L with 2^L >= 2/p
        rng = random.Random(29)
        for _ in range(100):
            den = rng.randint(2, 10 ** 6)
            num = rng.randint(1, den - 1)
            p = Fraction(num, den)
            mid = Fraction(rng.randint(0, den - 1), den) + p / 2
            if mid >= 1:
                continue
            c = codeword(mid, p)
            assert Fraction(2) ** c.length >= 2 / p
            assert Fraction(2) ** (c.length - 1) < 2 / p

    def test_value_is_truncation(self):
        # codeword bits are the first L binary digits of the midpoint
        c = codeword(Fraction(5, 8), Fraction(1, 4))
        # 5/8 = 0.101b, L = 3
        assert c.to01() == "101"
        assert c.bits == (1, 0, 1)
        assert Fraction(c.value, 2 ** c.length) <= Fraction(5, 8)


class TestContraction:
    def test_already_strict(self):
        shape = contract_to_strict([cw("001"), cw("011"), cw("101"),
                                    cw("111")])
        assert shape.leaf_depths == (2, 2, 2, 2)

    def test_depth_reduction(self):
        shape = contract_to_strict([cw("01"), cw("11110")])
        assert shape.leaf_depths == (1, 1)

    def test_mixed(self):
        shape = contract_to_strict([cw("01"), cw("101"), cw("111")])
        assert shape.leaf_depths == (1, 2, 2)

    def test_prefix_violation(self):
        with pytest.raises(CodewordSetError):
            contract_to_strict([cw("01"), cw("010")])

    def test_out_of_order(self):
        with pytest.raises(CodewordSetError):
            contract_to_strict([cw("10"), cw("01")])

    def test_duplicate(self):
        with pytest.raises(CodewordSetError):
            contract_to_strict([cw("01"), cw("01")])

    def test_empty(self):
        with pytest.raises(CodewordSetError):
            contract_to_strict([])

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
                    contract_to_strict([cw(w) for w in chosen])
            else:
                got = contract_to_strict([cw(w) for w in chosen])
                assert got.leaf_depths == want, chosen


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
