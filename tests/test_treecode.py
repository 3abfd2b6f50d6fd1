import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdzip.bits import Bits
from pdzip.core import ProbabilityDistribution
from pdzip.refine import RefinedIndex, RefinePayload, refined_exponents
from pdzip.treebuild import StrictTreeShape, code_tree
from pdzip.treecode import (
    DyadicDistribution,
    MalformedPayloadError,
    TreePayload,
    compress_tree,
    decode_tree,
    encode_tree,
    implied_distribution,
)
from conftest import random_distribution, random_tree_depths
from naive import LinkedTree


class TestEncode:
    def test_examples(self):
        assert encode_tree(StrictTreeShape((0,))).bits.to01() == ""
        assert encode_tree(StrictTreeShape((1, 1))).bits.to01() == "10"
        assert encode_tree(StrictTreeShape((1, 2, 2))).bits.to01() == "1010"
        assert encode_tree(
            StrictTreeShape((2, 2, 2, 2))).bits.to01() == "110010"

    def test_length_is_2n_minus_2(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randint(1, 400)
            shape = StrictTreeShape(random_tree_depths(rng, n))
            payload = encode_tree(shape)
            assert len(payload.bits) == 2 * n - 2
            assert payload.n == n


class TestDecode:
    def test_examples(self):
        assert decode_tree(TreePayload(Bits.empty(), 1)).leaf_depths == (0,)
        assert decode_tree(
            TreePayload(Bits.from_string("1010"), 3)).leaf_depths == (1, 2, 2)
        assert decode_tree(
            TreePayload(Bits.from_string("1100"), 3)).leaf_depths == (2, 2, 1)

    def test_round_trip(self):
        rng = random.Random(43)
        for _ in range(80):
            n = rng.randint(1, 500)
            shape = StrictTreeShape(random_tree_depths(rng, n))
            assert decode_tree(encode_tree(shape)) == shape

    def test_deep_chain(self):
        n = 3000
        shape = StrictTreeShape(tuple(range(1, n)) + (n - 1,))
        assert decode_tree(encode_tree(shape)) == shape

    def test_tree_closes_early(self):
        with pytest.raises(MalformedPayloadError):
            decode_tree(TreePayload(Bits.from_string("0100"), 3))

    def test_bits_run_out(self):
        with pytest.raises(MalformedPayloadError):
            decode_tree(TreePayload(Bits.from_string("1110"), 3))

    def test_payload_length_checked(self):
        with pytest.raises(MalformedPayloadError):
            TreePayload(Bits.from_string("10"), 3)
        with pytest.raises(MalformedPayloadError):
            TreePayload(Bits.from_string("1010"), 2)


def _tree_bits(n, rng, flip):
    """A random tree's 2n-2 stored bits, with bit `flip` flipped if any."""
    bits = encode_tree(StrictTreeShape(random_tree_depths(rng, n))).bits.as_int()
    if 0 <= flip < 2 * n - 2:
        bits ^= 1 << flip
    return n, bits


_stored = st.one_of(
    st.integers(1, 64).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, (1 << (2 * n - 2)) - 1))),
    st.builds(_tree_bits, st.integers(1, 64), st.randoms(use_true_random=False),
              st.integers(-1, 125)),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_stored, st.lists(st.integers(0, (1 << 64) - 1), max_size=3))
def test_walk_matches_linked_tree(stored, level_ints):
    # the one walker either rejects the bits or finds the linked tree's
    # leaf depths; the refine decoders on the same bits raise nothing else
    n, value = stored
    base = TreePayload(Bits.from_int(value, 2 * n - 2), n)
    levels = tuple(Bits.from_int(v >> (64 - n), n) for v in level_ints)
    refine = RefinePayload(len(levels) + 2, base, levels)
    try:
        tree = LinkedTree(list(base.bits) + [0])
    except ValueError:
        for decode in (decode_tree, refined_exponents, RefinedIndex):
            with pytest.raises(MalformedPayloadError):
                decode(base if decode is decode_tree else refine)
        return
    depths = tuple(tree.leaf_depth(i) for i in range(1, n + 1))
    assert decode_tree(base).leaf_depths == depths
    marks = [sum(level[i] for level in levels) for i in range(n)]
    exponents, total = refined_exponents(refine)
    assert exponents == [max(depths) - d + m for d, m in zip(depths, marks)]
    assert total == sum(1 << e for e in exponents)
    assert RefinedIndex(refine).query_prob(n) == Fraction(1 << exponents[-1], total)


class TestDyadic:
    def test_probabilities(self):
        d = DyadicDistribution((1, 2, 2))
        assert [str(x) for x in d.probabilities()] == ["1/2", "1/4", "1/4"]
        p = d.to_distribution()
        assert isinstance(p, ProbabilityDistribution)
        assert sum(p) == 1

    def test_implied_distribution(self):
        payload = compress_tree(
            ProbabilityDistribution.from_weights([2, 1, 1]))
        q = implied_distribution(decode_tree(payload))
        assert [str(x) for x in q.probabilities()] == ["1/2", "1/4", "1/4"]

    def test_single(self):
        q = implied_distribution(decode_tree(TreePayload(Bits.empty(), 1)))
        assert list(q.probabilities()) == [1]


class TestCompressTree:
    def test_matches_code_tree(self):
        rng = random.Random(47)
        for _ in range(30):
            p = random_distribution(rng, rng.randint(1, 60))
            payload = compress_tree(p)
            assert decode_tree(payload) == code_tree(p)

    def test_identity_on_implied(self):
        # recompressing the implied dyadic distribution reproduces the
        # payload bit for bit
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(1, 200)
            shape = StrictTreeShape(random_tree_depths(rng, n))
            payload = encode_tree(shape)
            dyadic = implied_distribution(decode_tree(payload))
            again = compress_tree(dyadic.to_distribution())
            assert again.bits == payload.bits
