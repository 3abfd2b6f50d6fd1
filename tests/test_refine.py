import inspect
import random
from fractions import Fraction

import pytest

from pdzip.bits import Bits
from pdzip.core import (
    DistributionError,
    ProbabilityDistribution,
    log2_fraction,
    max_ratio,
    relative_entropy,
)
from pdzip.refine import (
    RefinedIndex,
    RefinePayload,
    compress_refined,
    decompress_refined,
    refine_step,
    refined_exponents,
)
from pdzip.treebuild import ZeroProbabilityError
from pdzip.treecode import (StrictTreeShape, TreePayload, decode_tree,
                            encode_tree, implied_distribution)
from conftest import random_distribution
from naive import fraction_decompress_refined


def dist(*weights):
    return ProbabilityDistribution.from_weights([Fraction(w) for w in weights])


class TestRefineStep:
    def test_example(self):
        p = dist(7, 3)
        q = dist(1, 3)
        marks, q2 = refine_step(p, q, 3)
        assert marks.to01() == "10"
        assert tuple(q2) == (Fraction(2, 5), Fraction(3, 5))

    def test_no_marks_identity(self):
        p = dist(7, 3)
        q = dist(1, 1)
        marks, q2 = refine_step(p, q, 3)
        assert marks.to01() == "00"
        assert tuple(q2) == (Fraction(1, 2), Fraction(1, 2))

    def test_threshold_is_inclusive(self):
        # ratio exactly 1 + 2^(3-k) must be marked
        p = dist(2, 1)
        q = dist(1, 2)
        marks, q2 = refine_step(p, q, 3)  # ratio1 = 2 == threshold
        assert marks.to01() == "10"
        assert tuple(q2) == (Fraction(1, 2), Fraction(1, 2))

    def test_precondition_violated(self):
        p = dist(9, 1)
        q = dist(1, 9)
        with pytest.raises(DistributionError, match="precondition"):
            refine_step(p, q, 3)  # ratio 9 >= 4

    def test_level_must_be_at_least_three(self):
        with pytest.raises(ValueError):
            refine_step(dist(1, 1), dist(1, 1), 2)

    def test_ratio_shrinks_per_level(self):
        rng = random.Random(59)
        for _ in range(30):
            p = random_distribution(rng, rng.randint(1, 40))
            from pdzip.treecode import compress_tree, implied_distribution
            q = implied_distribution(
                decode_tree(compress_tree(p))).to_distribution()
            for level in range(3, 9):
                marks, q = refine_step(p, q, level)
                bound = 2 + Fraction(1, 2 ** (level - 3))
                assert max_ratio(p, q) < bound


class TestRefinePayload:
    def test_structure(self):
        base = TreePayload(Bits.from_string("10"), 2)
        payload = RefinePayload(3, base, (Bits.from_string("00"),))
        assert payload.n == 2
        assert payload.k == 3
        assert payload.total_bits == 4
        assert payload.to_bits().to01() == "1000"

    def test_k2_has_no_levels(self):
        base = TreePayload(Bits.from_string("1010"), 3)
        payload = RefinePayload(2, base, ())
        assert payload.total_bits == 4  # 2n-2 == kn-2 at k=2
        assert payload.to_bits() == base.bits

    def test_level_count_checked(self):
        base = TreePayload(Bits.from_string("10"), 2)
        with pytest.raises(ValueError):
            RefinePayload(4, base, (Bits.from_string("00"),))

    def test_level_width_checked(self):
        base = TreePayload(Bits.from_string("10"), 2)
        with pytest.raises(ValueError):
            RefinePayload(3, base, (Bits.from_string("000"),))

    def test_from_bits_round_trip(self):
        rng = random.Random(61)
        for _ in range(30):
            p = random_distribution(rng, rng.randint(1, 50))
            k = rng.randint(2, 8)
            payload = compress_refined(p, k)
            assert payload.total_bits == k * p.n - 2
            again = RefinePayload.from_bits(payload.to_bits(), p.n, k)
            assert again == payload

    def test_from_bits_wrong_length(self):
        with pytest.raises(ValueError):
            RefinePayload.from_bits(Bits.from_string("10100"), 2, 3)


class TestCompressRefined:
    def test_example(self):
        payload = compress_refined(dist(7, 3), 3)
        assert payload.to_bits().to01() == "1000"
        q = decompress_refined(payload)
        assert tuple(q) == (Fraction(1, 2), Fraction(1, 2))
        assert max_ratio(dist(7, 3), q) == Fraction(7, 5)

    def test_k2_equals_tree_method(self):
        from pdzip.treecode import compress_tree, implied_distribution
        p = dist(2, 1, 1)
        payload = compress_refined(p, 2)
        tree = compress_tree(p)
        assert payload.to_bits() == tree.bits
        assert tuple(decompress_refined(payload)) == tuple(
            implied_distribution(decode_tree(tree)).to_distribution())

    def test_zero_prob_rejected(self):
        with pytest.raises(ZeroProbabilityError):
            compress_refined(dist(1, 0), 3)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            compress_refined(dist(1, 1), 1)

    def test_single_symbol(self):
        payload = compress_refined(dist(1), 5)
        assert payload.total_bits == 3  # kn-2 = 5-2
        assert tuple(decompress_refined(payload)) == (Fraction(1),)


class TestDecompressRefined:
    def test_marked_entry_doubles(self):
        base = TreePayload(Bits.from_string("10"), 2)
        payload = RefinePayload(3, base, (Bits.from_string("10"),))
        q = decompress_refined(payload)
        assert tuple(q) == (Fraction(2, 3), Fraction(1, 3))

    def test_reads_only_the_payload(self):
        params = inspect.signature(decompress_refined).parameters
        assert list(params) == ["payload"]

    def test_closed_form_agreement(self):
        # final q_i must equal 2^(dmax - d_i + m_i) / sum_j 2^(dmax - d_j + m_j)
        # where m_i counts the levels that marked entry i
        rng = random.Random(67)
        for _ in range(40):
            p = random_distribution(rng, rng.randint(1, 40))
            k = rng.randint(2, 9)
            payload = compress_refined(p, k)
            q = decompress_refined(payload)
            depths = decode_tree(payload.base).leaf_depths
            marks = [0] * p.n
            for level_bits in payload.levels:
                for i, b in enumerate(level_bits):
                    marks[i] += b
            dmax = max(depths)
            weights = [1 << (dmax - d + m) for d, m in zip(depths, marks)]
            total = sum(weights)
            assert tuple(q) == tuple(Fraction(w, total) for w in weights)

    def test_mark_lanes_hold_every_level(self):
        # 298 levels marking every symbol: a count of 298 needs lanes
        # wider than a byte, or it would wrap past 255
        base = encode_tree(StrictTreeShape((1, 2, 3, 3)))
        for marks in ("1111", "1010", "0001"):
            payload = RefinePayload(300, base,
                                    (Bits.from_string(marks),) * 298)
            want = fraction_decompress_refined(payload)
            assert tuple(decompress_refined(payload)) == want
            index = RefinedIndex(payload)
            assert tuple(index.query_prob(i) for i in range(1, 5)) == want
        exponents, total = refined_exponents(payload)
        assert exponents == [2, 1, 0, 298]
        assert total == 7 + (1 << 298)

    def test_index_range_checked(self):
        index = RefinedIndex(compress_refined(dist(3, 1), 4))
        for bad in (0, 3, -1):
            with pytest.raises(DistributionError):
                index.query_prob(bad)

    def test_normalizer_bound_per_level(self):
        # 1 + marked mass stays below (2^(k-2)+1)/(2^(k-3)+1) at level k
        rng = random.Random(71)
        for _ in range(25):
            p = random_distribution(rng, rng.randint(2, 40))
            payload = compress_refined(p, 9)
            from pdzip.treecode import implied_distribution
            q = implied_distribution(
                decode_tree(payload.base)).to_distribution()
            for level, level_bits in enumerate(payload.levels, start=3):
                marked = sum(qi for qi, b in zip(q, level_bits) if b)
                normalizer = 1 + marked
                cap = Fraction(2 ** (level - 2) + 1, 2 ** (level - 3) + 1)
                assert normalizer <= cap
                q = ProbabilityDistribution(tuple(
                    (2 * qi if b else qi) / normalizer
                    for qi, b in zip(q, level_bits)))
            assert tuple(q) == tuple(decompress_refined(payload))

    def test_matches_encoder_levels(self):
        # the closed form lands on the distribution the encoder's last
        # refine_step returned, Fraction for Fraction
        rng = random.Random(79)
        for _ in range(200):
            p = random_distribution(rng, rng.randint(1, 60))
            k = rng.randint(2, 8)
            payload = compress_refined(p, k)
            q = implied_distribution(
                decode_tree(payload.base)).to_distribution()
            for level in range(3, k + 1):
                _, q = refine_step(p, q, level)
            assert tuple(decompress_refined(payload)) == tuple(q)


class TestBounds:
    def test_ratio_and_divergence(self):
        rng = random.Random(73)
        for _ in range(25):
            p = random_distribution(rng, rng.randint(1, 50))
            for k in (2, 3, 5, 8):
                q = decompress_refined(compress_refined(p, k))
                bound = 2 + Fraction(1, 2 ** (k - 3)) if k >= 3 else 4
                assert max_ratio(p, q) < bound
                assert relative_entropy(p, q) < log2_fraction(
                    Fraction(bound)) + 1e-9
