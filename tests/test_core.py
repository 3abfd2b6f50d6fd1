import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from pdzip.core import (
    DistributionError,
    InfiniteDivergenceError,
    ProbabilityDistribution,
    ceil_log2_ratio,
    entropy,
    log2_fraction,
    max_ratio,
    parse_distribution,
    relative_entropy,
)

# High-precision reference values, computed once with an arbitrary
# precision library and frozen here.
D_HALF_VS_QUARTER = 0.20751874963942190927
D_SKEW_VS_UNIFORM = 0.53100440641071877875


def dist(*entries):
    return ProbabilityDistribution.from_weights([Fraction(e) for e in entries])


class TestProbabilityDistribution:
    def test_basic(self):
        p = dist(1, 1, 2)
        assert p.n == 3
        assert len(p) == 3
        assert p[0] == Fraction(1, 4)
        assert tuple(p) == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
        assert p.strictly_positive()

    def test_zero_entry_allowed(self):
        p = dist(0, 1)
        assert not p.strictly_positive()
        assert p[0] == 0

    def test_must_sum_to_one(self):
        with pytest.raises(DistributionError):
            ProbabilityDistribution((Fraction(1, 2), Fraction(1, 3)))
        ProbabilityDistribution((Fraction(1, 2), Fraction(1, 2)))

    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            ProbabilityDistribution((Fraction(3, 2), Fraction(-1, 2)))
        with pytest.raises(DistributionError):
            ProbabilityDistribution.from_weights([2, -1])

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            ProbabilityDistribution(())
        with pytest.raises(DistributionError):
            ProbabilityDistribution.from_weights([])

    def test_rejects_non_fraction(self):
        with pytest.raises(DistributionError):
            ProbabilityDistribution((0.5, 0.5))

    def test_from_weights_normalizes(self):
        p = ProbabilityDistribution.from_weights([3, 1])
        assert tuple(p) == (Fraction(3, 4), Fraction(1, 4))
        with pytest.raises(DistributionError):
            ProbabilityDistribution.from_weights([0, 0])

    def test_single_point(self):
        p = ProbabilityDistribution.from_weights([5])
        assert tuple(p) == (Fraction(1),)


class TestParsing:
    def test_weights(self):
        p = parse_distribution("3\n1\n")
        assert tuple(p) == (Fraction(3, 4), Fraction(1, 4))

    def test_formats(self):
        p = parse_distribution("0.5\n0.25\n.25\n")
        assert tuple(p) == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))

    def test_only_plain_numerals(self):
        # no fractions, exponents, or signs in the text format
        for bad in ("1/4", "25e-2", "+1", "0x10"):
            with pytest.raises(DistributionError, match="unparsable"):
                parse_distribution(f"1\n{bad}\n")

    def test_comments_and_blanks(self):
        p = parse_distribution("# header\n\n 1 \n# mid\n1\n\n")
        assert tuple(p) == (Fraction(1, 2), Fraction(1, 2))

    def test_negative_rejected(self):
        with pytest.raises(DistributionError, match="negative"):
            parse_distribution("1\n-1\n")

    def test_garbage_rejected(self):
        with pytest.raises(DistributionError, match="line 2"):
            parse_distribution("1\nbanana\n")

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            parse_distribution("# nothing\n")


class TestEntropy:
    def test_known_values(self):
        assert entropy(dist(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))) == 1.5
        assert entropy(dist(1, 1, 1, 1)) == 2.0
        assert entropy(dist(1)) == 0.0

    def test_zero_entries_contribute_nothing(self):
        assert entropy(dist(0, 1)) == 0.0
        assert entropy(dist(1, 0, 1)) == 1.0

    def test_matches_float_formula(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 40)
            p = ProbabilityDistribution.from_weights(
                [rng.randint(1, 999) for _ in range(n)])
            direct = sum(float(x) * math.log2(1 / float(x)) for x in p)
            assert entropy(p) == pytest.approx(direct, abs=1e-9)

    def test_tiny_probabilities(self):
        # float(p) would overflow/underflow naively; must not crash
        big = 1 << 900
        p = ProbabilityDistribution.from_weights([1, big - 1])
        h = entropy(p)
        assert 0 < h < 1e-260
        assert h == pytest.approx(900 * 2.0 ** -900, rel=1e-9)


class TestRelativeEntropy:
    def test_frozen_example_1(self):
        p = dist(1, 1)
        q = dist(1, 3)
        assert relative_entropy(p, q) == pytest.approx(
            D_HALF_VS_QUARTER, abs=1e-12)

    def test_frozen_example_2(self):
        p = dist(9, 1)
        q = dist(1, 1)
        assert relative_entropy(p, q) == pytest.approx(
            D_SKEW_VS_UNIFORM, abs=1e-12)

    def test_self_divergence_is_zero(self):
        p = dist(2, 3, 5)
        assert relative_entropy(p, p) == 0.0

    def test_zero_in_p_is_fine(self):
        p = dist(0, 1)
        q = dist(1, 1)
        assert relative_entropy(p, q) == pytest.approx(1.0)

    def test_zero_in_q_raises(self):
        p = dist(1, 1)
        q = dist(Fraction(1), Fraction(0))
        with pytest.raises(InfiniteDivergenceError):
            relative_entropy(p, q)

    def test_length_mismatch(self):
        with pytest.raises(DistributionError):
            relative_entropy(dist(1, 1), dist(1, 1, 2))

    def test_nonnegative_on_random_pairs(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 30)
            p = ProbabilityDistribution.from_weights(
                [rng.randint(1, 99) for _ in range(n)])
            q = ProbabilityDistribution.from_weights(
                [rng.randint(1, 99) for _ in range(n)])
            assert relative_entropy(p, q) >= -1e-12


    def test_small_divergence_relative_accuracy(self):
        # near-equal pairs: every term's ratio is within 1e-3 of 1 and D is
        # about 1e-10 to 1e-7, so each term needs relative, not absolute,
        # precision; the reference is an 80-digit decimal sum
        rng = random.Random(19)
        for _ in range(200):
            base = [rng.randint(10 ** 6, 2 * 10 ** 6) for _ in range(3)]
            p = ProbabilityDistribution.from_weights(base)
            q = ProbabilityDistribution.from_weights(
                [b + rng.randint(-300, 300) for b in base])
            with localcontext() as ctx:
                ctx.prec = 80
                want = sum(Decimal(a.numerator) / a.denominator
                           * (Decimal(a.numerator * b.denominator)
                              / (a.denominator * b.numerator)).ln()
                           for a, b in zip(p.entries, q.entries))
                want /= Decimal(2).ln()
                got = Decimal(relative_entropy(p, q))
                assert abs(got - want) <= want * Decimal("1e-9")


class TestMaxRatio:
    def test_frozen_examples(self):
        assert max_ratio(dist(9, 1), dist(1, 1)) == Fraction(9, 5)
        assert max_ratio(dist(7, 3), dist(1, 3)) == Fraction(14, 5)

    def test_identical(self):
        assert max_ratio(dist(1), dist(1)) == 1

    def test_ignores_zero_p(self):
        p = dist(0, 1)
        q = dist(1, 1)
        assert max_ratio(p, q) == 2

    def test_zero_q_under_positive_p(self):
        p = dist(1, 1)
        q = dist(Fraction(1), Fraction(0))
        with pytest.raises(InfiniteDivergenceError):
            max_ratio(p, q)

    def test_float_side(self):
        from pdzip.sparse import ApproxDistribution
        q = ApproxDistribution((0.25, 0.75))
        r = max_ratio(dist(1, 1), q)
        assert r == pytest.approx(2.0)


class TestLogHelpers:
    def test_log2_fraction_powers(self):
        assert log2_fraction(Fraction(1)) == 0.0
        assert log2_fraction(Fraction(2 ** 100)) == 100.0
        assert log2_fraction(Fraction(1, 2 ** 500)) == -500.0

    def test_log2_fraction_matches_math(self):
        rng = random.Random(17)
        for _ in range(200):
            x = Fraction(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9))
            assert log2_fraction(x) == pytest.approx(math.log2(float(x)),
                                                     abs=1e-12)

    def test_log2_fraction_huge(self):
        x = Fraction(3 ** 1000, 2 ** 1500)
        expected = 1000 * math.log2(3) - 1500
        assert log2_fraction(x) == pytest.approx(expected, rel=1e-12)

    def test_log2_fraction_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log2_fraction(Fraction(0))
        with pytest.raises(ValueError):
            log2_fraction(Fraction(-1, 2))

    def test_ceil_log2_ratio(self):
        assert ceil_log2_ratio(1, 1) == 0
        assert ceil_log2_ratio(2, 1) == 1
        assert ceil_log2_ratio(8, 3) == 2
        assert ceil_log2_ratio(8, 4) == 1
        assert ceil_log2_ratio(9, 4) == 2
        assert ceil_log2_ratio(1, 2) == -1
        assert ceil_log2_ratio(3, 4) == 0
        assert ceil_log2_ratio(1, 5) == -2

    def test_ceil_log2_ratio_random(self):
        rng = random.Random(19)
        for _ in range(300):
            a = rng.randint(1, 10 ** 6)
            b = rng.randint(1, 10 ** 6)
            e = ceil_log2_ratio(a, b)
            # smallest e with 2^e >= a/b, checked exactly
            assert Fraction(2) ** e >= Fraction(a, b)
            assert Fraction(2) ** (e - 1) < Fraction(a, b)
