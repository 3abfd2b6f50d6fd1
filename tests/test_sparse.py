import math
import random
from fractions import Fraction

import pytest

from pdzip.core import ProbabilityDistribution, entropy, relative_entropy
from pdzip.sparse import (
    SparsePayload,
    SparseQueryTable,
    build_query_table,
    compress_sparse,
    decompress_sparse,
    index_width,
    rank_width,
    select_heavy,
)
from conftest import random_distribution
from naive import max_heavy_count

# frozen high-precision reference values
Q_RANK_1 = 0.30396355092701331433  # 3/pi^2
Q_RANK_2 = 0.075990887731753328583  # 3/(2 pi)^2
LIGHT_16_EXAMPLE = 0.044288968667230954078  # (1 - q1 - q2)/14
LOG2_PI2_OVER_3 = 1.7180297582234814146


def dist(*weights):
    return ProbabilityDistribution.from_weights([Fraction(w) for w in weights])


def example_16():
    # one heavy pair and fourteen light symbols
    weights = [Fraction(0)] * 16
    weights[0] = Fraction(3, 5)
    weights[1] = Fraction(3, 10)
    rest = (1 - weights[0] - weights[1]) / 14
    for j in range(2, 16):
        weights[j] = rest
    return ProbabilityDistribution(tuple(weights))


class TestWidths:
    def test_index_width(self):
        assert index_width(1) == 1
        assert index_width(7) == 3
        assert index_width(16) == 5
        assert index_width(512) == 10

    def test_rank_width(self):
        assert rank_width(16, Fraction(1)) == 3
        assert rank_width(1, Fraction(1)) == 1
        assert rank_width(512, Fraction(1)) == 5
        # w2 - 1 is floor(log2(n)/(c+1)): the largest f with
        # 2^(f(cn+cd)) <= n^cd, checked in integers
        for n in (2, 3, 10, 100, 1000, 4095, 4096, 4097, 65536):
            for c in (Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2)):
                w2 = rank_width(n, c)
                cn, cd = c.numerator, c.denominator
                e = cn + cd
                assert 2 ** ((w2 - 1) * e) <= n ** cd
                assert 2 ** (w2 * e) > n ** cd
        # a header may store any c up to 2^64 - 1; the width is found
        # without a shift past n^cd
        assert rank_width(2, Fraction(2 ** 64 - 1)) == 1
        assert rank_width(2 ** 64 - 1, Fraction(2 ** 64 - 1, 3)) == 1

    def test_max_heavy_count(self):
        assert max_heavy_count(16, Fraction(1)) == 4
        assert max_heavy_count(1000, Fraction(1)) == 31
        assert max_heavy_count(16, Fraction(3)) == 2
        assert max_heavy_count(512, Fraction(2)) == 8  # 8^3 = 512 exactly
        # largest m with m^(c+1) <= n, checked in integers
        for n in (1, 2, 77, 512, 10 ** 6):
            for c in (Fraction(1), Fraction(2), Fraction(3), Fraction(3, 2)):
                t = max_heavy_count(n, c)
                e = c.numerator + c.denominator
                assert t ** e <= n ** c.denominator
                assert (t + 1) ** e > n ** c.denominator


class TestSelectHeavy:
    def test_example(self):
        payload = select_heavy(example_16(), Fraction(1))
        assert payload.t == 2
        assert payload.heavy_indices == (1, 2)

    def test_uniform_has_no_heavy(self):
        payload = select_heavy(dist(1, 1, 1, 1), Fraction(1))
        assert payload.t == 0

    def test_point_mass(self):
        payload = select_heavy(dist(1), Fraction(1))
        assert payload.t == 1
        assert payload.heavy_indices == (1,)

    def test_threshold_is_inclusive(self):
        # p = n^(-1/(c+1)) exactly counts as heavy: n=4, c=1, p=1/2
        payload = select_heavy(dist(2, 1, 1, 0), Fraction(1))
        assert payload.heavy_indices == (1,)

    def test_ties_rank_by_index(self):
        p = ProbabilityDistribution(
            (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)))
        payload = select_heavy(p, Fraction(1))
        assert payload.heavy_indices == (1, 2)

    def test_heaviest_first(self):
        # n=16, threshold 1/4: entries 5/16 and 9/16 are both heavy
        p = ProbabilityDistribution.from_weights(
            [5, 9] + [Fraction(1, 7)] * 14)
        payload = select_heavy(p, Fraction(1))
        assert payload.heavy_indices == (2, 1)

    def test_count_never_exceeds_cap(self):
        rng = random.Random(79)
        for _ in range(60):
            p = random_distribution(rng, rng.randint(1, 200))
            for c in (Fraction(1), Fraction(2), Fraction(3)):
                payload = select_heavy(p, c)
                assert payload.t <= max_heavy_count(p.n, c)

    def test_c_below_one_rejected(self):
        with pytest.raises(ValueError):
            select_heavy(dist(1, 1), Fraction(1, 2))
        with pytest.raises(ValueError):
            select_heavy(dist(1, 1), Fraction(0))

    def test_rational_c_allowed(self):
        payload = select_heavy(dist(3, 1), Fraction(3, 2))
        assert payload.n == 2
        # threshold 2^(-2/5) ~ 0.7579: 3/4 falls just below it
        assert payload.t == 0


class TestPayload:
    def test_bit_length(self):
        payload = select_heavy(example_16(), Fraction(1))
        assert len(payload.to_bits()) == 2 * index_width(16)

    def test_serialization_round_trip(self):
        rng = random.Random(83)
        for _ in range(40):
            p = random_distribution(rng, rng.randint(1, 150))
            payload = select_heavy(p, Fraction(rng.randint(1, 3)))
            bits = payload.to_bits()
            assert len(bits) == payload.t * index_width(payload.n)
            again = SparsePayload.from_bits(bits, payload.n, payload.c,
                                            payload.t)
            assert again == payload

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            SparsePayload(4, Fraction(1), (1, 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparsePayload(4, Fraction(1), (5,))
        with pytest.raises(ValueError):
            SparsePayload(4, Fraction(1), (0,))


class TestDecompress:
    def test_example_values(self):
        payload = select_heavy(example_16(), Fraction(1))
        q = decompress_sparse(payload)
        assert q[0] == pytest.approx(Q_RANK_1, abs=1e-12)
        assert q[1] == pytest.approx(Q_RANK_2, abs=1e-12)
        for j in range(2, 16):
            assert q[j] == pytest.approx(LIGHT_16_EXAMPLE, abs=1e-12)

    def test_no_heavy_is_uniform(self):
        q = decompress_sparse(select_heavy(dist(1, 1, 1, 1), Fraction(1)))
        assert tuple(q) == (0.25, 0.25, 0.25, 0.25)

    def test_single_symbol(self):
        q = decompress_sparse(select_heavy(dist(1), Fraction(1)))
        assert tuple(q) == (1.0,)

    def test_all_heavy_renormalizes(self):
        # a payload claiming every symbol heavy still yields a distribution
        q = decompress_sparse(SparsePayload(2, Fraction(1), (1, 2)))
        s = 3 / math.pi ** 2 + 3 / (2 * math.pi) ** 2
        assert q[0] == pytest.approx((3 / math.pi ** 2) / s, rel=1e-12)
        assert sum(q) == pytest.approx(1.0, abs=1e-12)

    def test_light_floor(self):
        rng = random.Random(89)
        for _ in range(60):
            p = random_distribution(rng, rng.randint(2, 300))
            payload = select_heavy(p, Fraction(rng.randint(1, 3)))
            if payload.t == payload.n:
                continue
            q = decompress_sparse(payload)
            light = [q[i] for i in range(p.n)
                     if (i + 1) not in payload.heavy_indices]
            assert all(Fraction(v) > Fraction(1, 2 * p.n) for v in light)

    def test_sorted_probability_bound(self):
        # the j-th largest probability is at most 1/j, so rank-j heavy
        # symbols really have p <= 1/j
        rng = random.Random(97)
        for _ in range(40):
            p = random_distribution(rng, rng.randint(1, 100))
            ranked = sorted(p, reverse=True)
            for j, v in enumerate(ranked, start=1):
                assert v <= Fraction(1, j)


class TestQueryTable:
    def test_example(self):
        table = build_query_table(select_heavy(example_16(), Fraction(1)))
        assert table.pairs == ((1, 1), (2, 2))
        v, comparisons = table.lookup(2)
        assert v == pytest.approx(Q_RANK_2, abs=1e-12)
        assert comparisons <= math.ceil(math.log2(table.t + 1)) + 1
        v7, _ = table.lookup(7)
        assert v7 == pytest.approx(LIGHT_16_EXAMPLE, abs=1e-12)

    def test_pairs_sorted_by_index(self):
        p = ProbabilityDistribution.from_weights(
            [5, 9] + [Fraction(1, 7)] * 14)
        table = build_query_table(select_heavy(p, Fraction(1)))
        assert table.pairs == ((1, 2), (2, 1))

    def test_empty_table(self):
        table = build_query_table(select_heavy(dist(1, 1, 1, 1), Fraction(1)))
        assert table.t == 0
        assert table.lookup(3)[0] == 0.25

    def test_single_symbol_renormalized(self):
        # t == n: lookup must match the renormalized decoder output
        table = build_query_table(select_heavy(dist(1), Fraction(1)))
        assert table.lookup(1)[0] == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_decompress_everywhere(self):
        rng = random.Random(101)
        for _ in range(40):
            p = random_distribution(rng, rng.randint(1, 120))
            payload = select_heavy(p, Fraction(rng.randint(1, 3)))
            q = decompress_sparse(payload)
            table = build_query_table(payload)
            assert table.sparse_payload() == payload
            cap = math.ceil(math.log2(table.t + 1)) + 1
            for i in range(1, p.n + 1):
                v, comparisons = table.lookup(i)
                assert v == q[i - 1]
                assert comparisons <= cap

    def test_out_of_range(self):
        table = build_query_table(select_heavy(dist(1, 1), Fraction(1)))
        with pytest.raises(ValueError):
            table.lookup(0)
        with pytest.raises(ValueError):
            table.lookup(3)

    def test_serialization_round_trip(self):
        rng = random.Random(103)
        for _ in range(30):
            p = random_distribution(rng, rng.randint(1, 150))
            c = Fraction(rng.randint(1, 3))
            table = build_query_table(select_heavy(p, c))
            bits = table.to_bits()
            assert len(bits) == table.t * (index_width(p.n) +
                                           rank_width(p.n, c))
            again = SparseQueryTable.from_bits(bits, p.n, c, table.t)
            assert again == table

    def test_rank_permutation_checked(self):
        with pytest.raises(ValueError):
            SparseQueryTable(4, Fraction(1), ((1, 1), (2, 1)))
        with pytest.raises(ValueError):
            SparseQueryTable(4, Fraction(1), ((2, 1), (1, 2)))


class TestDivergenceBound:
    def test_entropy_scaled_bound(self):
        rng = random.Random(107)
        for _ in range(40):
            p = random_distribution(rng, rng.randint(1, 100))
            for c in (Fraction(1), Fraction(2), Fraction(3)):
                q = decompress_sparse(compress_sparse(p, c))
                d = relative_entropy(p, q)
                assert d <= float(c) * entropy(p) + LOG2_PI2_OVER_3 + 1e-6

    def test_query_helper(self):
        table = build_query_table(select_heavy(example_16(), Fraction(1)))
        assert table.lookup(1)[0] == pytest.approx(Q_RANK_1, abs=1e-12)
