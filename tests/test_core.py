import copy
import hashlib
import math
import pickle
import random
import sys
import tracemalloc
from array import array
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdzip.core import (
    DistributionError,
    InfiniteDivergenceError,
    ProbabilityDistribution,
    _log2_ratio,
    ceil_log2_ratio,
    entropy,
    max_ratio,
    parse_distribution,
    relative_entropy,
)

from conftest import random_tree_depths
from naive import fraction_from_weights, log2_fraction

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

    @pytest.mark.parametrize("weights,message", [
        ([0, 0], "all weights are zero"),
        ([Fraction(0), 0.0], "all weights are zero"),
        ([], "no weights"),
        ([Fraction(1, 3), Fraction(-1, 6), 2], "negative weight"),
        (["1"], "must be int"),
    ])
    def test_from_weights_rejects(self, weights, message):
        with pytest.raises(DistributionError, match=message):
            ProbabilityDistribution.from_weights(weights)

    @pytest.mark.parametrize("bad,error,message", [
        (float("nan"), ValueError, "NaN"),
        (float("inf"), OverflowError, "Infinity"),
    ])
    def test_from_weights_non_finite(self, bad, error, message):
        # the error of float.as_integer_ratio, not a DistributionError
        with pytest.raises(error, match=message) as info:
            ProbabilityDistribution.from_weights([1.0, bad])
        assert not isinstance(info.value, DistributionError)

    def test_entries_constructor_on_dyadic_entries(self):
        entries = [Fraction(1, 2 ** j) for j in range(1, 300)] + [Fraction(1, 2 ** 299)]
        p = ProbabilityDistribution(entries)
        assert (p.weights, p.total, p.entries) == fraction_from_weights(entries)
        assert p.total == 2 ** 299
        p = ProbabilityDistribution(entries[::-1])
        assert (p.weights, p.total) == fraction_from_weights(entries[::-1])[:2]
        with pytest.raises(DistributionError, match="sum to 1/2, not 1"):
            ProbabilityDistribution((Fraction(1, 4), Fraction(1, 4), Fraction(0)))

    def test_dyadic_weights_take_no_lcm(self, monkeypatch):
        calls = []
        lcm = math.lcm
        monkeypatch.setattr(math, "lcm", lambda *dens: calls.append(dens) or lcm(*dens))
        dyadic = [0.1, 5e-324, Fraction(3, 2 ** 500), 7, Fraction(1, 2)]
        p = ProbabilityDistribution.from_weights(dyadic)
        ProbabilityDistribution((Fraction(1, 2), Fraction(3, 2 ** 80),
                                 Fraction(2 ** 79 - 3, 2 ** 80)))
        ProbabilityDistribution.from_weights([3, 0, True, 5])
        assert calls == []
        # one odd denominator takes the lcm path
        q = ProbabilityDistribution.from_weights(dyadic + [Fraction(1, 3)])
        assert len(calls) == 1
        assert q.weights[:-1] == tuple(3 * w for w in p.weights)

    def test_from_weights_common_factor_beside_zero(self):
        # numerators 0, 2, 4 share the factor 2: 6/9 and 4/9 become 3 and 2
        p = ProbabilityDistribution.from_weights([0, Fraction(2, 3), Fraction(4, 9)])
        assert (p.weights, p.total) == ((0, 3, 2), 5)

    def test_from_weights_reduces_other_ratios(self):
        # only the built-in number types promise a ratio in lowest terms;
        # 2/4 taken unreduced beside 1 would give the weights 2 and 4
        class Ratio:
            def __init__(self, num, den):
                self.pair = num, den

            def as_integer_ratio(self):
                return self.pair

        p = ProbabilityDistribution.from_weights([Ratio(2, 4), 1])
        assert (p.weights, p.total) == ((1, 2), 3)
        p = ProbabilityDistribution.from_weights(iter([Ratio(6, 9), Ratio(2, 6)]))
        assert (p.weights, p.total) == ((2, 1), 3)
        with pytest.raises(DistributionError, match="negative weight"):
            ProbabilityDistribution.from_weights([Ratio(1, -2), 1])


_ANY_WEIGHT = st.one_of(
    st.integers(min_value=0),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    st.builds(Fraction, st.integers(0, 2 ** 200), st.integers(1, 2 ** 200)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_ANY_WEIGHT, min_size=1, max_size=40))
def test_from_weights_is_the_reduced_normalization(weights):
    if not any(weights):
        with pytest.raises(DistributionError, match="all weights are zero"):
            ProbabilityDistribution.from_weights(weights)
        return
    p = ProbabilityDistribution.from_weights(weights)
    assert (p.weights, p.total, p.entries) == fraction_from_weights(weights)
    assert math.gcd(*p.weights) == 1


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

    def test_numeral_past_the_digit_limit_names_its_line(self, digit_limit):
        with pytest.raises(DistributionError, match=r"^line 3: .*5000 digits"):
            parse_distribution("1\n2\n" + "9" * 5000)
        # the first refused line, counting comments and blanks
        with pytest.raises(DistributionError, match=r"^line 4: .*4301 digits"):
            parse_distribution("# w\n1\n\n" + "7" * 4301 + "\n" + "8" * 6000)
        assert parse_distribution("1\n" + "9" * digit_limit).n == 2

    def test_decimal_past_the_digit_limit_names_its_line(self, digit_limit):
        # a decimal is read as an integer over the largest power of ten any
        # line needs, so a short line can be the first one int() refuses
        with pytest.raises(DistributionError, match=r"^line 1: .*4301 digits"):
            parse_distribution("2\n0." + "1" * digit_limit)
        with pytest.raises(DistributionError, match=r"^line 3: .*4302 digits"):
            parse_distribution("0.5\n\n" + "1" * (digit_limit + 1))
        assert parse_distribution("0.5\n" + "1" * (digit_limit - 1)).n == 2


@pytest.fixture
def digit_limit():
    """int()'s digit limit, set to its default of 4300 for the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(old)


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


# weights with repeats, zeros and bigints; q drawn from few values, as a
# decoded distribution is, and now and then one entry longer than p
_WEIGHT = st.one_of(st.integers(0, 3), st.integers(0, 10 ** 6),
                    st.integers(0, 1 << 80))


@st.composite
def _weight_pairs(draw):
    n = draw(st.integers(1, 25))
    pw = draw(st.lists(_WEIGHT, min_size=n, max_size=n).filter(any))
    values = draw(st.lists(_WEIGHT, min_size=1, max_size=4).filter(any))
    m = draw(st.sampled_from((n, n, n, n + 1)))
    qw = draw(st.lists(st.sampled_from(values), min_size=m, max_size=m)
              .filter(any))
    return pw, qw


def _outcome(measure, *args):
    """(result type, value), or (exception type, None)."""
    try:
        value = measure(*args)
    except (DistributionError, InfiniteDivergenceError) as exc:
        return type(exc), None
    return type(value), value


def _pairwise_divergence(p, q):
    """D(P||Q) as the sum of (w/W) log2(wU/(Wu)) in symbol order: the
    exact per-term arithmetic the measure keeps."""
    total = 0.0
    for w, u in zip(p.weights, q.weights):
        if w:
            total += w / p.total * _log2_ratio(w * q.total, p.total * u)
    return total


class TestMeasuresOnWeights:
    @given(_weight_pairs())
    def test_weights_and_fraction_entries_agree(self, pair):
        # a distribution pair takes the integer-weight paths, its entries
        # the per-entry (num, den) arithmetic.  Entries are in lowest
        # terms, which can move a term's last bit, so floats agree to
        # rounding and ratios and errors exactly
        p = ProbabilityDistribution.from_weights(pair[0])
        q = ProbabilityDistribution.from_weights(pair[1])
        assert entropy(p) == pytest.approx(entropy(p.entries), rel=1e-12)
        for measure in (relative_entropy, max_ratio):
            kind, value = _outcome(measure, p, q)
            for args in ((p.entries, q.entries), (p, q.entries)):
                other_kind, other = _outcome(measure, *args)
                assert other_kind is kind
                if kind is float:
                    assert other == pytest.approx(value, rel=1e-12, abs=1e-12)
                else:
                    assert other == value
        kind, value = _outcome(relative_entropy, p, q)
        if kind is float:
            assert value == _pairwise_divergence(p, q)

    def test_measures_keep_no_per_symbol_lists(self):
        rng = random.Random(23)
        n = 10 ** 5
        p = ProbabilityDistribution.from_weights(
            [rng.randint(0, 10 ** 6) for _ in range(n)])
        q = ProbabilityDistribution.from_weights(
            [1 << rng.randint(0, 6) for _ in range(n)])
        tracemalloc.start()
        try:
            entropy(p)
            relative_entropy(p, q)
            max_ratio(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_measures_stream_a_shared_fraction_sequence(self):
        # Q as a decoder gives it: one Fraction object per distinct value
        rng = random.Random(29)
        n = 10 ** 5
        p = ProbabilityDistribution.from_weights(
            [rng.randint(0, 10 ** 6) for _ in range(n)])
        q = ProbabilityDistribution.from_weights(
            [1 << rng.randint(0, 6) for _ in range(n)])
        shared = {u: Fraction(u, q.total) for u in set(q.weights)}
        seq = tuple(shared[u] for u in q.weights)
        tracemalloc.start()
        try:
            entropy(seq)
            relative_entropy(p, seq)
            max_ratio(p, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _per_term_entropy(seq):
    """H as the sum of -(num/den) * _log2_ratio(num, den) over the exact
    ratios, in order: the arithmetic each term had with two divisions."""
    total = 0.0
    for num, den in seq:
        if num and num / den:
            total -= num / den * _log2_ratio(num, den)
    return total


# p_i a few ulps either side of 2^-1022, the smallest normal float, exact
# or not quite; and subnormal p_i
_NEAR_TINY = st.builds(
    lambda k, r, odd: Fraction((((1 << 52) + k) * odd) + r, odd << 1074),
    st.integers(-8, 8), st.integers(-1, 1), st.sampled_from((1, 3, 1023)))
_SUBNORMAL = st.builds(lambda m, e: Fraction(m, 1 << e),
                       st.integers(1, 1 << 60), st.integers(1074, 1140))
_HUGE = st.builds(lambda num, extra: Fraction(num, num + extra),
                  st.integers(1, 1 << 3000), st.integers(0, 1 << 3000))
_ENTRY = st.one_of(st.just(Fraction(0)), _NEAR_TINY, _SUBNORMAL, _HUGE,
                   st.floats(0, 4.0), st.builds(Fraction, st.integers(0, 9),
                                                st.integers(1, 9)))


class TestEntropyTerms:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_ENTRY, min_size=1, max_size=12))
    def test_sequence_entropy_is_the_per_term_sum(self, seq):
        want = _per_term_entropy(x.as_integer_ratio() for x in seq)
        assert entropy(seq) == want
        assert entropy([float(x) for x in seq]) == _per_term_entropy(
            float(x).as_integer_ratio() for x in seq)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 1 << 3000)),
                    min_size=1, max_size=12).filter(any))
    def test_weights_entropy_is_the_per_term_sum(self, weights):
        p = ProbabilityDistribution.from_weights(weights)
        assert entropy(p) == _per_term_entropy(zip(p.weights, repeat(p.total)))

    def test_the_smallest_normal_float_on_both_sides(self):
        # p_i that round to 2^-1022 from either side (the ties included),
        # which go through _log2_ratio, and the next floats up, which do not
        tiny = 1 << 1022
        for p in (Fraction(1, tiny), Fraction(1, tiny - 1), Fraction(1, tiny + 1),
                  Fraction((1 << 53) - 1, tiny << 53),
                  Fraction((1 << 53) + 1, tiny << 53),
                  Fraction((1 << 52) + 1, tiny << 52),
                  Fraction(3 * (1 << 52) + 4, 3 * (tiny << 52))):
            assert entropy([p]) == _per_term_entropy([p.as_integer_ratio()])
            assert abs(float(p) - 2.0 ** -1022) <= 2.0 ** -1073


def _brute_max_ratio(p, q):
    """max of Fraction p_i/q_i over p_i > 0; a float if q holds a float."""
    best = None
    for w, x in zip(p.weights, q):
        if w:
            if not x:
                raise InfiniteDivergenceError("q_i = 0 with p_i > 0")
            ratio = Fraction(w, p.total) / Fraction(x)
            if best is None or ratio > best:
                best = ratio
    if best is None:
        raise DistributionError("no positive entries")
    return float(best) if any(isinstance(x, float) for x in q) else best


_Q_VALUE = st.one_of(st.just(Fraction(0)), st.builds(
    Fraction, st.integers(1, 1 << 90), st.integers(1, 1 << 90)))


@st.composite
def _runs_of_q(draw):
    """A q sequence in runs of equal values.  Within a run the entries are
    one shared object, as a decoder gives them, or equal copies; floats
    now and then."""
    out = []
    for value, length in draw(st.lists(st.tuples(_Q_VALUE, st.integers(1, 12)),
                                       min_size=1, max_size=6)):
        if draw(st.booleans()):
            value = float(value)
        if draw(st.booleans()):
            out += [value] * length
        else:
            out += [type(value)(value) for _ in range(length)]
    return out


def _p_for(draw, n):
    return ProbabilityDistribution.from_weights(draw(
        st.lists(_WEIGHT, min_size=n, max_size=n).filter(any)))


class TestMaxRatioOnSequences:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_runs_match_the_brute_force_maximum(self, data):
        q = data.draw(_runs_of_q())
        p = _p_for(data.draw, len(q))
        assert _outcome(max_ratio, p, q) == _outcome(_brute_max_ratio, p, q)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_distinct_q_match_the_brute_force_maximum(self, data):
        q = data.draw(st.lists(_Q_VALUE, min_size=1, max_size=30, unique=True))
        if data.draw(st.booleans()):
            q = [float(x) for x in q]
        p = _p_for(data.draw, len(q))
        assert _outcome(max_ratio, p, q) == _outcome(_brute_max_ratio, p, q)

    def test_long_runs_match_the_brute_force_maximum(self):
        rng = random.Random(37)
        values = [Fraction(1, 1 << d) for d in range(1, 12)] + [0.001, 0.25]
        for _ in range(20):
            q = []
            while len(q) < 3000:
                q += [rng.choice(values)] * rng.randint(1, 700)
            p = ProbabilityDistribution.from_weights(
                [rng.choice((0, rng.randint(1, 1 << 70))) for _ in q])
            assert _outcome(max_ratio, p, q) == _outcome(_brute_max_ratio, p, q)

    def test_types_and_errors(self):
        p = dist(0, 3, 1, 0)
        half = Fraction(1, 2)
        for q, kind in (([half, half, Fraction(1, 8), half], Fraction),
                        ([0.5, 0.5, 0.125, 0.5], float),
                        ([half, half, 0.125, half], float)):
            ratio = max_ratio(p, q)
            assert ratio == 2 and type(ratio) is kind
        # a zero q_i under a zero p_i is fine, under a positive one is not
        assert max_ratio(p, [0, half, half, 0]) == Fraction(3, 2)
        with pytest.raises(InfiniteDivergenceError):
            max_ratio(p, [half, half, 0.0, 0.0])
        with pytest.raises(InfiniteDivergenceError):
            max_ratio(p, [half, 0, 0, 0])


def _per_term_divergence(p, q):
    """D(P||Q) as the sum of (w/W) * _log2_ratio(w * qd, W * qn) in symbol
    order, with (qn, qd) a q distribution's weight over its total or a q
    entry's as_integer_ratio(): each term on the integers the measure
    has always used."""
    if isinstance(q, ProbabilityDistribution):
        ratios = zip(q.weights, repeat(q.total))
    else:
        ratios = (x.as_integer_ratio() for x in q)
    total = 0.0
    for w, (qn, qd) in zip(p.weights, ratios):
        if w:
            if not qn:
                raise InfiniteDivergenceError("q_i = 0 with p_i > 0")
            pf = w / p.total
            if pf:
                total += pf * _log2_ratio(w * qd, p.total * qn)
    return total


def _exact_outcome(measure, *args):
    """(result type, value), a float by its hex digits; or (exception
    type, None), an OverflowError from a ratio past the float range
    included."""
    try:
        value = measure(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), None
    return type(value), value.hex() if isinstance(value, float) else value


def _dyadic_weights(draw, n):
    """Power-of-two weights of n symbols over a power-of-two total: the
    leaf depths of a random strict tree, or of a comb, whose total passes
    2^61 from n = 62 on."""
    if draw(st.booleans()):
        depths = random_tree_depths(random.Random(draw(st.integers(0, 99))), n)
    else:
        depths = list(range(1, n)) + [n - 1]
        random.Random(draw(st.integers(0, 99))).shuffle(depths)
    top = max(depths)
    return [1 << (top - d) for d in depths]


_FLOAT_Q = st.one_of(st.floats(2.0 ** -1074, 1.0), st.sampled_from(
    (5e-324, 2.0 ** -1074 * 3, 2.0 ** -1022, 2.0 ** -1023, 0.5, 1.0)))
_SHARED_Q = st.one_of(
    st.builds(lambda d: Fraction(1, 1 << d), st.integers(0, 3000)),
    st.builds(lambda b, s: Fraction(1 << b, 2 * s + 1),
              st.integers(0, 200), st.integers(0, 1 << 200)),
    _FLOAT_Q)


@st.composite
def _divergence_pairs(draw):
    """(P, Q) of one length: P a distribution with zeros and weights up to
    2^3000; Q a power-of-two-weight distribution, deep ones included, or a
    sequence of shared objects (1/2^d, 2^b/S, floats down to subnormals),
    of equal values held as distinct objects, or of fresh floats; now and
    then a zero in Q."""
    kind = draw(st.sampled_from(("tree", "powers", "shared", "copies", "floats")))
    n = draw(st.integers(62, 70) if kind == "tree" and draw(st.booleans())
             else st.integers(1, 12))
    p = ProbabilityDistribution.from_weights(draw(st.lists(
        st.one_of(st.integers(0, 3), st.integers(0, 1 << 3000)),
        min_size=n, max_size=n).filter(any)))
    if kind == "tree":
        weights = _dyadic_weights(draw, n)
    elif kind == "powers":
        # a refine-like distribution: powers of two over any total
        weights = [1 << k for k in draw(st.lists(st.integers(0, 100),
                                                 min_size=n, max_size=n))]
    else:
        values = draw(st.lists(_SHARED_Q, min_size=1, max_size=4))
        picks = draw(st.lists(st.integers(0, len(values) - 1),
                              min_size=n, max_size=n))
        if kind == "copies":
            # x * 1 is a new object of the same value, float or Fraction
            q = [values[j] * 1 for j in picks]
        elif kind == "floats":
            q = [float(values[j]) for j in picks]
        else:
            q = [values[j] for j in picks]
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, n - 1))
        if kind in ("tree", "powers"):
            weights[i] = 0
        else:
            q[i] = draw(st.sampled_from((0, 0.0, Fraction(0))))
    if kind in ("tree", "powers"):
        q = (ProbabilityDistribution.from_weights(weights) if any(weights)
             else [Fraction(0)] * n)
    return p, q


def _near_tiny(m, k=1):
    """P = (p_1, 1 - p_1) with p_1 = m / (k * 2^1074), near 2^-1022 for
    m near k * 2^52."""
    return ProbabilityDistribution.from_weights([m, (k << 1074) - m])


def _tiny_pair(m, k, j):
    """(P, Q) with P = _near_tiny(m, k) and Q = (2^-j, p_2): the second
    term is 0, so D is p_1's term alone and shows its last bit."""
    p = _near_tiny(m, k)
    return p, [Fraction(1, 1 << j), p.entries[1]]


_HALVES = ProbabilityDistribution.from_weights([1, 1])
_BIG_P = ProbabilityDistribution.from_weights([1, 1 << 80])


class TestDivergenceBySides:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_divergence_pairs())
    # a power-of-two q_1 under p_1 = 2^-1022 and one ulp either side
    @example((_near_tiny(1 << 52), _HALVES))
    @example((_near_tiny((1 << 52) + 1), [Fraction(1, 2)] * 2))
    @example((_near_tiny((1 << 52) - 1), _HALVES))
    # p_1 that round to those floats.  (2^52 - 1/3) * 2^-1074 rounds to
    # 2^-1022, but scaled into the normal range it does not round to a
    # power of two, so ldexp of its float would be one ulp off; likewise
    # (2^52 - 4/3) * 2^-1074, one ulp below
    @example(_tiny_pair((3 << 52) - 1, 3, 1024))
    @example(_tiny_pair((3 << 52) - 4, 3, 1016))
    @example(_tiny_pair((3 << 52) + 2, 3, 1024))
    # q_i = 2^b/S and q_i floats: the quotient is divided
    @example((_BIG_P, [Fraction(2, 3), Fraction(1, 3)]))
    @example((_BIG_P, [0.25, 0.75]))
    def test_measures_keep_every_term(self, pair):
        # D is the per-term sum bit for bit, whether P's floats are made
        # by D itself, by entropy before it, or were made by D earlier,
        # and the max ratio the brute force maximum of the same type, or
        # both raise the same error
        p, q = pair
        want = _exact_outcome(_per_term_divergence, p, q)
        assert _exact_outcome(relative_entropy, p, q) == want
        fresh = ProbabilityDistribution.from_weights(p.weights)
        entropy(fresh)
        assert _exact_outcome(relative_entropy, fresh, q) == want
        entropy(p)
        assert _exact_outcome(relative_entropy, p, q) == want
        assert (_exact_outcome(max_ratio, p, q)
                == _exact_outcome(_brute_max_ratio, p, q))
        longer = [*q, Fraction(0)]
        for measure in (relative_entropy, max_ratio):
            with pytest.raises(DistributionError):
                measure(p, longer)

    def test_one_float_view_serves_both_measures(self, monkeypatch):
        # P's floats are made once, by whichever measure reads them first,
        # into one array('d') of n items that the other measure reads
        made = []

        def counted(*args):
            made.append(array(*args))
            return made[-1]
        monkeypatch.setattr("pdzip.core.array", counted)
        rng = random.Random(47)
        weights = [rng.choice((0, rng.randint(1, 1 << 80))) for _ in range(299)]
        weights.append(1 << 80)
        q = ProbabilityDistribution._dyadic(random_tree_depths(rng, 300))
        results = []
        for first in ("entropy", "divergence"):
            made.clear()
            p = ProbabilityDistribution.from_weights(weights)
            measures = {"entropy": lambda: entropy(p),
                        "divergence": lambda: relative_entropy(p, q)}
            got = {first: measures[first]()}
            got.update((name, measure()) for name, measure in measures.items()
                       if name != first)
            results.append(got)
            assert len(made) == 1 and p.floats is made[0]
            assert made[0].typecode == "d" and len(made[0]) == p.n == 300
            assert list(made[0]) == [w / p.total for w in p.weights]
        assert results[0] == results[1]
        # below 2^53 each p_i is one float division, and no view is made
        made.clear()
        small = ProbabilityDistribution.from_weights([3, 1, 4])
        entropy(small)
        relative_entropy(small, [Fraction(1, 3)] * 3)
        assert made == [] and small._floats is None
        # a dyadic distribution's floats are made once per key
        assert list(ProbabilityDistribution._dyadic([1, 2, 2]).floats) == [
            0.5, 0.25, 0.25]

    def test_measures_past_the_held_limit(self, monkeypatch):
        # with more distinct q_i than the measures hold at once, the work
        # is redone, never reused from a dropped object, and every
        # result stays the same
        monkeypatch.setattr("pdzip.core._HELD", 3)
        rng = random.Random(41)
        values = [Fraction(1, 1 << d) for d in range(1, 9)] + [
            Fraction(4, 7), Fraction(1, 3), 0.1, 2.0 ** -1070, Fraction(0)]
        for _ in range(60):
            n = rng.randint(1, 40)
            p = ProbabilityDistribution.from_weights(
                [rng.choice((0, rng.randint(1, 1 << 90))) for _ in range(n - 1)]
                + [1])
            shared = [rng.choice(values) for _ in range(n)]
            fresh = [x * 1 for x in shared]
            weights = [rng.choice((0, 1, 2, 3, 5, 1 << 70)) for _ in range(n)]
            qs = [shared, fresh]
            if any(weights):
                qs.append(ProbabilityDistribution.from_weights(weights))
            for q in qs:
                assert (_exact_outcome(relative_entropy, p, q)
                        == _exact_outcome(_per_term_divergence, p, q))
                assert (_exact_outcome(max_ratio, p, q)
                        == _exact_outcome(_brute_max_ratio, p, q))

    def test_distinct_q_objects_are_not_held_whole(self, monkeypatch):
        # a q sequence of n distinct objects keeps the work of at most
        # _HELD of them: 20 000 sides would take megabytes
        monkeypatch.setattr("pdzip.core._HELD", 64)
        rng = random.Random(43)
        n = 20000
        p = ProbabilityDistribution.from_weights(
            [rng.randint(1, 10 ** 6) for _ in range(n)])
        entries = ProbabilityDistribution.from_weights(
            [rng.randint(10 ** 6, 2 * 10 ** 6) for _ in range(n)]).entries
        tracemalloc.start()
        try:
            relative_entropy(p, entries)
            max_ratio(p, entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18

    def test_each_shared_q_object_is_read_once(self, monkeypatch):
        # a decoder's entries share one object per value, in any order
        a, b, c = Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)
        q = [a, b, c, a, c, b, c, c]
        p = ProbabilityDistribution.from_weights([3, 1, 0, 2, 1, 1, 5, 2])
        want = {measure: _outcome(measure, p, q)
                for measure in (relative_entropy, max_ratio)}
        read = []
        as_integer_ratio = Fraction.as_integer_ratio

        def counted(self):
            read.append(self)
            return as_integer_ratio(self)

        monkeypatch.setattr(Fraction, "as_integer_ratio", counted)
        for measure, outcome in want.items():
            read.clear()
            assert _outcome(measure, p, q) == outcome
            assert sorted(map(id, read)) == sorted(map(id, (a, b, c)))


def _digest(dist) -> str:
    return hashlib.sha256(pickle.dumps(dist, protocol=4)).hexdigest()


class TestDyadicForm:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-3, 70), min_size=1, max_size=10), st.data())
    def test_keys_and_weights_agree(self, keys, data):
        # a dyadic distribution is the one its weights give, to every
        # reader: each check takes a fresh one, with nothing built yet
        def dyadic():
            return ProbabilityDistribution._dyadic(keys)

        top = max(keys)
        weights = [1 << (top - key) for key in keys]
        plain = ProbabilityDistribution._exact(weights, sum(weights))
        assert dyadic() == plain and plain == dyadic()
        assert hash(dyadic()) == hash(plain)
        assert repr(dyadic()) == repr(plain)
        assert _digest(dyadic()) == _digest(plain)
        assert dyadic().entries == plain.entries
        assert dyadic().weights == plain.weights
        assert (dyadic().n, len(dyadic()), dyadic().strictly_positive()) == (
            plain.n, len(plain), True)
        n = len(keys)
        other = ProbabilityDistribution.from_weights(data.draw(st.lists(
            st.one_of(st.integers(0, 3), st.integers(0, 1 << 80)),
            min_size=n, max_size=n).filter(any)))
        assert _exact_outcome(entropy, dyadic()) == _exact_outcome(entropy, plain)
        for measure in (relative_entropy, max_ratio):
            assert (_exact_outcome(measure, other, dyadic())
                    == _exact_outcome(measure, other, plain))
            assert (_exact_outcome(measure, dyadic(), other)
                    == _exact_outcome(measure, plain, other))
        # p within a factor 3 of q, so that the lower levels pass their
        # precondition and the higher ones may not
        from pdzip.refine import refine_step
        factors = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        p = ProbabilityDistribution.from_weights(
            [w * f for w, f in zip(weights, factors)])
        for k in (3, 4, 5):
            want = _exact_outcome(refine_step, p, plain, k)
            try:
                marks, q = refine_step(p, dyadic(), k)
            except DistributionError as exc:
                assert want == (type(exc), None)
                continue
            # a dyadic q_prev gives a dyadic result, with nothing built
            assert q._weights is None and q._entries is None
            assert want == (tuple, (marks, q))


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


def _records():
    """One instance of each record class, and of ProbabilityDistribution."""
    from pdzip.container import Method, container_for
    from pdzip.refine import compress_refined
    from pdzip.sparse import build_query_table, decompress_sparse, select_heavy
    from pdzip.treecode import (DyadicDistribution, StrictTreeShape,
                                encode_tree)

    p = ProbabilityDistribution.from_weights([3, 1, 2, 2])
    shape = StrictTreeShape((1, 2, 2))
    # two heavy symbols, 9 ranked before 3, so rank and index orders differ
    skewed = ProbabilityDistribution.from_weights(
        [{9: 40, 3: 30}.get(i, 1) for i in range(1, 17)])
    heavy = select_heavy(skewed, Fraction(1))
    table = build_query_table(heavy)
    # the METHODS records hold lambdas, which pickle cannot send
    method = Method(tag=9, name="m", params=(), options=(), payload_bits=abs,
                    formula="n", payload_type=int, compress=min, values=repr,
                    index=None, bounds=max, bound_text=("< {:.6g}", None))
    return [p, shape, encode_tree(shape), DyadicDistribution((1, 2, 2)),
            compress_refined(p, 4), decompress_sparse(heavy), heavy, table,
            method, container_for(table)]


# each record's repr and the sha256 of its pickle, frozen so that a change
# in how records are built cannot move either; protocol 4 is pinned, as the
# default protocol differs between Python versions
_LIGHT = "0.044288968667230956, "
_FROZEN = {
    "ProbabilityDistribution": (
        "ProbabilityDistribution.from_weights([3, 1, 2, 2])", "8c66dd37102303f0"),
    "StrictTreeShape": (
        "StrictTreeShape(leaf_depths=(1, 2, 2))", "b24531417450fbe8"),
    "TreePayload": (
        "TreePayload(bits=Bits('1010', nbits=4), n=3)", "033beab969ad0b15"),
    "DyadicDistribution": (
        "DyadicDistribution(depth_exponents=(1, 2, 2))", "1ce4330b2398daa1"),
    "RefinePayload": (
        "RefinePayload(k=4, base=TreePayload(bits=Bits('110010', nbits=6), n=4),"
        " levels=(Bits('0000', nbits=4), Bits('1000', nbits=4)))",
        "0cf8a7066d5d8373"),
    "ApproxDistribution": (
        "ApproxDistribution(entries=(" + _LIGHT * 2 + "0.07599088773175333, "
        + _LIGHT * 5 + "0.3039635509270133, " + _LIGHT * 6
        + "0.044288968667230956))", "36e278ea0fe3f9cc"),
    "SparsePayload": (
        "SparsePayload(n=16, c=Fraction(1, 1), heavy_indices=(9, 3))",
        "a70694c735f2c86d"),
    "SparseQueryTable": (
        "SparseQueryTable(n=16, c=Fraction(1, 1), pairs=((3, 2), (9, 1)))",
        "4ddfd374f68e1583"),
    "Method": (
        "Method(tag=9, name='m', params=(), options=(),"
        " payload_bits=<built-in function abs>, formula='n',"
        " payload_type=<class 'int'>, compress=<built-in function min>,"
        " values=<built-in function repr>, index=None,"
        " bounds=<built-in function max>, bound_text=('< {:.6g}', None))",
        "146121d1c4d34d59"),
    "Container": (
        "Container(method=4, n=16, payload=Bits('0001000101000000', nbits=16),"
        " k=None, c=Fraction(1, 1), t=2)",
        "0bd2a515d06a30b2"),
}


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_copy_pickle_and_stay_immutable(record):
    # a slotted class whose __setattr__ raises unpickles only through a
    # __reduce__ of its own
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert type(twin) is type(record)
        assert twin == record
        assert hash(twin) == hash(record)
    # ProbabilityDistribution keeps its own ==, hash, repr and __reduce__
    name = ("weights" if isinstance(record, ProbabilityDistribution)
            else record._compared[0])
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    text = repr(record)
    assert text.startswith(type(record).__name__)
    assert "flags" not in text and "rank_values" not in text
    frozen_repr, frozen_pickle = _FROZEN[type(record).__name__]
    assert text == frozen_repr
    digest = hashlib.sha256(pickle.dumps(record, protocol=4)).hexdigest()
    assert digest[:16] == frozen_pickle
    # the unchecked constructor rebuilds a record from its slots, cached
    # and derived ones (flags, rank_values, _entries) included
    slots = type(record).__slots__
    twin = type(record)._trusted(*(getattr(record, s) for s in slots))
    assert type(twin) is type(record)
    assert twin == record
    for s in slots:
        assert getattr(twin, s) == getattr(record, s)


def test_record_init_takes_one_value_per_slot():
    from pdzip.bits import Bits
    from pdzip.treecode import DyadicDistribution, TreePayload

    assert DyadicDistribution((1, 1)).depth_exponents == (1, 1)
    for make in (DyadicDistribution, DyadicDistribution._trusted):
        with pytest.raises(TypeError):
            make()
        with pytest.raises(TypeError):
            make((1,), 2)
    # _trusted skips the subclass's checks: 0 bits cannot hold a 5-leaf tree
    assert TreePayload._trusted(Bits(), 5).n == 5
