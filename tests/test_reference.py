"""The integer-weight construction against its Fraction reference.

Containers of every method, smoothed or not, must be byte-identical to
the ones the Fraction formulas in naive.py give; the exact-boundary
cases pin the integer tests where they switch; and property tests cover
the integer form of parsed and normalized weights.
"""

import math
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdzip import treebuild
from pdzip.container import container_for
from pdzip.core import DistributionError, ProbabilityDistribution, parse_distribution
from pdzip.refine import RefinePayload, compress_refined, refine_step
from pdzip.sparse import build_query_table, select_heavy
from pdzip.succinct import SuccinctTreeIndex, build_smoothed, smooth
from pdzip.treebuild import ZeroProbabilityError, code_tree, midpoints
from pdzip.treecode import StrictTreeShape, compress_tree
from naive import (
    fraction_code_tree,
    fraction_codeword,
    fraction_compress_refined,
    fraction_decompress_refined,
    fraction_from_weights,
    fraction_midpoints,
    fraction_refine_step,
    fraction_select_heavy,
    fraction_smooth,
    fraction_smoothed_tree,
    naive_code_tree_depths,
)


def dist(*weights):
    return ProbabilityDistribution.from_weights(list(weights))


CASES = ([("tree", None, None)]
         + [("refine", k, None) for k in range(2, 7)]
         + [(m, c, None) for m in ("sparse", "sparse-queryable")
            for c in (Fraction(1), Fraction(3, 2))]
         + [(m, k, eps) for m, k in (("tree", None), ("refine", 5))
            for eps in (Fraction(1, 10), Fraction(1))])


@pytest.fixture(scope="module")
def reference_levels():
    """Reference code tree and refine levels per input, made once.

    A k-level payload is the tree plus the first k - 2 levels, so one
    pass to the deepest level any case asks of an input serves them all.
    """
    made = {}

    def levels(p, top):
        if (p, top) not in made:
            made[p, top] = fraction_compress_refined(p, top)
        return made[p, top]
    return levels


def _payloads(p, ref, method, param, levels, top):
    """(package payload, reference payload) of one method."""
    if method == "tree":
        return compress_tree(p), levels(ref, top).base
    if method == "refine":
        got = compress_refined(p, param)
        full = levels(ref, top)
        return got, RefinePayload(param, full.base, full.levels[:param - 2])
    heavy, want = select_heavy(p, param), fraction_select_heavy(ref, param)
    if method == "sparse":
        return heavy, want
    return build_query_table(heavy), build_query_table(want)


@pytest.mark.parametrize("method,param,eps", CASES,
                         ids=[f"{m}-{p}-eps{e}" for m, p, e in CASES])
def test_containers_match_reference(main_corpus, zero_corpus, reference_levels,
                                    method, param, eps):
    # the deepest refine level any case asks of these inputs
    top = 6 if eps is None else 5
    for p in main_corpus + zero_corpus:
        ours, ref = p, p
        if eps is not None:
            ours, ref = smooth(p, eps), fraction_smooth(p, eps)
            assert ours == ref
        if method in ("tree", "refine") and not ours.strictly_positive():
            with pytest.raises(ZeroProbabilityError):
                _payloads(ours, ref, method, param, reference_levels, top)
            continue
        got, want = _payloads(ours, ref, method, param, reference_levels, top)
        assert container_for(got).pack() == container_for(want).pack()


INDEX_CASES = ([("tree", None)] + [("refine", k) for k in range(2, 7)]
               + [("sparse-queryable", c) for c in (Fraction(1), Fraction(3, 2))])


@pytest.mark.parametrize("method,param", INDEX_CASES,
                         ids=[f"{m}-{p}" for m, p in INDEX_CASES])
def test_index_equals_decode(main_corpus, zero_corpus, method, param):
    # every query an index answers is the decoded value itself: the same
    # Fraction for tree and refine, the same float for sparse-queryable
    for p in main_corpus + zero_corpus:
        if method == "sparse-queryable":
            payload = build_query_table(select_heavy(p, param))
        else:
            if not p.strictly_positive():
                p = smooth(p, Fraction(1, 10))
            payload = (compress_tree(p) if method == "tree"
                       else compress_refined(p, param))
        spec = container_for(payload).spec
        index = spec.index(payload)
        values = spec.values(payload)
        kind = float if method == "sparse-queryable" else Fraction
        assert all(type(v) is kind for v in values)
        assert [index.query_prob(i) for i in range(1, p.n + 1)] == list(values)
        if method == "refine":
            assert tuple(values) == fraction_decompress_refined(payload)


def test_build_smoothed_matches_reference(main_corpus, zero_corpus, monkeypatch):
    # build_smoothed hands its tree to from_tree_shape; catch it there.
    # The zero corpus is where the caps come into play; a quarter of the
    # main corpus covers strictly positive inputs at a quarter of the time
    monkeypatch.setattr(SuccinctTreeIndex, "from_tree_shape",
                        classmethod(lambda cls, shape: shape))
    for p in main_corpus[::4] + zero_corpus:
        for eps in (Fraction(1, 10), Fraction(1)):
            assert build_smoothed(p, eps) == fraction_smoothed_tree(p, eps)


class TestExactBoundaries:
    def test_codeword_length_at_dyadic_equality(self):
        # w * 2^L = 2W exactly: L = log2(2/p) with no rounding up
        for weights in ((1, 1), (2, 1, 1), (1, 1, 2, 4), (1,) * 8 + (8,)):
            p = dist(*weights)
            mids = midpoints(p)
            for m, w, s, q in zip(mids, p.weights, fraction_midpoints(p), p):
                assert Fraction(m, 2 * p.total) == s
                assert w << fraction_codeword(s, q)[1] == 2 * p.total
            got = code_tree(p)
            assert got == fraction_code_tree(p)
            assert got.leaf_depths == naive_code_tree_depths(p)

    @pytest.mark.parametrize("n,c,prob", [(4, Fraction(1), Fraction(1, 2)),
                                          (8, Fraction(2), Fraction(1, 2)),
                                          (32, Fraction(3, 2), Fraction(1, 4))])
    def test_select_heavy_tie_is_heavy(self, n, c, prob):
        # p^(c+1) = 1/n exactly: w^e * n^cd = W^e
        rest = (1 - prob) / (n - 1)
        p = ProbabilityDistribution((prob,) + (rest,) * (n - 1))
        e = c.numerator + c.denominator
        assert prob.numerator ** e * n ** c.denominator == prob.denominator ** e
        payload = select_heavy(p, c)
        assert payload == fraction_select_heavy(p, c)
        assert 1 in payload.heavy_indices

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_refine_mark_at_threshold(self, k):
        # p_1 = (1 + 2^(3-k)) q_1 exactly is marked
        q = dist(1, 1)
        p1 = (1 + Fraction(1, 2 ** (k - 3))) / 2
        p = ProbabilityDistribution((p1, 1 - p1))
        marks, q2 = refine_step(p, q, k)
        assert marks.to01() == "10"
        assert (marks, q2) == fraction_refine_step(p, q, k)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_refine_precondition_edge(self, k):
        # p_1 = (2 + 2^(4-k)) q_1 exactly violates the precondition
        bound = 2 + Fraction(2, 2 ** (k - 3))
        q1 = Fraction(1, 8)
        p = ProbabilityDistribution((bound * q1, 1 - bound * q1))
        q = ProbabilityDistribution((q1, 1 - q1))
        for step in (refine_step, fraction_refine_step):
            with pytest.raises(DistributionError, match="precondition"):
                step(p, q, k)
        # just below the edge the step goes through
        below = ProbabilityDistribution((bound * q1 - Fraction(1, 10 ** 9),
                                         1 - bound * q1 + Fraction(1, 10 ** 9)))
        assert refine_step(below, q, k) == fraction_refine_step(below, q, k)

    # power-of-two q weights over a total of 2^64 + 1, so refine_step takes
    # every threshold from one quotient by shifts.  An exact tie puts the
    # odd total into the p weights and leaves D/gcd(N, D) a power of two;
    # p weights that are multiples of 10^-40 share none of its odd factors,
    # so no threshold is an integer, and p_1 sits one step either side of it
    DEEP_Q = (1 << 61, 1 << 61, 1 << 62, 1, 1 << 63)
    DEEP_Q1 = Fraction(1 << 61, 2 ** 64 + 1)

    def _deep_qs(self):
        """DEEP_Q as plain weights, and as core's dyadic keys: key k has
        weight 2^(63 - k)."""
        plain = ProbabilityDistribution.from_weights(self.DEEP_Q)
        assert plain.weights == self.DEEP_Q and plain.total >= 2 ** 61
        keys = (2, 2, 1, 63, 0)
        assert ProbabilityDistribution._dyadic(keys) == plain
        return plain, ProbabilityDistribution._dyadic(keys)

    def _beside(self, p1):
        """p_1 given, p_i = q_i in the middle, the last symbol the rest."""
        middle = tuple(Fraction(u, 2 ** 64 + 1) for u in self.DEEP_Q[1:-1])
        return ProbabilityDistribution((p1,) + middle + (1 - p1 - sum(middle),))

    def _steps(self, factor):
        """factor * q_1 rounded down and up to multiples of 10^-40."""
        down = math.floor(factor * self.DEEP_Q1 * 10 ** 40)
        return tuple(self._beside(Fraction(d, 10 ** 40)) for d in (down, down + 1))

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_refine_mark_at_threshold_deep(self, k):
        plain, dyadic = self._deep_qs()
        threshold = 1 + Fraction(1, 2 ** (k - 3))
        for p, want in ((self._beside(threshold * self.DEEP_Q1), "10000"),
                        *zip(self._steps(threshold), ("00000", "10000"))):
            for q in (plain, dyadic):
                marks, q2 = refine_step(p, q, k)
                assert marks.to01() == want
                assert (marks, q2) == fraction_refine_step(p, plain, k)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_refine_precondition_edge_deep(self, k):
        plain, dyadic = self._deep_qs()
        bound = 2 + Fraction(2, 2 ** (k - 3))
        below, above = self._steps(bound)
        for p in (self._beside(bound * self.DEEP_Q1), above):
            for step, q in ((refine_step, plain), (refine_step, dyadic),
                            (fraction_refine_step, plain)):
                with pytest.raises(DistributionError, match="precondition"):
                    step(p, q, k)
        below_tie = self._beside((bound - Fraction(1, 10 ** 40)) * self.DEEP_Q1)
        for p in (below_tie, below):
            for q in (plain, dyadic):
                marks, q2 = refine_step(p, q, k)
                assert marks.to01() == "10000"
                assert (marks, q2) == fraction_refine_step(p, plain, k)


# ----------------------------------------------------------------------
# properties of the integer form

_weight = st.one_of(
    st.integers(min_value=0, max_value=10 ** 30),
    st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 20),
    st.builds(Fraction, st.integers(0, 50),
              st.sampled_from([1, 3, 7, 2 ** 61 - 1, 10 ** 18 + 9, 3 ** 40])),
)


def _expected(weights):
    ws = [Fraction(w) for w in weights]
    return tuple(w / sum(ws) for w in ws)


def _reference_weight_lists(n=300):
    # the Zipf and geometric families of conftest, every ratio both ways
    for a in (1, 2):
        yield pytest.param([Fraction(1, i ** a) for i in range(1, n + 1)],
                           id=f"zipf-a{a}")
    for num, den in ((2, 1), (3, 2), (3, 1), (5, 4), (5, 2)):
        up = [Fraction(num, den) ** i for i in range(n)]
        yield pytest.param(up, id=f"geometric-{num}/{den}-up")
        yield pytest.param(up[::-1], id=f"geometric-{num}/{den}-down")
    yield pytest.param([3, 0.375, Fraction(5, 7), 0, 1e-30, Fraction(2, 3 ** 40),
                        True], id="mixed")
    yield pytest.param([Decimal("0.125"), Decimal("2.5"), Decimal("1E-20"),
                        Decimal("7"), Decimal(0)], id="decimal")
    # numerators with the common factor g = 6
    yield pytest.param([Fraction(6, 5), 12, Fraction(18, 7), 0, 6.0],
                       id="shared-factor")
    # powers of two as denominators go over the largest one; one odd
    # denominator among them sends the list through the lcm instead
    deep = [Fraction(1, 2 ** j) for j in range(2001)]
    yield pytest.param(deep, id="dyadic-deep-down")
    yield pytest.param(deep[::-1], id="dyadic-deep-up")
    yield pytest.param([5e-324, 1.0, 0.375, 3 * 5e-324, 2.0 ** -1022],
                       id="subnormal")
    yield pytest.param([Fraction(3, 8), 0.5, Fraction(1, 2 ** 90), 2],
                       id="dyadic-shallow")
    yield pytest.param([Fraction(3, 8), 0.5, Fraction(1, 2 ** 90), Fraction(2, 3)],
                       id="dyadic-one-odd")


@pytest.mark.parametrize("weights", _reference_weight_lists())
def test_from_weights_matches_reference(weights):
    p = ProbabilityDistribution.from_weights(weights)
    assert (p.weights, p.total, p.entries) == fraction_from_weights(weights)
    assert math.gcd(*p.weights) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_weight, min_size=1, max_size=12).filter(lambda ws: any(ws)))
def test_from_weights_entries(weights):
    p = ProbabilityDistribution.from_weights(weights)
    assert p.entries == _expected(weights)
    assert sum(p.weights) == p.total
    assert p == ProbabilityDistribution(p.entries)
    assert hash(p) == hash(ProbabilityDistribution(p.entries))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=0, max_value=1e300, allow_nan=False,
                          allow_infinity=False),
                min_size=1, max_size=8).filter(lambda ws: any(ws)))
def test_from_weights_floats_are_exact(weights):
    assert ProbabilityDistribution.from_weights(weights).entries == _expected(weights)


_numeral = st.builds(
    lambda whole, frac, form: {"int": whole, "dec": f"{whole}.{frac}",
                               "lead": f".{frac or '0'}", "trail": f"{whole}."}[form],
    st.integers(0, 10 ** 25).map(str),
    st.text("0123456789", max_size=30),
    st.sampled_from(["int", "dec", "lead", "trail"]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_numeral, min_size=1, max_size=12).filter(
    lambda lines: any(Fraction(line) for line in lines)))
def test_parse_distribution_entries(lines):
    p = parse_distribution("\n".join(lines) + "\n")
    assert p.entries == _expected([Fraction(line) for line in lines])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.integers(1, 2 ** 40),
                          st.fractions(min_value=Fraction(1, 10 ** 12),
                                       max_value=10 ** 6,
                                       max_denominator=10 ** 15)),
                min_size=1, max_size=7))
def test_code_tree_matches_naive(weights):
    p = ProbabilityDistribution.from_weights(weights)
    depths = code_tree(p).leaf_depths
    assert depths == naive_code_tree_depths(p)
    assert depths == fraction_code_tree(p).leaf_depths


def _split_leaves(picks):
    """Leaf depths of the strict tree grown by splitting leaf k % n per pick."""
    depths = [0]
    for k in picks:
        k %= len(depths)
        depths[k:k + 1] = [depths[k] + 1] * 2
    return depths


_code_tree_weights = st.one_of(
    st.lists(st.integers(1, 2 ** 64), min_size=1, max_size=40),
    # dyadic weights over a power-of-two total: w * 2^L = 2W exactly
    st.lists(st.integers(0, 10 ** 6), max_size=40).map(
        lambda picks: [1 << (40 - d) for d in _split_leaves(picks)]),
    # falling weights, each a product of the factors after it: a long tail
    # just below S = 1, with codewords up to 480 bits on both sides of the
    # length at which code_tree divides from the top end
    st.lists(st.integers(1, 2 ** 12), max_size=40).map(
        lambda factors: list(accumulate([1] + factors, mul))[::-1]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_code_tree_weights)
@example([7])
@example([1, 1])
@example([3, 1])
# S_2 = 1/2 exactly, with a short and with a long codeword
@example([1, 2, 1])
@example([2 ** 100, 1, 2 ** 100])
# halving weights: codewords of 2 to 82 bits, all past S = 1/2 but the first
@example([2 ** i for i in range(80, -1, -1)])
# long tails of odd weights
@example([2 ** 200, 3 ** 90, 5 ** 40, 7 ** 20, 11 ** 5, 1])
@example([3 ** 300, 2 ** 300, 5 ** 100, 3 ** 100, 1, 1])
# geometric r = 2 both ways round: deep LCP stacks, long runs of pops
@example([2 ** i for i in range(1000)])
@example([2 ** i for i in range(999, -1, -1)])
def test_code_tree_equals_codeword_contraction(weights):
    p = ProbabilityDistribution.from_weights(weights)
    # the codewords code_tree hands over are the Fraction formula's
    with mock.patch.object(treebuild, "contract_to_strict",
                           wraps=treebuild.contract_to_strict) as spy:
        got = code_tree(p)
    codewords = [fraction_codeword(s, q)
                 for s, q in zip(fraction_midpoints(p), p.entries)]
    assert list(zip(*spy.call_args.args)) == codewords
    want = fraction_code_tree(p)
    assert got.leaf_depths == want.leaf_depths
    assert got.flags == want.flags
    # the per-bit trie holds a node per codeword bit and recurses once per
    # bit, so the two geometric examples (codewords up to 1001 bits) are
    # left to the Fraction reference
    if p.n < 1000:
        assert got.leaf_depths == naive_code_tree_depths(p)
    # and the flags are what the checking walk makes of these depths
    assert got.flags == StrictTreeShape(got.leaf_depths).flags


@st.composite
def _refine_cases(draw):
    """(p, q, k) with many ratios p_i/q_i exactly at a test's threshold.

    q is either powers of two from 1 to 2^100 (total past 2^61) or any
    positive ints.  Each symbol but the last takes p_i = f_i * q_i for an
    f_i drawn near the level's two thresholds, while that stays within the
    mass left; the last symbol takes the rest.
    """
    k = draw(st.integers(3, 6))
    s = 2 ** (k - 3)
    if draw(st.booleans()):
        exps = draw(st.lists(st.integers(0, 100), min_size=1, max_size=10))
        us = [1 << e for e in exps] + [1, 1 << draw(st.integers(61, 100))]
    else:
        us = draw(st.lists(st.integers(1, 2 ** 70), min_size=2, max_size=12))
    q = ProbabilityDistribution.from_weights(us)
    mark, pre = 1 + Fraction(1, s), 2 + Fraction(2, s)
    tiny = st.sampled_from([Fraction(1, 2 ** 80), Fraction(1, 3 ** 50)])
    factor = st.one_of(
        st.sampled_from([Fraction(0), Fraction(1), mark, pre]),
        st.builds(lambda d: mark - d, tiny), st.builds(lambda d: mark + d, tiny),
        st.builds(lambda d: pre - d, tiny),
        st.fractions(min_value=0, max_value=pre, max_denominator=10 ** 6))
    entries = []
    left = Fraction(1)
    for qi in q.entries[:-1]:
        p = draw(factor) * qi
        if p > left:
            p = Fraction(0)
        entries.append(p)
        left -= p
    return ProbabilityDistribution((*entries, left)), q, k


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_refine_cases())
def test_refine_step_matches_reference(case):
    # power-of-two q weights are also given as core's dyadic keys; both
    # forms take refine_step's shift path
    p, q, k = case
    forms = [q]
    if sum(map(int.bit_count, q.weights)) == q.n:
        top = max(q.weights).bit_length()
        forms.append(ProbabilityDistribution._dyadic(
            [top - u.bit_length() for u in q.weights]))
    try:
        want = fraction_refine_step(p, q, k)
    except DistributionError as caught:
        for q_prev in forms:
            with pytest.raises(DistributionError, match=str(caught)):
                refine_step(p, q_prev, k)
    else:
        for q_prev in forms:
            assert refine_step(p, q_prev, k) == want
