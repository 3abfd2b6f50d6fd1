"""The integer-weight construction against its Fraction reference.

Containers of every method, smoothed or not, must be byte-identical to
the ones the Fraction formulas in naive.py give; the exact-boundary
cases pin the integer tests where they switch; and property tests cover
the integer form of parsed and normalized weights.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdzip.container import container_for
from pdzip.core import DistributionError, ProbabilityDistribution, parse_distribution
from pdzip.refine import RefinePayload, compress_refined, refine_step
from pdzip.sparse import build_query_table, select_heavy
from pdzip.succinct import SuccinctTreeIndex, build_smoothed, smooth
from pdzip.treebuild import ZeroProbabilityError, code_tree, codeword, midpoints
from pdzip.treecode import compress_tree
from naive import (
    fraction_code_tree,
    fraction_codeword,
    fraction_compress_refined,
    fraction_decompress_refined,
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
        assert [index.query_prob(i) for i in range(1, p.n + 1)] == values
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
                got = codeword(m, w, p.total)
                assert got == fraction_codeword(s, q)
                assert w << got.length == 2 * p.total

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
