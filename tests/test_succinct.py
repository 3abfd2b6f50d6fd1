import random
from fractions import Fraction

import pytest

from pdzip.bits import Bits
from pdzip.core import (
    ProbabilityDistribution,
    max_ratio,
    relative_entropy,
)
from pdzip.succinct import (
    NavigationError,
    SuccinctTreeIndex,
    build_smoothed,
    smooth,
)
from pdzip.treebuild import StrictTreeShape, ZeroProbabilityError, code_tree
from pdzip.treecode import (MalformedPayloadError, TreePayload, decode_tree,
                            encode_tree)
from conftest import floor_caps, ordered_tree_fits, random_tree_depths
from naive import LinkedTree


def dist(*weights):
    return ProbabilityDistribution.from_weights([Fraction(w) for w in weights])


def index_for(depths):
    return SuccinctTreeIndex.from_tree_shape(StrictTreeShape(depths))


class TestNavigationExamples:
    # shape 1100100: root, left child internal, two leaves, right
    # child internal, two leaves
    def setup_method(self):
        self.idx = SuccinctTreeIndex(Bits.from_string("1100100"), 4)

    def test_children(self):
        assert self.idx.left_child(0) == 1
        assert self.idx.right_child(0) == 4
        assert self.idx.left_child(1) == 2
        assert self.idx.right_child(1) == 3

    def test_parent(self):
        assert self.idx.parent(1) == 0
        assert self.idx.parent(2) == 1
        assert self.idx.parent(3) == 1
        assert self.idx.parent(4) == 0
        assert self.idx.parent(5) == 4
        assert self.idx.parent(6) == 4

    def test_descendants(self):
        assert self.idx.num_descendants(0) == 7
        assert self.idx.num_descendants(1) == 3
        assert self.idx.num_descendants(2) == 1

    def test_is_leaf(self):
        assert not self.idx.is_leaf(0)
        assert self.idx.is_leaf(2)
        assert self.idx.is_leaf(6)

    def test_leaf_queries(self):
        assert [self.idx.leaf_depth(i) for i in (1, 2, 3, 4)] == [2, 2, 2, 2]
        assert self.idx.query_prob(3) == Fraction(1, 4)

    def test_single_node_tree(self):
        idx = index_for((0,))
        assert idx.n == 1
        assert idx.is_leaf(0)
        assert idx.query_prob(1) == 1
        with pytest.raises(NavigationError):
            idx.parent(0)
        with pytest.raises(NavigationError):
            idx.left_child(0)

    def test_errors(self):
        with pytest.raises(NavigationError):
            self.idx.left_child(2)  # leaf
        with pytest.raises(NavigationError):
            self.idx.parent(0)  # root
        with pytest.raises(NavigationError):
            self.idx.left_child(7)  # no such node
        with pytest.raises(NavigationError):
            self.idx.leaf_depth(0)
        with pytest.raises(NavigationError):
            self.idx.leaf_depth(5)


class TestOracleEquivalence:
    def test_random_trees(self):
        rng = random.Random(109)
        for trial in range(60):
            n = rng.randint(1, 300)
            depths = random_tree_depths(rng, n)
            shape = StrictTreeShape(depths)
            idx = SuccinctTreeIndex.from_tree_shape(shape)
            shape_bits = encode_tree(shape).bits + Bits.from_string("0")
            oracle = LinkedTree(shape_bits)
            assert idx.node_count == 2 * n - 1
            for v in range(2 * n - 1):
                assert idx.is_leaf(v) == oracle.is_leaf(v)
                assert idx.num_descendants(v) == oracle.num_descendants(v)
                if v > 0:
                    assert idx.parent(v) == oracle.parent(v)
                if not idx.is_leaf(v):
                    assert idx.left_child(v) == oracle.left_child(v)
                    assert idx.right_child(v) == oracle.right_child(v)
            for i in range(1, n + 1):
                assert idx.leaf_depth(i) == depths[i - 1]
                assert idx.leaf_depth(i) == oracle.leaf_depth(i)

    def test_descent_step_count_is_depth(self):
        rng = random.Random(113)
        for _ in range(20):
            n = rng.randint(1, 200)
            depths = random_tree_depths(rng, n)
            idx = index_for(depths)
            for i in range(1, n + 1):
                pos, steps = idx.leaf_descent(i)
                assert steps == depths[i - 1]
                assert idx.is_leaf(pos)

    def test_probabilities_sum_to_one(self):
        rng = random.Random(127)
        for _ in range(20):
            n = rng.randint(1, 150)
            idx = index_for(random_tree_depths(rng, n))
            assert sum(idx.query_prob(i) for i in range(1, n + 1)) == 1


class TestConstruction:
    def test_build_index(self):
        idx = SuccinctTreeIndex.from_tree_shape(code_tree(dist(2, 1, 1)))
        assert [idx.leaf_depth(i) for i in (1, 2, 3)] == [1, 2, 2]
        assert idx.query_prob(1) == Fraction(1, 2)

    def test_build_index_single(self):
        idx = SuccinctTreeIndex.from_tree_shape(code_tree(dist(1)))
        assert idx.node_count == 1
        assert idx.query_prob(1) == 1

    def test_zero_probability_rejected(self):
        with pytest.raises(ZeroProbabilityError):
            SuccinctTreeIndex.from_tree_shape(code_tree(dist(1, 0)))

    def test_from_payload(self):
        payload = TreePayload(Bits.from_string("1010"), 3)
        idx = SuccinctTreeIndex.from_payload(payload)
        assert [idx.leaf_depth(i) for i in (1, 2, 3)] == [1, 2, 2]

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            SuccinctTreeIndex(Bits.from_string("10"), 1)
        with pytest.raises(ValueError):
            SuccinctTreeIndex(Bits.from_string("111"), 2)

    def test_malformed_payload_rejected(self):
        for bad in ("1111", "0010"):
            with pytest.raises(MalformedPayloadError):
                SuccinctTreeIndex.from_payload(
                    TreePayload(Bits.from_string(bad), 3))

    def test_payload_check_matches_decoder(self):
        # the index accepts exactly the payloads decode_tree accepts and
        # then has the same leaf depths: every bit string up to n = 8, and
        # valid trees with one or two flipped bits up to n = 400, where
        # the flags span several words and blocks
        rng = random.Random(211)
        payloads = [TreePayload(Bits.from_int(value, 2 * n - 2), n)
                    for n in range(1, 9) for value in range(1 << (2 * n - 2))]
        for _ in range(300):
            n = rng.randint(9, 400)
            good = encode_tree(StrictTreeShape(random_tree_depths(rng, n)))
            value = good.bits.as_int()
            for _ in range(rng.randint(0, 2)):
                value ^= 1 << rng.randrange(2 * n - 2)
            payloads.append(TreePayload(Bits.from_int(value, 2 * n - 2), n))
        for payload in payloads:
            try:
                depths = decode_tree(payload).leaf_depths
            except MalformedPayloadError:
                with pytest.raises(MalformedPayloadError):
                    SuccinctTreeIndex.from_payload(payload)
                continue
            idx = SuccinctTreeIndex.from_payload(payload)
            assert tuple(idx.leaf_depth(i)
                         for i in range(1, payload.n + 1)) == depths


class TestSmoothing:
    def test_fixed_point(self):
        p = dist(1, 1)
        assert tuple(smooth(p, Fraction(4))) == (Fraction(1, 2),
                                                 Fraction(1, 2))

    def test_point_mass_example(self):
        p = ProbabilityDistribution((Fraction(1), Fraction(0)))
        assert tuple(smooth(p, Fraction(4))) == (Fraction(3, 4),
                                                 Fraction(1, 4))

    def test_skew_example(self):
        p = dist(9, 1)
        sm = smooth(p, Fraction(2, 5))
        assert tuple(sm) == (Fraction(19, 22), Fraction(3, 22))

    def test_sums_to_one_exactly(self):
        rng = random.Random(131)
        for _ in range(40):
            n = rng.randint(1, 60)
            weights = [Fraction(rng.randint(0, 9)) for _ in range(n)]
            if sum(weights) == 0:
                weights[0] = Fraction(1)
            p = ProbabilityDistribution.from_weights(weights)
            eps = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            sm = smooth(p, eps)
            assert sum(sm) == 1
            assert sm.strictly_positive()

    def test_epsilon_positive_required(self):
        with pytest.raises(ValueError):
            smooth(dist(1, 1), Fraction(0))
        with pytest.raises(ValueError):
            smooth(dist(1, 1), Fraction(-1))


class TestSmoothedBounds:
    def test_capped_depth_example(self):
        # n=8 with one 2^-40 entry, eps=1: this instance floors every
        # leaf probability above 1/32 and caps depth at 5
        pmin = Fraction(1, 2 ** 40)
        rest = (1 - pmin) / 7
        p = ProbabilityDistribution((pmin,) + (rest,) * 7)
        idx = build_smoothed(p, Fraction(1))
        depths = [idx.leaf_depth(i) for i in range(1, 9)]
        assert depths == [4, 4, 3, 2, 3, 3, 3, 3]
        assert all(d <= 5 for d in depths)
        assert all(idx.query_prob(i) > Fraction(1, 32) for i in range(1, 9))

    def test_provable_bounds(self, zero_corpus):
        # every ratio stays below 4 + eps, every leaf probability above
        # p_i/(4+eps) and above eps/((16+4eps) n)
        for p in zero_corpus[:40]:
            for eps in (Fraction(1, 10), Fraction(1)):
                idx = build_smoothed(p, eps)
                n = p.n
                q = [idx.query_prob(i) for i in range(1, n + 1)]
                floor = eps / ((16 + 4 * eps) * n)
                for pi, qi in zip(p, q):
                    assert qi > floor
                    assert qi > pi / (4 + eps)
                    if pi:
                        assert pi / qi < 4 + eps
                d = relative_entropy(p, ProbabilityDistribution(tuple(q)))
                assert d < 2 + float(eps) + 1e-9

    @staticmethod
    def _assert_provable(p, eps, q):
        n = p.n
        for pi, qi in zip(p, q):
            assert qi > eps / ((16 + 4 * eps) * n)
            assert qi > pi / (4 + eps)
        d = relative_entropy(p, ProbabilityDistribution(tuple(q)))
        assert d < 2 + float(eps) + 1e-9

    def test_uniform_floor_repaired(self):
        # a zero-corpus input whose smoothed code tree puts the seven
        # zeros at or below eps/(4n) = 1/32; a capped tree lifts them
        p = dist(0, 0, 0, 0, 0, 0, 0, 1)
        eps = Fraction(1)
        code = code_tree(smooth(p, eps)).leaf_depths
        assert any(Fraction(1, 1 << d) <= eps / 32 for d in code)
        idx = build_smoothed(p, eps)
        depths = [idx.leaf_depth(i) for i in range(1, 9)]
        assert depths == [4, 4, 4, 4, 4, 4, 3, 1]
        q = [idx.query_prob(i) for i in range(1, 9)]
        assert all(qi > eps / 32 for qi in q)
        self._assert_provable(p, eps, q)

    def test_uniform_floor_unattainable(self):
        # caps [5, 2, 5, ..., 5, 3, 5]: symbol 2 takes the aligned quarter
        # [1/4, 1/2), symbols 3..11 fill [1/2, 25/32), symbol 12 needs the
        # aligned eighth [7/8, 1) and symbol 13 finds no room left
        p = dist(0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0)
        eps = Fraction(1)
        caps = floor_caps(p, eps)
        assert caps == [5, 2] + [5] * 9 + [3, 5]
        assert not ordered_tree_fits(caps)
        idx = build_smoothed(p, eps)
        code = code_tree(smooth(p, eps)).leaf_depths
        assert tuple(idx.leaf_depth(i) for i in range(1, 14)) == code
        self._assert_provable(p, eps, [idx.query_prob(i)
                                       for i in range(1, 14)])

    def test_divergence_decomposition(self, zero_corpus):
        # D(P||Q) <= D(P||P') + max-ratio slack; spot-check the exact
        # smoothed ratio bound that drives it
        p = zero_corpus[0]
        eps = Fraction(1)
        sm = smooth(p, eps)
        assert max_ratio(p, sm) < 1 + eps / 4 + Fraction(1, 10 ** 12)


class TestSpaceAccounting:
    def test_formula(self):
        idx = index_for((1, 2, 2))
        m = 5
        assert idx.total_bits() == m + idx.aux_bits()
        assert idx.aux_bits() > 0

    def test_total_is_modest_at_64k(self):
        rng = random.Random(137)
        n = 1 << 16
        idx = index_for(random_tree_depths(rng, n, balanced=True))
        assert idx.total_bits() <= 3 * n

    def test_aux_fraction_shrinks(self):
        rng = random.Random(139)
        prev = None
        for exp in (12, 14, 16):
            n = 1 << exp
            idx = index_for(random_tree_depths(rng, n, balanced=True))
            frac = idx.aux_bits() / n
            if prev is not None:
                assert frac <= prev
            prev = frac
