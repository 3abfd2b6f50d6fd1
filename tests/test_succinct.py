import math
import random
from fractions import Fraction

import pytest

from pdzip.bits import Bits, concat
from pdzip.core import (
    ProbabilityDistribution,
    max_ratio,
    relative_entropy,
)
from pdzip import succinct
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
from naive import LinkedTree, bits


def dist(*weights):
    return ProbabilityDistribution.from_weights([Fraction(w) for w in weights])


def index_for(depths):
    return SuccinctTreeIndex.from_tree_shape(StrictTreeShape(depths))


def assert_same_verdict(payload):
    """The index accepts the payload iff decode_tree does, with its depths."""
    try:
        depths = decode_tree(payload).leaf_depths
    except MalformedPayloadError:
        with pytest.raises(MalformedPayloadError):
            SuccinctTreeIndex.from_payload(payload)
        return
    idx = SuccinctTreeIndex.from_payload(payload)
    assert tuple(idx.leaf_descent(i)[1] for i in range(1, payload.n + 1)) == depths


def geometric_depths(n, r=2, rising=False):
    """Code-tree leaf depths of weights r^0..r^(n-1), rising or falling."""
    weights = [Fraction(r) ** i for i in range(n)]
    if not rising:
        weights.reverse()
    return code_tree(ProbabilityDistribution.from_weights(weights)).leaf_depths


def flag_depths(flags):
    """Leaf depths of the strict tree with these preorder flags."""
    oracle = LinkedTree([int(ch) for ch in flags])
    return tuple(oracle.leaf_depth(i) for i in range(1, oracle.n + 1))


def block_size(n):
    # the index's block size, restated so that the cases below can be put
    # on block boundaries; the boundary test checks it against the index
    lg = math.log2(2 * n)
    return -(-max(16, math.ceil(lg * lg)) // 16) * 16


def boundary_cases():
    rng = random.Random(223)
    cases = []
    # every residue of m = 2n - 1 mod 16 (m is odd, so eight of them),
    # inside one word and in the fourth block of a four-block index
    for n in list(range(1, 9)) + list(range(129, 137)):
        cases.append((f"residue-n{n}", random_tree_depths(rng, n)))
    # m one short of and one past k blocks; m is odd and B a multiple of
    # 16, so m is never k*B itself; with k = 10 the block minima get a
    # second range-min level
    for k in (1, 2, 3, 10):
        for off in (-1, 1):
            n = next(n for n in range(2, 1000)
                     if 2 * n - 1 == k * block_size(n) + off)
            cases.append((f"m=kB{off:+d}-k{k}", random_tree_depths(rng, n)))
    cases.append(("single-block-two-words", random_tree_depths(rng, 16)))
    # depth n - 1 both ways, m = 10B + 1: the last block holds one symbol
    n = 561
    cases.append(("caterpillar-right", tuple(range(1, n)) + (n - 1,)))
    cases.append(("caterpillar-left", (n - 1,) + tuple(range(n - 1, 0, -1))))
    # 97 blocks, three range-min levels: the searches for the root's
    # subtree end (in the last block) and for the parent of its right
    # child (the position before the first block) climb to the top level
    cases.append(("three-levels", random_tree_depths(rng, 10000,
                                                     balanced=True)))
    # the shapes of falling and rising geometric weights, r = 2: a comb,
    # whose every left child is a leaf, so the upward walk never searches;
    # and a left caterpillar, whose run of 1499 1s crosses 94 words and
    # 11 blocks and whose leaves from the sixth on each search back to it
    n = 1500
    cases.append(("comb-geometric-down", geometric_depths(n)))
    cases.append(("caterpillar-geometric-up", geometric_depths(n, rising=True)))
    cases.append(("geometric-3/2-up", geometric_depths(1000, Fraction(3, 2),
                                                       rising=True)))
    # leaf 1 at position d < 8: the byte before a node near the root
    # reaches into the zero padding before position 0
    for d in range(1, 8):
        cases.append((f"first-leaf-at-{d}",
                      (d,) + tuple(range(d, 1, -1))
                      + tuple(1 + x for x in random_tree_depths(rng, 20))))
    # seven left turns up from a leaf, then the byte before the node
    # ends on a 0 that is the last flag of a word (comb of c nodes) or
    # the first flag of the next (the same comb one level down)
    for c in (8, 48):
        cases.append((f"window-0-ends-word-{2 * c - 1}",
                      flag_depths("10" * c + "1" * 7 + "0" * 8)))
        cases.append((f"window-0-starts-word-{2 * c}",
                      flag_depths("1" + "10" * c + "1" * 7 + "0" * 9)))
    return cases


class TestNavigationExamples:
    # shape 1100100: root, left child internal, two leaves, right
    # child internal, two leaves
    def setup_method(self):
        self.idx = SuccinctTreeIndex(0b1100100, 4)

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
        assert [self.idx.leaf_descent(i)[1] for i in (1, 2, 3, 4)] == [2, 2, 2, 2]
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
            self.idx.leaf_descent(0)
        with pytest.raises(NavigationError):
            self.idx.leaf_descent(5)


class TestOracleEquivalence:
    def test_random_trees(self):
        rng = random.Random(109)
        for trial in range(60):
            n = rng.randint(1, 300)
            depths = random_tree_depths(rng, n)
            shape = StrictTreeShape(depths)
            idx = SuccinctTreeIndex.from_tree_shape(shape)
            shape_bits = concat([encode_tree(shape).bits, bits("0")])
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
                assert idx.leaf_descent(i)[1] == depths[i - 1]
                assert idx.leaf_descent(i) == (oracle.leaf_position(i),
                                               oracle.leaf_depth(i))

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
        assert [idx.leaf_descent(i)[1] for i in (1, 2, 3)] == [1, 2, 2]
        assert idx.query_prob(1) == Fraction(1, 2)

    def test_build_index_single(self):
        idx = SuccinctTreeIndex.from_tree_shape(code_tree(dist(1)))
        assert idx.node_count == 1
        assert idx.query_prob(1) == 1

    def test_zero_probability_rejected(self):
        with pytest.raises(ZeroProbabilityError):
            SuccinctTreeIndex.from_tree_shape(code_tree(dist(1, 0)))

    def test_from_payload(self):
        payload = TreePayload(bits("1010"), 3)
        idx = SuccinctTreeIndex.from_payload(payload)
        assert [idx.leaf_descent(i)[1] for i in (1, 2, 3)] == [1, 2, 2]

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            SuccinctTreeIndex(0b10, 1)
        with pytest.raises(ValueError):
            SuccinctTreeIndex(0b111, 2)
        for flags, n in ((0, 0), (-1, 1), (0b1000, 2)):
            with pytest.raises(MalformedPayloadError):
                SuccinctTreeIndex(flags, n)

    def test_malformed_payload_rejected(self):
        for bad in ("1111", "0010"):
            with pytest.raises(MalformedPayloadError):
                SuccinctTreeIndex.from_payload(
                    TreePayload(bits(bad), 3))

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
            assert_same_verdict(payload)


@pytest.mark.parametrize("depths", [pytest.param(depths, id=name)
                                    for name, depths in boundary_cases()])
def test_boundaries_match_linked_tree(depths):
    n = len(depths)
    payload = encode_tree(StrictTreeShape(depths))
    idx = SuccinctTreeIndex.from_payload(payload)
    assert idx._B == block_size(n)
    oracle = LinkedTree(concat([payload.bits, bits("0")]))
    for i in range(1, n + 1):
        assert idx.leaf_descent(i) == (oracle.leaf_position(i),
                                       oracle.leaf_depth(i))
    for v in range(2 * n - 1):
        assert idx.num_descendants(v) == oracle.num_descendants(v)
        if v > 0:
            assert idx.parent(v) == oracle.parent(v)
        if not oracle.is_leaf(v):
            assert idx.right_child(v) == oracle.right_child(v)
    # flipped flags next to the padding and the block edges
    value = payload.bits.as_int()
    stored = 2 * n - 2
    for flips in ((0,), (1,), (0, 1), (0, stored // 2)):
        if max(flips) < stored:
            bad = value
            for f in flips:
                bad ^= 1 << f
            assert_same_verdict(TreePayload(Bits.from_int(bad, stored), n))


def right_turns(oracle, i):
    """(all, far) right turns on leaf i's path over an internal left
    sibling; far ones have their parent more than 8 flags back, because
    the sibling's subtree has 9 or more nodes."""
    turns = far = 0
    v = oracle.leaf_position(i)
    while v:
        p = oracle.parent(v)
        if v == oracle.right_child(p) and not oracle.is_leaf(p + 1):
            turns += 1
            far += v - p > 8
        v = p
    return turns, far


def test_descent_work_bound(monkeypatch):
    # the upward walk searches once per right turn whose parent lies
    # beyond the 8 flags its table reads, so at most once per right turn
    # over an internal left sibling, and never forward; counted calls,
    # no timing
    rng = random.Random(229)
    cases = {"comb": geometric_depths(600),
             "caterpillar": geometric_depths(600, rising=True),
             "geometric-3/2-down": geometric_depths(400, Fraction(3, 2)),
             "geometric-3/2-up": geometric_depths(400, Fraction(3, 2),
                                                  rising=True)}
    for k in range(4):
        cases[f"random-{k}"] = random_tree_depths(rng, 400, balanced=k % 2)
    built = []
    for name, depths in cases.items():
        payload = encode_tree(StrictTreeShape(depths))
        built.append((name, SuccinctTreeIndex.from_payload(payload),
                      LinkedTree(concat([payload.bits, bits("0")]))))
    calls = {"_fwdsearch": 0, "_bwdsearch": 0}

    def counted(name):
        search = getattr(SuccinctTreeIndex, name)

        def wrapper(self, *args):
            calls[name] += 1
            return search(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(SuccinctTreeIndex, name, counted(name))
    searched = 0
    for name, idx, oracle in built:
        for i in range(1, oracle.n + 1):
            calls["_fwdsearch"] = calls["_bwdsearch"] = 0
            idx.leaf_descent(i)
            turns, far = right_turns(oracle, i)
            assert calls["_fwdsearch"] == 0, (name, i)
            assert calls["_bwdsearch"] == far <= turns, (name, i)
            searched += far
            if name == "comb":
                assert turns == 0
            elif name == "caterpillar":
                assert turns <= 1
    assert searched > 0


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
        depths = [idx.leaf_descent(i)[1] for i in range(1, 9)]
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
        depths = [idx.leaf_descent(i)[1] for i in range(1, 9)]
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
        assert tuple(idx.leaf_descent(i)[1] for i in range(1, 14)) == code
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

    def test_aux_bits_are_the_packed_widths(self):
        # recomputed from B, the block count nb, the superblock size G and
        # the arity: per block a minimum in [-B, 1] and a ones count in
        # [0, B]; per stored range-min node a minimum in [-s, 1] over its
        # span of s symbols; per superblock one absolute ones counter.  It
        # may not exceed the directory that also kept each block's maximum
        # (both extremes in [-B, B]).
        def width(values):
            return (values - 1).bit_length()

        for exp in range(10, 21):
            n = 1 << exp
            m = 2 * n - 1
            caterpillar = int("10" * (n - 1) + "0", 2)
            idx = SuccinctTreeIndex(caterpillar, n)
            B, nb, G = idx._B, idx._nb, idx._G
            assert nb == -(-m // B)
            supers = -(-nb // G) * width(m + 1)
            nodes = 0
            count, span = nb, B
            while count > succinct._ARITY:
                count = -(-count // succinct._ARITY)
                span *= succinct._ARITY
                nodes += count * width(min(span, m) + 2)
            blocks = nb * (width(B + 2) + width(B + 1))
            assert idx.aux_bits() == blocks + nodes + supers
            with_maxima = nb * (2 * width(2 * B + 1) + width(B + 1)) + supers
            assert idx.aux_bits() <= with_maxima


class TestWordTables:
    def test_match_bitwise_walk(self):
        # every 16-bit word against a step-by-step walk: excess delta and
        # prefix minimum (biased: 16 + delta, 1 - minimum), the first
        # offset of each drop it reaches, the reversed complement that
        # walks it backward, and that walk's biased minimum
        lows = []
        for word in range(1 << 16):
            e = 0
            low = 17
            drops = {}
            for k in range(16):
                e += 1 if (word >> (15 - k)) & 1 else -1
                low = min(low, e)
                if e < 0:
                    drops.setdefault(-e, k)
            lows.append(low)
            assert succinct._RISE[word] == 16 + e
            assert succinct._DROP[word] == 1 - low
            for need, k in drops.items():
                assert succinct._first_drop(word, need) == k
        for word in range(1 << 16):
            back = int(format(word ^ 0xFFFF, "016b")[::-1], 2)
            assert (succinct._BYTE_BACK[word & 0xFF] << 8
                    | succinct._BYTE_BACK[word >> 8]) == back
            assert succinct._BACK_DROP[word] == 1 - lows[back]
        tables = (succinct._RISE, succinct._DROP, succinct._BACK_DROP)
        assert all(type(t) is bytes and len(t) == 1 << 16 for t in tables)

    def test_climb_table(self):
        # the climb over the 8 flags before a node: each step goes back to
        # the first flag where the 1s catch up with the 0s (one flag for a
        # left child; the left sibling's subtree and the parent's flag for
        # a right child)
        for byte in range(256):
            back = format(byte, "08b")[::-1]  # the flag before the node first
            steps = left = used = 0
            while True:
                ends = [j for j in range(used + 1, 9)
                        if back[used:j].count("1") >= back[used:j].count("0")]
                if not ends:
                    break
                steps += 1
                left += ends[0] == used + 1
                used = ends[0]
            assert succinct._CLIMB[byte] == (steps, left, used)
