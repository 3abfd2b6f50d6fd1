import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdzip import container as cont, treecode
from pdzip.bits import Bits
from pdzip.cli import main
from pdzip.core import (ProbabilityDistribution, entropy, max_ratio,
                        relative_entropy)
from pdzip.refine import (RefinedIndex, RefinePayload, decompress_refined,
                          refined_keys)
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
from naive import LinkedTree, bits, fraction_decompress_refined


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
        assert decode_tree(TreePayload(Bits(), 1)).leaf_depths == (0,)
        assert decode_tree(
            TreePayload(bits("1010"), 3)).leaf_depths == (1, 2, 2)
        assert decode_tree(
            TreePayload(bits("1100"), 3)).leaf_depths == (2, 2, 1)

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
            decode_tree(TreePayload(bits("0100"), 3))

    def test_bits_run_out(self):
        with pytest.raises(MalformedPayloadError):
            decode_tree(TreePayload(bits("1110"), 3))

    def test_large_shapes_and_their_edges(self):
        # combs, a zig-zag and a near-balanced tree at n = 10^5 come back
        # with their depths and flags; bits that close any of them early
        # or run out before they close raise the walk's two messages
        n = 10 ** 5
        # the zig-zag's spine turns at every node: even depths keep their
        # leaf on the right, odd depths on the left
        zigzag = ([d for d in range(1, n - 1) if d % 2 == 0] + [n - 1, n - 1]
                  + [d for d in range(n - 2, 0, -1) if d % 2])
        shapes = {
            "left comb": (n - 1, *range(n - 1, 0, -1)),
            "right comb": (*range(1, n), n - 1),
            "zig-zag": tuple(zigzag),
            "near-balanced": random_tree_depths(random.Random(59), n,
                                                balanced=True),
        }
        early = "bits continue after the tree closed"
        short = "bits ran out before the tree closed"
        for name, depths in shapes.items():
            shape = StrictTreeShape(depths)
            got = decode_tree(encode_tree(shape))
            assert (got.leaf_depths, got.flags) == (depths, shape.flags), name
            # the whole tree's flags and one more bit, as n + 1 leaves: the
            # tree closes at its last leaf with a 0 or a 1 still to come
            for extra in (0, 1):
                longer = TreePayload(
                    Bits.from_int(shape.flags << 1 | extra, 2 * n), n + 1)
                with pytest.raises(MalformedPayloadError, match=f"^{early}$"):
                    decode_tree(longer)
            # a root above the tree, with a 1 after the tree's stored bits:
            # the root's right subtree starts and is still open at the end
            unclosed = TreePayload(Bits.from_int(
                1 << (2 * n - 1) | shape.flags | 1, 2 * n), n + 1)
            with pytest.raises(MalformedPayloadError, match=f"^{short}$"):
                decode_tree(unclosed)
        for stored, message in (("0100", early), ("01", early), ("0110", early),
                                ("0111", early), ("1110", short),
                                ("1" * (2 * n - 2), short)):
            with pytest.raises(MalformedPayloadError, match=f"^{message}$"):
                decode_tree(TreePayload(bits(stored), len(stored) // 2 + 1))

    def test_payload_length_checked(self):
        with pytest.raises(MalformedPayloadError):
            TreePayload(bits("10"), 3)
        with pytest.raises(MalformedPayloadError):
            TreePayload(bits("1010"), 2)


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
        for decode in (decode_tree, refined_keys, RefinedIndex):
            with pytest.raises(MalformedPayloadError):
                decode(base if decode is decode_tree else refine)
        return
    depths = tuple(tree.leaf_depth(i) for i in range(1, n + 1))
    assert decode_tree(base).leaf_depths == depths
    marks = [sum(level[i] for level in levels) for i in range(n)]
    # q_i = 2^e_i / sum_j 2^e_j with e_i = max depth - d_i + m_i, and the
    # normalizer with the smallest e's power of two taken out
    exponents = [max(depths) - d + m for d, m in zip(depths, marks)]
    normalizer = sum(1 << e for e in exponents)
    q = decompress_refined(refine)
    keys, weight = q._keyed()
    total = q.total
    assert refined_keys(refine) == keys == [d - m for d, m in zip(depths, marks)]
    assert total == normalizer >> min(exponents)
    assert [Fraction(weight[key], total) for key in keys] == [
        Fraction(1 << e, normalizer) for e in exponents]
    assert RefinedIndex(refine).query_prob(n) == Fraction(1 << exponents[-1],
                                                          normalizer)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_stored, st.lists(st.integers(0, (1 << 64) - 1), max_size=3))
def test_decoded_values_are_shared(stored, level_ints):
    # a decoded tree or refine distribution holds its weights in lowest
    # terms over their sum, its entries are those weights over the total
    # and equal the per-symbol replay, and each distinct value is one
    # object shared by every symbol that has it
    n, value = stored
    base = TreePayload(Bits.from_int(value, 2 * n - 2), n)
    try:
        depths = decode_tree(base).leaf_depths
    except MalformedPayloadError:
        return
    levels = tuple(Bits.from_int(v >> (64 - n), n) for v in level_ints)
    refine = RefinePayload(len(levels) + 2, base, levels)
    tree = DyadicDistribution(depths)
    dyadic = [Fraction(1, 1 << d) for d in depths]
    assert list(tree.to_distribution().entries) == dyadic
    for dist, want in ((tree.to_distribution(), dyadic),
                       (decompress_refined(refine),
                        list(fraction_decompress_refined(refine)))):
        weights, entries = dist.weights, dist.entries
        assert sum(weights) == dist.total and math.gcd(*weights) == 1
        assert entries == tuple(Fraction(w, dist.total) for w in weights)
        assert list(entries) == want
        assert len({id(q) for q in entries}) == len(set(entries))
        assert len({id(w) for w in weights}) == len(set(weights))


def test_tree_entries_are_shared_unit_fractions():
    # a comb 300 deep next to a balanced subtree: entry i is 1/2^d_i, one
    # object per depth, and the weights and == are those of 2^(top - d)
    # over 2^top
    depths = tuple(range(1, 300)) + (302,) * 8
    dist = DyadicDistribution(depths).to_distribution()
    assert dist.entries == tuple(Fraction(1, 2 ** d) for d in depths)
    first = {}
    for d, q in zip(depths, dist.entries):
        assert first.setdefault(d, q) is q
    assert len({id(q) for q in dist.entries}) == len(set(depths))
    assert dist == ProbabilityDistribution.from_weights(
        [2 ** (302 - d) for d in depths])


def test_each_open_walks_the_tree_once(tmp_path, monkeypatch, capsys):
    # every module that bound decode_tree calls the counting wrapper
    calls = []

    def counted(payload):
        calls.append(payload.n)
        return decode_tree(payload)

    for module in list(sys.modules.values()):
        if (module.__name__.split(".")[0] == "pdzip"
                and vars(module).get("decode_tree") is decode_tree):
            monkeypatch.setattr(module, "decode_tree", counted)
    src = tmp_path / "p.txt"
    src.write_text("5\n3\n1\n1\n2\n7\n")
    p = ProbabilityDistribution.from_weights([5, 3, 1, 1, 2, 7])
    tree, refine = cont.compress(p, "tree"), cont.compress(p, "refine", k=4)

    def cli(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    opens = {
        "tree values": lambda: tree.spec.values(tree.open()),
        "refine values": lambda: refine.spec.values(refine.open()),
        "refine index": lambda: RefinedIndex(refine.open()),
    }
    for name, box in (("tree", tree), ("refine", refine)):
        path = tmp_path / f"{name}.pdz"
        path.write_bytes(box.pack())
        opens[f"{name} decompress"] = lambda path=path: cli(
            "decompress", path, tmp_path / "q.txt")
        opens[f"{name} stats"] = lambda path=path: cli(
            "stats", "--original", src, "--compressed", path)
    opens["refine query"] = lambda: cli(
        "query", "--index", 3, tmp_path / "refine.pdz")
    for name, open_ in opens.items():
        calls.clear()
        open_()
        assert calls == [6], name
    capsys.readouterr()


def test_tree_compress_walks_no_depths(tmp_path, monkeypatch, capsys):
    # a tree compress stores flags only, so it reads no depth from them; a
    # refine compress reads the base tree's depths once, for its q side
    calls = []
    walk = treecode._depths_of

    def counted(stored):
        calls.append(len(stored))
        return walk(stored)
    monkeypatch.setattr(treecode, "_depths_of", counted)
    weights = [5, 3, 1, 1, 2, 7]
    p = ProbabilityDistribution.from_weights(weights)
    src = tmp_path / "p.txt"
    src.write_text("".join(f"{w}\n" for w in weights))
    runs = {
        "tree": (lambda: cont.compress(p, "tree"), 0),
        "cli tree": (lambda: main(["compress", "--method", "tree", str(src),
                                   str(tmp_path / "t.pdz")]), 0),
        "refine": (lambda: cont.compress(p, "refine", k=5), 1),
    }
    for name, (run, walks) in runs.items():
        calls.clear()
        run()
        assert len(calls) == walks, name
    assert (tmp_path / "t.pdz").stat().st_size > 0
    capsys.readouterr()


def test_decoded_distributions_build_no_weights(tmp_path, monkeypatch, capsys):
    # decompress, stats and the refine index read a decoded distribution
    # by its keys, so neither its weights nor its entries are built
    made = []
    dyadic = ProbabilityDistribution._dyadic.__func__

    def recorded(cls, keys):
        made.append(dyadic(cls, keys))
        return made[-1]
    monkeypatch.setattr(ProbabilityDistribution, "_dyadic", classmethod(recorded))
    weights = [5, 3, 1, 1, 2, 7, 1 << 70, 9]
    src = tmp_path / "p.txt"
    src.write_text("".join(f"{w}\n" for w in weights))
    for method, extra in (("tree", []), ("refine", ["--k", "5"])):
        path = tmp_path / f"{method}.pdz"
        assert main(["compress", "--method", method, *extra, str(src),
                     str(path)]) == 0
        for argv in (["decompress", str(path), str(tmp_path / "out.txt")],
                     ["stats", "--original", str(src), "--compressed", str(path)]):
            made.clear()
            assert main(argv) == 0
            assert [(q._weights, q._entries) for q in made] == [(None, None)], argv
    payload = cont.unpack(path.read_bytes()).open()
    made.clear()
    index = RefinedIndex(payload)
    assert index.query_prob(7) == decompress_refined(payload).entries[6]
    assert made[0]._weights is None and made[0]._entries is None
    capsys.readouterr()
    # the measures read a dyadic distribution through its keys as well,
    # one entropy term per key, with the values the weights gave
    q = ProbabilityDistribution._dyadic([1, 2, 2])
    assert entropy(q).hex() == "0x1.8000000000000p+0"
    p = [Fraction(1, 3)] * 3
    assert relative_entropy(p, q).hex() == "0x1.4ea9070aed422p-4"
    assert max_ratio(p, q) == Fraction(4, 3)
    assert (q._weights, q._entries, q._floats) == (None, None, None)


def test_records_store_a_list_as_its_tuple():
    for make in (StrictTreeShape, DyadicDistribution):
        from_list, from_tuple = make([1, 2, 2]), make((1, 2, 2))
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)
        assert repr(from_list) == repr(from_tuple)


class TestDyadic:
    def test_probabilities(self):
        d = DyadicDistribution((1, 2, 2))
        assert [str(x) for x in d.to_distribution().entries] == ["1/2", "1/4", "1/4"]
        p = d.to_distribution()
        assert isinstance(p, ProbabilityDistribution)
        assert sum(p) == 1

    def test_implied_distribution(self):
        payload = compress_tree(
            ProbabilityDistribution.from_weights([2, 1, 1]))
        q = implied_distribution(decode_tree(payload))
        assert [str(x) for x in q.to_distribution().entries] == ["1/2", "1/4", "1/4"]

    def test_single(self):
        q = implied_distribution(decode_tree(TreePayload(Bits(), 1)))
        assert list(q.to_distribution().entries) == [1]


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
