import argparse
import random
from fractions import Fraction

import pytest

from pdzip.bits import Bits
from pdzip.container import (
    MAGIC,
    METHOD_REFINE,
    METHOD_SPARSE,
    METHOD_SPARSE_QUERYABLE,
    METHOD_TREE,
    METHODS,
    Container,
    ContainerFormatError,
    compress,
    container_for,
    container_for_query_table,
    container_for_refined,
    container_for_sparse,
    container_for_tree,
    query_table,
    refine_payload,
    sparse_payload,
    tree_payload,
    unpack,
)
from pdzip.cli import build_parser
from pdzip.core import ProbabilityDistribution
from pdzip.refine import compress_refined
from pdzip.sparse import build_query_table, select_heavy
from pdzip.succinct import smooth
from pdzip.treebuild import ZeroProbabilityError
from pdzip.treecode import compress_tree
from conftest import random_distribution
from naive import bits


def dist(*weights):
    return ProbabilityDistribution.from_weights([Fraction(w) for w in weights])


class TestExpectedBits:
    def test_formulas(self):
        assert METHODS[METHOD_TREE].payload_bits(4) == 6
        assert METHODS[METHOD_REFINE].payload_bits(10, 3) == 28
        assert METHODS[METHOD_SPARSE].payload_bits(16, Fraction(1), 2) == 10
        assert METHODS[METHOD_SPARSE_QUERYABLE].payload_bits(
            16, Fraction(1), 2) == 16


class TestPackUnpack:
    def test_tree_round_trip(self):
        payload = compress_tree(dist(1, 1, 1, 1))
        box = container_for_tree(payload)
        data = box.pack()
        assert data[:4] == MAGIC
        again = unpack(data)
        assert again == box
        assert tree_payload(again) == payload

    def test_refine_round_trip(self):
        payload = compress_refined(dist(7, 3), 4)
        box = container_for_refined(payload)
        again = unpack(box.pack())
        assert refine_payload(again) == payload
        assert again.k == 4

    def test_sparse_round_trip(self):
        payload = select_heavy(dist(13, 1, 1, 1), Fraction(1))
        box = container_for_sparse(payload)
        again = unpack(box.pack())
        assert sparse_payload(again) == payload
        assert again.c == Fraction(1)
        assert again.t == payload.t

    def test_query_table_round_trip(self):
        table = build_query_table(select_heavy(dist(13, 1, 1, 1),
                                               Fraction(1)))
        box = container_for_query_table(table)
        again = unpack(box.pack())
        assert query_table(again) == table

    def test_random_round_trips(self):
        rng = random.Random(163)
        for _ in range(30):
            p = random_distribution(rng, rng.randint(1, 80))
            boxes = [container_for_tree(compress_tree(p))]
            if p.strictly_positive():
                boxes.append(container_for_refined(
                    compress_refined(p, rng.randint(2, 6))))
            c = Fraction(rng.randint(1, 3))
            boxes.append(container_for_sparse(select_heavy(p, c)))
            boxes.append(container_for_query_table(
                build_query_table(select_heavy(p, c))))
            for box in boxes:
                assert unpack(box.pack()) == box

    def test_method_mismatch_on_extract(self):
        box = container_for_tree(compress_tree(dist(1, 1)))
        with pytest.raises(ContainerFormatError, match="method"):
            refine_payload(box)


def test_unpack_checks_the_header_once(monkeypatch):
    import pdzip.container as cont
    calls = []
    check = cont._check
    monkeypatch.setattr(cont, "_check", lambda *a: calls.append(a) or check(*a))
    p = dist(13, 1, 1, 1)
    heavy = select_heavy(p, Fraction(1))
    for payload in (compress_tree(p), compress_refined(p, 4), heavy,
                    build_query_table(heavy)):
        box = container_for(payload)
        data = box.pack()
        calls.clear()
        again = unpack(data)
        assert len(calls) == 1
        assert again == box and again.pack() == data


class TestRejects:
    def make(self):
        return container_for_tree(compress_tree(dist(1, 1, 1, 1))).pack()

    def test_bad_magic(self):
        data = bytearray(self.make())
        data[0] ^= 0xFF
        with pytest.raises(ContainerFormatError, match="magic"):
            unpack(bytes(data))

    def test_truncated(self):
        data = self.make()
        for cut in (0, 3):
            with pytest.raises(ContainerFormatError, match="magic"):
                unpack(data[:cut])
        for cut in (4, 5, 12, len(data) - 1):
            with pytest.raises(ContainerFormatError, match="truncated"):
                unpack(data[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(ContainerFormatError, match="trailing"):
            unpack(self.make() + b"\x00")

    def test_unknown_method(self):
        data = bytearray(self.make())
        data[4] = 0x7F
        with pytest.raises(ContainerFormatError, match="method"):
            unpack(bytes(data))

    def test_wrong_bit_length(self):
        data = bytearray(self.make())
        # payload_bit_length field sits after magic+method+n
        at = 4 + 1 + 8
        data[at] ^= 0x01
        with pytest.raises(ContainerFormatError):
            unpack(bytes(data))

    def test_nonzero_padding(self):
        data = bytearray(self.make())
        data[-1] |= 0x01  # uniform-4 payload is 6 bits, pad is 2 bits
        with pytest.raises(ContainerFormatError, match="padding"):
            unpack(bytes(data))

    def test_zero_n(self):
        data = bytearray(self.make())
        for i in range(5, 13):
            data[i] = 0
        with pytest.raises(ContainerFormatError):
            unpack(bytes(data))

    def test_bad_refine_k(self):
        payload = compress_refined(dist(7, 3), 3)
        data = bytearray(container_for_refined(payload).pack())
        data[13] = 1  # k field, little-endian low byte
        data[14] = 0
        with pytest.raises(ContainerFormatError):
            unpack(bytes(data))

    def test_bad_sparse_fields(self):
        payload = select_heavy(dist(13, 1, 1, 1), Fraction(1))
        good = container_for_sparse(payload).pack()
        # c_den = 0
        data = bytearray(good)
        for i in range(21, 29):
            data[i] = 0
        with pytest.raises(ContainerFormatError):
            unpack(bytes(data))
        # t > n
        data = bytearray(good)
        data[29] = 0xFF
        with pytest.raises(ContainerFormatError):
            unpack(bytes(data))


class TestConstructorChecks:
    def test_payload_length_must_match(self):
        with pytest.raises(ContainerFormatError):
            Container(METHOD_TREE, 4, bits("10"))

    def test_tree_takes_no_params(self):
        with pytest.raises(ContainerFormatError):
            Container(METHOD_TREE, 2, bits("10"), k=3)

    def test_refine_needs_k(self):
        with pytest.raises(ContainerFormatError):
            Container(METHOD_REFINE, 2, bits("1000"))

    def test_sparse_needs_c_and_t(self):
        with pytest.raises(ContainerFormatError):
            Container(METHOD_SPARSE, 4, Bits())

    def test_fields_must_fit_the_header(self):
        tree = bits("10")
        for bad in (lambda: Container(METHOD_TREE, 1 << 64, Bits()),
                    lambda: Container(METHOD_REFINE, 2, tree, k=1 << 16),
                    lambda: Container(METHOD_SPARSE, 4, Bits(),
                                      c=Fraction(1 << 64), t=0),
                    lambda: Container(METHOD_SPARSE, 4, Bits(),
                                      c=Fraction(1), t=-1)):
            with pytest.raises(ContainerFormatError):
                bad()

    def test_method_names(self):
        box = container_for_tree(compress_tree(dist(1, 1)))
        assert box.spec.name == "tree"


def sample_payload(tag):
    p = dist(13, 1, 1, 1)
    heavy = select_heavy(p, Fraction(3, 2))
    return {
        METHOD_TREE: compress_tree(p),
        METHOD_REFINE: compress_refined(p, 4),
        METHOD_SPARSE: heavy,
        METHOD_SPARSE_QUERYABLE: build_query_table(heavy),
    }[tag]


# each record's compress step spelt as codec calls with the CLI's
# defaults, and a value other than the default for each option it takes
CODECS = {
    METHOD_TREE: (lambda p, epsilon=None: compress_tree(
        p if epsilon is None else smooth(p, epsilon)),
        {"epsilon": Fraction(1, 10)}),
    METHOD_REFINE: (lambda p, k=3, epsilon=None: compress_refined(
        p if epsilon is None else smooth(p, epsilon), k),
        {"k": 5, "epsilon": Fraction(1, 10)}),
    METHOD_SPARSE: (lambda p, c=Fraction(1): select_heavy(p, c),
                    {"c": Fraction(3, 2)}),
    METHOD_SPARSE_QUERYABLE: (
        lambda p, c=Fraction(1): build_query_table(select_heavy(p, c)),
        {"c": Fraction(3, 2)}),
}


def compress_method_choices():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices["compress"]._actions
                if a.dest == "method").choices


@pytest.mark.parametrize("tag", list(METHODS), ids=lambda t: METHODS[t].name)
class TestMethodTable:
    def test_round_trip_through_record(self, tag):
        payload = sample_payload(tag)
        box = container_for(payload)
        assert box.method == tag
        assert box.spec.name == METHODS[tag].name
        again = unpack(box.pack())
        assert again == box
        assert again.open() == payload
        assert len(again.payload) == METHODS[tag].payload_bits(
            box.n, *box.params)

    def test_rejects_fields_it_does_not_take(self, tag):
        box = container_for(sample_payload(tag))
        spec = METHODS[tag]
        extra = {"k": 3, "c": Fraction(1), "t": 0}
        for name, value in extra.items():
            if name in spec.params:
                continue
            with pytest.raises(ContainerFormatError, match="takes"):
                Container(tag, box.n, box.payload, **{name: value},
                          **dict(zip(spec.params, box.params)))
        for name in spec.params:
            kept = {p: v for p, v in zip(spec.params, box.params) if p != name}
            with pytest.raises(ContainerFormatError, match="takes"):
                Container(tag, box.n, box.payload, **kept)

    def test_cli_offers_the_record(self, tag):
        assert compress_method_choices() == [m.name for m in METHODS.values()]

    def test_compress_is_the_codec(self, tag):
        spec = METHODS[tag]
        codec, others = CODECS[tag]
        assert set(spec.options) == set(others)
        for p in (dist(13, 1, 1, 1), random_distribution(random.Random(tag), 60)):
            assert (compress(p, spec.name).pack()
                    == container_for(codec(p)).pack())
            for name, value in others.items():
                assert (compress(p, spec.name, **{name: value}).pack()
                        == container_for(codec(p, **{name: value})).pack()), name

    def test_compress_rejects_options_it_does_not_take(self, tag):
        spec = METHODS[tag]
        for name, value in {"k": 3, "c": Fraction(1), "epsilon": Fraction(1, 10),
                            "t": 0}.items():
            if name not in spec.options:
                with pytest.raises(TypeError):
                    compress(dist(1, 1), spec.name, **{name: value})

    def test_compress_zero_bins(self, tag):
        spec = METHODS[tag]
        codec, _ = CODECS[tag]
        p, eps = dist(3, 0, 1, 0, 0), Fraction(1, 10)
        if tag in (METHOD_TREE, METHOD_REFINE):
            with pytest.raises(ZeroProbabilityError,
                               match="^input has zero probabilities; "
                                     "re-run with --epsilon$"):
                compress(p, spec.name)
            assert (compress(p, spec.name, epsilon=eps)
                    == container_for(codec(smooth(p, eps))))
        else:
            assert compress(p, spec.name) == container_for(codec(p))


def test_compress_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        compress(dist(1, 1), "nope")
