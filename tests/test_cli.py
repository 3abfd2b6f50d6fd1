import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from pdzip import cli
from pdzip import container as cont
from pdzip.cli import format_probability, main
from pdzip.refine import RefinePayload, decompress_refined
from pdzip.sparse import decompress_sparse
from pdzip.treecode import StrictTreeShape, encode_tree
from conftest import run_pdzip, sparse_queryable_header
from naive import bits, fraction_decompress_refined


def write_dist(path, lines):
    path.write_text("\n".join(str(x) for x in lines) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatting:
    def test_exact_decimal(self):
        # a decimal expansion that ends is printed whole, at any digits
        for value, text in ((Fraction(1, 2), "0.5"), (Fraction(1, 4), "0.25"),
                            (Fraction(1), "1"), (Fraction(0), "0"),
                            (Fraction(3, 40), "0.075"), (Fraction(7), "7"),
                            (Fraction(1, 625), "0.0016"), (Fraction(5, 2), "2.5")):
            for digits in (1, 17):
                assert format_probability(value, digits) == text

    def test_significant(self):
        assert format_probability(0.25, 5) == "0.25"
        assert format_probability(Fraction(1, 3), 5) == "0.33333"
        assert format_probability(0.30396355092701331, 8) == "0.30396355"
        assert format_probability(Fraction(2, 3), 1) == "0.7"
        assert format_probability(0.1, 17) == "0.10000000000000001"
        assert format_probability(5e-324, 2) == "0." + "0" * 323 + "49"

    def test_probability_prefers_exact(self):
        assert format_probability(Fraction(1, 8), 17) == "0.125"
        assert format_probability(Fraction(1, 3), 5) == "0.33333"
        assert format_probability(0.25, 17) == "0.25"

    def test_dyadic_and_five_adic_values_are_exact(self):
        rng = random.Random(23)
        for _ in range(200):
            a, b = rng.randint(0, 400), rng.randint(0, 400)
            den = 2 ** a * 5 ** b
            value = Fraction(rng.randint(0, 3 * den), den)
            text = format_probability(value, rng.choice([1, 5, 17]))
            assert Fraction(Decimal(text)) == value
            # as few places as the exact value needs
            places = len(text.partition(".")[2])
            assert places == 0 or (value * 10 ** (places - 1)).denominator > 1

    def test_no_int_becomes_text(self):
        # the exact text of 2^-20000 has 20002 characters, far past the
        # 640-digit limit on int <-> str conversion set here
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            text = format_probability(Fraction(1, 2 ** 20000), 17)
        finally:
            sys.set_int_max_str_digits(limit)
        assert Decimal(text).as_integer_ratio() == (1, 2 ** 20000)


class TestCompress:
    def test_tree(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [1, 1, 1, 1])
        out = str(tmp_path / "p.pdz")
        code, stdout, _ = run(capsys, "compress", "--method", "tree",
                              src, out)
        assert code == 0
        assert "payload_bits=6" in stdout
        assert "n=4" in stdout

    def test_refine_payload_size(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", range(1, 101))
        out = str(tmp_path / "p.pdz")
        code, stdout, _ = run(capsys, "compress", "--method", "refine",
                              "--k", "5", src, out)
        assert code == 0
        assert "payload_bits=498" in stdout  # kn-2 = 5*100-2

    def test_default_k_is_3(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [7, 3])
        out = str(tmp_path / "p.pdz")
        code, stdout, _ = run(capsys, "compress", "--method", "refine",
                              src, out)
        assert code == 0
        assert "payload_bits=4" in stdout

    def test_sparse(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [13, 1, 1, 1])
        out = str(tmp_path / "p.pdz")
        code, stdout, _ = run(capsys, "compress", "--method", "sparse",
                              "--c", "2", src, out)
        assert code == 0
        code, stdout, _ = run(capsys, "info", out)
        assert code == 0
        assert "method: sparse" in stdout
        assert "c: 2" in stdout

    def test_zero_probability_needs_epsilon(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [1, 0, 1])
        out = str(tmp_path / "p.pdz")
        code, _, stderr = run(capsys, "compress", "--method", "tree",
                              src, out)
        assert code == 2
        assert "--epsilon" in stderr
        code, _, _ = run(capsys, "compress", "--method", "tree",
                         "--epsilon", "1/10", src, out)
        assert code == 0

    def test_flag_cross_validation(self, tmp_path, capsys):
        # every check runs before the input is read, so a missing input
        # exits 1 too; k must fit the header's 2-byte field.  Where two
        # checks apply, the scope checks (k, c, epsilon) come before the
        # value checks (epsilon, k, c)
        src = write_dist(tmp_path / "p.txt", [1, 1])
        missing = str(tmp_path / "absent.txt")
        out = tmp_path / "p.pdz"
        k_scope = "--k applies only to --method refine"
        c_scope = "--c applies only to the sparse methods"
        k_range = "--k must be from 2 to 65535"
        bad_flags = [
            (("--method", "tree", "--k", "3"), k_scope),
            (("--method", "tree", "--c", "1"), c_scope),
            (("--method", "sparse", "--epsilon", "1"),
             "--epsilon applies only to tree and refine"),
            (("--method", "refine", "--k", "1"), k_range),
            (("--method", "refine", "--k", "65536"), k_range),
            (("--method", "refine", "--k", "70000"), k_range),
            (("--method", "sparse", "--c", "1/2"), "--c must be at least 1"),
            (("--method", "sparse-queryable", "--c", "0"),
             "--c must be at least 1"),
            (("--method", "tree", "--epsilon", "0"),
             "--epsilon must be positive"),
            (("--method", "sparse", "--k", "3", "--epsilon", "1"), k_scope),
            (("--method", "tree", "--c", "0", "--epsilon", "0"), c_scope),
            (("--method", "refine", "--k", "1", "--epsilon", "0"),
             "--epsilon must be positive"),
            (("--method", "sparse-queryable", "--k", "70000", "--c", "0"),
             k_scope),
        ]
        for path in (src, missing):
            for flags, message in bad_flags:
                code, stdout, stderr = run(capsys, "compress", *flags, path,
                                           str(out))
                assert (code, stdout) == (1, ""), (flags, path)
                assert stderr == f"pdzip: error: {message}\n", (flags, path)
                assert not out.exists()
            code, stdout, stderr = run(capsys, "compress", "--method", "nope",
                                       path, str(out))
            assert (code, stdout) == (1, "")
            assert stderr.splitlines()[-1].startswith(
                "pdzip compress: error: argument --method: invalid choice: ")
            assert not out.exists()

    def test_k_at_the_header_limit(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [1])
        box = str(tmp_path / "p.pdz")
        code, stdout, _ = run(capsys, "compress", "--method", "refine",
                              "--k", "65535", src, box)
        assert code == 0 and "payload_bits=65533" in stdout
        assert cont.unpack(open(box, "rb").read()).k == 65535

    def test_c_must_be_rational(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [1, 1])
        code, stdout, stderr = run(capsys, "compress", "--method", "sparse",
                                   "--c", "abc", src, str(tmp_path / "p.pdz"))
        assert (code, stdout) == (1, "")
        assert stderr.splitlines()[-1] == (
            "pdzip compress: error: argument --c: 'abc' is not a rational "
            "number (use forms like 3, 0.25, 2/5)")

    def test_weights_summing_to_zero_are_a_data_error(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [0, 0])
        code, stdout, stderr = run(capsys, "compress", "--method", "tree",
                                   src, str(tmp_path / "p.pdz"))
        assert (code, stdout) == (2, "")
        assert stderr == "pdzip: error: weights sum to zero\n"

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        out = str(tmp_path / "p.pdz")
        code, _, stderr = run(capsys, "compress", "--method", "tree",
                              str(tmp_path / "absent.txt"), out)
        assert code == 2
        assert "error" in stderr


class TestDecompress:
    def test_tree_exact(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [2, 1, 1])
        box = str(tmp_path / "p.pdz")
        run(capsys, "compress", "--method", "tree", src, box)
        out = str(tmp_path / "q.txt")
        code, stdout, _ = run(capsys, "decompress", box, out)
        assert code == 0
        assert "3 probabilities" in stdout
        lines = (tmp_path / "q.txt").read_text().splitlines()
        assert lines == ["0.5", "0.25", "0.25"]

    def test_digits_flag(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [13, 1, 1, 1])
        box = str(tmp_path / "p.pdz")
        run(capsys, "compress", "--method", "sparse", src, box)
        out = str(tmp_path / "q.txt")
        code, _, _ = run(capsys, "decompress", "--digits", "3", box, out)
        assert code == 0
        for line in (tmp_path / "q.txt").read_text().splitlines():
            digits = line.replace("0.", "").lstrip("0")
            assert len(digits) <= 3

    def test_digits_must_be_positive(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [1, 1])
        box = str(tmp_path / "p.pdz")
        run(capsys, "compress", "--method", "tree", src, box)
        out = tmp_path / "q.txt"
        code, stdout, stderr = run(capsys, "decompress", "--digits", "0",
                                   box, str(out))
        assert (code, stdout) == (1, "")
        assert stderr == "pdzip: error: --digits must be at least 1\n"
        assert not out.exists()

    def test_round_trip_tree_bits(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [9, 4, 2, 1])
        box1 = str(tmp_path / "a.pdz")
        run(capsys, "compress", "--method", "tree", src, box1)
        mid = str(tmp_path / "mid.txt")
        run(capsys, "decompress", box1, mid)
        box2 = str(tmp_path / "b.pdz")
        run(capsys, "compress", "--method", "tree", mid, box2)
        assert (tmp_path / "a.pdz").read_bytes() == \
            (tmp_path / "b.pdz").read_bytes()

    def test_round_trip_refine_k2_bits(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [9, 4, 2, 1])
        box1 = str(tmp_path / "a.pdz")
        run(capsys, "compress", "--method", "refine", "--k", "2", src, box1)
        mid = str(tmp_path / "mid.txt")
        run(capsys, "decompress", box1, mid)
        box2 = str(tmp_path / "b.pdz")
        run(capsys, "compress", "--method", "refine", "--k", "2", mid, box2)
        assert (tmp_path / "a.pdz").read_bytes() == \
            (tmp_path / "b.pdz").read_bytes()

    def test_round_trip_refine_dyadic_k3(self, tmp_path, capsys):
        # dyadic input: no level ever marks, so the decompressed text
        # is exact and recompression reproduces the container
        src = write_dist(tmp_path / "p.txt", [4, 2, 1, 1])
        box1 = str(tmp_path / "a.pdz")
        run(capsys, "compress", "--method", "refine", "--k", "3", src, box1)
        mid = str(tmp_path / "mid.txt")
        run(capsys, "decompress", box1, mid)
        box2 = str(tmp_path / "b.pdz")
        run(capsys, "compress", "--method", "refine", "--k", "3", mid, box2)
        assert (tmp_path / "a.pdz").read_bytes() == \
            (tmp_path / "b.pdz").read_bytes()


def _counts(seed, zeros):
    rng = random.Random(seed)
    weights = [rng.randint(900, 1100) for _ in range(1000)]
    if zeros:
        for j in rng.sample(range(1000), 500):
            weights[j] = 0
    return weights


# name -> (weights, tree and refine flags); geometric r = 2 gives every
# symbol its own value, near-uniform counts a handful in all
DECOMPRESS_INPUTS = {
    "geometric-up": ([2 ** i for i in range(300)], []),
    "geometric-down": ([2 ** i for i in range(299, -1, -1)], []),
    "near-uniform": (_counts(11, False), []),
    "zero-bins": (_counts(12, True), ["--epsilon", "1/10"]),
}
DECOMPRESS_METHODS = [["tree"], ["refine", "--k", "2"], ["refine", "--k", "5"],
                      ["sparse"], ["sparse-queryable"]]


def _per_symbol_values(container):
    """q_1..q_n one symbol at a time: the reference replay for tree and
    refine (a tree is a refine payload without levels), floats for the
    sparse forms."""
    payload = container.open()
    if container.method == cont.METHOD_TREE:
        return list(fraction_decompress_refined(RefinePayload(2, payload, ())))
    if container.method == cont.METHOD_REFINE:
        return list(fraction_decompress_refined(payload))
    if container.method == cont.METHOD_SPARSE_QUERYABLE:
        payload = payload.sparse_payload()
    return list(decompress_sparse(payload).entries)


class TestDecompressPerValue:
    @pytest.fixture(params=[(name, method) for name in DECOMPRESS_INPUTS
                            for method in DECOMPRESS_METHODS],
                    ids=lambda case: f"{case[0]}-{'-'.join(case[1])}")
    def stored(self, request, tmp_path, capsys):
        """(container path, its container, per-symbol values)."""
        name, method = request.param
        weights, flags = DECOMPRESS_INPUTS[name]
        if method[0] not in ("tree", "refine"):
            flags = []
        src = write_dist(tmp_path / "p.txt", weights)
        box = str(tmp_path / "p.pdz")
        argv = ["compress", "--method", *method, *flags, src, box]
        assert run(capsys, *argv)[0] == 0
        with open(box, "rb") as fh:
            container = cont.unpack(fh.read())
        return box, container, _per_symbol_values(container)

    @pytest.mark.parametrize("digits", [17, 5])
    def test_text_is_each_value_formatted(self, stored, digits, tmp_path, capsys):
        box, container, values = stored
        out = tmp_path / "q.txt"
        code, stdout, _ = run(capsys, "decompress", "--digits", str(digits),
                              box, str(out))
        assert code == 0
        assert stdout == (f"{out}: {len(values)} probabilities "
                          f"(method={container.spec.name})\n")
        assert out.read_text() == "".join(
            format_probability(v, digits) + "\n" for v in values)

    def test_formats_each_distinct_value_once(self, stored, tmp_path, capsys,
                                              monkeypatch):
        box, _, values = stored
        calls = []

        def counting(value, digits):
            calls.append(value)
            return format_probability(value, digits)

        monkeypatch.setattr(cli, "format_probability", counting)
        assert run(capsys, "decompress", box, str(tmp_path / "q.txt"))[0] == 0
        assert len(calls) <= len(set(values))


class TestQuery:
    def test_tree(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [2, 1, 1])
        box = str(tmp_path / "p.pdz")
        run(capsys, "compress", "--method", "tree", src, box)
        for i, expect in ((1, "0.5"), (2, "0.25"), (3, "0.25")):
            code, stdout, _ = run(capsys, "query", "--index", str(i), box)
            assert code == 0
            assert stdout.strip() == expect

    def test_refine_matches_decompress(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [7, 3, 2, 1])
        box = str(tmp_path / "p.pdz")
        run(capsys, "compress", "--method", "refine", "--k", "4", src, box)
        with open(box, "rb") as fh:
            stored = decompress_refined(cont.refine_payload(cont.unpack(fh.read())))
        for i in range(1, 5):
            code, stdout, _ = run(capsys, "query", "--index", str(i), box)
            assert code == 0
            assert stdout == format_probability(stored.entries[i - 1], 17) + "\n"

    @pytest.mark.parametrize("argv", [
        ["--method", "tree"], ["--method", "tree", "--epsilon", "1/10"],
        ["--method", "refine", "--k", "2"], ["--method", "refine", "--k", "5"],
        ["--method", "refine", "--k", "3", "--epsilon", "1/10"],
        ["--method", "sparse-queryable"],
        ["--method", "sparse-queryable", "--c", "3/2"]])
    def test_every_index_prints_the_decoded_value(self, tmp_path, capsys, argv):
        # one symbol (a depth-0 tree), a skewed input, and zero bins
        # where the method takes them
        inputs = [[5], [40, 9, 3, 3, 2, 1, 1, 1]]
        if "--epsilon" in argv or "sparse-queryable" in argv:
            inputs.append([0, 6, 0, 1, 3, 0])
        for j, weights in enumerate(inputs):
            src = write_dist(tmp_path / f"p{j}.txt", weights)
            box = str(tmp_path / f"p{j}.pdz")
            assert run(capsys, "compress", *argv, src, box)[0] == 0
            with open(box, "rb") as fh:
                container = cont.unpack(fh.read())
            values = container.spec.values(container.open())
            for i, value in enumerate(values, start=1):
                code, stdout, _ = run(capsys, "query", "--index", str(i), box)
                assert code == 0
                assert stdout == format_probability(value, 17) + "\n"

    def test_deep_comb_prints_exactly(self, tmp_path, capsys):
        # the last leaf of a 6500-leaf comb holds 2^-6499, whose exact
        # decimal text is longer than the 4300 digits int() turns into text
        depths = (*range(1, 6500), 6499)
        box = tmp_path / "comb.pdz"
        box.write_bytes(cont.container_for(
            encode_tree(StrictTreeShape(depths))).pack())
        code, stdout, stderr = run(capsys, "query", "--index", "6500", str(box))
        assert (code, stderr) == (0, "")
        assert stdout.endswith("\n")
        assert Decimal(stdout.strip()).as_integer_ratio() == (1, 2 ** 6499)

    def test_queryable_sparse(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [13, 1, 1, 1])
        box = str(tmp_path / "p.pdz")
        run(capsys, "compress", "--method", "sparse-queryable", src, box)
        code, stdout, _ = run(capsys, "query", "--index", "1", box)
        assert code == 0
        assert stdout.strip().startswith("0.30396355")

    def test_plain_sparse_refuses(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [13, 1, 1, 1])
        box = str(tmp_path / "p.pdz")
        run(capsys, "compress", "--method", "sparse", src, box)
        code, _, stderr = run(capsys, "query", "--index", "1", box)
        assert code == 1
        assert "sparse-queryable" in stderr

    def test_index_out_of_range(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [1, 1])
        box = str(tmp_path / "p.pdz")
        run(capsys, "compress", "--method", "tree", src, box)
        for bad in ("0", "3", "-1"):
            code, _, _ = run(capsys, "query", "--index", bad, box)
            assert code == 2


class TestStats:
    def test_tree_stats(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [9, 1])
        box = str(tmp_path / "p.pdz")
        run(capsys, "compress", "--method", "tree", src, box)
        code, stdout, _ = run(capsys, "stats", "--original", src,
                              "--compressed", box)
        assert code == 0
        assert "method: tree" in stdout
        assert "entropy_P: 0.468995593589" in stdout
        assert "divergence: 0.531004406411" in stdout
        assert "max_ratio: 1.8" in stdout
        assert "payload_bits: 2 (2n-2 = 2)" in stdout

    def test_refine_stats_bound_text(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [7, 3])
        box = str(tmp_path / "p.pdz")
        # ratio bound 2 + 2^(3-k); k = 2 is the bare tree's 4
        for k, bound in (("4", "bound: < 2.5"), ("2", "bound: < 4")):
            run(capsys, "compress", "--method", "refine", "--k", k, src, box)
            code, stdout, _ = run(capsys, "stats", "--original", src,
                                  "--compressed", box)
            assert code == 0
            assert bound in stdout

    def test_sparse_stats(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [13, 1, 1, 1])
        box = str(tmp_path / "p.pdz")
        run(capsys, "compress", "--method", "sparse", src, box)
        code, stdout, _ = run(capsys, "stats", "--original", src,
                              "--compressed", box)
        assert code == 0
        assert "c*H(P) + log2(pi^2/3)" in stdout

    def test_full_output(self, tmp_path, capsys):
        # one uniform block per method: bounds and payload formula
        src = write_dist(tmp_path / "p.txt", [13, 1, 1, 1])
        box = str(tmp_path / "p.pdz")
        head = "n: 4\nentropy_P: 0.99339272901 bits\n"
        sparse = ("divergence: 0.797705400515 bits "
                  "(bound: <= c*H(P) + log2(pi^2/3) = 2.71142)\n"
                  "max_ratio: 2.67301785863\n")
        expected = {
            ("tree",): (
                "method: tree\n" + head
                + "divergence: 0.31910727099 bits (bound: < 2)\n"
                "max_ratio: 1.625 (bound: < 4)\n"
                "payload_bits: 6 (2n-2 = 6)\n"
                "container_bytes: 22\n"),
            ("refine", "--k", "4"): (
                "method: refine\n" + head
                + "divergence: 0.0915697717108 bits (bound: < 1.32193)\n"
                "max_ratio: 1.21875 (bound: < 2.5)\n"
                "payload_bits: 14 (kn-2 = 14)\n"
                "container_bytes: 25\n"),
            ("sparse",): (
                "method: sparse\n" + head + sparse
                + "payload_bits: 3 (t=1 entries = 3)\n"
                "container_bytes: 46\n"),
            ("sparse-queryable",): (
                "method: sparse-queryable\n" + head + sparse
                + "payload_bits: 5 (t=1 entries = 5)\n"
                "container_bytes: 46\n"),
        }
        for method, want in expected.items():
            run(capsys, "compress", "--method", *method, src, box)
            assert run(capsys, "stats", "--original", src,
                       "--compressed", box) == (0, want, "")

    def test_bound_lines(self, tmp_path, capsys):
        # Method.bounds gives numbers and bound_text prints them: every
        # method's two bound lines, refine at k = 2..6, both sparse forms
        # at c = 1 and 3/2
        src = write_dist(tmp_path / "p.txt", [13, 1, 1, 1, 5, 2, 9, 4])
        box = str(tmp_path / "p.pdz")

        def refined(d, d_bound, ratio, ratio_bound):
            return (f"divergence: {d} bits (bound: < {d_bound})",
                    f"max_ratio: {ratio} (bound: < {ratio_bound})")

        def sparse(d, d_bound, ratio):
            return (f"divergence: {d} bits "
                    f"(bound: <= c*H(P) + log2(pi^2/3) = {d_bound})",
                    f"max_ratio: {ratio}")

        tree = refined("0.253538382537", "2", "2", "4")
        expected = {
            ("tree",): tree,
            ("refine", "--k", "2"): tree,
            ("refine", "--k", "3"): refined("0.173463383979", "1.58496",
                                            "1.625", "3"),
            ("refine", "--k", "4"): refined("0.101858890063", "1.32193",
                                            "1.52777777778", "2.5"),
            ("refine", "--k", "5"): refined("0.0608933045945", "1.16993",
                                            "1.55555555556", "2.25"),
            ("refine", "--k", "6"): refined("0.0292436737583", "1.08746",
                                            "1.31944444444", "2.125"),
        }
        for method in ("sparse", "sparse-queryable"):
            expected[(method, "--c", "1")] = sparse(
                "0.307070341791", "4.15894", "2.51423614716")
            expected[(method, "--c", "3/2")] = sparse(
                "0.559093938092", "5.37939", "2.88888888889")
        for method, want in expected.items():
            run(capsys, "compress", "--method", *method, src, box)
            code, stdout, _ = run(capsys, "stats", "--original", src,
                                  "--compressed", box)
            assert code == 0
            assert tuple(stdout.splitlines()[3:5]) == want

    def test_ratio_past_the_float_range(self, tmp_path):
        # 65533 levels that all mark symbol 1 store q_2 = 1/(2^65533 + 1),
        # so max p_i/q_i = (2^65533 + 1)/2, about 1.25e19727
        src = write_dist(tmp_path / "p.txt", [1, 1])
        box = tmp_path / "p.pdz"
        payload = RefinePayload(65535, encode_tree(StrictTreeShape((1, 1))),
                                (bits("10"),) * 65533)
        box.write_bytes(cont.container_for(payload).pack())
        code, stdout, stderr = run_pdzip("stats", "--original", src,
                                         "--compressed", box)
        assert (code, stderr) == (0, "")
        assert stdout.splitlines()[4] == "max_ratio: 1.2522062065e+19727 (bound: < 2)"

    def test_n_mismatch(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [1, 1])
        box = str(tmp_path / "p.pdz")
        run(capsys, "compress", "--method", "tree", src, box)
        other = write_dist(tmp_path / "o.txt", [1, 1, 1])
        code, _, _ = run(capsys, "stats", "--original", other,
                         "--compressed", box)
        assert code == 2


class TestCorruption:
    def test_flipped_bytes_are_data_errors(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [1, 1, 1, 1])
        box = tmp_path / "p.pdz"
        run(capsys, "compress", "--method", "tree", src, str(box))
        good = box.read_bytes()
        out = str(tmp_path / "q.txt")
        for at in (0, 4, 13, len(good) - 1):
            bad = bytearray(good)
            bad[at] ^= 0xFF
            box.write_bytes(bytes(bad))
            code, _, stderr = run(capsys, "decompress", str(box), out)
            assert code == 2, f"byte {at}"
            assert "error" in stderr

    def test_tree_bits_that_are_no_tree(self, tmp_path, capsys):
        # right-length payloads pass unpack, so opening the tree rejects
        # them: 1111 never closes the tree and 0010 closes it too early
        box = tmp_path / "p.pdz"
        out = str(tmp_path / "q.txt")
        for tree_bits in ("1111", "0010"):
            for container in (
                    cont.Container(cont.METHOD_TREE, 3,
                                   bits(tree_bits)),
                    cont.Container(cont.METHOD_REFINE, 3,
                                   bits(tree_bits + "101"), k=3)):
                box.write_bytes(container.pack())
                for argv in (("query", "--index", "2", str(box)),
                             ("decompress", str(box), out)):
                    code, stdout, stderr = run(capsys, *argv)
                    assert code == 2, (tree_bits, argv)
                    assert stdout == ""
                    assert "pdzip: error:" in stderr and "tree" in stderr

    def test_sparse_n_too_large_to_decompress(self, tmp_path, capsys):
        # a valid 45-byte header may name any n up to 2^64 - 1; CPython
        # refuses a list of 2^63 - 1 items (MemoryError) or more
        # (OverflowError) before it allocates, so this test uses no memory
        out = tmp_path / "q.txt"
        box = tmp_path / "p.pdz"
        for method, n in ((cont.METHOD_SPARSE, (1 << 63) - 1),
                          (cont.METHOD_SPARSE, 1 << 63),
                          (cont.METHOD_SPARSE_QUERYABLE, (1 << 64) - 1)):
            box.write_bytes(cont.Container(method, n, bits(""),
                                           c=Fraction(1), t=0).pack())
            code, stdout, stderr = run(capsys, "decompress", str(box), str(out))
            assert (code, stdout) == (2, "")
            assert stderr == f"pdzip: error: n={n} does not fit in memory\n"
            assert not out.exists()

    def test_c_below_one_is_a_data_error(self, tmp_path, capsys):
        box = tmp_path / "p.pdz"
        box.write_bytes(sparse_queryable_header(n=2, c_num=0, c_den=1))
        code, stdout, stderr = run(capsys, "info", str(box))
        assert (code, stdout) == (2, "")
        assert stderr == "pdzip: error: c must be at least 1\n"

    def test_huge_c_numerator_is_read(self, tmp_path):
        # c = (2^64 - 1)/1 once made the rank width shift by about 2^64
        # bits; each call runs in a child process with a time limit
        box = tmp_path / "p.pdz"
        box.write_bytes(sparse_queryable_header(n=2, c_num=2 ** 64 - 1, c_den=1))
        assert box.stat().st_size == 45
        code, stdout, stderr = run_pdzip("info", box)
        assert (code, stderr) == (0, "")
        assert "c: 18446744073709551615\n" in stdout
        assert run_pdzip("query", "--index", 1, box) == (0, "0.5\n", "")
        out = tmp_path / "q.txt"
        assert run_pdzip("decompress", box, out)[::2] == (0, "")
        assert out.read_text() == "0.5\n0.5\n"

    def test_numeral_past_the_digit_limit_is_a_data_error(self, tmp_path, capsys):
        src = tmp_path / "p.txt"
        src.write_text("1\n2\n" + "9" * 5000 + "\n")
        code, stdout, stderr = run(capsys, "compress", "--method", "tree",
                                   str(src), str(tmp_path / "p.pdz"))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("pdzip: error: line 3: ")

    def test_truncated_file(self, tmp_path, capsys):
        src = write_dist(tmp_path / "p.txt", [1, 1, 1, 1])
        box = tmp_path / "p.pdz"
        run(capsys, "compress", "--method", "tree", src, str(box))
        box.write_bytes(box.read_bytes()[:-1])
        code, _, _ = run(capsys, "decompress", str(box),
                         str(tmp_path / "q.txt"))
        assert code == 2


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        src = write_dist(tmp_path / "p.txt", [1, 1])
        out = str(tmp_path / "p.pdz")
        code, stdout, _ = run_pdzip("compress", "--method", "tree", src, out)
        assert code == 0
        assert "payload_bits=2" in stdout

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_ends_quietly(self, tmp_path, unbuffered):
        # a reader that exits early (`pdzip stats ... | head -1`) is not a
        # data error; with its end closed before the call starts, the
        # write or the final flush meets a broken pipe whatever the timing
        src = write_dist(tmp_path / "p.txt", [3, 1, 1, 1])
        box = str(tmp_path / "p.pdz")
        assert main(["compress", "--method", "tree", src, box]) == 0
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pdzip", "stats", "--original", src,
                 "--compressed", box],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0

    def test_one_parser_per_process(self, tmp_path, capsys, monkeypatch):
        # a usage error, a valid call and --help through one parser give
        # the output and exit codes of a fresh parser per call
        src = write_dist(tmp_path / "p.txt", [3, 1])
        box = str(tmp_path / "p.pdz")
        run(capsys, "compress", "--method", "tree", src, box)
        calls = (("query", "--index", "x", box),
                 ("query", "--index", "2", box),
                 ("--help",))
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build)
        shared = [run(capsys, *argv) for argv in calls]
        assert len(built) == 1
        monkeypatch.setattr(cli, "_parser", counting_build)
        fresh = [run(capsys, *argv) for argv in calls]
        assert len(built) == 4
        assert shared == fresh
        assert [code for code, _, _ in shared] == [1, 0, 0]
        assert shared[1][1] == "0.5\n"
        assert "usage: pdzip" in shared[0][2] and "usage: pdzip" in shared[2][1]
