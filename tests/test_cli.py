import subprocess
import sys
from fractions import Fraction

import pytest

from pdzip import cli
from pdzip import container as cont
from pdzip.bits import Bits
from pdzip.cli import (
    format_exact_decimal,
    format_probability,
    format_significant,
    main,
)
from pdzip.refine import decompress_refined


def write_dist(path, lines):
    path.write_text("\n".join(str(x) for x in lines) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatting:
    def test_exact_decimal(self):
        assert format_exact_decimal(Fraction(1, 2)) == "0.5"
        assert format_exact_decimal(Fraction(1, 4)) == "0.25"
        assert format_exact_decimal(Fraction(1)) == "1"
        assert format_exact_decimal(Fraction(0)) == "0"
        assert format_exact_decimal(Fraction(3, 40)) == "0.075"
        with pytest.raises(ValueError):
            format_exact_decimal(Fraction(1, 3))

    def test_significant(self):
        assert format_significant(0.25, 5) == "0.25"
        assert format_significant(Fraction(1, 3), 5) == "0.33333"
        assert format_significant(0.30396355092701331, 8) == "0.30396355"

    def test_probability_prefers_exact(self):
        assert format_probability(Fraction(1, 8), 17) == "0.125"
        assert format_probability(Fraction(1, 3), 5) == "0.33333"
        assert format_probability(0.25, 17) == "0.25"


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
        src = write_dist(tmp_path / "p.txt", [1, 1])
        out = str(tmp_path / "p.pdz")
        bad_calls = [
            ("compress", "--method", "tree", "--k", "3", src, out),
            ("compress", "--method", "tree", "--c", "1", src, out),
            ("compress", "--method", "sparse", "--epsilon", "1", src, out),
            ("compress", "--method", "refine", "--k", "1", src, out),
            ("compress", "--method", "sparse", "--c", "1/2", src, out),
            ("compress", "--method", "tree", "--epsilon", "0", src, out),
            ("compress", "--method", "nope", src, out),
        ]
        for argv in bad_calls:
            code, _, _ = run(capsys, *argv)
            assert code == 1, argv

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
                                   Bits.from_string(tree_bits)),
                    cont.Container(cont.METHOD_REFINE, 3,
                                   Bits.from_string(tree_bits + "101"), k=3)):
                box.write_bytes(container.pack())
                for argv in (("query", "--index", "2", str(box)),
                             ("decompress", str(box), out)):
                    code, stdout, stderr = run(capsys, *argv)
                    assert code == 2, (tree_bits, argv)
                    assert stdout == ""
                    assert "pdzip: error:" in stderr and "tree" in stderr

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
        proc = subprocess.run(
            [sys.executable, "-m", "pdzip", "compress", "--method", "tree",
             src, out],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "payload_bits=2" in proc.stdout

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
