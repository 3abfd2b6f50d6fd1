"""End-to-end acceptance checks, one test per published guarantee.

Each test prints a single pass/fail line (written past pytest's capture
so the lines always appear).  Corpora are seeded and shared across
criteria; criterion 1 also owns the construction-time budget.

Criterion 6 asserts the uniform floor q_i > eps/(4n) wherever a tree can
meet it: a strict tree with its leaves in symbol order can keep every
q_i above max(p_i/(4+eps), eps/(4n)) only when the leaf-depth caps
those floors set allow it.  A case that misses eps/(4n) passes only if
the interval-DP oracle in conftest proves that no such tree exists; the
count of those cases is reported.  The divergence bound, the p_i/(4+eps)
floor and the provable floor eps/((16+4eps) n) are asserted on every
case.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from pdzip.bits import Bits
from pdzip.cli import main as cli_main
from pdzip.core import (
    ProbabilityDistribution,
    entropy,
    max_ratio,
    parse_distribution,
    relative_entropy,
)
from pdzip.refine import RefinePayload, compress_refined, decompress_refined, refine_step
from pdzip.sparse import (
    build_query_table,
    decompress_sparse,
    index_width,
    max_heavy_count,
    rank_width,
    select_heavy,
)
from pdzip.succinct import SuccinctTreeIndex, build_smoothed
from pdzip.treebuild import StrictTreeShape, code_tree
from pdzip.treecode import decode_tree, encode_tree, implied_distribution
from conftest import floor_caps, ordered_tree_fits, random_tree_depths
from naive import LinkedTree, naive_code_tree_depths

SPARSE_CONSTANT = 1.71807  # log2(pi^2/3) rounded up at the 5th decimal

# one line per criterion; conftest prints these after the run so they
# survive output capture
ACCEPTANCE_LINES = []


def _report(num, name, ok, extra=""):
    ACCEPTANCE_LINES.append(
        f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{extra}")


# trees built by criterion 1 are reused by criteria 2 and 3
_TREE_CACHE = []


def _trees_for(corpus):
    if not _TREE_CACHE:
        _TREE_CACHE.extend(code_tree(p) for p in corpus)
    return _TREE_CACHE


def test_criterion_1_depth_bound(main_corpus):
    ok = False
    try:
        start = time.monotonic()
        trees = [code_tree(p) for p in main_corpus]
        elapsed = time.monotonic() - start
        for p, shape in zip(main_corpus, trees):
            for prob, d in zip(p, shape.leaf_depths):
                assert (1 << d) * prob < 4
        assert elapsed < 10.0, f"construction took {elapsed:.2f}s"
        _TREE_CACHE.clear()
        _TREE_CACHE.extend(trees)
        ok = True
    finally:
        _report(1, "code-tree depth bound", ok)


def test_criterion_2_tree_method(main_corpus):
    ok = False
    try:
        for p, shape in zip(main_corpus, _trees_for(main_corpus)):
            payload = encode_tree(shape)
            assert len(payload.bits) == 2 * p.n - 2
            q = implied_distribution(shape).to_distribution()
            assert max_ratio(p, q) < 4
            assert relative_entropy(p, q) < 2 + 1e-9
        rng = random.Random(0xACCE02)
        for trial in range(1000):
            if trial < 970:
                n = max(1, int(2 ** rng.uniform(0, 11)))
            elif trial < 995:
                n = rng.randint(2000, 30000)
            else:
                n = 100000
            shape = StrictTreeShape(
                random_tree_depths(rng, n, balanced=trial >= 997))
            assert decode_tree(encode_tree(shape)) == shape
        ok = True
    finally:
        _report(2, "tree-method bounds and round-trip", ok)


def test_criterion_3_refined_method(main_corpus):
    ok = False
    try:
        import inspect
        params = inspect.signature(decompress_refined).parameters
        assert list(params) == ["payload"]

        sampled = set(range(0, len(main_corpus), 25))
        for at, (p, shape) in enumerate(zip(main_corpus,
                                            _trees_for(main_corpus))):
            base = encode_tree(shape)
            levels = []
            q = implied_distribution(shape).to_distribution()
            for k in range(2, 13):
                if k >= 3:
                    marks, q = refine_step(p, q, k)
                    levels.append(marks)
                bound = 2 + Fraction(2) ** (3 - k)
                assert max_ratio(p, q) < bound
                assert relative_entropy(p, q) < math.log2(bound) + 1e-9
                payload = RefinePayload(k, base, tuple(levels))
                assert payload.total_bits == k * p.n - 2
                if at in sampled:
                    assert tuple(decompress_refined(payload)) == tuple(q)
        ok = True
    finally:
        _report(3, "refined-method bounds and decoder independence", ok)


def test_criterion_4_sparse_method(main_corpus):
    ok = False
    try:
        for p in main_corpus:
            n = p.n
            h = entropy(p)
            for c in (Fraction(1), Fraction(2), Fraction(3)):
                payload = select_heavy(p, c)
                q = decompress_sparse(payload)
                d = relative_entropy(p, q)
                assert d <= float(c) * h + SPARSE_CONSTANT + 1e-6
                w = index_width(n)
                assert len(payload.to_bits()) == payload.t * w
                assert payload.t * w <= max_heavy_count(n, c) * w
                heavy = set(payload.heavy_indices)
                if payload.t < n:
                    floor = Fraction(1, 2 * n)
                    for i in range(1, n + 1):
                        if i not in heavy:
                            assert Fraction(q[i - 1]) > floor
                table = build_query_table(payload)
                cap = math.ceil(math.log2(table.t + 1)) + 1
                for i in range(1, n + 1):
                    value, comparisons = table.lookup(i)
                    assert value == q[i - 1]
                    assert comparisons <= cap
        ok = True
    finally:
        _report(4, "sparse-method bound, size, and query agreement", ok)


def test_criterion_5_succinct_navigation():
    ok = False
    try:
        rng = random.Random(0xACCE05)
        sizes = ([rng.randint(1, 1000) for _ in range(150)]
                 + [rng.randint(1000, 5000) for _ in range(40)]
                 + [rng.randint(5000, 30000) for _ in range(7)]
                 + [100000] * 3)
        assert len(sizes) == 200
        for at, n in enumerate(sizes):
            depths = random_tree_depths(rng, n, balanced=n > 1000)
            shape = StrictTreeShape(depths)
            idx = SuccinctTreeIndex.from_tree_shape(shape)
            bits = encode_tree(shape).bits + Bits.from_string("0")
            oracle = LinkedTree(bits)
            for v in range(2 * n - 1):
                leaf = idx.is_leaf(v)
                assert leaf == oracle.is_leaf(v)
                assert idx.num_descendants(v) == oracle.num_descendants(v)
                if v > 0:
                    assert idx.parent(v) == oracle.parent(v)
                if not leaf:
                    assert idx.left_child(v) == oracle.left_child(v)
                    assert idx.right_child(v) == oracle.right_child(v)
            for i in range(1, n + 1):
                pos, steps = idx.leaf_descent(i)
                assert steps == depths[i - 1]
                assert idx.query_prob(i) == Fraction(1, 1 << steps)

        n16 = 1 << 16
        idx16 = SuccinctTreeIndex.from_tree_shape(
            StrictTreeShape(random_tree_depths(rng, n16, balanced=True)))
        assert idx16.total_bits() <= 3 * n16

        prev = None
        for exp in (12, 14, 16, 18, 20):
            n = 1 << exp
            idx = SuccinctTreeIndex.from_tree_shape(
                StrictTreeShape(random_tree_depths(rng, n, balanced=True)))
            frac = idx.aux_bits() / n
            if prev is not None:
                assert frac <= prev
            prev = frac
        ok = True
    finally:
        _report(5, "succinct navigation vs oracle and space", ok)


def test_criterion_6_smoothed_bounds(zero_corpus):
    ok = False
    divergence_bad = 0
    ratio_floor_bad = 0
    uniform_floor_bad = 0
    unattainable = 0
    cases = 0
    try:
        for p in zero_corpus:
            n = p.n
            for eps in (Fraction(1, 10), Fraction(1)):
                cases += 1
                idx = build_smoothed(p, eps)
                q = [idx.query_prob(i) for i in range(1, n + 1)]
                # provable floor, checked unconditionally
                assert all(qi > eps / ((16 + 4 * eps) * n) for qi in q)
                d = relative_entropy(p, ProbabilityDistribution(tuple(q)))
                if not d < 2 + float(eps) + 1e-9:
                    divergence_bad += 1
                if not all(qi > pi / (4 + eps) for pi, qi in zip(p, q)):
                    ratio_floor_bad += 1
                if not all(qi > eps / (4 * n) for qi in q):
                    if ordered_tree_fits(floor_caps(p, eps)):
                        uniform_floor_bad += 1
                    else:
                        unattainable += 1
        ok = divergence_bad == ratio_floor_bad == uniform_floor_bad == 0
    finally:
        detail = (f" (cases={cases}, divergence violations={divergence_bad},"
                  f" p/(4+eps) floor violations={ratio_floor_bad},"
                  f" eps/(4n) floor violations={uniform_floor_bad},"
                  f" eps/(4n) floor unattainable by any tree={unattainable})")
        _report(6, "smoothed divergence and floors", ok, detail)
    assert divergence_bad == 0, "divergence bound D < 2+eps failed"
    assert ratio_floor_bad == 0, "per-symbol floor q_i > p_i/(4+eps) failed"
    assert uniform_floor_bad == 0, (
        f"the uniform floor q_i > eps/(4n) fails on {uniform_floor_bad} of "
        f"{cases} cases although an order-preserving strict tree meets it "
        f"together with q_i > p_i/(4+eps)")


def test_criterion_7_naive_pipeline_equivalence():
    ok = False
    try:
        rng = random.Random(0xACCE07)
        cases = 0
        seen = set()
        while cases < 10500:
            n = rng.randint(1, 6)
            den = rng.randint(max(n, 2), 64)
            if n == 1:
                weights = (den,)
            else:
                cuts = sorted(rng.sample(range(1, den), n - 1))
                weights = tuple(b - a for a, b in
                                zip((0,) + tuple(cuts), tuple(cuts) + (den,)))
            key = (den, weights)
            if key in seen:
                continue
            seen.add(key)
            cases += 1
            p = ProbabilityDistribution.from_weights(list(weights))
            assert naive_code_tree_depths(p) == code_tree(p).leaf_depths
        assert cases >= 10000
        ok = True
    finally:
        _report(7, "primary pipeline equals per-bit trie oracle", ok)


# ----------------------------------------------------------------------
# criterion 8: CLI end-to-end over a fixed fixture set

FIXTURES = [
    ("uniform4", [1, 1, 1, 1]),
    ("dyadic3", [2, 1, 1]),
    ("skew2", [9, 1]),
    ("small4", [7, 3, 2, 1]),
    ("single", [1]),
    ("pair", [1, 1]),
    ("heavy16", [60, 30] + [1] * 14),
    ("zipf20", [math.lcm(*range(1, 21)) // i for i in range(1, 21)]),
    ("geo12", [2 ** i for i in range(12)]),
    ("wide100", list(range(1, 101))),
]


def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _payload_bits_from(stdout):
    for token in stdout.split():
        if token.startswith("payload_bits="):
            return int(token.split("=", 1)[1])
    raise AssertionError(f"no payload_bits in {stdout!r}")


def _stat_value(stdout, field):
    for line in stdout.splitlines():
        if line.startswith(field + ":"):
            return float(line.split(":", 1)[1].split()[0])
    raise AssertionError(f"no {field} in stats output")


def test_criterion_8_cli_end_to_end(tmp_path, capsys):
    ok = False
    try:
        for name, weights in FIXTURES:
            src = tmp_path / f"{name}.txt"
            src.write_text("".join(f"{w}\n" for w in weights))
            p = ProbabilityDistribution.from_weights(
                [Fraction(w) for w in weights])
            n = p.n
            h = entropy(p)

            jobs = [("tree", [], 2 * n - 2),
                    ("refine", ["--k", "4"], 4 * n - 2),
                    ("sparse", ["--c", "1"], None),
                    ("sparse-queryable", ["--c", "1"], None)]
            for method, flags, expect_bits in jobs:
                box = tmp_path / f"{name}.{method}.pdz"
                code, stdout, stderr = _run_cli(
                    capsys, "compress", "--method", method, *flags,
                    str(src), str(box))
                assert code == 0, (name, method, stderr)
                got_bits = _payload_bits_from(stdout)
                if expect_bits is None:
                    t = select_heavy(p, Fraction(1)).t
                    w = index_width(n)
                    expect_bits = t * w if method == "sparse" else \
                        t * (w + rank_width(n, Fraction(1)))
                assert got_bits == expect_bits, (name, method)

                out = tmp_path / f"{name}.{method}.out"
                code, stdout, _ = _run_cli(capsys, "decompress", str(box),
                                           str(out))
                assert code == 0
                stored = parse_distribution(out.read_text())
                assert stored.n == n

                code, stdout, _ = _run_cli(capsys, "stats", "--original",
                                           str(src), "--compressed", str(box))
                assert code == 0
                d = _stat_value(stdout, "divergence")
                if method == "tree":
                    assert d < 2 + 1e-9
                elif method == "refine":
                    assert d < math.log2(2.5) + 1e-9  # k=4 ratio bound
                else:
                    assert d <= h + SPARSE_CONSTANT + 1e-6

                if method != "sparse":
                    for i in (1, (n + 1) // 2, n):
                        code, stdout, _ = _run_cli(capsys, "query",
                                                   "--index", str(i),
                                                   str(box))
                        assert code == 0, (name, method, i)
                        got = Fraction(stdout.strip())
                        assert abs(got - stored[i - 1]) <= Fraction(1, 10 ** 9)

        # corruption: single flipped bytes must be rejected as data errors
        src = tmp_path / "uniform4.txt"
        box = tmp_path / "corrupt.pdz"
        code, _, _ = _run_cli(capsys, "compress", "--method", "tree",
                              str(src), str(box))
        assert code == 0
        good = box.read_bytes()
        out = str(tmp_path / "corrupt.out")
        for at in (0, 4, 13, len(good) - 1):
            bad = bytearray(good)
            bad[at] ^= 0xFF
            box.write_bytes(bytes(bad))
            code, _, stderr = _run_cli(capsys, "decompress", str(box), out)
            assert code == 2, f"flipped byte {at} was not rejected"
        box.write_bytes(good[:-1])
        code, _, _ = _run_cli(capsys, "decompress", str(box), out)
        assert code == 2
        ok = True
    finally:
        _report(8, "CLI end-to-end on the fixture set", ok)
