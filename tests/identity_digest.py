"""Print one SHA-256 over what pdzip outputs for a fixed set of inputs.

Two checkouts print the same digest when their containers, measures and
CLI output agree byte for byte, so a change that claims to keep them can
be checked by running this at both commits (pytest does not collect it):

    PYTHONPATH=src python tests/identity_digest.py

The inputs are the test suite's corpora (`conftest.main_corpus` and
`zero_corpus`), Zipf a = 1, 2 and geometric weights at n = 1000
(ratios 2, 3/2, 3, 5/4 and 5/2, rising and falling), and four n = 3000
count histograms, two of them with half their bins zero.  Inputs with
zeros are smoothed at epsilon = 1/10 for tree and refine.
For every input and every method and option set the digest covers the
packed container; float.hex of H(P), of D(P||Q) and of H(Q), and the
max ratio with its type, each with Q as the decoded distribution and as
its `.entries`; and the exit code, stdout, stderr and written files of
CLI `compress`, `decompress`, `stats`, `query` (first, middle and last
symbol, and one past the end) and `info`.  With --lines it prints the
hashed lines instead, to find where two checkouts differ.
"""

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from fractions import Fraction

import conftest
from pdzip import cli
from pdzip import container as cont
from pdzip.core import (ProbabilityDistribution, entropy, max_ratio,
                        relative_entropy)

EPSILON = Fraction(1, 10)
# (method, library options, CLI flags); epsilon is added for inputs with zeros
OPTION_SETS = (
    ("tree", {}, []),
    ("refine", {"k": 2}, ["--k", "2"]),
    ("refine", {"k": 3}, []),
    ("refine", {"k": 5}, ["--k", "5"]),
    ("sparse", {}, []),
    ("sparse", {"c": Fraction(3, 2)}, ["--c", "3/2"]),
    ("sparse", {"c": Fraction(2)}, ["--c", "2"]),
    ("sparse-queryable", {}, []),
    ("sparse-queryable", {"c": Fraction(2)}, ["--c", "2"]),
)


def corpora():
    """(name, distribution) of every input, in a fixed order."""
    for fixture in (conftest.main_corpus, conftest.zero_corpus):
        for i, dist in enumerate(fixture.__wrapped__()):
            yield f"{fixture.__name__}[{i}]", dist
    n = 1000
    for a in (1, 2):
        yield f"zipf-a{a}", ProbabilityDistribution.from_weights(
            [Fraction(1, i ** a) for i in range(1, n + 1)])
    for num, den in ((2, 1), (3, 2), (3, 1), (5, 4), (5, 2)):
        weights = [Fraction(num, den) ** i for i in range(n)]
        for order in ("up", "down"):
            yield f"geometric-{num}/{den}-{order}", (
                ProbabilityDistribution.from_weights(weights))
            weights.reverse()
    for i, family in enumerate((conftest.random_int_weights,
                                conftest.near_uniform_weights) * 2):
        rng = random.Random(f"counts:{i}")
        weights = family(rng, 3000)
        if i >= 2:
            for j in rng.sample(range(3000), 1500):
                weights[j] = 0
        yield f"counts[{i}]", ProbabilityDistribution.from_weights(weights)


def _measure(fn, *args) -> str:
    try:
        value = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"
    text = value.hex() if isinstance(value, float) else repr(value)
    return f"{type(value).__name__} {text}"


def _cli(argv, tmp: str) -> str:
    """The exit code and output of one CLI call, the scratch folder's
    name replaced, so that the text is the same run to run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = f"{argv[0]} exit {code}\n{out.getvalue()}{err.getvalue()}"
    return text.replace(tmp, "TMP")


def lines(tmp: str):
    src = os.path.join(tmp, "p.txt")
    packed = os.path.join(tmp, "p.pdz")
    written = os.path.join(tmp, "q.txt")
    for name, dist in corpora():
        yield f"== {name} n={dist.n}"
        with open(src, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{w}\n" for w in dist.weights))
        zeros = not dist.strictly_positive()
        yield f"H(P) {_measure(entropy, dist)}"
        for method, options, flags in OPTION_SETS:
            if zeros and method in ("tree", "refine"):
                options = {**options, "epsilon": EPSILON}
                flags = [*flags, "--epsilon", "1/10"]
            yield f"-- {method} {flags}"
            data = cont.compress(dist, method, **options).pack()
            yield f"container {data.hex()}"
            box = cont.unpack(data)
            values = box.spec.values(box.open())
            for q in (values, values.entries):
                for fn in (relative_entropy, max_ratio):
                    yield f"{fn.__name__} {_measure(fn, dist, q)}"
                yield f"H(Q) {_measure(entropy, q)}"
            yield _cli(["compress", "--method", method, *flags, src, packed], tmp)
            with open(packed, "rb") as fh:
                yield f"file {fh.read().hex()}"
            yield _cli(["decompress", packed, written], tmp)
            with open(written, encoding="utf-8") as fh:
                yield fh.read()
            yield _cli(["stats", "--original", src, "--compressed", packed], tmp)
            for i in sorted({1, (dist.n + 1) // 2, dist.n, dist.n + 1}):
                yield _cli(["query", "--index", str(i), packed], tmp)
            yield _cli(["info", packed], tmp)


def main() -> None:
    show = "--lines" in sys.argv[1:]
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for line in lines(tmp):
            if show:
                print(line)
            digest.update(line.encode() + b"\n")
            count += 1
    print(f"{digest.hexdigest()} ({count} lines)")


if __name__ == "__main__":
    main()
