"""Shared corpora for the test suite.

Everything is seeded so the suite is reproducible run to run.
"""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

from pdzip.core import ProbabilityDistribution


def pytest_terminal_summary(terminalreporter):
    # acceptance tests queue one line each; echo them past capture
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def run_pdzip(*args, timeout=60):
    """(exit code, stdout, stderr) of `python -m pdzip *args` in a child
    process, which is killed after `timeout` seconds."""
    proc = subprocess.run([sys.executable, "-m", "pdzip", *map(str, args)],
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def sparse_queryable_header(n, c_num, c_den):
    """A packed sparse-queryable container with t = 0 and no payload bits."""
    fields = (n, c_num, c_den, 0, 0)  # n, c numerator and denominator, t, bits
    return b"PDZ1\x04" + b"".join(v.to_bytes(8, "little") for v in fields)


def near_uniform_weights(rng, n):
    return [rng.randint(900, 1100) for _ in range(n)]


def geometric_weights(rng, n):
    num, den = rng.choice([(2, 1), (3, 2), (3, 1), (5, 4), (5, 2)])
    r = Fraction(num, den)
    weights = [r ** i for i in range(n)]
    if rng.random() < 0.5:
        weights.reverse()
    return weights


def zipf_weights(rng, n):
    a = rng.choice([1, 2])
    return [Fraction(1, i ** a) for i in range(1, n + 1)]


def random_int_weights(rng, n):
    return [rng.randint(1, 10 ** 6) for _ in range(n)]


_FAMILIES = (near_uniform_weights, geometric_weights, zipf_weights,
             random_int_weights)


def random_distribution(rng, n):
    family = rng.choice(_FAMILIES)
    return ProbabilityDistribution.from_weights(family(rng, n))


def corpus_size(rng, hi=512):
    # log-uniform over 1..hi so small and large n both appear
    import math
    return max(1, min(hi, int(2 ** rng.uniform(0.0, math.log2(hi) + 0.01))))


@pytest.fixture(scope="session")
def main_corpus():
    """1000 strictly positive distributions, n in 1..512, mixed shapes."""
    rng = random.Random(0x5EED01)
    out = []
    for n in (1, 2, 3, 4, 7, 16, 100, 511, 512):
        out.append(ProbabilityDistribution.from_weights([1] * n))
    while len(out) < 1000:
        out.append(random_distribution(rng, corpus_size(rng)))
    return out


@pytest.fixture(scope="session")
def zero_corpus():
    """Distributions that contain zero-probability entries."""
    rng = random.Random(0x5EED02)
    out = [ProbabilityDistribution.from_weights([0, 1]),
           ProbabilityDistribution.from_weights([0] * 7 + [1]),
           ProbabilityDistribution.from_weights([1] + [0] * 255)]
    while len(out) < 120:
        n = corpus_size(rng)
        if n == 1:
            continue
        family = rng.choice(_FAMILIES)
        weights = [Fraction(w) for w in family(rng, n)]
        kill = rng.randint(1, max(1, (6 * n) // 10))
        for j in rng.sample(range(n), min(kill, n - 1)):
            weights[j] = Fraction(0)
        if all(w == 0 for w in weights):
            weights[0] = Fraction(1)
        out.append(ProbabilityDistribution.from_weights(weights))
    return out


def random_tree_depths(rng, n, balanced=False):
    """Leaf depths of a random strict binary tree, left to right."""
    depths = []
    leaf = depths.append
    stack = [(n, 0)]
    push, pop = stack.append, stack.pop
    # lo + _randbelow(hi - lo + 1) is what randint(lo, hi) returns, so the
    # trees are the ones randint drew, without its argument checks
    below = rng._randbelow
    while stack:
        leaves, d = pop()
        if leaves == 1:
            leaf(d)
            continue
        if balanced:
            lo = max(1, leaves // 4)
            left = lo + below(max(lo, (3 * leaves) // 4) - lo + 1)
        else:
            left = 1 + below(leaves - 1)
        d += 1
        push((leaves - left, d))
        push((left, d))
    return tuple(depths)


def floor_caps(p, eps):
    """Deepest leaf depth per symbol with 2^-d > max(p_i/(4+eps), eps/(4n)).

    -1 where even the root (d = 0) is too shallow.
    """
    caps = []
    for pi in p:
        f = max(pi / (4 + eps), eps / (4 * p.n))
        d = -1
        while (1 << (d + 1)) * f < 1:
            d += 1
        caps.append(d)
    return caps


def ordered_tree_fits(caps):
    """Whether a strict binary tree with leaves in order has depth_i <= caps[i].

    Interval DP, O(n^3): top(i, j) is the deepest depth at which a subtree
    holding exactly leaves i..j can be rooted; a split after leaf k roots
    both halves one level deeper, so top(i, j) is the best split's
    min(top(i, k), top(k+1, j)) - 1.  The whole tree fits iff top(0, n-1)
    is at least 0.
    """
    n = len(caps)
    # from_start[i][j - i] = top(i, j); to_end[j][i] = top(i, j)
    from_start = [[c] for c in caps]
    to_end = [[None] * j + [c] for j, c in enumerate(caps)]
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            top = max(map(min, from_start[i], to_end[j][i + 1:])) - 1
            from_start[i].append(top)
            to_end[j][i] = top
    return from_start[0][n - 1] >= 0
