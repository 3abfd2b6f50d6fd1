"""Exact probability distributions and information measures.

A distribution is held as non-negative integer weights w_i over their
exact sum W, so every construction-side test in the package is a
comparison of integers; `entries` offers the same values as Fractions
for callers that want them.  The only values carried in floating point
are logarithmic measures (entropy, divergence) and the irrational
per-symbol values produced by the sparse codec.  All logarithms are
base 2 and results are in bits.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence, Union


class DistributionError(ValueError):
    """Raised for inputs that do not describe a probability distribution."""


class InfiniteDivergenceError(ValueError):
    """Raised when D(P||Q) is infinite because some q_i = 0 with p_i > 0."""


class ProbabilityDistribution:
    """A distribution over symbols 1..n: p_i = weights[i] / total.

    The weights are non-negative integers in lowest terms (their gcd is
    1) and total is their exact sum, so two distributions are equal
    exactly when their weights are.  The constructor takes Fraction
    entries summing to exactly 1; from_weights normalizes any
    non-negative weights.  Instances are immutable.
    """

    __slots__ = ("weights", "total", "_entries")

    def __init__(self, entries: Sequence[Fraction]) -> None:
        entries = tuple(entries)
        if not entries:
            raise DistributionError("a distribution needs at least one entry")
        for p in entries:
            if not isinstance(p, Fraction):
                raise DistributionError("entries must be exact rationals")
            if p < 0:
                raise DistributionError("negative probability")
        # reduced entries over the lcm of their denominators sum to that
        # lcm exactly when they sum to 1, and are then in lowest terms
        den = math.lcm(*(p.denominator for p in entries))
        weights = tuple(p.numerator * (den // p.denominator) for p in entries)
        total = sum(weights)
        if total != den:
            raise DistributionError(
                f"probabilities sum to {Fraction(total, den)}, not 1")
        self._init(weights, den, entries)

    def _init(self, weights: tuple[int, ...], total: int, entries=None) -> None:
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "_entries", entries)

    @classmethod
    def _exact(cls, weights: Sequence[int], total: int) -> "ProbabilityDistribution":
        """Trusted: non-negative int weights and their exact positive sum."""
        g = math.gcd(*weights)
        if g > 1:
            weights = [w // g for w in weights]
            total //= g
        dist = object.__new__(cls)
        dist._init(tuple(weights), total)
        return dist

    @classmethod
    def from_weights(cls, weights: Sequence[Union[int, Fraction, float]]
                     ) -> "ProbabilityDistribution":
        """Normalize non-negative weights by their exact sum.

        Int, Fraction and float weights are put over the lcm of their
        denominators, which makes them integers.
        """
        try:
            ratios = [w.as_integer_ratio() for w in weights]
        except AttributeError:
            raise DistributionError(
                "weights must be int, Fraction or float") from None
        if not ratios:
            raise DistributionError("no weights given")
        den = math.lcm(*(d for _, d in ratios))
        ints = [num * (den // d) for num, d in ratios]
        if min(ints) < 0:
            raise DistributionError("negative weight")
        total = sum(ints)
        if total == 0:
            raise DistributionError("all weights are zero")
        return cls._exact(ints, total)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (ProbabilityDistribution._exact, (self.weights, self.total))

    def __eq__(self, other):
        if not isinstance(other, ProbabilityDistribution):
            return NotImplemented
        return self.weights == other.weights

    def __hash__(self) -> int:
        return hash(self.weights)

    def __repr__(self) -> str:
        return (f"ProbabilityDistribution.from_weights("
                f"{list(self.weights)!r})")

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The probabilities as Fractions, built on first use."""
        if self._entries is None:
            total = self.total
            object.__setattr__(self, "_entries",
                               tuple(Fraction(w, total) for w in self.weights))
        return self._entries

    @property
    def n(self) -> int:
        return len(self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def strictly_positive(self) -> bool:
        return 0 not in self.weights


# a numeral is a plain decimal or integer token; no signs, no exponents
_NUMERAL = re.compile(r"^(\d+(\.\d*)?|\.\d+)$")


def parse_distribution(text: str) -> ProbabilityDistribution:
    """Parse the one-weight-per-line text format.

    Lines that are blank or start with '#' are ignored.  Each remaining
    line holds one decimal numeral or integer count; the weights are
    normalized by their exact sum.  Integer lines are read by int(), and
    decimals as integers over one power of ten, the largest any line
    needs.
    """
    numerals = []
    decimals = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if not line.isdecimal():
            if line[0] == "-":
                raise DistributionError(f"line {lineno}: negative value {line!r}")
            if not _NUMERAL.match(line):
                raise DistributionError(
                    f"line {lineno}: unparsable numeral {line!r}")
            decimals = True
        numerals.append(line)
    if not numerals:
        raise DistributionError("no weights in input")
    if decimals:
        split = [line.partition(".") for line in numerals]
        places = max(len(frac) for _, _, frac in split)
        weights = [int(whole + frac.ljust(places, "0")) for whole, _, frac in split]
    else:
        weights = list(map(int, numerals))
    total = sum(weights)
    if total == 0:
        raise DistributionError("weights sum to zero")
    return ProbabilityDistribution._exact(weights, total)


# what the measures accept; a string, as annotations here are never
# evaluated, because a typing.Union built at import time stays in typing's
# cache and pins this module's every imported copy
DistributionLike = "ProbabilityDistribution | Sequence[Fraction | float | int]"


def _fractions(dist: DistributionLike) -> tuple[list[tuple[int, int]], bool]:
    """Each entry as an exact (numerator, denominator) pair, and whether
    any entry was a float (whose binary value is then taken exactly).

    A ProbabilityDistribution gives its integer weights over its total,
    so the measures never build its Fraction entries.
    """
    if isinstance(dist, ProbabilityDistribution):
        total = dist.total
        return [(w, total) for w in dist.weights], False
    return ([x.as_integer_ratio() for x in dist],
            any(isinstance(x, float) for x in dist))


_LN2 = math.log(2)


def _log2_ratio(num: int, den: int) -> float:
    """log2(num/den) for positive integers, stable for huge operands."""
    if num <= 0:
        raise ValueError("log2 of a non-positive value")
    # away from 1, shift so the ratio lands in [1/2, 2); the float division
    # is then exact to one ulp regardless of the operand sizes
    shift = num.bit_length() - den.bit_length()
    if shift > 1:
        return shift + math.log2(num / (den << shift))
    if shift < -1:
        return shift + math.log2((num << -shift) / den)
    # num/den is in (1/4, 4).  Near 1, log2 of the rounded ratio keeps only
    # absolute precision; log1p of the exactly rounded (num - den)/den
    # keeps relative precision
    return math.log1p((num - den) / den) / _LN2


def log2_fraction(x: Fraction) -> float:
    """log2 of a positive rational, stable for huge numerators/denominators."""
    return _log2_ratio(x.numerator, x.denominator)


def entropy(dist: DistributionLike) -> float:
    """H(P) = sum p_i log2(1/p_i) in bits, with 0 log 0 = 0."""
    total = 0.0
    for num, den in _fractions(dist)[0]:
        if num:
            pf = num / den
            # a value too small for float has an entropy term that
            # underflows too
            if pf:
                total -= pf * _log2_ratio(num, den)
    return total


def _paired(p_dist: DistributionLike, q_dist: DistributionLike):
    """The entries of both sides, paired, and whether either had a float."""
    ps, p_float = _fractions(p_dist)
    qs, q_float = _fractions(q_dist)
    if len(ps) != len(qs):
        raise DistributionError("distributions have different lengths")
    return zip(ps, qs), p_float or q_float


def relative_entropy(p_dist: DistributionLike, q_dist: DistributionLike) -> float:
    """D(P||Q) = sum p_i log2(p_i/q_i) in bits, with 0 log 0 = 0.

    Raises InfiniteDivergenceError when some q_i = 0 has p_i > 0.
    """
    total = 0.0
    for (pn, pd), (qn, qd) in _paired(p_dist, q_dist)[0]:
        if not pn:
            continue
        if not qn:
            raise InfiniteDivergenceError("q_i = 0 with p_i > 0")
        pf = pn / pd
        if pf:
            total += pf * _log2_ratio(pn * qd, pd * qn)
    return total


def max_ratio(p_dist: DistributionLike, q_dist: DistributionLike):
    """max over {i : p_i > 0} of p_i/q_i.

    Exact (a Fraction) when both sides are rational; a float when the
    approximation side carries floats.  Raises InfiniteDivergenceError
    when some q_i = 0 has p_i > 0.
    """
    pairs, floats = _paired(p_dist, q_dist)
    pairs = [(p, q) for p, q in pairs if p[0]]
    if not pairs:
        raise DistributionError("no positive entries")
    if any(not qn for _, (qn, _) in pairs):
        raise InfiniteDivergenceError("q_i = 0 with p_i > 0")
    # p_i/q_i = (pn qd)/(pd qn); a denominator every p_i shares (a
    # distribution's total) is left out of the comparisons
    shared = pairs[0][0][1]
    if all(pd == shared for (_, pd), _ in pairs):
        ratios = [(pn * qd, qn) for (pn, _), (qn, qd) in pairs]
    else:
        shared = 1
        ratios = [(pn * qd, pd * qn) for (pn, pd), (qn, qd) in pairs]
    best_num, best_den = ratios[0]
    for num, den in ratios:
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    best = Fraction(best_num, best_den * shared)
    return float(best) if floats else best


def ceil_log2_ratio(a: int, b: int) -> int:
    """ceil(log2(a/b)) for positive integers, exactly."""
    if a <= 0 or b <= 0:
        raise ValueError("ratio must be positive")
    e = a.bit_length() - b.bit_length() - 1
    # 2^e <= a/b is now guaranteed; raise e until 2^e >= a/b
    while (b << max(e, 0)) < (a << max(-e, 0)):
        e += 1
    return e
