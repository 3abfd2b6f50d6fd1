"""Exact probability distributions and information measures.

A distribution is held as non-negative integer weights w_i over their
exact sum W, so every construction-side test in the package is a
comparison of integers; `entries` offers the same values as Fractions
for callers that want them.  The only values carried in floating point
are logarithmic measures (entropy, divergence) and the irrational
per-symbol values produced by the sparse codec.  All logarithms are
base 2 and results are in bits.

from_weights takes int, bool, float, Fraction and Decimal weights, or
anything else with an exact as_integer_ratio().  With each weight a
ratio num_i/d_i in lowest terms and L = lcm(d_i), the gcd of the
integers num_i * L/d_i is the gcd of the numerators alone, so the
weights reach lowest terms with no gcd over the scaled integers.  When
every d_i is a power of two (floats, and the ratios of dyadic rationals),
L is simply the largest d_i, because the lcm of powers of two is the
largest of them, and each num_i * L/d_i is a left shift; other
denominators take the lcm.

The measures make one pass over their arguments and build no
per-symbol list.  A distribution is read as its integer weights over
its total and a sequence (Fractions, floats or ints) entry by entry,
both as exact (numerator, denominator) pairs, and D(P||Q) sums one
term per symbol, in symbol order.  The max ratio compares one candidate
per distinct weight of a q distribution, or per run of equal entries of
a q sequence, whose repeats a decoder shares as one object.
"""

from __future__ import annotations

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from collections.abc import Sequence
from itertools import repeat


class DistributionError(ValueError):
    """Raised for inputs that do not describe a probability distribution."""


class InfiniteDivergenceError(ValueError):
    """Raised when D(P||Q) is infinite because some q_i = 0 with p_i > 0."""


# the types whose as_integer_ratio() Python documents as lowest terms
_LOWEST_TERMS = frozenset((int, bool, float, Fraction, Decimal))


def _over_lcm(ratios: list[tuple[int, int]]) -> tuple[list[int], int]:
    """Positive-denominator pairs num/d over L = lcm(d): each num * (L // d), and L.

    Integers (every d = 1) are their own numerators.  When every
    denominator is a power of two (every float, and any ratio of dyadic
    rationals), L is the largest of them, since each smaller one
    divides it, and num * (L // d) is the shift
    num << (L.bit_length() - d.bit_length()): no lcm, division or product.
    That test reads the denominators in a list, not a set: above the hash
    modulus 2^j hashes to 2^(j mod 61), so deep powers of two crowd a set;
    when the largest is no power of two, it reads none of the others.
    Otherwise the lcm runs over the distinct denominators in ascending
    order: in falling order, every step would take a gcd against the whole
    lcm so far.
    """
    dens = [d for _, d in ratios]
    den = max(dens)
    if den == 1:
        return [num for num, _ in ratios], 1
    if den.bit_count() == 1 and sum(map(int.bit_count, dens)) == len(dens):
        top = den.bit_length()
        return [num << (top - d.bit_length()) for num, d in ratios], den
    den = math.lcm(*sorted(set(dens)))
    return [num * (den // d) for num, d in ratios], den


class Record:
    """An immutable slotted record.  __init__ stores one value per slot, in
    order: a subclass checks its arguments, then passes them on to it.
    _trusted(*values) is the one unchecked constructor.  `_compared` names
    the fields that ==, hash and repr read: its constructor's positional
    parameters, in order, so copy and pickle rebuild it through the
    constructor and its checks."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        slots = type(self).__slots__
        if len(values) != len(slots):
            raise TypeError(f"{type(self).__name__} takes {len(slots)} values")
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        record = object.__new__(cls)
        Record.__init__(record, *values)
        return record

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")
    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        return (self._values() == other._values()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class ProbabilityDistribution(Record):
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
        weights, den = _over_lcm([p.as_integer_ratio() for p in entries])
        total = sum(weights)
        if total != den:
            raise DistributionError(
                f"probabilities sum to {Fraction(total, den)}, not 1")
        super().__init__(tuple(weights), den, entries)

    @classmethod
    def _exact(cls, weights: Sequence[int], total: int) -> "ProbabilityDistribution":
        """Trusted: non-negative int weights and their exact positive sum."""
        g = math.gcd(*weights)
        if g > 1:
            weights = [w // g for w in weights]
            total //= g
        return cls._trusted(tuple(weights), total, None)

    @classmethod
    def _shared(cls, keys: Sequence[int], weight: dict[int, int],
                total: int) -> "ProbabilityDistribution":
        """Trusted: symbol i has weight[keys[i]] over total, the weights in
        lowest terms and summing to total.

        A decoder's q_i take few distinct values, keyed by the small int
        it holds (a depth or a refine key), so each distinct value gets one
        int weight and one Fraction entry, shared by every symbol with
        that key.
        """
        entry = {key: Fraction(w, total) for key, w in weight.items()}
        return cls._trusted(tuple(map(weight.__getitem__, keys)), total,
                            tuple(map(entry.__getitem__, keys)))

    @classmethod
    def from_weights(cls, weights: Sequence[int | float | Fraction | Decimal]
                     ) -> "ProbabilityDistribution":
        """Normalize non-negative weights by their exact sum.

        A weight is anything with an exact as_integer_ratio(): int, bool,
        float, Fraction and Decimal give it in lowest terms, and a pair
        from any other type is reduced first.  The pairs num_i/d_i are put
        over L = lcm(d_i) and divided by g = gcd(num_i), which makes them
        integers in lowest terms: gcd_i(num_i * L/d_i) = g, because a prime
        of L divides some d_j to its full power in L, so it divides neither
        L/d_j nor num_j, and any other prime divides each num_i * L/d_i
        exactly as often as num_i.
        """
        # read twice: for the ratios and for their types
        weights = list(weights)
        try:
            ratios = [w.as_integer_ratio() for w in weights]
        except AttributeError:
            raise DistributionError("weights must be int, float, Fraction, "
                                    "Decimal or have as_integer_ratio()") from None
        if not ratios:
            raise DistributionError("no weights given")
        if not _LOWEST_TERMS.issuperset(map(type, weights)):
            # the gcd of the numerators stands for the whole only in lowest terms
            ratios = [Fraction(*r).as_integer_ratio() for r in ratios]
        nums = [num for num, _ in ratios]
        low = min(nums)
        if low < 0:
            raise DistributionError("negative weight")
        # from the smallest numerator on, the running gcd stays small
        g = math.gcd(low, *nums)
        if not g:
            raise DistributionError("all weights are zero")
        if g > 1:
            ratios = [(num // g, d) for num, d in ratios]
        ints, _ = _over_lcm(ratios)
        return cls._trusted(tuple(ints), sum(ints), None)

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
        places = max(len(line.partition(".")[2]) for line in numerals)
        numerals = [whole + frac.ljust(places, "0")
                    for whole, _, frac in (line.partition(".") for line in numerals)]
    try:
        weights = list(map(int, numerals))
    except ValueError as exc:  # only a numeral past int()'s digit limit
        lines = (lineno for lineno, raw in enumerate(text.splitlines(), start=1)
                 if raw.strip()[:1] not in ("", "#"))
        lineno = next(n for n, digits in zip(lines, numerals)
                      if len(digits) > sys.get_int_max_str_digits())
        raise DistributionError(f"line {lineno}: {exc}") from None
    total = sum(weights)
    if total == 0:
        raise DistributionError("weights sum to zero")
    return ProbabilityDistribution._exact(weights, total)


# what the measures accept; a string, as annotations here are never
# evaluated, because a typing.Union built at import time stays in typing's
# cache and pins this module's every imported copy
DistributionLike = "ProbabilityDistribution | Sequence[Fraction | float | int]"


def _ratios(dist: DistributionLike):
    """Each entry as an exact (numerator, denominator) pair, streamed.

    A ProbabilityDistribution gives its integer weights over its total,
    so the measures never build its Fraction entries; a float entry is
    taken at its exact binary value.
    """
    if isinstance(dist, ProbabilityDistribution):
        return zip(dist.weights, repeat(dist.total))
    return (x.as_integer_ratio() for x in dist)


def _same_length(p_dist: DistributionLike, q_dist: DistributionLike) -> None:
    if len(p_dist) != len(q_dist):
        raise DistributionError("distributions have different lengths")


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


def entropy(dist: DistributionLike) -> float:
    """H(P) = sum p_i log2(1/p_i) in bits, with 0 log 0 = 0.  Above 2^-1022,
    correct rounding commutes with exact scaling by 2^-shift, so for |shift| > 1
    ldexp(pf, -shift) is bit for bit the quotient _log2_ratio(num, den) divides."""
    total = 0.0
    for num, den in _ratios(dist):
        if num:
            pf = num / den
            shift = num.bit_length() - den.bit_length()
            if abs(shift) > 1 and pf > 2.0 ** -1022:
                total -= pf * (shift + math.log2(math.ldexp(pf, -shift)))
            elif pf:  # a p_i too small for float has a term that underflows
                total -= pf * _log2_ratio(num, den)
    return total


def relative_entropy(p_dist: DistributionLike, q_dist: DistributionLike) -> float:
    """D(P||Q) = sum p_i log2(p_i/q_i) in bits, with 0 log 0 = 0.

    Raises InfiniteDivergenceError when some q_i = 0 has p_i > 0.
    """
    _same_length(p_dist, q_dist)
    total = 0.0
    for (pn, pd), (qn, qd) in zip(_ratios(p_dist), _ratios(q_dist)):
        if not pn:
            continue
        if not qn:
            raise InfiniteDivergenceError("q_i = 0 with p_i > 0")
        pf = pn / pd
        if pf:
            total += pf * _log2_ratio(pn * qd, pd * qn)
    return total


def _run_maxima(weights, q_values):
    """(w * q_den, q_num) for the largest w > 0 of each run of equal q_i."""
    last = run = top = None
    for w, q in zip(weights, q_values):
        if q is not last:
            last, q = q, q.as_integer_ratio()
            if q != run:
                if top:
                    yield top * run[1], run[0]
                run, top = q, w
        if w > top:
            top = w
    if top:
        yield top * run[1], run[0]


def max_ratio(p_dist: DistributionLike, q_dist: DistributionLike):
    """max over {i : p_i > 0} of p_i/q_i.

    Exact (a Fraction) when both sides are rational; a float when either
    side carries floats.  Raises InfiniteDivergenceError when some
    q_i = 0 has p_i > 0.
    """
    _same_length(p_dist, q_dist)
    # each p_i/q_i with p_i > 0 as a (num, den) pair; the total that a
    # distribution's p_i share is left out of the pairs and comparisons
    if isinstance(p_dist, ProbabilityDistribution):
        shared = p_dist.total
        if isinstance(q_dist, ProbabilityDistribution):
            # among the symbols of one q weight u, the largest w wins
            most = {}
            for w, u in zip(p_dist.weights, q_dist.weights):
                if w > most.get(u, 0):
                    most[u] = w
            q_total = q_dist.total
            ratios = ((w * q_total, u) for u, w in most.items())
        else:
            ratios = _run_maxima(p_dist.weights, q_dist)
    else:
        shared = 1
        ratios = ((pn * qd, pd * qn) for (pn, pd), (qn, qd)
                  in zip(_ratios(p_dist), _ratios(q_dist)) if pn)
    best_num = best_den = None
    for num, den in ratios:
        if not den:
            raise InfiniteDivergenceError("q_i = 0 with p_i > 0")
        if best_num is None or num * best_den > best_num * den:
            best_num, best_den = num, den
    if best_num is None:
        raise DistributionError("no positive entries")
    best = Fraction(best_num, best_den * shared)
    floats = any(isinstance(x, float) for dist in (p_dist, q_dist)
                 if not isinstance(dist, ProbabilityDistribution) for x in dist)
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
