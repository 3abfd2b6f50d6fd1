"""Exact probability distributions and information measures.

A distribution is held as non-negative integer weights w_i over their
exact sum W, so every construction-side test in the package is a
comparison of integers; `entries` offers the same values as Fractions
for callers that want them.  A decoded distribution holds a small int
key per symbol instead, and builds its weights only if asked for.  The
only values carried in floating point are logarithmic measures
(entropy, divergence) and the irrational per-symbol values produced by
the sparse codec.  All logarithms are base 2 and results are in bits.

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
per-symbol list of objects; a distribution keeps one 8-byte float per
symbol, its `floats`, made on first use where its total is 2^53 or
more, so that entropy and D(P||Q) share each p_i's big-int division.
A distribution is read as its integer weights over its total and a
sequence (Fractions, floats or ints) entry by entry, both as exact
(numerator, denominator) pairs, and D(P||Q) sums one term per symbol,
in symbol order.  When P is a distribution, its p_i
share one denominator, so the q side of each measure is worked out once
per distinct q_i: per key of a q distribution (a dyadic one's keys, any
other's distinct weights), or per object of a q sequence, which a
decoder shares per distinct value.  A decoder's q_i
carry powers of two (a tree's 1/2^d, refine's 2^b/S, the sparse floats'
m/2^e), and those factors are shifts, not products.  The max ratio
compares one candidate per distinct q_i.
"""

from __future__ import annotations

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from collections import Counter
from collections.abc import Sequence
from array import array
from functools import reduce
from itertools import repeat
from operator import add, mul, truediv


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
    _trusted(*values) is the one unchecked constructor, and _cache fills a
    slot that a property computes on first use.  `_compared` names
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

    def _cache(self, name: str, value):
        """Store value in the cache slot `name`, and return it."""
        object.__setattr__(self, name, value)
        return value

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

    A decoded distribution is dyadic: symbol i has weight 2^(top - k_i)
    over S = sum_j 2^(top - k_j), for small int keys k_i (a tree's leaf
    depths, refine's d_i - m_i) and top the largest key, whose weight 1
    keeps the weights in lowest terms.  It holds its keys and one int per
    distinct key, and builds `weights` and `entries` from them on first
    use, one int and one Fraction per distinct key.

    `floats` holds each p_i as a float, 8 bytes per symbol, made on first
    use and shared by entropy and relative_entropy.
    """

    __slots__ = ("_weights", "total", "_entries", "_keys", "_weight", "_floats")

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
        super().__init__(tuple(weights), den, entries, None, None, None)

    @classmethod
    def _exact(cls, weights: Sequence[int], total: int) -> "ProbabilityDistribution":
        """Trusted: non-negative int weights and their exact positive sum."""
        g = math.gcd(*weights)
        if g > 1:
            weights = [w // g for w in weights]
            total //= g
        return cls._trusted(tuple(weights), total, None, None, None, None)

    @classmethod
    def _dyadic(cls, keys: Sequence[int]) -> "ProbabilityDistribution":
        """Trusted: the dyadic distribution of int keys, held as given."""
        counts = Counter(keys)
        top = max(counts)
        weight = {key: 1 << (top - key) for key in counts}
        total = sum(map(mul, counts.values(), weight.values()))
        return cls._trusted(None, total, None, keys, weight, None)

    def _keyed(self) -> tuple[Sequence, dict]:
        """(keys, weight): symbol i has weight[keys[i]] over total.  Keys
        are a dyadic distribution's own, or else the weights themselves."""
        if self._keys is None:
            weights = self.weights
            return weights, {w: w for w in set(weights)}
        return self._keys, self._weight

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

        Weights that are all of type int are their own numerators over
        L = 1, so they go straight to their minimum, gcd and sum, with no
        ratio pairs and no lists of numerators and denominators.
        """
        # read twice: for the ratios and for their types
        weights = list(weights)
        types = set(map(type, weights))
        if types == {int}:
            low = min(weights)
            if low < 0:
                raise DistributionError("negative weight")
            g = math.gcd(low, *weights)
            if not g:
                raise DistributionError("all weights are zero")
            if g > 1:
                weights = [w // g for w in weights]
            return cls._trusted(tuple(weights), sum(weights), None, None, None,
                                None)
        try:
            ratios = [w.as_integer_ratio() for w in weights]
        except AttributeError:
            raise DistributionError("weights must be int, float, Fraction, "
                                    "Decimal or have as_integer_ratio()") from None
        if not ratios:
            raise DistributionError("no weights given")
        if not _LOWEST_TERMS.issuperset(types):
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
        return cls._trusted(tuple(ints), sum(ints), None, None, None, None)

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
    def weights(self) -> tuple[int, ...]:
        """The integer weights, built from the keys on first use."""
        if self._weights is None:
            return self._cache(
                "_weights", tuple(map(self._weight.__getitem__, self._keys)))
        return self._weights

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The probabilities as Fractions, built on first use, one per key."""
        if self._entries is None:
            keys, weight = self._keyed()
            total = self.total
            # where S = 2^s, as for every tree, each dyadic weight divides
            # it: a unit fraction takes no gcd of big powers of two
            unit = self._keys is not None and not total & (total - 1)
            entry = {key: Fraction(1, total >> (w.bit_length() - 1)) if unit
                     else Fraction(w, total) for key, w in weight.items()}
            return self._cache("_entries", tuple(map(entry.__getitem__, keys)))
        return self._entries

    @property
    def floats(self) -> array:
        """Each p_i as the correctly rounded float w_i / total, one 8-byte
        item per symbol in an array('d'), made on first use: one int true
        division per key of a dyadic distribution, per symbol of any other."""
        if self._floats is None:
            total = self.total
            if self._keys is None:
                view = array("d", map(truediv, self._weights, repeat(total)))
            else:
                p = {key: w / total for key, w in self._weight.items()}
                view = array("d", map(p.__getitem__, self._keys))
            return self._cache("_floats", view)
        return self._floats

    def _p_floats(self):
        """Each p_i as a float, in order, for the measures: `floats` where
        the total is 2^53 or more, so that every w_i / total is a big-int
        division; below that, None for each, as one float division made
        where the measure reads w_i is cheaper than making and reading
        the array."""
        return self.floats if self.total >> 53 else repeat(None)

    def _symbol_weights(self):
        """Each symbol's int weight in order; a dyadic distribution's are
        read through its keys, so its `weights` tuple is not built."""
        if self._keys is None:
            return self._weights
        return map(self._weight.__getitem__, self._keys)

    @property
    def n(self) -> int:
        return len(self)

    def __len__(self) -> int:
        return len(self._weights if self._keys is None else self._keys)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def strictly_positive(self) -> bool:
        return self._keys is not None or 0 not in self.weights


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
    so the measures never build its Fraction entries, nor a dyadic one's
    weights; a float entry is taken at its exact binary value.
    """
    if isinstance(dist, ProbabilityDistribution):
        return zip(dist._symbol_weights(), repeat(dist.total))
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


def _entropy_sum(ratios) -> float:
    """0.0 - t_1 - t_2 - ..., in order, with t_i = p_i log2(p_i) for each
    (num, den, den.bit_length(), pf), p_i = num/den and pf its correctly
    rounded float, or None to divide here; a p_i too small for a float
    has a term that underflows.  Above 2^-1022, correct rounding commutes
    with exact scaling by 2^-shift, so for |shift| > 1 ldexp(pf, -shift)
    is bit for bit the quotient _log2_ratio(num, den) divides."""
    total = 0.0
    for num, den, den_bits, pf in ratios:
        if num:
            if pf is None:
                pf = num / den
            shift = num.bit_length() - den_bits
            if (shift > 1 or shift < -1) and pf > 2.0 ** -1022:
                total -= pf * (shift + math.log2(math.ldexp(pf, -shift)))
            elif pf:
                total -= pf * _log2_ratio(num, den)
    return total


def entropy(dist: DistributionLike) -> float:
    """H(P) = sum p_i log2(1/p_i) in bits, with 0 log 0 = 0, summed in
    symbol order.

    A distribution's p_i come from _p_floats: from its `floats`, 8 bytes
    per symbol made on first use and shared with relative_entropy, where
    each is a big-int division, so that H and D divide by the total once
    per symbol between them.  A dyadic distribution takes one division
    and one term per key, and builds neither its floats nor its weights.
    """
    if not isinstance(dist, ProbabilityDistribution):
        return _entropy_sum((num, den, den.bit_length(), None)
                            for num, den in _ratios(dist))
    den = dist.total
    bits = den.bit_length()
    if dist._keys is None:
        return _entropy_sum(zip(dist._weights, repeat(den), repeat(bits),
                                dist._p_floats()))
    # 0.0 - t_k per key, added in symbol order: the sum never reaches -0.0,
    # so s + (0.0 - t) is s - t, bit for bit.  sum() is not used, as it
    # compensates float sums from Python 3.12 on
    term = {key: _entropy_sum(((w, den, bits, None),))
            for key, w in dist._weight.items()}
    return reduce(add, map(term.__getitem__, dist._keys), 0.0)


# the most distinct q_i whose work a measure holds at once: a decoder's q_i
# take far fewer values, and a Q of n distinct values is not held whole
_HELD = 4096


def _divergence_side(q, qn: int, qd: int, pd: int, pd_bits: int) -> tuple:
    """What a D(P||Q) term w/pd * _log2_ratio(w * qd, pd * qn) needs of
    q_i = qn/qd, made once per distinct q_i.

    A power of two is an exponent, not a factor: the operands are
    num << a and den << b, with num = w * mul, or w when qd is 2^a, and
    den = pd * qn, or pd when qn is 2^b.  mul is qd, or 0 when qd is 2^a,
    or None when qn is 2^b as well, so that num/den is p_i itself.  The
    side is (mul, a - b, den, den.bit_length(), den << (b - a) if b > a
    else den, q), q kept only to hold the object; a zero qn gives
    (0, None, 0, 0, 0, q).
    """
    if not qn:
        return 0, None, 0, 0, 0, q
    mul, shift = (qd, 0) if qd & (qd - 1) else (None, qd.bit_length() - 1)
    if qn & (qn - 1):
        den = pd * qn
        return mul or 0, shift, den, den.bit_length(), den, q
    shift -= qn.bit_length() - 1
    return mul, shift, pd, pd_bits, pd << -shift if shift < 0 else pd, q


def _sequence_sides(q_values, pd: int, pd_bits: int):
    """The side of each q_i, made once per distinct object, as a decoder
    shares one per distinct value; after _HELD objects the sides kept so
    far are dropped.  Each side holds its object, so that no id is
    reused while it is kept."""
    sides = {}
    last = object()
    side = None
    for q in q_values:
        if q is not last:
            last = q
            side = sides.get(id(q))
            if side is None:
                if len(sides) == _HELD:
                    sides.clear()
                qn, qd = q.as_integer_ratio()
                side = sides[id(q)] = _divergence_side(q, qn, qd, pd, pd_bits)
        yield side


def _distribution_sides(q_dist: ProbabilityDistribution, pd: int, pd_bits: int):
    """The side of each q_i, made once per key of q_dist, or once per
    symbol when q_dist has more than _HELD keys."""
    keys, weight = q_dist._keyed()
    qd = q_dist.total
    if len(weight) > _HELD:
        return (_divergence_side(None, weight[key], qd, pd, pd_bits)
                for key in keys)
    side = {key: _divergence_side(None, u, qd, pd, pd_bits)
            for key, u in weight.items()}
    return map(side.__getitem__, keys)


def relative_entropy(p_dist: DistributionLike, q_dist: DistributionLike) -> float:
    """D(P||Q) = sum p_i log2(p_i/q_i) in bits, with 0 log 0 = 0.

    Each term is p_i * _log2_ratio(pn * qd, pd * qn), summed in symbol
    order.  When P is a distribution, pd is its total, so a term's q side
    (pd * qn, its bit length, whether qd or qn is a power of two) is made
    once per distinct q_i: per key of a q distribution, per object of a
    q sequence, keeping at most _HELD at once.  A power of two is a
    shift, and _log2_ratio's quotient is taken between the operands
    without it, scaled to one bit length: the same rational, so the same
    rounded float.  p_i comes from _p_floats, as in entropy: from P's
    `floats`, 8 bytes per symbol made on first use and shared with
    entropy, where it is a big-int division.  Where q_i is 2^b/2^a, as
    for every tree value, the quotient away from 1 is p_i scaled by a
    power of two, so above 2^-1022 it is ldexp of p_i's float, as in
    entropy, and such a term takes no division at all.

    Raises InfiniteDivergenceError when some q_i = 0 has p_i > 0.
    """
    _same_length(p_dist, q_dist)
    total = 0.0
    if not isinstance(p_dist, ProbabilityDistribution):
        for (pn, pd), (qn, qd) in zip(_ratios(p_dist), _ratios(q_dist)):
            if not pn:
                continue
            if not qn:
                raise InfiniteDivergenceError("q_i = 0 with p_i > 0")
            pf = pn / pd
            if pf:
                total += pf * _log2_ratio(pn * qd, pd * qn)
        return total
    pd = p_dist.total
    pd_bits = pd.bit_length()
    sides = (_distribution_sides(q_dist, pd, pd_bits)
             if isinstance(q_dist, ProbabilityDistribution)
             else _sequence_sides(q_dist, pd, pd_bits))
    for w, pf, (mul, shift, den, den_bits, low, _) in zip(
            p_dist._symbol_weights(), p_dist._p_floats(), sides):
        if not w:
            continue
        if shift is None:
            raise InfiniteDivergenceError("q_i = 0 with p_i > 0")
        if pf is None:
            pf = w / pd
        if not pf:
            continue
        num = w * mul if mul else w
        # _log2_ratio(num << a, den << b): the exponent picks the branch
        s = num.bit_length() - den_bits
        exponent = s + shift
        if exponent > 1 or exponent < -1:
            if mul is None and pf > 2.0 ** -1022:
                ratio = math.ldexp(pf, -s)
            else:
                ratio = num / (den << s) if s >= 0 else (num << -s) / den
            total += pf * (exponent + math.log2(ratio))
        else:
            num = num << shift if shift > 0 else num
            total += pf * (math.log1p((num - low) / low) / _LN2)
    return total


def _object_maxima(weights, q_values, types: set):
    """[largest w over q, qn, qd] per distinct object q of q_values, each
    converted once, and each object's type added to `types`.  After
    _HELD objects the entries so far are yielded and dropped, and the
    objects with them, so a q seen again makes a second entry."""
    most, held = {}, []
    last = object()
    entry = None
    for w, q in zip(weights, q_values):
        if q is not last:
            last = q
            entry = most.get(id(q))
            if entry is None:
                if len(most) == _HELD:
                    yield from most.values()
                    most.clear()
                    held.clear()
                held.append(q)  # no id is reused while its entry is kept
                types.add(type(q))
                qn, qd = q.as_integer_ratio()
                entry = most[id(q)] = [w, qn, qd]
        if w > entry[0]:
            entry[0] = w
    yield from most.values()


def _typed_ratios(dist, types: set):
    """_ratios(dist), noting each sequence entry's type in `types`."""
    if isinstance(dist, ProbabilityDistribution):
        return _ratios(dist)
    # set.add returns None, so each item is the entry's ratio
    return (types.add(type(x)) or x.as_integer_ratio() for x in dist)


def max_ratio(p_dist: DistributionLike, q_dist: DistributionLike):
    """max over {i : p_i > 0} of p_i/q_i.

    Exact (a Fraction) when both sides are rational; a float when either
    side carries floats, even under p_i = 0.  Raises
    InfiniteDivergenceError when some q_i = 0 has p_i > 0.

    Each candidate is w * qd / qn.  When P is a distribution, w is the
    largest weight over one distinct q value, converted once: per key of
    a q distribution, per object of a q sequence.  A power-of-two qd
    or qn is kept as an exponent, so the comparisons shift it.
    """
    _same_length(p_dist, q_dist)
    types = set()
    # the total a distribution's p_i share stays out of the candidates
    shared = 1
    if not isinstance(p_dist, ProbabilityDistribution):
        tops = ((pn, pd * qn, qd) for (pn, pd), (qn, qd)
                in zip(_typed_ratios(p_dist, types), _typed_ratios(q_dist, types)))
    elif isinstance(q_dist, ProbabilityDistribution):
        shared = p_dist.total
        keys, weight = q_dist._keyed()
        most = {}
        for w, key in zip(p_dist._symbol_weights(), keys):
            if w > most.get(key, 0):
                most[key] = w
        tops = ((w, weight[key], q_dist.total) for key, w in most.items())
    else:
        shared = p_dist.total
        tops = _object_maxima(p_dist._symbol_weights(), q_dist, types)
    best = None
    for w, qn, qd in tops:
        if not w:
            continue
        if not qn:
            raise InfiniteDivergenceError("q_i = 0 with p_i > 0")
        # w * qd / qn as num * 2^e / den
        num, e = (w * qd, 0) if qd & (qd - 1) else (w, qd.bit_length() - 1)
        den = qn
        if not qn & (qn - 1):
            den, e = 1, e - qn.bit_length() + 1
        if best is not None:
            best_num, best_den, best_e = best
            left = num * best_den if best_den != 1 else num
            right = best_num * den if den != 1 else best_num
            if not (left << (e - best_e) > right if e >= best_e
                    else left > right << (best_e - e)):
                continue
        best = num, den, e
    if best is None:
        raise DistributionError("no positive entries")
    num, den, e = best
    den *= shared
    best = Fraction(num << e, den) if e >= 0 else Fraction(num, den << -e)
    return float(best) if any(issubclass(t, float) for t in types) else best


def ceil_log2_ratio(a: int, b: int) -> int:
    """ceil(log2(a/b)) for positive integers, exactly."""
    if a <= 0 or b <= 0:
        raise ValueError("ratio must be positive")
    e = a.bit_length() - b.bit_length() - 1
    # 2^e <= a/b is now guaranteed; raise e until 2^e >= a/b
    while (b << max(e, 0)) < (a << max(-e, 0)):
        e += 1
    return e
