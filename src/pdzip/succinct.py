"""Navigable tree index in 2n + o(n) bits.

The code tree is stored as its preorder leaf-flag sequence (1 internal,
0 leaf; 2n-1 symbols).  Reading the sequence as +1/-1 steps gives the
running excess E(j), and every structural question becomes an excess
search: the subtree rooted at position v ends at the first j >= v where
E(j) drops back below the excess at v's entry.

Searches run over three levels: a 16-bit-word lookup table giving each
word's excess delta and prefix min/max, per-block summaries (block size
about log^2 of the sequence length), and a linear scan of the block
directory.  Each navigation step costs O(log^2 n) bit inspections in the
worst case while the auxiliary directories stay within o(n) bits.

The aux-bit accounting in aux_bits() reports the packed widths the
directories need (per-block values are bounded by the block size, so
their fields are narrow; absolute counters appear once per superblock).
The runtime representation trades that compactness for plain integer
lists, which is a caching choice, not a change to what must be stored.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bits import Bits
from .core import DistributionError, ProbabilityDistribution, ceil_log2_ratio
from .treebuild import ZeroProbabilityError, capped_tree, code_tree
from .treecode import (MalformedPayloadError, StrictTreeShape, TreePayload,
                       encode_tree)


class NavigationError(ValueError):
    """An operation was asked of a node that cannot answer it."""


# per-byte excess walk: (delta, prefix min, prefix max)
def _byte_stats() -> tuple[tuple[int, int, int], ...]:
    out = []
    for byte in range(256):
        e = 0
        mn = 17
        mx = -17
        for i in range(8):
            e += 1 if (byte >> (7 - i)) & 1 else -1
            mn = min(mn, e)
            mx = max(mx, e)
        out.append((e, mn, mx))
    return tuple(out)


_BYTE = _byte_stats()
_WORD_DELTA: list[int] = []
_WORD_MIN: list[int] = []
_WORD_MAX: list[int] = []


def _ensure_word_tables() -> None:
    if _WORD_DELTA:
        return
    delta = [0] * 65536
    wmin = [0] * 65536
    wmax = [0] * 65536
    for w in range(65536):
        dh, mnh, mxh = _BYTE[w >> 8]
        dl, mnl, mxl = _BYTE[w & 0xFF]
        delta[w] = dh + dl
        wmin[w] = min(mnh, dh + mnl)
        wmax[w] = max(mxh, dh + mxl)
    _WORD_DELTA.extend(delta)
    _WORD_MIN.extend(wmin)
    _WORD_MAX.extend(wmax)


def _ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil(log2) of a value below 1")
    return (x - 1).bit_length()


class SuccinctTreeIndex:
    """Immutable navigation index over a strict binary tree.

    Node handles are preorder positions 0..2n-2; leaves are numbered
    1..n in left-to-right (= preorder) order.
    """

    __slots__ = ("_n", "_m", "_B", "_G", "_nw", "_nb", "_words",
                 "_last_stats", "_blk_entry", "_blk_min", "_blk_max",
                 "_ones_before")

    def __init__(self, shape_bits: Bits, n: int):
        # shape_bits carries all 2n-1 preorder leaf flags
        if len(shape_bits) != 2 * n - 1:
            raise MalformedPayloadError("shape must hold 2n-1 node flags")
        _ensure_word_tables()
        self._n = n
        m = 2 * n - 1
        self._m = m
        lg = math.log2(2 * n)
        raw = max(16, math.ceil(lg * lg))
        self._B = -(-raw // 16) * 16
        self._G = max(1, math.ceil(lg))
        nw = (m + 15) // 16
        self._nw = nw
        pad = 16 * nw - m
        packed = shape_bits.as_int() << pad
        data = packed.to_bytes(2 * nw, "big")
        self._words = [int.from_bytes(data[2 * k:2 * k + 2], "big")
                       for k in range(nw)]
        # the final word may cover fewer than 16 real symbols; its stats
        # must ignore the zero padding
        tail = m - 16 * (nw - 1)
        if tail == 16:
            w = self._words[-1]
            self._last_stats = (_WORD_DELTA[w], _WORD_MIN[w], _WORD_MAX[w])
        else:
            e = 0
            mn = tail + 1
            mx = -(tail + 1)
            w = self._words[-1]
            for i in range(tail):
                e += 1 if (w >> (15 - i)) & 1 else -1
                mn = min(mn, e)
                mx = max(mx, e)
            self._last_stats = (e, mn, mx)
        self._build_blocks()
        # preorder flags of a strict tree first reach excess -1 at their
        # last position; the block directory answers that in one search
        if (self._blk_entry[self._nb] != -1
                or self._fwdsearch(0, -1, entry_excess=0) != m - 1):
            raise MalformedPayloadError(
                "shape bits do not describe a strict tree")

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_tree_shape(cls, shape: StrictTreeShape) -> "SuccinctTreeIndex":
        return cls.from_payload(encode_tree(shape))

    @classmethod
    def from_payload(cls, payload: TreePayload) -> "SuccinctTreeIndex":
        """Index stored tree bits; MalformedPayloadError if they are no tree."""
        full = Bits.from_int(payload.bits.as_int() << 1, 2 * payload.n - 1)
        return cls(full, payload.n)

    # ------------------------------------------------------------------
    # internal machinery

    def _build_blocks(self) -> None:
        m, B, nw = self._m, self._B, self._nw
        nb = (m + B - 1) // B
        self._nb = nb
        words = self._words
        wpb = B // 16
        entry = [0] * (nb + 1)
        bmin = [0] * nb
        bmax = [0] * nb
        ones_before = [0] * (nb + 1)
        cur = 0
        ones = 0
        for b in range(nb):
            entry[b] = cur
            ones_before[b] = ones
            mn = m + 2
            mx = -(m + 2)
            for w in range(b * wpb, min((b + 1) * wpb, nw)):
                d, wmn, wmx = self._word_stats(w)
                mn = min(mn, cur + wmn)
                mx = max(mx, cur + wmx)
                cur += d
                ones += words[w].bit_count()
            bmin[b] = mn
            bmax[b] = mx
        entry[nb] = cur
        ones_before[nb] = ones
        self._blk_entry = entry
        self._blk_min = bmin
        self._blk_max = bmax
        self._ones_before = ones_before

    def _word_stats(self, w: int) -> tuple[int, int, int]:
        if w == self._nw - 1:
            return self._last_stats
        word = self._words[w]
        return _WORD_DELTA[word], _WORD_MIN[word], _WORD_MAX[word]

    def _bit(self, j: int) -> int:
        return (self._words[j >> 4] >> (15 - (j & 15))) & 1

    def _rank1(self, k: int) -> int:
        """Number of 1 flags among positions [0, k)."""
        B = self._B
        b = k // B
        if b >= self._nb:
            return self._ones_before[self._nb]
        ones = self._ones_before[b]
        words = self._words
        w = (b * B) >> 4
        stop = k >> 4
        while w < stop:
            ones += words[w].bit_count()
            w += 1
        rem = k & 15
        if rem:
            ones += (words[w] >> (16 - rem)).bit_count()
        return ones

    def _excess(self, pos: int) -> int:
        """E(pos) = (+1 per internal, -1 per leaf) over positions 0..pos."""
        if pos < 0:
            return 0
        return 2 * self._rank1(pos + 1) - (pos + 1)

    def _bitwise_fwd(self, j: int, stop: int, cur: int, target: int) -> int:
        words = self._words
        while j < stop:
            cur += 1 if (words[j >> 4] >> (15 - (j & 15))) & 1 else -1
            if cur == target:
                return j
            j += 1
        return -1

    def _fwdsearch(self, start: int, target: int, entry_excess=None) -> int:
        """Smallest j >= start with E(j) == target."""
        m, B = self._m, self._B
        if start >= m:
            raise NavigationError("excess search beyond the sequence")
        cur = self._excess(start - 1) if entry_excess is None else entry_excess
        wend = min((start >> 4) * 16 + 16, m)
        hit = self._bitwise_fwd(start, wend, cur, target)
        if hit >= 0:
            return hit
        cur += self._delta_range(start, wend)
        j = wend
        # whole words to the end of the current block
        blk = start // B
        bend = min((blk + 1) * B, m)
        while j < bend:
            d, mn, mx = self._word_stats(j >> 4)
            if cur + mn <= target <= cur + mx:
                return self._bitwise_fwd(j, min(j + 16, m), cur, target)
            cur += d
            j += 16
        # block directory
        for b in range(blk + 1, self._nb):
            if self._blk_min[b] <= target <= self._blk_max[b]:
                cur = self._blk_entry[b]
                j = b * B
                stop = min((b + 1) * B, m)
                while j < stop:
                    d, mn, mx = self._word_stats(j >> 4)
                    if cur + mn <= target <= cur + mx:
                        return self._bitwise_fwd(j, min(j + 16, m), cur, target)
                    cur += d
                    j += 16
        raise NavigationError("no position with the requested excess")

    def _delta_range(self, a: int, b: int) -> int:
        """Excess change contributed by positions [a, b), same word only."""
        d = 0
        words = self._words
        while a < b:
            d += 1 if (words[a >> 4] >> (15 - (a & 15))) & 1 else -1
            a += 1
        return d

    def _bwdsearch(self, start: int, target: int) -> int:
        """Largest j <= start with E(j) == target; -1 when E(-1) = 0 is it."""
        B = self._B
        words = self._words
        cur = self._excess(start)
        j = start
        wstart = (j >> 4) * 16
        while j >= wstart:
            if cur == target:
                return j
            cur -= 1 if (words[j >> 4] >> (15 - (j & 15))) & 1 else -1
            j -= 1
        # j sits on a word boundary minus one; skip words and blocks
        while j >= 0:
            bb = j // B
            if j == (bb + 1) * B - 1 and not (
                    self._blk_min[bb] <= target <= self._blk_max[bb]):
                j = bb * B - 1
                cur = self._blk_entry[bb]
                continue
            w = j >> 4
            d, mn, mx = self._word_stats(w)
            base = cur - d
            if base + mn <= target <= base + mx:
                a = w << 4
                while j >= a:
                    if cur == target:
                        return j
                    cur -= 1 if (words[w] >> (15 - (j & 15))) & 1 else -1
                    j -= 1
                raise AssertionError("word summary promised a hit")
            cur = base
            j = (w << 4) - 1
        if target == 0:
            return -1
        raise NavigationError("no position with the requested excess")

    def _check_handle(self, v: int) -> None:
        if not 0 <= v < self._m:
            raise NavigationError(f"node handle {v} out of range")

    # ------------------------------------------------------------------
    # navigation

    @property
    def n(self) -> int:
        return self._n

    @property
    def node_count(self) -> int:
        return self._m

    def shape_bit(self, v: int) -> int:
        self._check_handle(v)
        return self._bit(v)

    def is_leaf(self, v: int) -> bool:
        self._check_handle(v)
        return self._bit(v) == 0

    def left_child(self, v: int) -> int:
        self._check_handle(v)
        if self._bit(v) == 0:
            raise NavigationError("a leaf has no children")
        return v + 1

    def right_child(self, v: int) -> int:
        self._check_handle(v)
        if self._bit(v) == 0:
            raise NavigationError("a leaf has no children")
        ev = self._excess(v)
        # the left child's subtree ends where excess returns to E(v) - 1
        end_left = self._fwdsearch(v + 1, ev - 1, entry_excess=ev)
        return end_left + 1

    def parent(self, v: int) -> int:
        self._check_handle(v)
        if v == 0:
            raise NavigationError("the root has no parent")
        if self._bit(v - 1) == 1:
            return v - 1
        # v is a right child: its entry excess equals the excess just
        # before its parent, and no position in between repeats it
        target = self._excess(v - 1)
        return self._bwdsearch(v - 2, target) + 1

    def num_descendants(self, v: int) -> int:
        """Size of v's subtree in nodes, v included."""
        self._check_handle(v)
        if self._bit(v) == 0:
            return 1
        entry = self._excess(v - 1)
        end = self._fwdsearch(v, entry - 1, entry_excess=entry)
        return end - v + 1

    # ------------------------------------------------------------------
    # leaf queries

    def leaf_descent(self, i: int) -> tuple[int, int]:
        """(preorder position of leaf i, number of descent steps).

        The step counter is incremented once per edge walked, so it is
        the leaf's depth by construction of the walk, not by formula.
        """
        if not 1 <= i <= self._n:
            raise NavigationError(f"leaf index {i} out of range")
        v = 0
        eb = 0  # excess before v
        steps = 0
        while self._bit(v):
            lc = v + 1
            if self._bit(lc) == 0:
                end_left = lc
            else:
                end_left = self._fwdsearch(lc, eb, entry_excess=eb + 1)
            leaves_left = (end_left - v + 1) // 2
            if i <= leaves_left:
                v = lc
                eb += 1
            else:
                i -= leaves_left
                v = end_left + 1
            steps += 1
        return v, steps

    def leaf_depth(self, i: int) -> int:
        _, steps = self.leaf_descent(i)
        return steps

    def query_prob(self, i: int) -> Fraction:
        """q_i = 2^{-depth of leaf i}, found in depth-many steps."""
        return Fraction(1, 1 << self.leaf_depth(i))

    # ------------------------------------------------------------------
    # space accounting

    def aux_bits(self) -> int:
        """Bits the directories need in packed form.

        Per block: prefix-excess min and max relative to the block entry
        (each in [-B, B]) and the block's ones count (in [0, B]).  Per
        superblock of G blocks: one absolute ones counter, from which
        every block's absolute entry excess and rank follow.
        """
        nb = self._nb
        nsb = (nb + self._G - 1) // self._G
        per_block = 2 * _ceil_log2(2 * self._B + 1) + _ceil_log2(self._B + 1)
        per_super = _ceil_log2(self._m + 1)
        return nb * per_block + nsb * per_super

    def total_bits(self) -> int:
        """Shape bits plus directory bits."""
        return self._m + self.aux_bits()


def build_index(dist: ProbabilityDistribution) -> SuccinctTreeIndex:
    """Index over the code tree of a strictly positive distribution.

    The implied dyadic Q keeps every ratio p_i/q_i below 4, so a query
    for q_i takes O(log(1/q_i)) descent steps.
    """
    if not dist.strictly_positive():
        raise ZeroProbabilityError(
            "distribution has zero entries; use build_smoothed")
    return SuccinctTreeIndex.from_tree_shape(code_tree(dist))


def smooth(dist: ProbabilityDistribution, eps: Fraction) -> ProbabilityDistribution:
    """Mix with the uniform distribution at weight eps/4, exactly.

    p_i' = p_i/(1 + eps/4) + (eps/4)/((1 + eps/4) n); every output entry
    is at least (eps/4)/((1 + eps/4) n) > 0, and the sum stays exactly 1.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    lam = eps / 4
    n = dist.n
    floor_term = lam / ((1 + lam) * n)
    return ProbabilityDistribution(
        tuple(p / (1 + lam) + floor_term for p in dist.entries))


def build_smoothed(dist: ProbabilityDistribution,
                   eps: Fraction) -> SuccinctTreeIndex:
    """Smooth, then index; tolerates zeros in the input.

    Against the original P the implied Q keeps every ratio p_i/q_i below
    4 + eps, so D(P || Q) < 2 + eps, and q_i > eps/((16 + 4 eps) n) even
    where p_i = 0: the code tree of smooth(P, eps) guarantees both.  It
    also keeps q_i > eps/(4n) whenever some strict tree with its leaves in
    symbol order meets that floor together with p_i/(4 + eps).  Where the
    code tree misses eps/(4n), each leaf i is instead capped at the
    deepest d with 2^d * max(p_i/(4 + eps), eps/(4n)) < 1 and the tree is
    built by capped_tree, which finds such a tree whenever one exists.
    Where none exists (for example always when eps >= 4, since the floors
    would sum past 1) the code tree stays.
    """
    eps = Fraction(eps)
    n = dist.n
    tree = code_tree(smooth(dist, eps))
    limit = 4 * n * eps.denominator
    if any(eps.numerator << d >= limit for d in tree.leaf_depths):
        uniform = eps / (4 * n)
        caps = []
        for p in dist.entries:
            f = max(p / (4 + eps), uniform)
            caps.append(ceil_log2_ratio(f.denominator, f.numerator) - 1)
        capped = capped_tree(caps)
        if capped is not None:
            tree = capped
    return SuccinctTreeIndex.from_tree_shape(tree)
