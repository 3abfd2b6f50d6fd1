"""Navigable tree index in 2n + o(n) bits.

The code tree is stored as its preorder leaf-flag sequence (1 internal,
0 leaf; 2n-1 symbols).  Reading the sequence as +1/-1 steps gives the
running excess E(j), and every structural question becomes an excess
search: the subtree rooted at position v ends at the first j >= v where
E(j) drops back below the excess at v's entry.

Every search the index makes is such a first drop: it asks for the
nearest position, forward or backward from a start, whose excess is one
below the excess at the start.  The excess moves by one per position, so
that is also the nearest position where the excess reaches the target or
less, and a stretch of the sequence holds the answer exactly when its
minimum reaches the target.  The directories therefore keep minima only;
the maxima of a range min-max tree would never be read.

Searches run over three levels:

* inside a 16-bit word, tables of each word's excess delta and prefix
  minimum say whether the word holds the answer, and a per-byte table of
  the first offset where the excess has fallen by d finds it.  The word
  tables are 64 KiB `bytes` holding the values with a bias, 16 + delta
  and 1 - minimum (the backward minimum too, so a backward scan reverses
  only the word that holds its answer).  A scan tracks `need`, its
  distance above the target: a word holds the answer when its biased
  minimum exceeds `need`, and otherwise moves `need` by its delta;
* per block of B symbols (B about log^2 of the sequence length, a
  multiple of 16), the block's entry excess and minimum;
* a range-min tree of arity 8 over the block minima (Navarro and
  Sadakane, "Fully Functional Static and Dynamic Succinct Trees", ACM
  TALG 2014, without the maxima): a search climbs from its start block to
  the first node beside its path whose minimum reaches the target and goes
  back down, reading O(log n) nodes.

A search thus reads the words of at most two blocks and O(log n) tree
nodes.  The final word is padded with 1 bits: they only raise the excess
after the last real position, so they never make a first drop and the
final word needs no special case.

A leaf query walks up, not down.  Leaf i is the i-th 0, found from the
per-block ones counts; the excess just before it, the number of left
turns on its path, follows from its position and i.  Going back from a
node, its parent is the first flag where the 1s read catch up with the
0s, and a 256-entry table climbs every such edge that ends within the 8
flags before the node.  Only a right child whose left sibling's subtree
has 9 or more nodes needs an excess search, one backward search to its
parent.  A top-down descent would search forward at every node on the
path whose left child is internal, a superset of these, so the upward
walk never searches more often, and not at all on a comb.

The aux-bit accounting in aux_bits() reports the packed widths the
directories need (per-block and per-node values are bounded by the span
they cover, so their fields are narrow; absolute counters appear once per
superblock).  The runtime representation trades that compactness for
plain integer lists, which is a caching choice, not a change to what must
be stored.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from fractions import Fraction

from .core import ProbabilityDistribution, ceil_log2_ratio
from .treebuild import capped_tree, code_tree
from .treecode import MalformedPayloadError, StrictTreeShape, TreePayload


class NavigationError(ValueError):
    """An operation was asked of a node that cannot answer it."""


_ARITY = 8  # children per range-min tree node


def _byte_walk(byte: int) -> list[int]:
    """Excess after each of the byte's 8 steps, most significant bit first."""
    walk = []
    e = 0
    for i in range(7, -1, -1):
        e += 1 if (byte >> i) & 1 else -1
        walk.append(e)
    return walk


_WALKS = [_byte_walk(byte) for byte in range(256)]
_BYTE_DELTA = [walk[7] for walk in _WALKS]
_BYTE_MIN = [min(walk) for walk in _WALKS]
# _FIRST_DROP[need << 8 | byte]: offset of the first step after which the
# byte's excess is -need, or 8 if there is none (need up to 16, a word's)
_FIRST_DROP = bytes(walk.index(-need) if -need in walk else 8
                    for need in range(17) for walk in _WALKS)
# a byte's bits reversed and complemented: walking it forward retraces the
# original byte's excess backward
_BYTE_BACK = bytes(int(format(byte ^ 0xFF, "08b")[::-1], 2) for byte in range(256))
del _WALKS


def _word_tables() -> tuple[bytes, bytes, bytes]:
    """(_RISE, _DROP, _BACK_DROP), each indexed by a 16-bit word.

    _RISE[word] is 16 + the word's excess delta (0..32), _DROP[word] is
    1 - its minimum excess (0..17), and _BACK_DROP[word] is _DROP of its
    reversed complement, the word walked backward.  The word hi << 8 | lo
    has delta dh + dl and minimum min(mh, dh + ml), so every row of the
    words with one high byte is the low bytes' biased values translated
    through a table that depends on (dh, mh) alone.  The reversed
    complement of hi << 8 | lo is _BYTE_BACK[lo] << 8 | _BYTE_BACK[hi]:
    with the rows of _DROP put in _BYTE_BACK order, row hi of _BACK_DROP
    is column _BYTE_BACK[hi] of that matrix.
    """
    # per-byte values, biased into 0..16 and 0..9, and for each (dh, mh)
    # the table that turns them into the word's, padded to 256 entries
    rise_lo = bytes(8 + d for d in _BYTE_DELTA)
    drop_lo = bytes(1 - m for m in _BYTE_MIN)
    rise_row = {dh: rise_lo.translate(bytes(range(8 + dh, 25 + dh)) + bytes(239))
                for dh in set(_BYTE_DELTA)}
    pairs = list(zip(_BYTE_DELTA, _BYTE_MIN))
    drop_row = {(dh, mh): drop_lo.translate(
                    bytes(max(1 - mh, v - dh) for v in range(10)) + bytes(246))
                for dh, mh in set(pairs)}
    rise = b"".join(map(rise_row.__getitem__, _BYTE_DELTA))
    drop = b"".join(map(drop_row.__getitem__, pairs))
    rows = b"".join(drop[b << 8:(b + 1) << 8] for b in _BYTE_BACK)
    return rise, drop, b"".join(rows[b::256] for b in _BYTE_BACK)


_RISE, _DROP, _BACK_DROP = _word_tables()


def _first_drop(word: int, need: int) -> int:
    """Offset of the first step after which the word's excess is -need.

    The caller has checked that _DROP[word] > need.
    """
    hi = word >> 8
    k = _FIRST_DROP[need << 8 | hi]
    if k < 8:
        return k
    return 8 + _FIRST_DROP[(need + _BYTE_DELTA[hi]) << 8 | (word & 0xFF)]


def _climb(window: int) -> tuple[int, int, int]:
    """(steps, left steps, flags consumed) climbing over the 8 flags
    before a node, the flag just before it in the lowest bit.

    Going back from a node, its parent is the first flag where the 1s
    read catch up with the 0s: the flag just before a left child, or the
    flag before a right child's whole left sibling subtree, which holds
    one 0 more than 1s.  The climb stops at a node whose parent is not
    among the 8 flags.
    """
    steps = left = used = 0
    surplus = 0  # 0s less 1s read back from the current node
    for k in range(8):
        surplus += -1 if window >> k & 1 else 1
        if surplus <= 0:
            steps += 1
            left += k == used
            used = k + 1
            surplus = 0
    return steps, left, used


# _CLIMB[window]: _climb(window); 0 flags consumed means the parent is
# more than 8 flags back
_CLIMB = [_climb(window) for window in range(256)]


def _ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil(log2) of a value below 1")
    return (x - 1).bit_length()


class SuccinctTreeIndex:
    """Immutable navigation index over a strict binary tree.

    Node handles are preorder positions 0..2n-2; leaves are numbered
    1..n in left-to-right (= preorder) order.
    """

    __slots__ = ("_n", "_m", "_B", "_G", "_nb", "_words", "_blk_entry",
                 "_blk_zeros", "_levels")

    def __init__(self, flags: int, n: int):
        # all 2n-1 preorder leaf flags, as StrictTreeShape.flags holds them
        if n < 1 or flags < 0 or flags >> (2 * n - 1):
            raise MalformedPayloadError("shape must hold 2n-1 node flags")
        self._n = n
        m = 2 * n - 1
        self._m = m
        lg = math.log2(2 * n)
        raw = max(16, math.ceil(lg * lg))
        B = self._B = -(-raw // 16) * 16
        self._G = max(1, math.ceil(lg))
        nw = (m + 15) // 16
        pad = 16 * nw - m
        packed = (flags << pad) | ((1 << pad) - 1)
        words = self._words = struct.unpack(f">{nw}H",
                                            packed.to_bytes(2 * nw, "big"))
        # per block: entry excess and minimum excess, both absolute
        wpb = B >> 4
        entry = [0]
        bmin = []
        cur = 0
        for first in range(0, nw, wpb):
            low = cur  # one below the lowest excess seen in the block
            for word in words[first:first + wpb]:
                if cur - _DROP[word] < low:
                    low = cur - _DROP[word]
                cur += _RISE[word] - 16
            bmin.append(low + 1)
            entry.append(cur)
        self._nb = len(bmin)
        self._blk_entry = entry
        # leaves before each block, from its entry excess: the per-block
        # ones counts that aux_bits() charges
        self._blk_zeros = [(b * B - entry[b]) >> 1 for b in range(len(bmin))]
        # levels[0] holds the block minima, each further level the minima
        # of _ARITY consecutive nodes below; the root is never read, so
        # the top stored level is the first with at most _ARITY nodes
        levels = [bmin]
        while len(levels[-1]) > _ARITY:
            below = levels[-1]
            levels.append([min(below[i:i + _ARITY])
                           for i in range(0, len(below), _ARITY)])
        self._levels = levels
        # preorder flags of a strict tree first reach excess -1 at their
        # last position
        if self._fwdsearch(0, 0) != m - 1:
            raise MalformedPayloadError(
                "shape bits do not describe a strict tree")

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_tree_shape(cls, shape: StrictTreeShape) -> "SuccinctTreeIndex":
        return cls(shape.flags, shape.n)

    @classmethod
    def from_payload(cls, payload: TreePayload) -> "SuccinctTreeIndex":
        """Index stored tree bits; MalformedPayloadError if they are no tree."""
        return cls(payload.bits.as_int() << 1, payload.n)

    # ------------------------------------------------------------------
    # internal machinery

    def _bit(self, j: int) -> int:
        return (self._words[j >> 4] >> (15 - (j & 15))) & 1

    def _excess(self, pos: int) -> int:
        """E(pos) = (+1 per internal, -1 per leaf) over positions 0..pos."""
        k = pos + 1
        b = k // self._B
        cur = self._blk_entry[b]
        words = self._words
        w = b * (self._B >> 4)
        stop = k >> 4
        while w < stop:
            cur += _RISE[words[w]] - 16
            w += 1
        rem = k & 15
        if rem:
            cur += 2 * (words[w] >> (16 - rem)).bit_count() - rem
        return cur

    def _next_block(self, b: int, target: int) -> int:
        """First block after b whose minimum is at most target, or -1."""
        levels = self._levels
        h = 0
        while True:
            level = levels[h]
            stop = min((b // _ARITY + 1) * _ARITY, len(level))
            b += 1
            while b < stop and level[b] > target:
                b += 1
            if b < stop:
                break
            h += 1
            if h == len(levels):
                return -1
            b = (b - 1) // _ARITY
        while h:
            h -= 1
            level = levels[h]
            b *= _ARITY
            while level[b] > target:
                b += 1
        return b

    def _prev_block(self, b: int, target: int) -> int:
        """Last block before b whose minimum is at most target, or -1."""
        levels = self._levels
        h = 0
        while True:
            level = levels[h]
            stop = b - b % _ARITY
            b -= 1
            while b >= stop and level[b] > target:
                b -= 1
            if b >= stop:
                break
            h += 1
            if h == len(levels):
                return -1
            b = stop // _ARITY
        # a node left of the start's ancestor has all _ARITY children
        while h:
            h -= 1
            level = levels[h]
            b = b * _ARITY + _ARITY - 1
            while level[b] > target:
                b -= 1
        return b

    def _fwdsearch(self, start: int, entry: int) -> int:
        """Smallest j >= start with E(j) = entry - 1, or -1 if none.

        entry is E(start - 1).
        """
        words = self._words
        target = entry - 1
        w = start >> 4
        # the word's steps from start on, topped up with rising 1 steps
        rem = start & 15
        word = ((words[w] << rem) & 0xFFFF) | ((1 << rem) - 1)
        if _DROP[word] > 1:
            return start + _first_drop(word, 1)
        wpb = self._B >> 4
        blk = w // wpb
        # `need` is the excess less the target, at least 1 until the
        # answer's word; `need + _RISE[word] - 16` adds left to right, so
        # every intermediate stays a small cached int
        if self._levels[0][blk] <= target:
            need = 1 + _RISE[word] - (16 + rem)
            stop = min((blk + 1) * wpb, len(words))
            w += 1
            while w < stop:
                word = words[w]
                if _DROP[word] > need:
                    return (w << 4) + _first_drop(word, need)
                need = need + _RISE[word] - 16
                w += 1
        blk = self._next_block(blk, target)
        if blk < 0:
            return -1
        need = self._blk_entry[blk] - target
        w = blk * wpb
        while True:
            word = words[w]
            if _DROP[word] > need:
                return (w << 4) + _first_drop(word, need)
            need = need + _RISE[word] - 16
            w += 1

    def _bwdsearch(self, start: int, excess: int) -> int:
        """Largest j < start with E(j) = excess - 1; -1 when E(-1) = 0 is it.

        excess is E(start).  Words are walked backward through their
        reversed complement, whose excess after k steps is
        E(end - k) - E(end) for the word's last position end.  Whole
        words are tested with _BACK_DROP, so only the word that holds the
        answer is reversed.
        """
        words = self._words
        target = excess - 1
        w = start >> 4
        # steps from start back to the word's first bit, then rising 1s
        rem = 15 - (start & 15)
        word = words[w]
        back = ((_BYTE_BACK[word & 0xFF] << 8 | _BYTE_BACK[word >> 8]) << rem
                & 0xFFFF) | ((1 << rem) - 1)
        if _DROP[back] > 1:
            return start - 1 - _first_drop(back, 1)
        wpb = self._B >> 4
        blk = w // wpb
        # `need` as in _fwdsearch; a word walked backward moves the excess
        # by minus its delta
        if self._levels[0][blk] <= target:
            need = 1 + _RISE[back] - (16 + rem)
            stop = blk * wpb
            while w > stop:
                w -= 1
                word = words[w]
                if _BACK_DROP[word] > need:
                    back = _BYTE_BACK[word & 0xFF] << 8 | _BYTE_BACK[word >> 8]
                    return (w << 4) + 14 - _first_drop(back, need)
                need = need + 16 - _RISE[word]
        blk = self._prev_block(blk, target)
        if blk < 0:
            return -1
        need = self._blk_entry[blk + 1] - target
        w = (blk + 1) * wpb
        if not need:
            return (w << 4) - 1
        while True:
            w -= 1
            word = words[w]
            if _BACK_DROP[word] > need:
                back = _BYTE_BACK[word & 0xFF] << 8 | _BYTE_BACK[word >> 8]
                return (w << 4) + 14 - _first_drop(back, need)
            need = need + 16 - _RISE[word]

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
        # the left child's subtree ends where excess returns to E(v) - 1
        return self._fwdsearch(v + 1, self._excess(v)) + 1

    def parent(self, v: int) -> int:
        self._check_handle(v)
        if v == 0:
            raise NavigationError("the root has no parent")
        if self._bit(v - 1) == 1:
            return v - 1
        # v is a right child: its entry excess E(v - 1) equals the excess
        # just before its parent, and every position in between is higher
        return self._bwdsearch(v - 2, self._excess(v - 2)) + 1

    def num_descendants(self, v: int) -> int:
        """Size of v's subtree in nodes, v included."""
        self._check_handle(v)
        if self._bit(v) == 0:
            return 1
        return self._fwdsearch(v, self._excess(v - 1)) - v + 1

    # ------------------------------------------------------------------
    # leaf queries

    def leaf_descent(self, i: int) -> tuple[int, int]:
        """(preorder position of leaf i, number of steps from it to the root).

        Leaf i is the i-th 0 of the flags: one bisection over the
        per-block leaf counts and a scan of that block's words find the
        word that holds it, and clearing the leaves before it in that word
        leaves it the highest.  The walk then goes up, one edge per step,
        so the step counter is the leaf's depth by construction of the
        walk, not by formula.  A table over the 8 flags before the current
        node climbs every edge whose parent lies among them: a left
        child's, and a right child's whose left sibling has at most 7
        nodes.  Any other right child costs one backward excess search.
        So a query makes at most one search per right turn over an
        internal left sibling: none on a comb, at most one on a left
        caterpillar.  Each table read climbs at least one edge or leads to
        a search, so there are at most d_i of them (d_i / 4 on a comb).
        """
        if not 1 <= i <= self._n:
            raise NavigationError(f"leaf index {i} out of range")
        zeros = self._blk_zeros
        b = bisect_left(zeros, i) - 1
        r = i - zeros[b]
        words = self._words
        w = b * (self._B >> 4)
        leaves = words[w] ^ 0xFFFF
        z = leaves.bit_count()
        while z < r:
            r -= z
            w += 1
            leaves = words[w] ^ 0xFFFF
            z = leaves.bit_count()
        for _ in range(r - 1):
            leaves ^= 1 << (leaves.bit_length() - 1)
        v = pos = (w << 4) + 16 - leaves.bit_length()
        # E(v - 1): the 1s before leaf i less its i - 1 0s, which is the
        # number of left turns between the root and v
        e = v - 2 * (i - 1)
        steps = 0
        while v:
            # the 8 flags before v, zeros before position 0
            x = v - 1
            w = x >> 4
            shift = 15 - (x & 15)
            if shift <= 8 or not w:
                window = words[w] >> shift & 0xFF
            else:
                window = (words[w - 1] << 16 | words[w]) >> shift & 0xFF
            up, left, used = _CLIMB[window]
            if used:
                steps += up
                e -= left
                v -= used
            else:
                # a right child whose left sibling ends at v - 1: the
                # parent p has E(p - 1) = e and every flag between p and
                # v - 1 lies higher, so p - 1 is the first drop back from
                # v - 2, where E(v - 2) = e + 1
                v = self._bwdsearch(v - 2, e + 1) + 1
                steps += 1
        return pos, steps

    def query_prob(self, i: int) -> Fraction:
        """q_i = 2^{-depth of leaf i}, found in depth-many steps."""
        return Fraction(1, 1 << self.leaf_descent(i)[1])

    # ------------------------------------------------------------------
    # space accounting

    def aux_bits(self) -> int:
        """Bits the directories need in packed form.

        Per block: the minimum excess relative to the block entry (in
        [-B, 1]) and the block's ones count (in [0, B]).  Per stored
        range-min node: its minimum relative to the entry of the s
        symbols it spans (in [-s, 1]), s = min(B * arity^level, 2n - 1).
        Per superblock of G blocks: one absolute ones counter, from which
        every block's absolute entry excess and rank follow.
        """
        B, m, nb = self._B, self._m, self._nb
        bits = nb * (_ceil_log2(B + 2) + _ceil_log2(B + 1))
        span = B
        for level in self._levels[1:]:
            span *= _ARITY
            bits += len(level) * _ceil_log2(min(span, m) + 2)
        nsb = (nb + self._G - 1) // self._G
        return bits + nsb * _ceil_log2(m + 1)

    def total_bits(self) -> int:
        """Shape bits plus directory bits."""
        return self._m + self.aux_bits()


def smooth(dist: ProbabilityDistribution, eps: Fraction) -> ProbabilityDistribution:
    """Mix with the uniform distribution at weight eps/4, exactly.

    p_i' = p_i/(1 + eps/4) + (eps/4)/((1 + eps/4) n).  With eps = a/b and
    p_i = w_i/W that is (4b n w_i + a W) / ((4b + a) n W); every output
    entry is at least a/((4b + a) n) > 0, and the weights sum exactly to
    the total.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    a, b = eps.numerator, eps.denominator
    n = dist.n
    scale = 4 * b * n
    floor = a * dist.total
    return ProbabilityDistribution._exact(
        [scale * w + floor for w in dist.weights], (4 * b + a) * n * dist.total)


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
    a, b = eps.numerator, eps.denominator
    n = dist.n
    tree = code_tree(smooth(dist, eps))
    uniform_den = 4 * b * n
    if any(a << d >= uniform_den for d in tree.leaf_depths):
        # p_i/(4 + eps) = b w_i / ((4b + a) W) and eps/(4n) = a / (4b n);
        # the deepest d with 2^d * f < 1 is ceil(log2(1/f)) - 1
        ratio_den = (4 * b + a) * dist.total
        caps = []
        for w in dist.weights:
            if b * w * uniform_den > a * ratio_den:
                caps.append(ceil_log2_ratio(ratio_den, b * w) - 1)
            else:
                caps.append(ceil_log2_ratio(uniform_den, a) - 1)
        capped = capped_tree(caps)
        if capped is not None:
            tree = capped
    return SuccinctTreeIndex.from_tree_shape(tree)
