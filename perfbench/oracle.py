"""Reference computations for the benchmark's correctness checks.

Nothing here imports pdzip, so a check never trusts the code it checks.
Containers are parsed from their bytes with the layout the README
documents; decoded values are rebuilt from the payload bits alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

MAGIC = b"PDZ1"
TREE, REFINE, SPARSE, SPARSE_Q = 1, 2, 3, 4


@dataclass
class Parsed:
    """One container as read from its bytes."""

    method: int
    n: int
    k: int | None
    c: Fraction | None
    t: int | None
    nbits: int
    bits: str  # payload bits as a '0'/'1' string, MSB first


def _u(data: bytes, at: int, width: int) -> int:
    if at + width > len(data):
        raise ValueError("truncated container")
    return int.from_bytes(data[at:at + width], "little")


def rank_width(n: int, c: Fraction) -> int:
    """floor(log2(n) / (c+1)) + 1."""
    e = c.numerator + c.denominator
    target = n ** c.denominator
    f = 0
    while (1 << ((f + 1) * e)) <= target:
        f += 1
    return f + 1


def formula_bits(method: int, n: int, k=None, c=None, t=None) -> int:
    """Payload length each method promises."""
    if method == TREE:
        return 2 * n - 2
    if method == REFINE:
        return k * n - 2
    if method == SPARSE:
        return t * n.bit_length()
    if method == SPARSE_Q:
        return t * (n.bit_length() + rank_width(n, c))
    raise ValueError(f"unknown method {method}")


def parse(data: bytes) -> Parsed:
    """Header fields and payload bits; raises ValueError on any mismatch."""
    if data[:4] != MAGIC:
        raise ValueError("bad magic")
    method = _u(data, 4, 1)
    n = _u(data, 5, 8)
    at = 13
    k = c = t = None
    if method == REFINE:
        k = _u(data, at, 2)
        at += 2
    elif method in (SPARSE, SPARSE_Q):
        c = Fraction(_u(data, at, 8), _u(data, at + 8, 8))
        t = _u(data, at + 16, 8)
        at += 24
    elif method != TREE:
        raise ValueError(f"unknown method {method}")
    nbits = _u(data, at, 8)
    at += 8
    want = formula_bits(method, n, k, c, t)
    if nbits != want:
        raise ValueError(f"payload is {nbits} bits, formula says {want}")
    body = data[at:]
    if len(body) != (nbits + 7) // 8:
        raise ValueError("container length does not match its bit count")
    bits = format(int.from_bytes(body, "big"), f"0{8 * len(body)}b")[:nbits]
    return Parsed(method, n, k, c, t, nbits, bits)


def tree_depths(bits: str, n: int) -> list[int]:
    """Leaf depths from 2n-2 preorder flags (1 internal, 0 leaf)."""
    depths: list[int] = []
    pending: list[int] = []
    d = 0
    for b in bits:
        if b == "1":
            d += 1
            pending.append(d)
        else:
            if not pending:
                raise ValueError("tree closed before the payload ended")
            depths.append(d)
            d = pending.pop()
    depths.append(d)
    if pending or len(depths) != n:
        raise ValueError("payload does not describe a strict tree on n leaves")
    return depths


@dataclass
class Decoded:
    """What a container stores, rebuilt from its bits.

    Tree and refine values are exact: q_i = num[i] / den.  Sparse values
    are floats in `approx`.  `depths` is the code tree (tree, refine).
    """

    parsed: Parsed
    depths: list[int] | None = None
    num: list[int] | None = None
    den: int = 1
    approx: list[float] | None = None

    def value(self, i: int):
        """q_i for a 1-based symbol: Fraction for tree/refine, else float."""
        if self.approx is not None:
            return self.approx[i - 1]
        return Fraction(self.num[i - 1], self.den)

    def log2_q(self, i: int) -> float:
        if self.approx is not None:
            return math.log2(self.approx[i - 1])
        return math.log2(self.num[i - 1]) - math.log2(self.den)


def heavy_value(rank: int) -> float:
    return 3.0 / (math.pi * rank) ** 2


def decode(data: bytes) -> Decoded:
    p = parse(data)
    n = p.n
    if p.method in (TREE, REFINE):
        depths = tree_depths(p.bits[:2 * n - 2], n)
        marks = [0] * n
        if p.method == REFINE:
            for level in range(p.k - 2):
                row = p.bits[2 * n - 2 + level * n:2 * n - 2 + (level + 1) * n]
                for i, b in enumerate(row):
                    if b == "1":
                        marks[i] += 1
        # every refine level doubles its marked symbols and renormalizes,
        # so q_i is proportional to 2^(marks_i - d_i)
        top = max(depths)
        num = [1 << (top - d + m) for d, m in zip(depths, marks)]
        return Decoded(p, depths=depths, num=num, den=sum(num))
    w = n.bit_length()
    heavy: dict[int, int] = {}
    if p.method == SPARSE:
        for j in range(p.t):
            heavy[int(p.bits[j * w:(j + 1) * w], 2) + 1] = j + 1
    else:
        w2 = rank_width(n, p.c)
        for j in range(p.t):
            at = j * (w + w2)
            idx = int(p.bits[at:at + w], 2) + 1
            heavy[idx] = int(p.bits[at + w:at + w + w2], 2) + 1
    if p.t == n:
        total = sum(heavy_value(j) for j in range(1, n + 1))
        approx = [heavy_value(heavy[i]) / total for i in range(1, n + 1)]
    else:
        light = (1.0 - sum(heavy_value(j) for j in range(1, p.t + 1))) / (n - p.t)
        approx = [heavy_value(heavy[i]) if i in heavy else light
                  for i in range(1, n + 1)]
    return Decoded(p, approx=approx)


class Source:
    """The original distribution P = w / sum(w), as logs and floats."""

    def __init__(self, weights):
        self.n = len(weights)
        lt = _log2(sum(weights))
        self.log_p = [(_log2(w) - lt) if w else None for w in weights]
        self.p = [2.0 ** lp if lp is not None else 0.0 for lp in self.log_p]
        self.entropy = -sum(pf * lp for pf, lp in zip(self.p, self.log_p)
                            if lp is not None)

    def divergence_and_ratio(self, dec: Decoded) -> tuple[float, float]:
        """D(P||Q) in bits and log2 of max p_i/q_i over p_i > 0."""
        d = 0.0
        worst = -math.inf
        for i, (pf, lp) in enumerate(zip(self.p, self.log_p), start=1):
            if lp is None:
                continue
            gap = lp - dec.log2_q(i)
            d += pf * gap
            worst = max(worst, gap)
        return d, worst


def _log2(x) -> float:
    if isinstance(x, Fraction):
        return math.log2(x.numerator) - math.log2(x.denominator)
    return math.log2(x)


def smoothed_bounds(method: int, k, c, eps, entropy: float):
    """(divergence bound in bits, max-ratio bound or None) a method promises.

    With smoothing weight eps the input is mixed with the uniform
    distribution at eps/4, which costs one more factor 1 + eps/4 on every
    ratio: 4 + eps for tree, (1 + eps/4)(2 + 2^(3-k)) for refine.
    """
    if method in (SPARSE, SPARSE_Q):
        return float(c) * entropy + math.log2(math.pi ** 2 / 3), None
    ratio = Fraction(4) if method == TREE or k < 3 else 2 + Fraction(1, 2 ** (k - 3))
    if eps is None:
        return math.log2(ratio), ratio
    if method == TREE:
        return 2 + float(eps), 4 + eps
    ratio *= 1 + eps / 4
    return math.log2(ratio), ratio
