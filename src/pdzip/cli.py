"""Command-line tool: compress, decompress, query, stats, info.

Input distributions are text files with one weight per line (blank lines
and '#' comments ignored); weights are normalized by their exact sum.
Exit codes: 0 success, 1 usage error, 2 data error (unreadable file, bad
container, zero probabilities without --epsilon, index out of range).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional, Sequence

from . import container as cont
from .core import (
    DistributionError,
    InfiniteDivergenceError,
    ProbabilityDistribution,
    entropy,
    max_ratio,
    parse_distribution,
    relative_entropy,
)
from .refine import compress_refined
from .sparse import build_query_table, compress_sparse
from .succinct import smooth
from .treebuild import ZeroProbabilityError
from .treecode import compress_tree

_LOG2_PI2_3 = 1.7180297582234814  # log2(pi^2 / 3), the sparse-method constant


class UsageError(Exception):
    """Command-line arguments that parse but do not make sense together."""


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational number (use forms like 3, 0.25, 2/5)")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pdzip",
                     description="Lossy distribution compression with "
                                 "provable divergence bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a distribution file")
    p.add_argument("--method", required=True,
                   choices=[m.name for m in cont.METHODS.values()])
    p.add_argument("--k", type=int, default=None,
                   help="refinement levels (refine only, default 3)")
    p.add_argument("--c", type=_rational, default=None,
                   help="sparsity exponent >= 1 (sparse methods, default 1)")
    p.add_argument("--epsilon", type=_rational, default=None,
                   help="smoothing weight > 0 (tree/refine; required when "
                        "the input has zero probabilities)")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("decompress", help="write the stored distribution")
    p.add_argument("--digits", type=int, default=17,
                   help="significant digits for non-terminating values")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("query", help="probability of one symbol")
    p.add_argument("--index", type=int, required=True,
                   help="1-based symbol index")
    p.add_argument("input")

    p = sub.add_parser("stats", help="compare an original with its compression")
    p.add_argument("--original", required=True)
    p.add_argument("--compressed", required=True)

    p = sub.add_parser("info", help="describe a container file")
    p.add_argument("input")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves no state in the parser, so one serves every main call
    return build_parser()


# ----------------------------------------------------------------------
# value formatting

def _is_terminating(den: int) -> bool:
    for f in (2, 5):
        while den % f == 0:
            den //= f
    return den == 1


def format_exact_decimal(value: Fraction) -> str:
    """Exact decimal expansion; denominator must divide a power of 10."""
    den = value.denominator
    a = 0
    while den % 2 == 0:
        den //= 2
        a += 1
    b = 0
    while den % 5 == 0:
        den //= 5
        b += 1
    if den != 1:
        raise ValueError("fraction has no terminating decimal expansion")
    e = max(a, b)
    scaled = value.numerator * 10 ** e // value.denominator
    if e == 0:
        return str(scaled)
    s = str(scaled).rjust(e + 1, "0")
    return s[:-e] + "." + s[-e:]


def format_significant(value, digits: int) -> str:
    """Round to `digits` significant digits; plain decimal, never E-notation."""
    with localcontext() as ctx:
        ctx.prec = max(digits, 1)
        if isinstance(value, Fraction):
            d = Decimal(value.numerator) / Decimal(value.denominator)
        else:
            d = +Decimal(value)
    return format(d, "f")


def format_probability(value, digits: int) -> str:
    if isinstance(value, Fraction) and _is_terminating(value.denominator):
        return format_exact_decimal(value)
    return format_significant(value, digits)


# ----------------------------------------------------------------------
# shared pieces

def _read_distribution(path: str) -> ProbabilityDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_distribution(fh.read())


def _read_container(path: str) -> cont.Container:
    with open(path, "rb") as fh:
        return cont.unpack(fh.read())


def _decode_values(container: cont.Container):
    """The stored distribution as a list of Fractions or floats."""
    return container.spec.values(container.open())


# ----------------------------------------------------------------------
# commands

def cmd_compress(args) -> int:
    method = args.method
    if method != "refine" and args.k is not None:
        raise UsageError("--k applies only to --method refine")
    if method in ("tree", "refine"):
        if args.c is not None:
            raise UsageError("--c applies only to the sparse methods")
    else:
        if args.epsilon is not None:
            raise UsageError("--epsilon applies only to tree and refine")
    if args.epsilon is not None and args.epsilon <= 0:
        raise UsageError("--epsilon must be positive")

    dist = _read_distribution(args.input)
    if method in ("tree", "refine"):
        if args.epsilon is not None:
            dist = smooth(dist, args.epsilon)
        if not dist.strictly_positive():
            raise ZeroProbabilityError(
                "input has zero probabilities; re-run with --epsilon")
        if method == "tree":
            payload = compress_tree(dist)
        else:
            k = 3 if args.k is None else args.k
            if k < 2:
                raise UsageError("--k must be at least 2")
            payload = compress_refined(dist, k)
    else:
        c = Fraction(1) if args.c is None else args.c
        if c < 1:
            raise UsageError("--c must be at least 1")
        payload = compress_sparse(dist, c)
        if method == "sparse-queryable":
            payload = build_query_table(payload)

    container = cont.container_for(payload)
    data = container.pack()
    with open(args.output, "wb") as fh:
        fh.write(data)
    print(f"{args.output}: method={method} n={container.n} "
          f"payload_bits={len(container.payload)} container_bytes={len(data)}")
    return 0


def cmd_decompress(args) -> int:
    if args.digits < 1:
        raise UsageError("--digits must be at least 1")
    container = _read_container(args.input)
    values = _decode_values(container)
    with open(args.output, "w", encoding="utf-8") as fh:
        for v in values:
            fh.write(format_probability(v, args.digits) + "\n")
    print(f"{args.output}: {len(values)} probabilities "
          f"(method={container.method_name})")
    return 0


def cmd_query(args) -> int:
    container = _read_container(args.input)
    i = args.index
    if not 1 <= i <= container.n:
        raise DistributionError(
            f"index {i} out of range for n={container.n}")
    index = container.spec.index
    if index is None:
        raise UsageError(f"method {container.method_name} stores no query "
                         "structure; use sparse-queryable")
    print(format_probability(index(container.open()).query_prob(i), 17))
    return 0


def cmd_stats(args) -> int:
    original = _read_distribution(args.original)
    container = _read_container(args.compressed)
    if original.n != container.n:
        raise DistributionError(
            f"original has {original.n} symbols, container has {container.n}")
    values = _decode_values(container)
    h = entropy(original)
    d = relative_entropy(original, values)
    ratio = max_ratio(original, values)
    lines = [
        f"method: {container.method_name}",
        f"n: {container.n}",
        f"entropy_P: {h:.12g} bits",
    ]
    n = container.n
    if container.method == cont.METHOD_TREE:
        lines.append(f"divergence: {d:.12g} bits (bound: < 2)")
        lines.append(f"max_ratio: {float(ratio):.12g} (bound: < 4)")
        formula = f"2n-2 = {2 * n - 2}"
    elif container.method == cont.METHOD_REFINE:
        k = container.k
        r = 2 + 2 ** (3 - k)
        lines.append(f"divergence: {d:.12g} bits (bound: < {math.log2(r):.6g})")
        lines.append(f"max_ratio: {float(ratio):.12g} (bound: < {float(r):.6g})")
        formula = f"kn-2 = {k * n - 2}"
    else:
        bound = float(container.c) * h + _LOG2_PI2_3
        lines.append(f"divergence: {d:.12g} bits "
                     f"(bound: <= c*H(P) + log2(pi^2/3) = {bound:.6g})")
        lines.append(f"max_ratio: {float(ratio):.12g}")
        per = cont.expected_payload_bits(container.method, n,
                                         c=container.c, t=container.t)
        formula = f"t={container.t} entries = {per}"
    lines.append(f"payload_bits: {len(container.payload)} ({formula})")
    lines.append(f"container_bytes: {len(container.pack())}")
    print("\n".join(lines))
    return 0


def cmd_info(args) -> int:
    container = _read_container(args.input)
    lines = [f"method: {container.method_name}", f"n: {container.n}"]
    for name, value in zip(container.spec.params, container.params):
        lines.append(f"{name}: {value}")
    lines.append(f"payload_bits: {len(container.payload)}")
    lines.append(f"container_bytes: {len(container.pack())}")
    print("\n".join(lines))
    return 0


_COMMANDS = {
    "compress": cmd_compress,
    "decompress": cmd_decompress,
    "query": cmd_query,
    "stats": cmd_stats,
    "info": cmd_info,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"pdzip: error: {exc}", file=sys.stderr)
        return 1
    except (DistributionError, InfiniteDivergenceError, ValueError,
            OSError) as exc:
        print(f"pdzip: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
