"""The three workloads and the recorder they report into.

A run is a sequence of cycles.  Each cycle runs the workload's main ops
on one input cell, checking every result against `oracle`, then sets up
the served containers (fresh import, unpack, index build) and runs a
slice of point queries against them.  Library calls go through the
modules a `Lib` holds, so a fresh import (and, when tracing, fresh
wrappers) takes effect everywhere at once.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import math
import os
import random
import statistics
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

import oracle
from clock import Clock

EPS = Fraction(1, 10)  # smoothing weight for count inputs with zero bins
REFINE_K = 5
LADDER = (50.0, 90.0, 99.0, 99.9)

# input sizes (the seed adds up to 2% to the skewed ones) and query slices
# per cycle
COUNTS_N = 3000
COUNTS_HOT = 1000
SKEW_ZIPF_N = 1000
SKEW_GEOMETRIC_N = 1000
SKEW_HOT = 100
SKEW_COLD = 8  # a cold query on a deep tree costs in proportion to the leaf's depth
SERVE_N = 50000
SERVE_REBUILD_N = 2000
SERVE_HOT = 6000

FAILED = object()


class Lib:
    """pdzip's modules, imported from one source tree."""

    def __init__(self, src: str, tracer=None):
        self.src = os.path.realpath(src)
        self.tracer = tracer
        self.load()

    def load(self) -> None:
        """Import pdzip afresh, so import cost and first-use tables recur."""
        for name in [m for m in sys.modules
                     if m == "pdzip" or m.startswith("pdzip.")]:
            del sys.modules[name]
        if sys.path[0] != self.src:
            sys.path.insert(0, self.src)
        pkg = importlib.import_module("pdzip")
        where = os.path.realpath(os.path.dirname(pkg.__file__))
        if os.path.dirname(where) != self.src:
            raise ImportError(f"pdzip was imported from {where}, not {self.src}")
        for mod in ("bits", "core", "treebuild", "treecode", "refine",
                    "sparse", "succinct", "container", "cli"):
            setattr(self, mod, importlib.import_module("pdzip." + mod))
        if self.tracer is not None:
            self.tracer.install(self)


class Repeat:
    """The samples of one op kind on one input cell in one cycle."""

    __slots__ = ("starts", "seconds", "count", "symbols")

    def __init__(self, count: int) -> None:
        # start and measured seconds of each call, compact so memory stays flat
        self.starts = array("d")
        self.seconds = array("d")
        self.count = count  # ops per call (a batch of lookups is one call)
        self.symbols = 0


class Recorder:
    """Op timings, latency samples, space and correctness tallies.

    A workload sets `cell` and `cycle` before each cycle's ops, so every
    sample knows which input it measured and which repeat it belongs to.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.clock = Clock()
        self.cell = ""
        self.cycle = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seconds: dict[str, float] = defaultdict(float)
        # op kind -> (cell, cycle) -> Repeat
        self.samples: dict[str, dict[tuple[str, int], Repeat]] = defaultdict(dict)
        self.payload_bits = self.payload_symbols = 0
        self.aux_bits = self.aux_symbols = 0
        self.slack = math.inf
        self.floor_violations: set[str] = set()  # cells that break the floor

    def _span(self, kind: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("op." + kind)

    def op(self, kind: str, fn, symbols: int = 0, count: int = 1):
        """Run and time one op (or a batch of `count`); FAILED if it raised."""
        self.attempted += count
        self.clock.maybe_probe()
        # Start from an empty youngest GC generation: a collection that
        # earlier ops' allocations trigger is otherwise charged to
        # whichever op crosses the threshold, often a microsecond lookup.
        gc.collect(0)
        with self._span(kind):
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # counted as a failed op, the run goes on
                self._fail(kind, f"{type(exc).__name__}: {exc}", count)
                return FAILED
            dt = time.perf_counter() - t0
        self.seconds[kind] += dt
        rep = self.samples[kind].get((self.cell, self.cycle))
        if rep is None:
            rep = self.samples[kind][(self.cell, self.cycle)] = Repeat(count)
        rep.starts.append(t0)
        rep.seconds.append(dt)
        rep.symbols += symbols
        return result

    def check(self, kind: str, problems: list[str], count: int = 1) -> None:
        if problems:
            self._fail(kind, "; ".join(problems[:3]), min(len(problems), count))

    def _fail(self, kind: str, text: str, count: int) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {text}")

    def add_payload(self, dec: oracle.Decoded) -> None:
        self.payload_bits += dec.parsed.nbits
        self.payload_symbols += dec.parsed.n


# ----------------------------------------------------------------------
# inputs

def random_int_weights(rng, n):
    return [rng.randint(1, 10 ** 6) for _ in range(n)]


def near_uniform_weights(rng, n):
    return [rng.randint(900, 1100) for _ in range(n)]


def with_zero_bins(rng, weights):
    """Half the bins set to zero, at seeded positions.

    The share is fixed because zero bins get deep leaves, which cost more
    per symbol.  At this share about half of the smoothed inputs break the
    eps/(4n) floor (12 of 24 seeds at n = 5000), so that known defect stays
    visible in `succinct.smooth.floor_violations`.
    """
    out = list(weights)
    for j in rng.sample(range(len(out)), len(out) // 2):
        out[j] = 0
    return out


def skewed_variants(rng):
    """Zipf a = 1, 2 and geometric at all five ratios, both orientations."""
    out = []
    for a in (1, 2):
        n = SKEW_ZIPF_N + rng.randrange(SKEW_ZIPF_N // 50)
        out.append((f"zipf-a{a}", [Fraction(1, i ** a) for i in range(1, n + 1)]))
    for num, den in ((2, 1), (3, 2), (3, 1), (5, 4), (5, 2)):
        r = Fraction(num, den)
        for rising in (True, False):
            n = SKEW_GEOMETRIC_N + rng.randrange(SKEW_GEOMETRIC_N // 50)
            w = [r ** i for i in range(n)]
            if not rising:
                w.reverse()
            out.append((f"geometric-{num}/{den}-{'up' if rising else 'down'}", w))
    return out


# ----------------------------------------------------------------------
# checks shared by the CLI and library paths

def check_container(data: bytes, n: int):
    """(decoded container, problems): header formula, bit count, tree shape."""
    try:
        dec = oracle.decode(data)
    except ValueError as exc:
        return None, [f"container: {exc}"]
    if dec.parsed.n != n:
        return None, [f"container holds n={dec.parsed.n}, input has {n}"]
    return dec, []


def check_bounds(rec: Recorder, src: oracle.Source, dec: oracle.Decoded,
                 eps, reported_d: float, reported_ratio: float) -> list[str]:
    """D and max ratio under the method's promise, and as reported."""
    p = dec.parsed
    d, worst = src.divergence_and_ratio(dec)
    d_bound, r_bound = oracle.smoothed_bounds(p.method, p.k, p.c, eps, src.entropy)
    problems = []
    if abs(reported_d - d) > 1e-9 * (1 + d):
        problems.append(f"reported D={reported_d!r}, reference {d!r}")
    ratio = 2.0 ** worst
    if abs(float(reported_ratio) - ratio) > 1e-9 * ratio:
        problems.append(f"reported max ratio={reported_ratio!r}, reference {ratio!r}")
    if not d < d_bound:
        problems.append(f"D={d} not under its bound {d_bound}")
    if r_bound is not None and not (reported_ratio < r_bound and ratio < float(r_bound)):
        problems.append(f"max ratio {ratio} not under its bound {float(r_bound)}")
    rec.slack = min(rec.slack, d_bound - d)
    return problems


def check_exact_values(values, dec: oracle.Decoded) -> list[str]:
    """Library output for tree/refine: every q_i exactly as stored."""
    if len(values) != len(dec.num):
        return [f"decoded {len(values)} values, expected {len(dec.num)}"]
    den = dec.den
    for i, (q, num) in enumerate(zip(values, dec.num), start=1):
        if q.numerator * den != num * q.denominator:
            return [f"q_{i}={q} differs from the stored {num}/{den}"]
    return []


def check_float_values(values, dec: oracle.Decoded) -> list[str]:
    if len(values) != dec.parsed.n:
        return [f"decoded {len(values)} values, expected {dec.parsed.n}"]
    for i, q in enumerate(values, start=1):
        ref = float(dec.value(i))
        if abs(float(q) - ref) > 1e-12 * ref:
            return [f"q_{i}={q!r}, reference {ref!r}"]
    return []


def check_printed(text: str, dec: oracle.Decoded, i: int) -> list[str]:
    """One value as the CLI prints it: exact, or to 17 significant digits."""
    ref = dec.value(i)
    got = Fraction(text.strip())
    if isinstance(ref, Fraction) and ref.denominator & (ref.denominator - 1) == 0:
        ok = got == ref  # powers of two print exactly
    else:
        ok = abs(got - Fraction(ref)) <= Fraction(ref) * Fraction(1, 10 ** 15)
    return [] if ok else [f"symbol {i}: printed {text.strip()!r}, stored {ref}"]


def count_floor_violation(rec: Recorder, dec: oracle.Decoded, eps) -> None:
    """Known defect: a smoothed tree may put q_i at or below eps/(4n)."""
    n = dec.parsed.n
    limit = 4 * n * eps.denominator
    if any((1 << d) * eps.numerator >= limit for d in dec.depths):
        rec.floor_violations.add(rec.cell)


# ----------------------------------------------------------------------
# CLI and library operations

def cli_call(lib: Lib, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_ok(result) -> list[str]:
    code, _, err = result
    return [] if code == 0 else [f"exit {code}: {err.strip()[:200]}"]


def lib_compress(lib: Lib, weights, method: str, param):
    """weights -> packed container bytes, as a library user does it."""
    dist = lib.core.ProbabilityDistribution.from_weights(weights)
    cont = lib.container
    if method == "tree":
        box = cont.container_for_tree(lib.treecode.compress_tree(dist))
    elif method == "refine":
        box = cont.container_for_refined(lib.refine.compress_refined(dist, param))
    elif method == "sparse":
        box = cont.container_for_sparse(lib.sparse.compress_sparse(dist, param))
    else:
        table = lib.sparse.build_query_table(lib.sparse.compress_sparse(dist, param))
        box = cont.container_for_query_table(table)
    return dist, box.pack()


def lib_decompress(lib: Lib, data: bytes):
    """Container bytes -> every q_i."""
    cont = lib.container
    box = cont.unpack(data)
    if box.method == cont.METHOD_TREE:
        shape = lib.treecode.decode_tree(cont.tree_payload(box))
        return lib.treecode.implied_distribution(shape).to_distribution().entries
    if box.method == cont.METHOD_REFINE:
        return lib.refine.decompress_refined(cont.refine_payload(box)).entries
    if box.method == cont.METHOD_SPARSE:
        return lib.sparse.decompress_sparse(cont.sparse_payload(box)).entries
    table = cont.query_table(box)
    ranked = tuple(idx for idx, _ in sorted(table.pairs, key=lambda pr: pr[1]))
    payload = lib.sparse.SparsePayload(table.n, table.c, ranked)
    return lib.sparse.decompress_sparse(payload).entries


def lib_stats(lib: Lib, dist, values):
    core = lib.core
    return (core.entropy(dist), core.relative_entropy(dist, values),
            core.max_ratio(dist, values))


def lib_round_trip(lib: Lib, rec: Recorder, weights, src: oracle.Source,
                   methods) -> dict:
    """Compress, decompress and stats for each method; checked containers."""
    n = len(weights)
    made = {}
    tree_dec = None
    for method, param in methods:
        res = rec.op("compress", lambda: lib_compress(lib, weights, method, param), n)
        if res is FAILED:
            continue
        dist, data = res
        dec, problems = check_container(data, n)
        if dec is not None and dec.depths is not None:
            if tree_dec is None:
                tree_dec = dec
            elif dec.depths != tree_dec.depths:
                problems.append(f"{method} tree depths differ from the tree container's")
        rec.check("compress", problems)
        if dec is not None:
            rec.add_payload(dec)
            made[(method, param)] = (dist, data, dec)
    for (method, param), (dist, data, dec) in made.items():
        values = rec.op("decompress", lambda: lib_decompress(lib, data), n)
        if values is FAILED:
            continue
        exact = dec.approx is None
        rec.check("decompress", check_exact_values(values, dec) if exact
                  else check_float_values(values, dec))
        stats = rec.op("stats", lambda: lib_stats(lib, dist, values), n)
        if stats is not FAILED:
            _, d, ratio = stats
            rec.check("stats", check_bounds(rec, src, dec, None, d, ratio))
    return made


# ----------------------------------------------------------------------
# the served slice of a cycle: set-up, hot queries, lookups, cold queries

def set_up(lib: Lib, rec: Recorder, trees, tables):
    """Import pdzip, then unpack and index every served container."""
    def once():
        lib.load()
        cont = lib.container
        indexes = []
        for path, _ in trees:
            with open(path, "rb") as fh:
                box = cont.unpack(fh.read())
            payload = (cont.tree_payload(box) if box.method == cont.METHOD_TREE
                       else cont.refine_payload(box).base)
            indexes.append(lib.succinct.SuccinctTreeIndex.from_payload(payload))
        loaded = []
        for path, _ in tables:
            with open(path, "rb") as fh:
                loaded.append(cont.query_table(cont.unpack(fh.read())))
        return indexes, loaded

    built = rec.op("setup", once)
    if built is FAILED:
        return [], []
    indexes, loaded = built
    for index, (_, dec) in zip(indexes, trees):
        rec.aux_bits += index.aux_bits()
        rec.aux_symbols += dec.parsed.n
    return indexes, loaded


def hot_query(rec: Recorder, index, dec: oracle.Decoded, i: int) -> None:
    q = rec.op("query", lambda: index.query_prob(i))
    if q is not FAILED:
        want = 1 << dec.depths[i - 1]
        rec.check("query", [] if q.numerator == 1 and q.denominator == want
                  else [f"symbol {i}: query {q}, stored 1/{want}"])


def sparse_lookups(rec: Recorder, table, dec: oracle.Decoded, ids) -> None:
    """One timed batch of lookups; each lookup is checked on its own."""
    # an untimed pass first: the set-up re-imports pdzip every cycle, and
    # the timed pass should find the fresh code specialised and its data
    # in cache, as a hot lookup does (a failure shows in the timed pass)
    with contextlib.suppress(Exception):
        for i in ids:
            table.lookup(i)
    res = rec.op("lookup", lambda: [table.lookup(i) for i in ids], count=len(ids))
    if res is FAILED:
        return
    bound = math.ceil(math.log2(dec.parsed.t + 1)) + 1
    problems = []
    for i, (value, comparisons) in zip(ids, res):
        ref = dec.value(i)
        if abs(value - ref) > 1e-12 * ref or comparisons > bound:
            problems.append(f"symbol {i}: lookup {value!r} in {comparisons} "
                            f"comparisons, stored {ref!r} within {bound}")
    rec.check("lookup", problems, count=len(ids))


def cold_query(lib: Lib, rec: Recorder, path: str, dec: oracle.Decoded, i: int) -> None:
    kind = "cold_tree" if dec.parsed.method == oracle.TREE else "cold_refine"
    res = rec.op(kind, lambda: cli_call(lib, ["query", "--index", str(i), path]))
    if res is not FAILED:
        rec.check(kind, cli_ok(res) or check_printed(res[1], dec, i))


def spread_ids(rng, n: int, m: int) -> list[int]:
    """m symbol ids in seeded order, one uniform draw from each of m equal
    slices of 1..n: uniform over 1..n, but every depth range of the tree
    gets its share, so the latency median does not hang on the seed."""
    ids = [1 + int((k + rng.random()) * n / m) for k in range(m)]
    rng.shuffle(ids)
    return ids


def serve_slice(lib: Lib, rec: Recorder, rng, trees, tables, cold, hot: int,
                batches: int, colds: int = 1) -> None:
    """Set up once, then hot queries shared out over the indexes, lookup
    batches on every table and `colds` cold CLI queries per cold container."""
    indexes, loaded = set_up(lib, rec, trees, tables)
    served = [(index, dec) for index, (_, dec) in zip(indexes, trees)]
    plan = [(index, dec, i) for index, dec in served
            for i in spread_ids(rng, dec.parsed.n, hot // len(served))]
    rng.shuffle(plan)
    for index, dec, i in plan:
        hot_query(rec, index, dec, i)
    for table, (_, dec) in zip(loaded, tables):
        ids = spread_ids(rng, dec.parsed.n, 32 * batches)
        for b in range(batches):
            sparse_lookups(rec, table, dec, ids[32 * b:32 * (b + 1)])
    for path, dec in cold:
        for i in spread_ids(rng, dec.parsed.n, colds):
            cold_query(lib, rec, path, dec, i)


def cycles(seconds: float, plan: dict | None, group: int):
    """Cycle numbers until `seconds` have passed and every one of the
    `group` cells has had a cycle; or as many as `plan` says, to repeat a
    run's work exactly.  The metrics weigh every cell alike however many
    repeats it got, so a run need not end on a whole round."""
    start = time.perf_counter()
    c = 0
    while True:
        if plan is not None:
            if c >= plan["cycles"]:
                return
        elif c >= group and time.perf_counter() - start >= seconds:
            return
        yield c
        c += 1


# ----------------------------------------------------------------------
# workloads: each takes (lib, rec, seed, seconds, tmp, plan) and returns
# the plan it ran, so a traced pass can repeat exactly the same work.
# Every cycle holds every op kind, so each metric samples the whole run.
# Each cycle runs one input cell; every repeat of a cell does identical
# work (its input and query ids are drawn once from the seed), so its
# repeats differ only in how disturbed the machine was.

COUNT_KINDS = ((random_int_weights, False), (random_int_weights, True),
               (near_uniform_weights, False), (near_uniform_weights, True))


def counts_cli(lib: Lib, rec: Recorder, seed: int, seconds: float, tmp: str,
               plan: dict | None = None) -> dict:
    inputs = {}
    done = 0
    for c in cycles(seconds, plan, len(COUNT_KINDS)):
        family, zeros = COUNT_KINDS[c % len(COUNT_KINDS)]
        rec.cell, rec.cycle = f"{family.__name__}-{'zeros' if zeros else 'dense'}", c
        tag = os.path.join(tmp, rec.cell)
        if rec.cell not in inputs:
            inputs[rec.cell] = _count_histogram(
                random.Random(f"{seed}:{rec.cell}"), family, zeros, tag + ".txt")
        made = _counts_input(lib, rec, tag, *inputs[rec.cell])
        if made is not None:
            src_path, tree, refine = made
            tables = []
            # a CLI user's sparse-queryable copy, for the lookup probe;
            # counts have no heavy symbols, so its table is empty
            path = tag + ".pdzq"
            res = rec.op("prepare", lambda: cli_call(lib, [
                "compress", "--method", "sparse-queryable", src_path, path]))
            if res is not FAILED:
                dec, problems = None, cli_ok(res)
                if not problems:
                    with open(path, "rb") as fh:
                        dec, problems = check_container(fh.read(), tree[1].parsed.n)
                rec.check("prepare", problems)
                if dec is not None:
                    tables.append((path, dec))
            serve_slice(lib, rec, random.Random(f"{seed}:{rec.cell}:queries"),
                        [tree], tables, [tree, refine], hot=COUNTS_HOT, batches=16)
        done = c + 1
    return {"cycles": done}


def _count_histogram(rng, family, zeros, path):
    """One seeded histogram, written as the CLI's text input."""
    weights = family(rng, COUNTS_N)
    if zeros:
        weights = with_zero_bins(rng, weights)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(str, weights)) + "\n")
    return path, oracle.Source(weights), EPS if zeros else None


def _counts_input(lib, rec, tag, src_path, src, eps):
    """CLI compress (tree, refine), decompress and stats of one histogram."""
    n = src.n
    decs = []
    for method, extra in (("tree", []), ("refine", ["--k", str(REFINE_K)])):
        path = f"{tag}.{method}.pdz"
        argv = ["compress", "--method", method, *extra]
        if eps is not None:
            argv += ["--epsilon", str(eps)]
        res = rec.op("compress", lambda: cli_call(lib, argv + [src_path, path]), n)
        if res is FAILED:
            continue
        problems = cli_ok(res)
        dec = None
        if not problems:
            with open(path, "rb") as fh:
                dec, problems = check_container(fh.read(), n)
        if dec is not None:
            if decs and dec.depths != decs[0][1].depths:
                problems.append("refine tree depths differ from the tree container's")
            if method == "tree" and eps is not None:
                count_floor_violation(rec, dec, eps)
            rec.add_payload(dec)
            decs.append((path, dec))
        rec.check("compress", problems)
    for path, dec in decs:
        out_path = path + ".txt"
        res = rec.op("decompress",
                     lambda: cli_call(lib, ["decompress", path, out_path]), n)
        if res is not FAILED:
            rec.check("decompress", cli_ok(res) or _check_text(out_path, dec))
        res = rec.op("stats", lambda: cli_call(
            lib, ["stats", "--original", src_path, "--compressed", path]), n)
        if res is not FAILED:
            rec.check("stats", cli_ok(res) or _check_stats(rec, res[1], src, dec, eps))
    return (src_path, *decs) if len(decs) == 2 else None


def _check_text(path: str, dec: oracle.Decoded) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split()
    if len(lines) != dec.parsed.n:
        return [f"{len(lines)} values written, expected {dec.parsed.n}"]
    for i, line in enumerate(lines):
        ref = dec.num[i] / dec.den
        if abs(float(line) - ref) > 1e-14 * ref:
            return [f"value {i + 1} written as {line}, stored {ref!r}"]
    return []


def _check_stats(rec, text: str, src, dec, eps) -> list[str]:
    fields = {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        fields[key.strip()] = rest.split()[0] if rest.split() else ""
    try:
        d, ratio = float(fields["divergence"]), float(fields["max_ratio"])
    except (KeyError, ValueError):
        return [f"stats output lacks divergence or max_ratio: {text[:200]!r}"]
    return check_bounds(rec, src, dec, eps, d, ratio)


SKEW_METHODS = ((("tree", None), ("refine", REFINE_K))
                + tuple((m, Fraction(c)) for m in ("sparse", "sparse-queryable")
                        for c in (1, 2)))


def skewed_lib(lib: Lib, rec: Recorder, seed: int, seconds: float, tmp: str,
               plan: dict | None = None) -> dict:
    rng = random.Random(seed)
    variants = [(name, w, oracle.Source(w)) for name, w in skewed_variants(rng)]
    order = rng.sample(range(len(variants)), len(variants))
    done = 0
    for c in cycles(seconds, plan, len(variants)):
        name, weights, src = variants[order[c % len(variants)]]
        rec.cell, rec.cycle = name, c
        made = lib_round_trip(lib, rec, weights, src, SKEW_METHODS)
        files = {}
        for (method, param), (_, data, dec) in made.items():
            path = os.path.join(tmp, f"{name}.{method}.{param}.pdz".replace("/", "_"))
            with open(path, "wb") as fh:
                fh.write(data)
            files.setdefault(method, []).append((path, dec))
        serve_slice(lib, rec, random.Random(f"{seed}:{name}:queries"),
                    files.get("tree", []),
                    files.get("sparse-queryable", []),
                    files.get("tree", []) + files.get("refine", []),
                    hot=SKEW_HOT, batches=16, colds=SKEW_COLD)
        done = c + 1
    return {"cycles": done}


def serve_counts(lib: Lib, rec: Recorder, seed: int, seconds: float, tmp: str,
                 plan: dict | None = None) -> dict:
    """Served containers are built once, outside the metrics; each cycle
    recompresses a small histogram (the rebuild path), then re-imports,
    re-indexes and serves a slice of queries."""
    rng = random.Random(seed)
    n = SERVE_N
    weights = near_uniform_weights(rng, n)
    src = oracle.Source(weights)
    fresh = near_uniform_weights(rng, SERVE_REBUILD_N)
    fresh_src = oracle.Source(fresh)
    trees, tables = [], []
    for method, param in (("tree", None), ("refine", REFINE_K),
                          ("sparse-queryable", Fraction(1))):
        res = rec.op("build", lambda: lib_compress(lib, weights, method, param))
        if res is FAILED:
            continue
        dec, problems = check_container(res[1], n)
        if dec is not None and dec.approx is None:
            d, worst = src.divergence_and_ratio(dec)
            problems += check_bounds(rec, src, dec, None, d, 2.0 ** worst)
        rec.check("build", problems)
        if dec is not None:
            path = os.path.join(tmp, f"serve.{method}.pdz")
            with open(path, "wb") as fh:
                fh.write(res[1])
            if method == "sparse-queryable":
                tables.append((path, dec))
            else:
                rec.add_payload(dec)
                trees.append((path, dec))
    done = 0
    for c in cycles(seconds, plan, 1):
        rec.cell, rec.cycle = "serve", c
        lib_round_trip(lib, rec, fresh, fresh_src, (("tree", None), ("refine", REFINE_K)))
        serve_slice(lib, rec, random.Random(f"{seed}:serve:queries"), trees, tables,
                    trees, hot=SERVE_HOT, batches=32)
        done = c + 1
    return {"cycles": done}


WORKLOADS = {
    "counts-cli": counts_cli,
    "skewed-lib": skewed_lib,
    "serve-counts": serve_counts,
}


# ----------------------------------------------------------------------
# end-to-end metrics from a recorder
#
# Every op time is first put in reference seconds (see clock.py), which
# takes out the shared machine's drift.  Then throughputs use, for each
# cell (input kind or variant), the low median over its repeats, and
# latencies the median or tail over distinct ops.

def _repeats(rec: Recorder, kind: str) -> dict[str, list[Repeat]]:
    """Repeats of one op kind, by cell."""
    if not rec.samples[kind]:
        raise KeyError(f"no successful {kind} op")
    out: dict[str, list[Repeat]] = defaultdict(list)
    for (cell, _), rep in rec.samples[kind].items():
        out[cell].append(rep)
    return out


def _reference(rec: Recorder, rep: Repeat) -> list[float]:
    """Reference seconds per op of each call in a repeat."""
    ref = rec.clock.reference
    return [ref(t, s) / rep.count for t, s in zip(rep.starts, rep.seconds)]


def rate(rec: Recorder, kind: str) -> float:
    """Symbols per reference second; each cell counts its low-median repeat."""
    symbols = seconds = 0.0
    for reps in _repeats(rec, kind).values():
        per_symbol = statistics.median_low(sum(_reference(rec, r)) / r.symbols
                                           for r in reps)
        cell_symbols = statistics.median(r.symbols for r in reps)
        symbols += cell_symbols
        seconds += per_symbol * cell_symbols
    return symbols / seconds


def per_op(rec: Recorder, kind: str) -> list[float]:
    """Reference seconds of each distinct op of a kind.

    Every repeat of a cell issues the same ops in the same order, so the
    k-th call of each repeat does the same work.  A distinct op's time is
    its low median over the repeats (of two, the faster), so each cell
    weighs the same however many repeats it got, and a stall of the
    machine, which hits a different op in every repeat, does not set a
    tail."""
    out: list[float] = []
    for reps in _repeats(rec, kind).values():
        full = max(len(r.starts) for r in reps)  # a repeat with a failed op is left out
        out += map(statistics.median_low, zip(*(
            _reference(rec, r) for r in reps if len(r.starts) == full)))
    return out


def calls(rec: Recorder, kind: str) -> int:
    return sum(len(r.starts) for r in rec.samples[kind].values())


def measured(rec: Recorder, kind: str) -> float:
    """Median measured (not rescaled) seconds per op, for the report."""
    return statistics.median(s / r.count for reps in _repeats(rec, kind).values()
                             for r in reps for s in r.seconds)


def tail_step(n: int) -> float:
    """The highest ladder percentile with at least 10 of n samples beyond it."""
    pct = LADDER[0]
    for step in LADDER:
        if n - math.ceil(round(step * n / 100, 6)) >= 10:
            pct = step
    return pct


def percentile(samples: list[float], pct: float) -> float:
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(round(pct * len(ordered) / 100, 6))) - 1]


def end_to_end(rec: Recorder, peak_rss_mib: float) -> tuple[dict, list[str]]:
    """Metric values plus report-only lines; raises KeyError when a metric
    has no samples (every op of its kind failed)."""
    rec.clock.probe()  # so the last ops have a probe after them too
    queries = per_op(rec, "query")
    pct = tail_step(len(queries))
    lookups = per_op(rec, "lookup")
    cold = {kind: per_op(rec, kind) for kind in ("cold_tree", "cold_refine")}
    cold_ms = {kind: statistics.median(v) * 1e3 for kind, v in cold.items()}
    setups = per_op(rec, "setup")
    if not (rec.payload_symbols and rec.aux_symbols and math.isfinite(rec.slack)):
        raise KeyError("no container passed its checks")
    metrics = {
        "setup_s": statistics.median(setups),
        "compress_sym_per_s": rate(rec, "compress"),
        "decompress_sym_per_s": rate(rec, "decompress"),
        "stats_sym_per_s": rate(rec, "stats"),
        "query_us_p50": statistics.median(queries) * 1e6,
        "query_us_tail": percentile(queries, pct) * 1e6,
        "sparse_query_us_p50": statistics.median(lookups) * 1e6,
        "cold_query_ms_p50": (cold_ms["cold_tree"] + cold_ms["cold_refine"]) / 2,
        "payload_bits_per_symbol": rec.payload_bits / rec.payload_symbols,
        "aux_bits_per_symbol": rec.aux_bits / rec.aux_symbols,
        "divergence_slack_bits_min": rec.slack,
        "peak_rss_mib": peak_rss_mib,
    }
    notes = [
        f"timings are in reference seconds: {len(setups)} input cells, "
        f"{calls(rec, 'setup')} cycles; each latency is the median of a distinct "
        f"op's repeats",
        rec.clock.summary(),
        f"measured medians before rescaling: query {measured(rec, 'query') * 1e6:.4g} us, "
        f"setup {measured(rec, 'setup'):.4g} s",
        f"query_us_p50 and query_us_tail (p{pct:g}) are over {len(queries)} distinct "
        f"hot queries ({calls(rec, 'query')} run)",
        f"cold_query_ms_p50 is the mean of the tree ({cold_ms['cold_tree']:.3f} ms over "
        f"{len(cold['cold_tree'])} distinct calls) and refine ({cold_ms['cold_refine']:.3f} "
        f"ms over {len(cold['cold_refine'])}) medians",
        f"sparse_query_us_p50 is the median of {len(lookups)} distinct batches "
        f"of 32 lookups, as the mean per lookup",
        f"setup_s is the median over the input cells of {calls(rec, 'setup')} set-ups",
        f"failed_ops_ratio = {rec.failed / rec.attempted:.6g} ratio "
        f"({rec.failed} of {rec.attempted} ops)",
        f"succinct.smooth.floor_violations = {len(rec.floor_violations)} count "
        f"(known defect, not counted as a failure)",
    ]
    return metrics, notes
