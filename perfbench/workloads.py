"""Seeded request lists for the query-mix and stream workloads.

A request is one ``modsym`` command line.  Each workload has a finite
*universe* of distinct requests of a few kinds (query-mix: table, eval,
verify; stream: symbolic eval, enumerate), and each kind's requests are
grouped into cells: a family or function, a size band and an output format.
A run's request list interleaves the kinds in fixed shares (``SHARES``) and,
within a kind, spreads every cell evenly.  Both use the same rule: item i
of a sequence of n items gets the key (i + u) / w, with u a random offset
and w the sequence's weight, and the items are sorted by key.  Within a kind
the cells' items are shuffled and w = n; across kinds w is the kind's share.
So:

* the list is a pure function of the seed and never repeats an argument
  tuple, so reuse across requests can only come from shared subproblems, as
  in one library session;
* every stretch of the list holds each kind in its share and each cell of a
  kind in proportion to its size, so a run that gets further down the list
  (a faster program) measures the same mix, and runs with different seeds
  measure the same load;
* the list ends where the first kind runs out (3245 requests on
  query-mix, 1944 on stream), and a run that gets to its end stops early;
  this happens only for a program about 1.7 times (query-mix) or 2.8 times
  (stream) as fast as the one the sizes were set for.

Sizes are banded with closed forms computed here, not by the program under
test, and capped so that no single request dominates a run: triangle row
counts per family and s, term counts of symbolic polynomials, and object and
candidate counts of enumerations.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path

from oracle import composition_count, composition_sum, part_test, stirling1_mod_rows, triangle

GOLDEN = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    params: dict = field(compare=False, hash=False)


def _band(size: int, bands) -> tuple[int, int] | None:
    for band in bands:
        if band[0] <= size < band[1]:
            return band
    return None


# Sizing: counts of the enumerated objects, from the oracle's triangles.
_S2 = triangle("stirling2", 1, 13)
_S1 = triangle("stirling1", 1, 8)


def _stirling1_mod(n: int, k: int, s: int) -> int:
    return stirling1_mod_rows(n, s)[n].get(k, 0)


# ---------------------------------------------------------------------------
# query-mix


# Largest n_max per family and s: the largest tables take about 60 ms.
TABLE_N_MAX = {
    ("stirling2", 1): 160,
    ("stirling1", 1): 160,
    **{("stirling2mod", s): m for s, m in zip((1, 2, 3, 4), (160, 150, 130, 110))},
    **{("stirling1mod", s): m for s, m in zip((1, 2, 3, 4), (160, 120, 95, 80))},
    **{("stirling1higher", s): m for s, m in zip((1, 2, 3, 4), (160, 160, 140, 120))},
}
_CLASSICAL = ("stirling2", "stirling1")
_EVAL_FUNCTIONS = ("M", "E", "e", "h", "Ml")
_EVALS_PER_CELL = 50


def _tables(cells):
    for (family, s), cap in TABLE_N_MAX.items():
        for n_max in range(20, cap + 1):
            stratum = 3 * (n_max - 20) // (cap - 19)
            for fmt in ("text", "csv", "json"):
                argv = ["table", "--family", family]
                if family not in _CLASSICAL:
                    argv += ["--s", str(s)]
                argv += ["--n-max", str(n_max), "--format", fmt]
                cells["table", family, s, stratum, fmt].append(Request(
                    "table", tuple(argv),
                    {"family": family, "s": s, "n_max": n_max, "format": fmt}))


def _eval_request(kind, function, n, k, s, ell, terms, fmt, point=None) -> Request:
    argv = ["eval", "--function", function]
    if function in ("M", "E", "Ml"):
        argv += ["--s", str(s)]
    if function == "Ml":
        argv += ["--ell", str(ell)]
    vars_ = f"symbolic:{n}" if point is None else ",".join(map(str, point))
    # --vars=... keeps a point that starts with a minus sign from reading as a flag.
    argv += ["--k", str(k), f"--vars={vars_}", "--format", fmt]
    return Request(kind, tuple(argv), {"function": function, "n": n, "k": k, "s": s,
                                       "ell": ell, "point": point, "format": fmt,
                                       "terms": terms})


def _shapes(function, n_range, k_range):
    """Every (n, k, s, ell, terms) of one function; s and ell only where used."""
    for n in n_range:
        for k in k_range:
            for s in (1, 2, 3, 4) if function in ("M", "E", "Ml") else (1,):
                for ell in range(s + 1) if function == "Ml" else (None,):
                    yield n, k, s, ell, composition_count(n, k, part_test(function, s, ell))


def _evals(cells, rng):
    """Integer-point evals: 50 random draws per (function, n, format), with
    1 to 3000 terms and coordinates in -6..9."""
    for function in _EVAL_FUNCTIONS:
        for n in range(2, 8):
            shapes = [sh for sh in _shapes(function, (n,), range(1, 13)) if 1 <= sh[-1] <= 3000]
            for fmt in ("text", "json"):
                for _ in range(_EVALS_PER_CELL):
                    n, k, s, ell, terms = rng.choice(shapes)
                    point = tuple(rng.randint(-6, 9) for _ in range(n))
                    cells["eval", function, n, fmt].append(
                        _eval_request("eval", function, n, k, s, ell, terms, fmt, point))


def _verifies(cells):
    """One-identity verify lines on narrowed quick grids (see make_golden)."""
    for line in sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))["verify_quick"]):
        cells["verify",].append(Request("verify", tuple(line.split()), {"key": line}))


# ---------------------------------------------------------------------------
# stream


_TERM_BANDS = ((100, 300), (300, 1000), (1000, 3000), (3000, 8000))
_SYMBOLIC_PER_CELL = 40


def _symbolics(cells, rng):
    """eval --vars symbolic:<n> with 100 to 8000 terms (4 kB to 330 kB), at
    most 40 random shapes per (function, band, format), so that the s and
    ell choices of M^(s,l) do not crowd out the other functions."""
    for function in _EVAL_FUNCTIONS:
        # e needs more variables than the others to reach 100 terms.
        n_range = range(8, 17) if function == "e" else range(3, 10)
        for n, k, s, ell, terms in _shapes(function, n_range, range(2, 15)):
            band = _band(terms, _TERM_BANDS)
            if band:
                for fmt in ("text", "json"):
                    cells["symbolic", function, band, fmt].append(
                        _eval_request("symbolic", function, n, k, s, ell, terms, fmt))
    for key in [key for key in cells if key[0] == "symbolic"]:
        if len(cells[key]) > _SYMBOLIC_PER_CELL:
            cells[key] = rng.sample(cells[key], _SYMBOLIC_PER_CELL)


# Size in object equivalents: objects written plus candidates visited, eight
# candidates counting as one object.
_SIZE_BANDS = ((30, 150), (150, 600), (600, 2400), (2400, 8000))


def _enum_params():
    """(family, flags, objects, size) of every enumeration in range."""
    for family in ("paths", "tilings"):
        for n in range(1, 7):
            for k in range(1, 15):
                for s in range(1, 5):
                    objects = composition_count(n, k, part_test("M", s))
                    yield family, {"n": n, "k": k, "s": s}, objects, objects
    for n in range(4, 12):
        for k in range(1, n + 1):
            yield "partitions", {"n": n, "k": k}, _S2[n][k], _S2[n][k]
    # A partition is fixed by its difference vector d (k parts summing to n-k)
    # and by which of the i open blocks each of the d_i elements joins:
    # prod_i i**d_i choices.  That counts both filtered families.
    for n in range(5, 14):
        for k in range(2, n):
            for s in range(1, 4):
                objects = composition_sum(range(1, k + 1), n - k, part_test("M", s))
                yield ("partitions-mod", {"n": n, "k": k, "s": s},
                       objects, objects + _S2[n][k] // 8)
    for board in range(5, 14):
        for blocks in range(2, board):
            for s in range(0, 4):
                objects = composition_sum(range(1, blocks + 1), board - blocks,
                                          lambda a, s=s: a <= s)
                yield ("partitions-bounded", {"board": board, "blocks": blocks, "s": s},
                       objects, objects + _S2[board][blocks] // 8)
    # perms walks all n! candidates whatever k is; at n = 8 one object in
    # 40320 candidates is kept when k = 8.
    for n in range(5, 9):
        for k in range(1, n + 1):
            yield "perms", {"n": n, "k": k}, _S1[n][k], _S1[n][k] + factorial(n) // 8
    # The nested walk visits up to (n!)**s tuples of permutations.
    for n in range(2, 6):
        for s in range(1, 4):
            for k in range(1 - s, (n - 1) * s + 2):
                objects = _stirling1_mod(n, k, s)
                yield ("nested-tuples", {"n": n, "k": k, "s": s},
                       objects, objects + factorial(n) ** s // 40)


def _enumerations(cells):
    for family, params, objects, size in _enum_params():
        band = _band(size, _SIZE_BANDS)
        if objects and band:
            for fmt in ("text", "json"):
                argv = ["enumerate", "--family", family]
                for key, value in params.items():
                    argv += [f"--{key}", str(value)]
                argv += ["--format", fmt]
                cells["enumerate", family, band, fmt].append(Request(
                    "enumerate", tuple(argv),
                    {"family": family, **params, "format": fmt, "objects": objects}))


# ---------------------------------------------------------------------------


# Share of each request kind, by count.  query-mix: look-ups are most of
# interactive use, with a one-identity verify every fifth request.  At the
# sizes above the median eval takes about 2 ms, verify 5 ms and table 15 ms
# (2-core x86 machine, Python 3.11), and about 60% of the requests between
# the 40th and 60th latency percentiles are verifies: identity changes move
# request_p50_ms, table changes the tail and throughput.
# stream: symbolic evals (polynomial building and serialization) and
# enumerations (generators) half each, so that both paths weigh alike in
# every metric; first_object_* comes from the enumerations alone.
SHARES = {
    "query-mix": {"table": 0.4, "eval": 0.4, "verify": 0.2},
    "stream": {"symbolic": 0.5, "enumerate": 0.5},
}


def _spread(rng: random.Random, sequences) -> list[tuple[float, Request]]:
    """(key, request) for every item of every (weight, items) sequence."""
    keyed = []
    for weight, items in sequences:
        offset = rng.random()
        keyed += [((i + offset) / weight, req) for i, req in enumerate(items)]
    keyed.sort(key=lambda item: item[0])
    return keyed


def request_list(workload: str, seed: int) -> list[Request]:
    """The workload's request list in the seed's order.

    The universe itself is the same for every seed (its random choices use
    a fixed generator), so seeds differ only in the order of the requests
    and in which of them fit before the first kind runs out.
    """
    fixed = random.Random(workload)
    cells: dict[tuple, list[Request]] = defaultdict(list)
    if workload == "query-mix":
        _tables(cells)
        _evals(cells, fixed)
        _verifies(cells)
    else:
        _symbolics(cells, fixed)
        _enumerations(cells)
    rng = random.Random(f"{workload}:{seed}")
    kinds: dict[str, list[list[Request]]] = defaultdict(list)
    for key, items in cells.items():
        rng.shuffle(items)
        kinds[key[0]].append(items)
    shares = SHARES[workload]
    by_kind = {}
    for kind, kind_cells in kinds.items():
        # dict.fromkeys: two random eval points may coincide.
        spread = _spread(rng, [(len(items), items) for items in kind_cells])
        by_kind[kind] = list(dict.fromkeys(req for _, req in spread))
    end = min(len(items) / shares[kind] for kind, items in by_kind.items())
    merged = _spread(rng, [(shares[kind], items) for kind, items in by_kind.items()])
    return [req for key, req in merged if key < end]


def digest(requests) -> str:
    """sha256 over the issued command lines, one per line."""
    h = hashlib.sha256()
    for req in requests:
        h.update(" ".join(req.argv).encode())
        h.update(b"\n")
    return h.hexdigest()
