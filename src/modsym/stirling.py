"""Stirling-number families: classical both kinds, the modular s-variants of
both kinds, the higher-level first kind, and the connection polynomials.

Value conventions, with ``{n,k}`` the second kind and ``[n,k]`` the unsigned
first kind:

* ``stirling2_mod``  {n,k}^(s) = M_{n-k}^(s)(1..k).  Two routes: the
  specialization at the point (``specialization``) and the recurrence
  {n,k} = {n-1,k-1} + k{n-2,k-1} + k^{s+1}{n-s-1,k} (``recurrence``), a
  term outside the triangle read as 0.  It needs no seeds: below
  n-k = s+1 the last term vanishes and the first two give
  e_{n-k}(1..k) = M_{n-k}^(s)(1..k).  It is ``symfun._modular_rows`` at
  the ints 1..k, whose row j is column j of the triangle, as the column
  series is ``symfun._series_product`` there.
* ``stirling1_mod``  [n,k]^(s), computed in integer form as
  E_{(n-1)s-(k-1)}^(s)(1..n-1): multiplying the reciprocal-point definition
  through by ((n-1)!)^s turns every exponent a_i into s-a_i, so no rational
  arithmetic is ever needed.
* ``stirling1_mod_rec``  the same family by the E^(s) product rule at the
  point (1..n-1), which read from the top is the order-s recurrence
  [n,k]^(s) = sum_{l=0}^{s} [n-1, k-(s-l)]^(s) * (n-1)^l, seeded by
  [0, 1-s]^(s) = 1.
* ``stirling1_higher``  [n,k]_s = e_{n-k}(0^s, 1^s, ..., (n-1)^s), the x^k
  coefficient of omega_poly(n, s); the classical [n,k] is level 1.

Every first kind reads one rule, the E rows of ``symfun._bounded_rows``,
from the top: E^(s) at 0, 1, 2, ... for [n,k]^(s), and e at 0^s, 1^s,
2^s, ... for [n,k]_s.  ``_rows_stirling2`` is the one recurrence left
here: the M^(1) rows also give {n,k}, but slower, and FERMAT at p = 2 would
then read them on both sides.  The scalar functions read one value from a
rule and ``triangle_rows`` the first rows, built bottom-up, so no recursion
depth is ever an issue.

Both specializations are one function over compositions, ``_point_sums``,
that multiplies out each monomial at the point and never builds the
polynomial; the kinds differ only in the parts they allow.  It splits the
variables into a head and a tail and lists each half's compositions once,
by one explicit-stack walk, so no recursion limit applies, keeping their
products one by one per degree.  Each pair of a head degree and a tail
degree adds head product times tail product over every pair of their
products in one C-level sum: each composition is one product, added on its
own, and a half's sum is never formed.  A half's sum times anything is the
E^(s) or M^(s) product rule, which the recurrences' dynamic programs
compute, and the walk would stop being a route independent of them.
Summing by degree covers every degree at once: every k of a first-kind row
n, or every n of a second-kind column k.  No identity compares the two
kinds' walks with each other.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from io import StringIO
from itertools import count, islice, product, starmap
from operator import mul
import csv

from modsym.polycore import Polynomial, _at_least, _one_of
from modsym.symfun import _bounded_rows, _last_entry, _modular_rows
from modsym.symfun import _residue_parts, _series_product

TRIANGLE_FAMILIES = (
    "stirling2",
    "stirling1",
    "stirling2mod",
    "stirling1mod",
    "stirling1higher",
)

STIRLING2_MOD_METHODS = ("specialization", "recurrence")


def _rows_stirling2() -> Iterator[list[int]]:
    # rows [{n,0}, ..., {n,n}] for n = 0, 1, 2, ...
    row = [1]
    for i in count(1):
        yield row
        row = [0] + [row[j - 1] + j * row[j] if j < i else row[j - 1] for j in range(1, i + 1)]


def stirling2(n: int, k: int) -> int:
    """{n,k} via {n,k} = {n-1,k-1} + k*{n-1,k}, {0,0} = 1."""
    _at_least("n and k", (n, k), 0)
    if k > n:
        return 0
    return _last_entry(islice(_rows_stirling2(), n + 1), k)


def stirling1(n: int, k: int) -> int:
    """Unsigned [n,k] via [n,k] = (n-1)*[n-1,k] + [n-1,k-1], [0,0] = 1: the
    level-1 rows of stirling1_higher."""
    return stirling1_higher(n, k, 1)


def _point_sums(m: int, parts: Sequence[int], lo: int, hi: int) -> list[int]:
    # out[d], for lo <= d <= hi, is the sum of 1^{a_1}...m^{a_m} over the
    # compositions of d into m parts drawn from ``parts`` (ascending, from 0);
    # entries below lo are 0.  ``by_degree`` lists the products at the point
    # of one half's compositions, head 1..h or tail h+1..m, by degree.  A
    # stack entry (v, d, p) has parts for the variables before v, and is
    # finished once v passes the last one or d reaches hi, since every later
    # part must then be 0; a part after which the rest of its half, plus
    # ``other``, the most the other half adds, can no longer reach lo is
    # skipped.  The halves are paired by degree as the module docstring
    # states, for each pair of degrees whose sum lands in [lo, hi].
    top = parts[-1]
    h = m - m // 2

    def by_degree(first, last, other):
        lists: dict[int, list[int]] = {}
        stack = [(first, 0, 1)]
        while stack:
            v, deg, prod = stack.pop()
            if v > last or deg == hi:
                lists.setdefault(deg, []).append(prod)
                continue
            # the least degree after variable v from which lo is reachable
            floor = lo - other - (last - v) * top
            for a in parts:
                d = deg + a
                if d > hi:
                    break
                if d >= floor:
                    stack.append((v + 1, d, prod * v**a))
        return sorted(lists.items())

    tails = by_degree(h + 1, m, h * top)
    out = [0] * (hi + 1)
    for deg, heads in by_degree(1, h, (m - h) * top):
        for t, prods in tails:
            d = deg + t
            if d > hi:
                break
            if d >= lo:
                out[d] += sum(starmap(mul, product(heads, prods)))
    return out


def _stirling2_mod_column(k: int, s: int, depth: int) -> list[int]:
    # out[d] = M_d^(s)(1..k) = {k+d, k}^(s) for d = 0..depth: parts congruent
    # to 0 or 1 mod s+1
    return _point_sums(k, _residue_parts(depth, s, 1), 0, depth)


def stirling2_mod(n: int, k: int, s: int, method: str = "recurrence") -> int:
    """{n,k}^(s) = M_{n-k}^(s)(1..k) by the requested route.

    ``specialization`` walks the admissible compositions into k parts of
    every degree up to n-k, summing their monomials at the point (1..k) by
    degree, and never builds M; ``recurrence`` reads the recurrence table.
    """
    _at_least("s", s, 1)
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got (n, k) = ({n}, {k})")
    _one_of("method", method, STIRLING2_MOD_METHODS)
    if method == "specialization":
        return _stirling2_mod_column(k, s, n - k)[n - k]
    return _last_entry(_modular_rows(range(1, k + 1), 1, n - k, s), n - k)


def _stirling1_mod_column(n: int, s: int, degree: int | None = None) -> list[int]:
    # out[idx] = E_idx^(s)(1..n-1) = [n, (n-1)s+1-idx]^(s): parts at most s.
    # It sums every degree, or only ``degree`` when given, so that one value
    # near either end of a long row costs its own few compositions.
    lo, hi = (0, (n - 1) * s) if degree is None else (degree, degree)
    return _point_sums(n - 1, range(s + 1), lo, hi)


def stirling1_mod(n: int, k: int, s: int) -> int:
    """[n,k]^(s) in integer form: E_{(n-1)s-(k-1)}^(s) at the point (1..n-1).

    Walks the compositions of that index into n-1 parts at most s and sums
    their monomials at the point; E is never built.  Zero whenever the
    target index falls outside [0, (n-1)s].
    """
    _at_least("n and k", (n, k), 1)
    _at_least("s", s, 1)
    idx = (n - 1) * s - (k - 1)
    if idx < 0:
        return 0
    return _stirling1_mod_column(n, s, idx)[idx]


def stirling1_mod_rec(n: int, k: int, s: int) -> int:
    """[n,k]^(s) = E_{(n-1)s+1-k}^(s)(1..n-1) by the E^(s) product rule.

    Defined for any integer k; values vanish below k = 1-s and above
    k = (n-1)s + 1.
    """
    _at_least("n", n, 0)
    _at_least("s", s, 1)
    depth = (n - 1) * s + 1 - k
    return _last_entry(_bounded_rows(range(1, n), s, depth), depth)


def stirling1_higher(n: int, k: int, s: int) -> int:
    """Level-s first kind [n,k]_s = e_{n-k}(0^s, 1^s, ..., (n-1)^s)."""
    _at_least("n and k", (n, k), 0)
    _at_least("s", s, 1)
    return _last_entry(_bounded_rows([j**s for j in range(n)], 1, n - k), n - k)


def omega_poly(n: int, s: int) -> Polynomial:
    """The univariate product x(x+1^s)(x+2^s)...(x+(n-1)^s); 1 when n = 0.

    Its x^k coefficient equals stirling1_higher(n, k, s).
    """
    _at_least("n", n, 0)
    _at_least("s", s, 1)
    result = Polynomial.one()
    x = Polynomial.variable(1)
    for j in range(n):
        result = result * (x + j**s)
    return result


def stirling2_mod_series(k: int, s: int, degree_bound: int) -> list[int]:
    """Coefficients of prod_{r=1}^{k} (1+rx)/(1-(rx)^{s+1}) up to x^degree_bound.

    Coefficient m equals stirling2_mod(k+m, k, s): the column generating
    function of the modular second-kind triangle in the offset n-k.
    """
    _at_least("k", k, 0)
    _at_least("s", s, 1)
    _at_least("degree bound", degree_bound, 0)
    return _series_product(range(1, k + 1), s, degree_bound)


def triangle_rows(family: str, s: int, n_max: int) -> list[list[int]]:
    """Full triangle up to row n_max.

    Classical, modular-second-kind and higher-level rows span k = 0..n.  The
    modular first kind is wider: row n spans k = 0..max(0, (n-1)s + 1), the
    full range where values can be nonzero (at s = 1 this is the classical
    shape with a zero k = 0 column).
    """
    _one_of("family", family, TRIANGLE_FAMILIES)
    _at_least("s", s, 1)
    _at_least("n_max", n_max, 0)
    if family == "stirling2mod":
        cols = list(_modular_rows(range(1, n_max + 1), 1, n_max, s, total=n_max))
        return [[cols[k][n - k] for k in range(n + 1)] for n in range(n_max + 1)]
    if family == "stirling2":
        return list(islice(_rows_stirling2(), n_max + 1))
    # a first kind: the E^(bound) rows at 0^level, 1^level, ... from the top;
    # row 0 of the modular kind holds only k = 1-s, so [0,0]^(s) = 0 unless s = 1
    level, bound = {"stirling1mod": (1, s), "stirling1higher": (s, 1)}.get(family, (1, 1))
    rows = islice(_bounded_rows((j**level for j in count(0)), bound), n_max + 1)
    return [row[len(row) - bound :: -1] if len(row) >= bound else [0] for row in rows]


def triangle_csv(rows: list[list[int]]) -> str:
    """CSV serialization with header n,k,value, one line per cell."""
    # cells are non-negative ints, which a CSV writer never quotes
    return "n,k,value\n" + "".join(
        f"{n},{k},{value}\n"
        for n, row in enumerate(rows)
        for k, value in enumerate(row)
    )


def triangle_from_csv(text: str) -> list[list[int]]:
    """Inverse of triangle_csv (used by the round-trip contract)."""
    reader = csv.reader(StringIO(text))
    header = next(reader, None)
    if header != ["n", "k", "value"]:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows: list[list[int]] = []
    for n_str, k_str, v_str in reader:
        n, k, v = int(n_str), int(k_str), int(v_str)
        if n == len(rows):
            rows.append([])
        if n != len(rows) - 1 or k != len(rows[n]):
            raise ValueError(f"cell ({n}, {k}) out of order")
        rows[n].append(v)
    return rows


def triangle_json_obj(family: str, s: int | None, rows: list[list[int]]) -> dict:
    """JSON-ready triangle object: {"family": ..., "s": ..., "rows": [[...]]}."""
    return {"family": family, "s": s, "rows": rows}
