"""Stirling-number families: classical both kinds, the modular s-variants of
both kinds, the higher-level first kind, and the connection polynomials.

Value conventions, with ``{n,k}`` the second kind and ``[n,k]`` the unsigned
first kind:

* ``stirling2_mod``  {n,k}^(s) = M_{n-k}^(s)(1..k).  Two routes: the
  specialization at the point (``specialization``) and a second-order
  recurrence (``recurrence``) valid while n-k >= s+1, with specialization
  values below that threshold.
* ``stirling1_mod``  [n,k]^(s), computed in integer form as
  E_{(n-1)s-(k-1)}^(s)(1..n-1): multiplying the reciprocal-point definition
  through by ((n-1)!)^s turns every exponent a_i into s-a_i, so no rational
  arithmetic is ever needed.
* ``stirling1_mod_rec``  the same family by its order-s recurrence
  [n,k]^(s) = sum_{l=0}^{s} [n-1, k-(s-l)]^(s) * (n-1)^l with the single
  seed value 1 at (n, k) = (0, 1-s).
* ``stirling1_higher``  [n,k]_s with [n,k]_s = [n-1,k-1]_s + (n-1)^s [n-1,k]_s;
  these are the x^k coefficients of omega_poly(n, s).

Each triangle recurrence is written once, as a generator of successive
rows; the scalar functions read row n from it and ``triangle_rows`` takes the
first rows.  Rows are built bottom-up, so row counts in the hundreds stay
cheap and no recursion depth is ever an issue.

Both specializations are walks over compositions that multiply out each
monomial at the point as they go and never build the polynomial.  One walk
covers every degree, summing the products by degree, so it yields every k of
a first-kind row n, or every n of a second-kind column k.  The walks visit
every composition and share no work between them, unlike the recurrences'
dynamic programs, so each stays a route independent of the recurrences.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from io import StringIO
from itertools import count, islice
import csv

from modsym.polycore import Polynomial, _cauchy
from modsym.symfun import _residue_parts

TRIANGLE_FAMILIES = (
    "stirling2",
    "stirling1",
    "stirling2mod",
    "stirling1mod",
    "stirling1higher",
)

STIRLING2_MOD_METHODS = ("specialization", "recurrence")


@dataclass(frozen=True)
class StirlingQuery:
    """A (family, n, k, s) cell request; s is ignored by the classical families."""

    n: int
    k: int
    family: str
    s: int = 1

    def __post_init__(self):
        if self.family not in TRIANGLE_FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {TRIANGLE_FAMILIES}"
            )
        if self.n < 0 or self.k < 0:
            raise ValueError(f"n and k must be >= 0, got ({self.n}, {self.k})")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")


def _nth_row(rows: Iterator, n: int):
    return next(islice(rows, n, None))


def _rows_stirling2() -> Iterator[list[int]]:
    # rows [{n,0}, ..., {n,n}] for n = 0, 1, 2, ...
    row = [1]
    for i in count(1):
        yield row
        row = [0] + [row[j - 1] + j * row[j] if j < i else row[j - 1] for j in range(1, i + 1)]


def _rows_stirling1() -> Iterator[list[int]]:
    # rows [[n,0], ..., [n,n]] for n = 0, 1, 2, ...
    row = [1]
    for i in count(1):
        yield row
        row = [0] + [
            (i - 1) * (row[j] if j < i else 0) + row[j - 1] for j in range(1, i + 1)
        ]


def _rows_stirling1_higher(s: int) -> Iterator[list[int]]:
    # rows [[n,0]_s, ..., [n,n]_s] for n = 0, 1, 2, ...
    row = [1]
    for i in count(1):
        yield row
        w = (i - 1) ** s
        row = [0] + [row[j - 1] + w * (row[j] if j < i else 0) for j in range(1, i + 1)]


def _rows_stirling1_mod(s: int) -> Iterator[dict[int, int]]:
    # nonzero values {k: [n,k]^(s)} for n = 0, 1, 2, ..., from the n = 0 seed
    lo = 1 - s
    row = {lo: 1}
    for i in count(1):
        yield row
        base = i - 1
        new = {}
        for kk in range(lo, (i - 1) * s + 2):
            acc = 0
            for l in range(s + 1):
                prev = row.get(kk - (s - l))
                if prev:
                    acc += prev * base**l
            if acc:
                new[kk] = acc
        row = new


def stirling2(n: int, k: int) -> int:
    """{n,k} via {n,k} = {n-1,k-1} + k*{n-1,k}, {0,0} = 1."""
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be >= 0, got ({n}, {k})")
    if k > n:
        return 0
    return _nth_row(_rows_stirling2(), n)[k]


def stirling1(n: int, k: int) -> int:
    """Unsigned [n,k] via [n,k] = (n-1)*[n-1,k] + [n-1,k-1], [0,0] = 1."""
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be >= 0, got ({n}, {k})")
    if k > n:
        return 0
    return _nth_row(_rows_stirling1(), n)[k]


def _modular_eval_consecutive(num_vars: int, degree: int, s: int) -> int:
    # M_degree^(s)(1, 2, ..., num_vars): integer dynamic program over the
    # variable-count recurrence, one admissible part at a time.
    table = [0] * (degree + 1)
    table[0] = 1
    for v in range(1, num_vars + 1):
        nxt = [0] * (degree + 1)
        for m in range(degree + 1):
            acc = 0
            for j in _residue_parts(m, s, 1):
                if table[m - j]:
                    acc += v**j * table[m - j]
            nxt[m] = acc
        table = nxt
    return table[degree]


def _stirling2_mod_table(n: int, k_hi: int, s: int) -> list[list[int]]:
    # rows[i][j] = {i, j}^(s) for 0 <= j <= min(i, k_hi), filled bottom-up.
    # Cells with i-j < s+1 come from the specialization value; the rest from
    # {i,j} = {i-1,j-1} + j*{i-2,j-1} + j^{s+1}*{i-s-1,j}.
    rows: list[list[int]] = []
    for i in range(n + 1):
        row = []
        for j in range(min(i, k_hi) + 1):
            if j == 0:
                row.append(1 if i == 0 else 0)
            elif i - j < s + 1:
                row.append(_modular_eval_consecutive(j, i - j, s))
            else:
                row.append(
                    rows[i - 1][j - 1]
                    + j * rows[i - 2][j - 1]
                    + j ** (s + 1) * (rows[i - s - 1][j] if j <= i - s - 1 else 0)
                )
        rows.append(row)
    return rows


def _stirling2_mod_column(k: int, s: int, depth: int) -> list[int]:
    # out[d] = M_d^(s)(1..k) = {k+d, k}^(s) for d = 0..depth: one walk over
    # the compositions into k parts congruent to 0 or 1 mod s+1, adding each
    # product 1^{a_1}...k^{a_k} into out[sum a].  A path that reaches depth
    # stops there, since every later part must then be 0.
    out = [0] * (depth + 1)

    def walk(v: int, deg: int, prod: int):
        if deg == depth or v > k:
            out[deg] += prod
            return
        for a in _residue_parts(depth - deg, s, 1):
            walk(v + 1, deg + a, prod * v**a)

    walk(1, 0, 1)
    return out


def stirling2_mod(n: int, k: int, s: int, method: str = "recurrence") -> int:
    """{n,k}^(s) = M_{n-k}^(s)(1..k) by the requested route.

    ``specialization`` walks the admissible compositions into k parts of
    every degree up to n-k, summing their monomials at the point (1..k) by
    degree, and never builds M; ``recurrence`` reads the recurrence table.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got (n, k) = ({n}, {k})")
    if method == "specialization":
        return _stirling2_mod_column(k, s, n - k)[n - k]
    if method == "recurrence":
        return _stirling2_mod_table(n, k, s)[n][k]
    raise ValueError(
        f"unknown method {method!r}; expected one of {STIRLING2_MOD_METHODS}"
    )


def _stirling1_mod_column(n: int, s: int, degree: int | None = None) -> list[int]:
    # out[idx] = E_idx^(s)(1..n-1) = [n, (n-1)s+1-idx]^(s): one walk over the
    # compositions into n-1 parts at most s, adding each product
    # 1^{a_1}...(n-1)^{a_{n-1}} into out[sum a].  It walks every degree, or
    # only ``degree`` when given, so that one value near either end of a long
    # row costs its own few compositions, not the whole row.
    last = n - 1
    top = last * s
    lo, hi = (0, top) if degree is None else (degree, degree)
    # the degree after variable v from which the later parts still reach lo
    floor = [lo - (last - v) * s for v in range(n)]
    out = [0] * (top + 1)

    def walk(v: int, deg: int, prod: int):
        first = floor[v]
        if first > deg:
            prod *= v ** (first - deg)
        else:
            first = deg
        for a in range(first, min(deg + s, hi) + 1):
            if v == last:
                out[a] += prod
            else:
                walk(v + 1, a, prod)
            prod *= v

    if last:
        walk(1, 0, 1)
    else:
        out[0] = 1
    return out


def stirling1_mod(n: int, k: int, s: int) -> int:
    """[n,k]^(s) in integer form: E_{(n-1)s-(k-1)}^(s) at the point (1..n-1).

    Walks the compositions of that index into n-1 parts at most s and sums
    their monomials at the point; E is never built.  Zero whenever the
    target index falls outside [0, (n-1)s].
    """
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be >= 1, got ({n}, {k})")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    idx = (n - 1) * s - (k - 1)
    if idx < 0:
        return 0
    return _stirling1_mod_column(n, s, idx)[idx]


def stirling1_mod_rec(n: int, k: int, s: int) -> int:
    """[n,k]^(s) by its order-s recurrence, seeded by [0, 1-s]^(s) = 1.

    Defined for any integer k; values vanish below k = 1-s and above
    k = (n-1)s + 1.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return _nth_row(_rows_stirling1_mod(s), n).get(k, 0)


def stirling1_higher(n: int, k: int, s: int) -> int:
    """Level-s first kind [n,k]_s = [n-1,k-1]_s + (n-1)^s [n-1,k]_s, [0,0]_s = 1."""
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be >= 0, got ({n}, {k})")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if k > n:
        return 0
    return _nth_row(_rows_stirling1_higher(s), n)[k]


def omega_poly(n: int, s: int) -> Polynomial:
    """The univariate product x(x+1^s)(x+2^s)...(x+(n-1)^s); 1 when n = 0.

    Its x^k coefficient equals stirling1_higher(n, k, s).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    result = Polynomial.one()
    x = Polynomial.variable(1)
    for j in range(n):
        result = result * (x + j**s)
    return result


def stirling2_mod_series(
    k: int, s: int, degree_bound: int, *, _numerator: int = 1
) -> list[int]:
    """Coefficients of prod_{r=1}^{k} (1+rx)/(1-(rx)^{s+1}) up to x^degree_bound.

    Coefficient m equals stirling2_mod(k+m, k, s): the column generating
    function of the modular second-kind triangle in the offset n-k.
    ``_numerator`` is the power of x in each numerator 1 + r*x^_numerator;
    only the verifier sets it, to s, to evaluate the commonly printed
    numerator 1 + r*x^s, which does not give the triangle.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    out = [1] + [0] * degree_bound
    for r in range(1, k + 1):
        # (1 + r*x^_numerator) * sum_j (r*x)^{(s+1)j}
        f = [0] * (degree_bound + _numerator + 1)
        for base in range(0, degree_bound + 1, s + 1):
            f[base] = r**base
            f[base + _numerator] = r ** (base + 1)
        out = _cauchy(out, f, degree_bound)
    return out


def triangle_rows(family: str, s: int, n_max: int) -> list[list[int]]:
    """Full triangle up to row n_max.

    Classical, modular-second-kind and higher-level rows span k = 0..n.  The
    modular first kind is wider: row n spans k = 0..max(0, (n-1)s + 1), the
    full range where values can be nonzero (at s = 1 this is the classical
    shape with a zero k = 0 column).
    """
    StirlingQuery(0, 0, family, s)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if family == "stirling2mod":
        return _stirling2_mod_table(n_max, n_max, s)
    if family == "stirling1mod":
        return [
            [row.get(k, 0) for k in range(max(0, (n - 1) * s + 1) + 1)]
            for n, row in enumerate(islice(_rows_stirling1_mod(s), n_max + 1))
        ]
    if family == "stirling2":
        rows = _rows_stirling2()
    elif family == "stirling1":
        rows = _rows_stirling1()
    else:
        rows = _rows_stirling1_higher(s)
    return list(islice(rows, n_max + 1))


def triangle_csv(rows: list[list[int]]) -> str:
    """CSV serialization with header n,k,value, one line per cell."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "k", "value"])
    for n, row in enumerate(rows):
        for k, value in enumerate(row):
            writer.writerow([n, k, value])
    return buf.getvalue()


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
