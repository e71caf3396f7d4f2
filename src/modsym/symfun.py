"""Symmetric function families, each computable by independent routes.

Conventions: ``n`` is the number of variables x_1..x_n, ``k`` the total
degree, ``s >= 1`` the modulus parameter.  The families:

* ``elem_sym``     e_k: sum over products of k distinct variables.
* ``comp_sym``     h_k: sum over all degree-k monomials.
* ``modular_sym``  M_k^(s): sum of x_1^{a_1}..x_n^{a_n} over compositions a
  of k whose parts are all congruent to 0 or 1 mod s+1.  Reduces to h_k at
  s = 1; M_k^(s) of zero variables is 1 for k = 0 and 0 otherwise.
* ``lmodular_sym`` M_k^(s,l): parts congruent to 0 or l mod s+1.
* ``bounded_elem_sym`` E_k^(s): parts at most s.  Reduces to e_k at s = 1.

``modular_sym`` offers three routes (direct enumeration, a recurrence in the
variable count, and a convolution of h in powered variables with e) that
must agree on the canonical form; ``modular_series`` provides a fourth via
the product generating function prod_i (1+x_i t)/(1-(x_i t)^{s+1}).

Three rules are each written once, and the values passed in pick the ring:
the M^(s,ell) rows (``_modular_rows``), the E^(s) product rows
(``_bounded_rows``) and the product series (``_series_product``).  At
integers they give values and build no polynomial: ``modsym eval`` reads a
point through them, and ``stirling`` reads both modular triangles from them.
Each rule pads no row and forms no power past the degree it returns (such a
power stands as 0), so its work is bounded by that degree, not by s.

All functions are pure.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
from itertools import combinations, combinations_with_replacement
from math import comb

from modsym.polycore import Polynomial, TruncatedSeries, _at_least, _cauchy, _one_of

MODULAR_METHODS = ("enumeration", "recurrence", "convolution")


def _check_params(n: int, k: int, s: int = 1, ell: int = 1) -> None:
    # the domain of every family here, checked in this order
    _at_least("n", n, 0)
    _at_least("k", k, 0)
    _at_least("s", s, 1)
    if not 0 <= ell <= s:
        raise ValueError(f"ell must satisfy 0 <= ell <= s, got {ell}")


def _residue_parts(limit: int, s: int, ell: int) -> list[int]:
    # Admissible part sizes congruent to 0 or ell mod s+1, ascending: two
    # ranges, never a filter over a full one.
    return sorted({*range(0, limit + 1, s + 1), *range(ell, limit + 1, s + 1)})


def _composition_poly(num_vars: int, degree: int, parts: Sequence[int]) -> Polynomial:
    """Sum of x^a over the compositions a of ``degree`` into ``num_vars`` parts.

    ``parts`` lists the admissible part values, ascending from 0 and at most
    ``degree``, as ``stirling._point_sums`` takes them.  The walk has the
    shape of that function's head walk alone, as no tail is paired here: one
    explicit stack holds prefixes (a_1, ..., a_j) with the degree they leave,
    so any number of variables walks.  A prefix that reaches the degree is a
    finished term, since every later part must be 0; its last part is nonzero,
    so the prefix is already the trimmed exponent tuple.  The last variable
    takes the degree that is left when ``ok`` admits it, so the walk never
    loops over it.  Every composition is a distinct exponent vector, so all
    coefficients are 1.
    """
    ok = [False] * (degree + 1)
    for a in parts:
        ok[a] = True
    last = num_vars - 1
    terms: dict = {}
    stack = [((), degree)]
    while stack:
        prefix, rest = stack.pop()
        if not rest:
            terms[prefix] = 1
        elif len(prefix) == last:
            if ok[rest]:
                terms[prefix + (rest,)] = 1
        elif len(prefix) < last:
            for a in parts:
                if a > rest:
                    break
                stack.append((prefix + (a,), rest - a))
    return Polynomial._raw(terms)


def _index_tuple_poly(index_tuples) -> Polynomial:
    # the sum of x_{i_1+1}...x_{i_k+1} over distinct ascending index tuples,
    # each its own monomial: 0 for no tuple, 1 for the empty one
    terms = {}
    for idx in index_tuples:
        exps = [0] * (idx[-1] + 1) if idx else []
        for i in idx:
            exps[i] += 1
        terms[tuple(exps)] = 1
    return Polynomial._raw(terms)


def elem_sym(n: int, k: int) -> Polynomial:
    """Elementary symmetric polynomial e_k(x_1..x_n); 0 when k > n, 1 when k = 0."""
    _check_params(n, k)
    return _index_tuple_poly(combinations(range(n), k))


def comp_sym(n: int, k: int) -> Polynomial:
    """Complete homogeneous symmetric polynomial h_k(x_1..x_n); h_0 = 1."""
    _check_params(n, k)
    return _index_tuple_poly(combinations_with_replacement(range(n), k))


def bounded_elem_sym(n: int, k: int, s: int) -> Polynomial:
    """E_k^(s)(x_1..x_n): compositions of k into n parts each at most s.

    Zero when k > n*s; equals elem_sym(n, k) at s = 1.
    """
    _check_params(n, k, s)
    if k > n * s:
        return Polynomial.zero()
    return _composition_poly(n, k, range(min(k, s) + 1))


def lmodular_sym(n: int, k: int, s: int, ell: int) -> Polynomial:
    """M_k^(s,ell): compositions of k with every part congruent to 0 or ell mod s+1."""
    _check_params(n, k, s, ell)
    return _composition_poly(n, k, _residue_parts(k, s, ell))


def _modular_rows(xs: Sequence, one, depth: int, s: int, total=None, ell=1):
    # The rows [M_0, ..., M_depth] of x_1..x_j, for j = 0..len(xs) in turn, by
    # M_d(j) = M_d(j-1) + x_j^ell M_{d-ell}(j-1) + x_j^{s+1} M_{d-s-1}(j), a
    # term of negative degree read as 0 (the middle one is dropped at ell = 0):
    # a part is 0 or ell plus a multiple of s+1.  At the ints 1..k (one = 1,
    # ell = 1), row j holds {j+d, j}^(s) at d, and stops at total - j if given.
    row = [one] + [one * 0] * depth
    for j, x in enumerate(xs, 1):
        yield row
        prev, row = row, []
        top = depth if total is None else min(depth, total - j)
        v = x**ell if 0 < ell <= top else 0
        w = x ** (s + 1) if s < top else 0
        for d in range(top + 1):
            m = prev[d]
            if 0 < ell <= d:
                m = m + v * prev[d - ell]
            if d > s:
                m = m + w * row[d - s - 1]
            row.append(m)
    yield row


def _bounded_rows(xs, s: int, depth: int | None = None) -> Iterator[list]:
    # Row j, for j = 0, 1, ... over the values of xs, is [E_0^(s), ...,
    # E_js^(s)] of x_1..x_j, the coefficients of prod_{i<=j} sum_{t<=s}
    # (x_i u)^t, cut at u^depth when given (no cell at a negative depth):
    # row j-1 plus x_j^t times row j-1 shifted by t, for t = 1..width, where
    # width is s cut at the depth: a longer shift writes only cut cells.
    width = s if depth is None else max(min(s, depth), 0)
    row = [1]
    for x in xs:
        yield row
        new = row + [0] * width
        for t in range(1, width + 1):
            p = x**t
            new[t : t + len(row)] = [a + p * b for a, b in zip(new[t:], row)]
        row = new if depth is None else new[: max(depth + 1, 0)]
    yield row


def _entry(seq, i: int):
    # entry i, or 0 outside seq: a negative i must read 0, not wrap around
    return seq[i] if 0 <= i < len(seq) else 0


def _last_entry(rows: Iterator, k: int):
    # entry k of the last row, or 0 outside it: one value of a rule
    return _entry(deque(rows, maxlen=1)[0], k)


def _modular_rec(n: int, k: int, s: int) -> list[Polynomial]:
    # the row [M_0, ..., M_k] of x_1..x_n
    variables = [Polynomial.variable(i) for i in range(1, n + 1)]
    return deque(_modular_rows(variables, Polynomial.one(), k, s), maxlen=1)[0]


def _modular_conv(n: int, k: int, s: int, h_power: int) -> Polynomial:
    # sum_j h_j(x^h_power) * e_{k-(s+1)j}; M_k^(s) has h_power = s+1
    result = Polynomial.zero()
    for j in range(k // (s + 1) + 1):
        e_part = elem_sym(n, k - (s + 1) * j)
        if e_part:
            result = result + comp_sym(n, j).substitute_power(h_power) * e_part
    return result


def modular_sym(n: int, k: int, s: int, method: str = "enumeration") -> Polynomial:
    """M_k^(s)(x_1..x_n) by the requested route; all routes agree canonically."""
    _check_params(n, k, s)
    _one_of("method", method, MODULAR_METHODS)
    if method == "enumeration":
        return lmodular_sym(n, k, s, 1)
    if method == "recurrence":
        return _modular_rec(n, k, s)[k]
    return _modular_conv(n, k, s, s + 1)


def _series_product(xs: Sequence, s: int, bound: int, numerator: int = 1) -> list:
    # t^0..t^bound of the product over x of (1 + x t^numerator) times
    # sum_j (x t)^{(s+1)j}: a factor holds x^b at t^b and x^{b+1} at
    # t^{b+numerator}, for each multiple b of s+1.
    out = [1] + [0] * bound
    for x in xs:
        w = x ** (s + 1) if s < bound else 0
        factor = [0] * (bound + numerator + 1)
        p = 1
        for base in range(0, bound + 1, s + 1):
            factor[base] = p
            factor[base + numerator] = p * x
            p = p * w
        out = _cauchy(out, factor, bound)
    return out


def modular_series(n: int, s: int, degree_bound: int) -> TruncatedSeries:
    """Truncation of prod_{i=1}^n (1+x_i t)/(1-(x_i t)^{s+1}).

    Coefficient of t^k is modular_sym(n, k, s) for every k up to the bound.
    Each factor is expanded as (1+x_i t) * sum_j (x_i t)^{(s+1)j}: the t^m
    coefficient of factor i is x_i^m when m is congruent to 0 or 1 mod s+1
    and zero otherwise.
    """
    _check_params(n, 0, s)
    _at_least("degree bound", degree_bound, 0)
    variables = [Polynomial.variable(i) for i in range(1, n + 1)]
    return TruncatedSeries(_series_product(variables, s, degree_bound), degree_bound)


def modular_all_ones(n: int, k: int, s: int) -> int:
    """M_k^(s) evaluated with every variable equal to 1.

    Counts the admissible compositions directly:
    sum_j C(n, k-j(s+1)) * C(j+n-1, n-1) over 0 <= j <= k // (s+1).
    """
    _check_params(n, k, s)
    _at_least("n", n, 1)
    total = 0
    for j in range(k // (s + 1) + 1):
        r = k - j * (s + 1)
        if r <= n:
            total += comb(n, r) * comb(j + n - 1, n - 1)
    return total
