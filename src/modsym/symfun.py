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

All functions are pure; memo tables live inside a single call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb

from modsym.polycore import Polynomial, TruncatedSeries, series_mul

MODULAR_METHODS = ("enumeration", "recurrence", "convolution")


@dataclass(frozen=True)
class SymFunParams:
    """Validated parameter bundle for the symmetric-function families."""

    n: int
    k: int
    s: int = 1
    ell: int = 1

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if not 0 <= self.ell <= self.s:
            raise ValueError(f"ell must satisfy 0 <= ell <= s, got {self.ell}")


def _residue_parts(limit: int, s: int, ell: int):
    # Admissible part sizes congruent to 0 or ell mod s+1, ascending.
    # Emits only admissible values; never filters a full range.
    step = s + 1
    base = 0
    while base <= limit:
        yield base
        if ell and base + ell <= limit:
            yield base + ell
        base += step


def _composition_poly(num_vars: int, degree: int, parts_for, first_ok) -> Polynomial:
    """Sum of x^a over the compositions a of ``degree`` into ``num_vars`` parts.

    ``parts_for(remaining)`` lists admissible part values; ``first_ok`` decides
    whether the leftover degree is an admissible value for the first variable,
    so the last recursion level never loops.  Parts are assigned to the last
    variable first.  Every composition is a distinct exponent vector, so all
    coefficients are 1.
    """
    if num_vars == 0:
        return Polynomial.one() if degree == 0 else Polynomial.zero()
    terms: dict = {}
    buf = [0] * num_vars

    def rec(i: int, remaining: int):
        if i == 0:
            if first_ok(remaining):
                buf[0] = remaining
                end = num_vars
                while end and buf[end - 1] == 0:
                    end -= 1
                terms[tuple(buf[:end])] = 1
            return
        for a in parts_for(remaining):
            buf[i] = a
            rec(i - 1, remaining - a)

    rec(num_vars - 1, degree)
    return Polynomial._raw(terms)


def elem_sym(n: int, k: int) -> Polynomial:
    """Elementary symmetric polynomial e_k(x_1..x_n); 0 when k > n, 1 when k = 0."""
    SymFunParams(n, k)
    if k > n:
        return Polynomial.zero()
    terms = {}
    for subset in combinations(range(n), k):
        exps = [0] * (subset[-1] + 1) if subset else []
        for i in subset:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return Polynomial._raw(terms)


def comp_sym(n: int, k: int) -> Polynomial:
    """Complete homogeneous symmetric polynomial h_k(x_1..x_n); h_0 = 1."""
    SymFunParams(n, k)
    if n == 0:
        return Polynomial.one() if k == 0 else Polynomial.zero()
    terms = {}
    for multiset in combinations_with_replacement(range(n), k):
        exps = [0] * (multiset[-1] + 1) if multiset else []
        for i in multiset:
            exps[i] += 1
        terms[tuple(exps)] = 1
    return Polynomial._raw(terms)


def bounded_elem_sym(n: int, k: int, s: int) -> Polynomial:
    """E_k^(s)(x_1..x_n): compositions of k into n parts each at most s.

    Zero when k > n*s; equals elem_sym(n, k) at s = 1.
    """
    SymFunParams(n, k, s)
    if k > n * s:
        return Polynomial.zero()
    return _composition_poly(
        n, k, lambda rem: range(min(rem, s) + 1), lambda rem: rem <= s
    )


def lmodular_sym(n: int, k: int, s: int, ell: int) -> Polynomial:
    """M_k^(s,ell): compositions of k with every part congruent to 0 or ell mod s+1."""
    SymFunParams(n, k, s, ell)
    step = s + 1
    return _composition_poly(
        n,
        k,
        lambda rem: _residue_parts(rem, s, ell),
        lambda rem: rem % step == 0 or rem % step == ell,
    )


def _modular_rec(n: int, k: int, s: int, memo: dict) -> Polynomial:
    # Variable-count recurrence; the constant-term shortcut for k < s+1 sums
    # x_n^j M_{k-j}(n-1) over admissible j, the k >= s+1 branch peels x_n^{s+1}.
    key = (n, k)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if n == 0:
        result = Polynomial.one() if k == 0 else Polynomial.zero()
    elif k >= s + 1:
        result = (
            _modular_rec(n, k - s - 1, s, memo).mul_power(n, s + 1)
            + _modular_rec(n - 1, k - 1, s, memo).mul_power(n, 1)
            + _modular_rec(n - 1, k, s, memo)
        )
    else:
        result = Polynomial.zero()
        for j in _residue_parts(k, s, 1):
            result = result + _modular_rec(n - 1, k - j, s, memo).mul_power(n, j)
    memo[key] = result
    return result


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
    SymFunParams(n, k, s)
    if method == "enumeration":
        return lmodular_sym(n, k, s, 1)
    if method == "recurrence":
        return _modular_rec(n, k, s, {})
    if method == "convolution":
        return _modular_conv(n, k, s, s + 1)
    raise ValueError(
        f"unknown method {method!r}; expected one of {MODULAR_METHODS}"
    )


def modular_series(n: int, s: int, degree_bound: int) -> TruncatedSeries:
    """Truncation of prod_{i=1}^n (1+x_i t)/(1-(x_i t)^{s+1}).

    Coefficient of t^k is modular_sym(n, k, s) for every k up to the bound.
    Each factor is expanded as (1+x_i t) * sum_j (x_i t)^{(s+1)j}: the t^m
    coefficient of factor i is x_i^m when m is congruent to 0 or 1 mod s+1
    and zero otherwise.
    """
    SymFunParams(n, 0, s)
    if degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    result = TruncatedSeries.one(degree_bound)
    for i in range(1, n + 1):
        factor = [Polynomial.zero()] * (degree_bound + 1)
        for m in _residue_parts(degree_bound, s, 1):
            factor[m] = Polynomial.monomial((0,) * (i - 1) + (m,))
        result = series_mul(result, TruncatedSeries(factor, degree_bound))
    return result


def modular_all_ones(n: int, k: int, s: int, *, _shift: int = 0) -> int:
    """M_k^(s) evaluated with every variable equal to 1.

    Counts the admissible compositions directly:
    sum_j C(n, k-j(s+1)) * C(j+n-1, n-1) over 0 <= j <= k // (s+1).
    A nonzero ``_shift`` perturbs the second binomial to C(j+n-1+_shift, n-1);
    only the verifier's mutation self-test sets it.
    """
    SymFunParams(n, k, s)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = 0
    for j in range(k // (s + 1) + 1):
        r = k - j * (s + 1)
        if r <= n:
            total += comb(n, r) * comb(j + n - 1 + _shift, n - 1)
    return total
