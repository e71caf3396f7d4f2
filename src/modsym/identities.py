"""Registry of the library's exact identities plus a range-driven verifier.

Every relation between the algebraic routes (symmetric-function identities,
triangle recurrences, generating functions, specializations) and the
brute-force oracles (paths, tilings, partition filters, permutation tuples)
is catalogued here once, as one ``IdentityInfo`` record: a stable id, its
grid, checker, profile bounds and erratum, if any; ``list_identities``
returns the records.  ``verify`` checks one identity over a parameter grid
and reports pass/fail/skip totals with the failing cells in grid order;
``verify_all`` sweeps the whole catalog under a bounds profile.

Each cell checker takes the memo, the grid bounds and its cell by name, as
``check(ctx, r, **cell)`` with the keys the grid yields (n, k, s, m, p or
ell), and returns the two sides of its identity (integers or canonical
polynomials); the cell runner alone compares them, by exact equality with no
tolerances, and serializes them.  Cells whose preconditions fail (even s for
the odd-s vanishing identity, gcd(ell, s+1) > 1 for the residue-ell
expansion, and off the grids n < 1 for S1MOD_REC and k < 1 for EVANISH) are
counted as skipped, never as failures.  An index that may fall outside a
memoised row, column or series is read through ``symfun._entry``: entry i,
or 0 outside it, from a sequence grown to depth max(i, grid bound).

``mutation_selftest`` reruns five catalog checkers, each with one keyword
hook (a constant whose default is the true value) changed; each must fail
somewhere, guarding the suite against vacuous passes.  Every hook is a
checker keyword; no library function takes one.  Three entries carry an
erratum: a commonly printed variant of the statement that provably
disagrees with the defining specialization.  Each variant is its entry's
own checker with one hook changed (for S2MOD_GF the numerator power s in
place of 1), run over a fixed probe grid; its first failing cell is
recorded in the report's ``errata`` field and is never asserted.

Grid cells are independent pure computations.  They run one after another
in grid order and share one memo of library calls per verify call;
``verify_all`` keeps one memo for its whole sweep, so an identity reads the
values another has already computed.  The memo is a ``functools.cache``
made fresh for each call (a verify, a sweep, a ``check_cell``, an erratum
probe or a mutation run), never a global one.  A memo only ever replays a
library call, so the two sides of a cell still reach different routes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, field, replace
from functools import cache, partial
from math import comb, gcd

from modsym import enumeration, stirling, symfun
from modsym.enumeration import (
    count_equal_minset_tuples,
    count_nested_minset_tuples,
    count_partitions_bounded,
    count_partitions_mod,
    count_partitions_zeromod,
)
from modsym.polycore import Polynomial, _at_least, _one_of
from modsym.stirling import (
    omega_poly,
    stirling1_higher,
    stirling1_mod,
    stirling2,
    stirling2_mod,
    stirling2_mod_series,
)
from modsym.symfun import (
    _entry,
    _modular_conv,
    _residue_parts,
    bounded_elem_sym,
    comp_sym,
    elem_sym,
    lmodular_sym,
    modular_all_ones,
    modular_series,
    modular_sym,
)

PROFILES = ("quick", "full")


@dataclass(frozen=True)
class Ranges:
    """Bounds for a verification grid; unset fields fall back to the profile."""

    n_max: int | None = None
    k_max: int | None = None
    s_max: int | None = None
    p_list: tuple[int, ...] | None = None
    ell: int | None = None
    board_max: int | None = None

    def merged_over(self, base: "Ranges") -> "Ranges":
        return replace(base, **{k: v for k, v in vars(self).items() if v is not None})

    def describe(self, parameters: tuple[str, ...]) -> dict:
        out: dict = {}
        if "n" in parameters or "m" in parameters:
            out["n_max"] = self.n_max
        if "k" in parameters:
            out["k_max"] = self.k_max
        if "s" in parameters:
            out["s_max"] = self.s_max
        if "p" in parameters:
            out["p_list"] = list(self.p_list)
        if "ell" in parameters:
            out["ell"] = self.ell
        if self.board_max is not None and "board" in parameters:
            out["board_max"] = self.board_max
        return out


@dataclass
class IdentityCase:
    """One grid cell: parameters, both serialized sides, and its status; a
    sweep leaves the sides of a passing cell empty."""

    id: str
    params: dict
    lhs: str
    rhs: str
    status: str  # "pass" | "fail" | "skipped"
    reason: str | None = None

    def to_json_obj(self) -> dict:
        obj = asdict(self)
        if self.reason is None:
            del obj["reason"]
        return obj


@dataclass
class VerifyReport:
    """Outcome of one identity sweep."""

    identity: str
    anchor: str
    range: dict
    passed: int
    failed: int
    skipped: int
    failures: list[IdentityCase]
    errata: list[dict]
    note: str | None = None

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "anchor": self.anchor,
            "range": self.range,
            "pass": self.passed,
            "fail": self.failed,
            "skipped": self.skipped,
            "failures": [c.to_json_obj() for c in self.failures],
            "errata": self.errata,
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# shared computation context (per verify or verify_all call; caches are
# never global)

# The memo of library calls, ``ctx(fn, *args, **kwargs)``: a
# ``functools.cache`` keyed by the function and its arguments, keywords
# included.  Call sites pass the function by its module-level name, looked up
# at call time, so a rebinding of that name (as by a tracer) is seen here too.
_Ctx = Callable[..., object]


def _memo() -> _Ctx:
    return cache(lambda fn, *args, **kwargs: fn(*args, **kwargs))


# ---------------------------------------------------------------------------
# reusable right-hand sides (also exercised directly by tests)


def h_at_powered_points(n: int, j: int, s: int) -> int:
    """h_j evaluated at (1^{s+1}, 2^{s+1}, ..., n^{s+1}); zero for negative j.

    It is coefficient j of the product series at the powered points taken
    at s = 1, where each factor 1/(1 - x t) sums the powers of x."""
    if j < 0:
        return 0
    powered = [i ** (s + 1) for i in range(1, n + 1)]
    return symfun._series_product(powered, 1, j)[j]


def ps1_rhs(n: int, k: int, s: int) -> int:
    """sum_i h_{floor(k/(s+1))-i}(powered points) * [n+1, n+1-r-i(s+1)],
    with r = k mod (s+1): the first-kind expansion of {n+k, n}^(s), which
    is lmod_rhs at ell = 1."""
    return _first_kind_expansion(n, k, s, 1, h_at_powered_points)


def fermat_rhs(n: int, k: int, p: int) -> int:
    """sum_i {n+floor(k/p)-i, n} * [n+1, n+1-(r+ip)] with r = k mod p."""
    _at_least("p", p, 2)
    return _first_kind_expansion(n, k, p - 1, 1, lambda n, j, s: stirling2(n + j, n))


def lmod_rhs(n: int, k: int, s: int, ell: int) -> int:
    """The level-ell analogue of ps1_rhs, with r the residue of k * ell^{-1}
    mod s+1 and the first-kind bracket read at level ell."""
    return _first_kind_expansion(n, k, s, ell, h_at_powered_points)


def _first_kind_expansion(
    n: int, k: int, s: int, ell: int, term: Callable[[int, int, int], int]
) -> int:
    # sum_i term(n, j, s) * [n+1, n+1-r-i(s+1)]_ell over the i that keep both
    # j = floor(k/(s+1)) - floor(r*ell/(s+1)) - i*ell and the bracket's lower
    # index in range, with r the residue of k * ell^{-1} mod s+1
    symfun._check_params(n, k, s, ell)
    if gcd(ell, s + 1) != 1:
        raise ValueError(f"ell = {ell} is not invertible mod {s + 1}")
    r = (k * pow(ell, -1, s + 1)) % (s + 1)
    base = k // (s + 1) - (r * ell) // (s + 1)
    total = 0
    for i in range(min((n - r) // (s + 1), base) + 1):
        j = base - i * ell
        if j >= 0:
            lower = n + 1 - r - i * (s + 1)
            total += term(n, j, s) * stirling1_higher(n + 1, lower, ell)
    return total


# ---------------------------------------------------------------------------
# grid construction


def _span(hi: int, lo: int = 0) -> range:
    return range(lo, hi + 1)


def _grid_nks(r: Ranges, n_lo=0, k_lo=0) -> Iterator[dict]:
    for n in _span(r.n_max, n_lo):
        for k in _span(r.k_max, k_lo):
            for s in _span(r.s_max, 1):
                yield {"n": n, "k": k, "s": s}


def _grid_triangle(r: Ranges, k_lo=0) -> Iterator[dict]:
    # second-kind style: 0 <= k <= n
    for n in _span(r.n_max):
        k_hi = n if r.k_max is None else min(n, r.k_max)
        for k in range(k_lo, k_hi + 1):
            for s in _span(r.s_max, 1):
                yield {"n": n, "k": k, "s": s}


# ---------------------------------------------------------------------------
# cell checkers: each returns (lhs, rhs) or raises _Skip with a reason


class _Skip(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _check_gf_m(ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    # the series against the recurrence route, which no other identity reads;
    # one row per (n, s) holds every k of the column
    depth = max(k, r.k_max)
    lhs = _entry(ctx(modular_series, n, s, depth).coeffs, k)
    rhs = _entry(ctx(symfun._modular_rec, n, depth, s), k)
    return lhs, rhs


def _check_rec3(ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    x_n = Polynomial.variable(n)
    rhs = Polynomial.zero()
    for j in _residue_parts(k, s, 1):
        rhs = rhs + ctx(modular_sym, n - 1, k - j, s) * x_n**j
    lhs = ctx(modular_sym, n, k, s)
    return lhs, rhs


def _check_rec4(ctx: _Ctx, r: Ranges, n: int, k: int, s: int, cross: int = 1):
    if k < s + 1:
        raise _Skip("requires k >= s+1")
    x_n = Polynomial.variable(n)
    rhs = (
        ctx(modular_sym, n, k - s - 1, s) * x_n ** (s + 1)
        + cross * ctx(modular_sym, n - 1, k - 1, s) * x_n
        + ctx(modular_sym, n - 1, k, s)
    )
    lhs = ctx(modular_sym, n, k, s)
    return lhs, rhs


def _weight_sum(objects) -> Polynomial:
    return sum((obj.weight() for obj in objects), Polynomial.zero())


def _check_weight_sum(gen: str, ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    # the generator is looked up by name at call time, as the memo's call
    # sites are, so a rebinding of enumeration.gen_* (a tracer) sees the call
    lhs = _weight_sum(getattr(enumeration, gen)(n, k, s))
    rhs = ctx(modular_sym, n, k, s)
    return lhs, rhs


def _check_allones(ctx: _Ctx, r: Ranges, n: int, k: int, s: int, shift: int = 0):
    # C(j+n, n-1) is term j+1 of the count at k+s+1, so shift = 1 reads that
    # count less its j = 0 term, C(n, k+s+1)
    lhs = modular_all_ones(n, k + shift * (s + 1), s) - shift * comb(n, k + s + 1)
    rhs = ctx(modular_sym, n, k, s).evaluate((1,) * n)
    return lhs, rhs


def _s2spec_or_zero(ctx: _Ctx, r: Ranges, n: int, k: int, s: int) -> int:
    # {n,k}^(s) from the walk of column (k, s) down to the grid's last row
    if n < 0 or k < 0 or k > n:
        return 0
    column = ctx(stirling._stirling2_mod_column, k, s, max(n, r.n_max) - k)
    return column[n - k]


def _check_s2mod_spec(ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    lhs = _s2spec_or_zero(ctx, r, n, k, s)
    rhs = stirling2_mod(n, k, s, "recurrence")
    return lhs, rhs


def _check_s2mod_rec(ctx: _Ctx, r: Ranges, n: int, k: int, s: int, lift: int = 1):
    if n - k < s + 1:
        raise _Skip("requires n-k >= s+1")
    lhs = _s2spec_or_zero(ctx, r, n, k, s)
    rhs = (
        _s2spec_or_zero(ctx, r, n - 1, k - 1, s)
        + k * _s2spec_or_zero(ctx, r, n - 2, k - 1, s)
        + k ** (s + lift) * _s2spec_or_zero(ctx, r, n - s - 1, k, s)
    )
    return lhs, rhs


def _grid_s2mod_gf(r: Ranges) -> Iterator[dict]:
    for k in _span(r.k_max):
        for s in _span(r.s_max, 1):
            for m in _span(r.n_max):
                yield {"k": k, "s": s, "m": m}


def _check_s2mod_gf(ctx: _Ctx, r: Ranges, k: int, s: int, m: int, linear: bool = True):
    if linear:
        series = ctx(stirling2_mod_series, k, s, max(m, r.n_max))
    else:  # the printed numerator 1 + r*x^s: the same product, power s
        series = ctx(symfun._series_product, range(1, k + 1), s, max(m, r.n_max), s)
    lhs = _entry(series, m)
    rhs = stirling2_mod(k + m, k, s, "recurrence")
    return lhs, rhs


def _check_part_mod(ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    lhs = count_partitions_mod(n, k, s)
    rhs = stirling2_mod(n, k, s, "recurrence")
    return lhs, rhs


def _check_part_zero(ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    if (n - k) % (s + 1):
        raise _Skip("requires s+1 to divide n-k")
    lhs = count_partitions_zeromod(n, k, s)
    rhs = h_at_powered_points(k, (n - k) // (s + 1), s)
    return lhs, rhs


def _check_ps1(ctx: _Ctx, r: Ranges, n: int, k: int, s: int, shift: int = 0):
    # a nonzero shift keeps k's quotient by s+1 and moves its remainder to
    # (k+shift) mod (s+1)
    lhs = stirling2_mod(n + k, n, s, "recurrence")
    rhs = ps1_rhs(n, k - k % (s + 1) + (k + shift) % (s + 1), s)
    return lhs, rhs


def _grid_fermat(r: Ranges) -> Iterator[dict]:
    for n in _span(r.n_max):
        for k in _span(r.k_max):
            for p in r.p_list:
                yield {"n": n, "k": k, "p": p}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


def _check_fermat(ctx: _Ctx, r: Ranges, n: int, k: int, p: int):
    if not _is_prime(p):
        raise _Skip("requires prime p")
    lhs = stirling2_mod(n + k, n, p - 1, "recurrence") % p
    rhs = fermat_rhs(n, k, p) % p
    return lhs, rhs


def _grid_lmod(r: Ranges) -> Iterator[dict]:
    for n in _span(r.n_max):
        for k in _span(r.k_max):
            for s in _span(r.s_max, 1):
                ells = range(s + 1) if r.ell is None else (r.ell,)
                for ell in ells:
                    if ell > s:
                        continue
                    yield {"n": n, "k": k, "s": s, "ell": ell}


def _check_lmod(ctx: _Ctx, r: Ranges, n: int, k: int, s: int, ell: int):
    if gcd(ell, s + 1) != 1:
        raise _Skip("requires gcd(ell, s+1) = 1")
    lhs = lmodular_sym(n, k, s, ell).evaluate(tuple(range(1, n + 1)))
    rhs = lmod_rhs(n, k, s, ell)
    return lhs, rhs


def _alternating_sum(terms: Iterable[Polynomial]) -> Polynomial:
    total = Polynomial.zero()
    for j, term in enumerate(terms):
        total = total + (-term if j % 2 else term)
    return total


def _check_evanish(ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    if s % 2 == 0:
        raise _Skip("requires odd s")
    if k < 1:
        raise _Skip("requires k >= 1")
    total = _alternating_sum(
        ctx(bounded_elem_sym, n, i, s) * ctx(modular_sym, n, k - i, s)
        for i in range(k + 1)
    )
    return total, 0


def _check_conv_he(ctx: _Ctx, r: Ranges, n: int, k: int, s: int, powered: bool = True):
    lhs = ctx(modular_sym, n, k, s)
    rhs = _modular_conv(n, k, s, s + 1 if powered else 1)
    return lhs, rhs


def _check_inv_h(ctx: _Ctx, r: Ranges, n: int, k: int, s: int, lift: int = 1):
    # h_k(x^(s+lift)) = sum_j (-1)^j h_j M_{k(s+1)-j}^(s)
    lhs = ctx(comp_sym, n, k).substitute_power(s + lift)
    rhs = _alternating_sum(
        ctx(comp_sym, n, j) * ctx(modular_sym, n, k * (s + 1) - j, s)
        for j in range(k * (s + 1) + 1)
    )
    return lhs, rhs


def _check_inv_e(ctx: _Ctx, r: Ranges, n: int, k: int, s: int, powered: bool = True):
    # e_k = sum_j (-1)^j e_j(x^(s+1)) M_{k-j(s+1)}^(s), or e_j(x) unpowered
    lhs = ctx(elem_sym, n, k)
    rhs = _alternating_sum(
        ctx(elem_sym, n, j).substitute_power(s + 1 if powered else 1)
        * ctx(modular_sym, n, k - j * (s + 1), s)
        for j in range(k // (s + 1) + 1)
    )
    return lhs, rhs


def _check_inv_zero(ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    if k % (s + 1) == 0:
        raise _Skip("requires k not divisible by s+1")
    total = _alternating_sum(
        ctx(comp_sym, n, j) * ctx(modular_sym, n, k - j, s) for j in range(k + 1)
    )
    return total, 0


def _check_eh_me(ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    lhs = Polynomial.zero()
    rhs = Polynomial.zero()
    for j in range(k + 1):
        lhs = lhs + ctx(elem_sym, n, j) * ctx(comp_sym, n, k - j)
        rhs = rhs + ctx(modular_sym, n, j, s) * ctx(bounded_elem_sym, n, k - j, s)
    return lhs, rhs


def _grid_s1mod_def(r: Ranges) -> Iterator[dict]:
    for n in _span(r.n_max, 1):
        for s in _span(r.s_max, 1):
            k_hi = n * s if r.k_max is None else min(n * s, r.k_max)
            for k in range(k_hi + 1):
                yield {"n": n, "k": k, "s": s}


def _scaled_reciprocal_eval(E_poly: Polynomial, n: int, s: int) -> int:
    # (n!)^s * E at (1, 1/2, ..., 1/n): each exponent a_i contributes i^(s-a_i),
    # so the whole sum stays in integers.
    total = 0
    for exps, coeff in E_poly.terms.items():
        v = coeff
        for i in range(1, n + 1):
            a = exps[i - 1] if i - 1 < len(exps) else 0
            v *= i ** (s - a)
        total += v
    return total


def _check_s1mod_def(ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    direct = stirling1_mod(n + 1, k + 1, s)
    scaled = _scaled_reciprocal_eval(ctx(bounded_elem_sym, n, k, s), n, s)
    mirrored = ctx(bounded_elem_sym, n, n * s - k, s).evaluate(tuple(range(1, n + 1)))
    # a str rhs never equals the int lhs, so a disagreement fails the cell
    rhs = scaled if scaled == mirrored else f"scaled:{scaled} mirrored:{mirrored}"
    return direct, rhs


def _grid_s1mod_rec(r: Ranges, nested: bool = False) -> Iterator[dict]:
    # the nested min-set count also has cells down to k = 1 - s
    for n in _span(r.n_max, 1):
        for s in _span(r.s_max, 1):
            k_hi = (n - 1) * s + 1
            if r.k_max is not None:
                k_hi = min(k_hi, r.k_max)
            for k in range(1 - s if nested else 1, k_hi + 1):
                yield {"n": n, "k": k, "s": s}


def _s1rec_or_zero(ctx: _Ctx, r: Ranges, n: int, k: int, s: int) -> int:
    # [n,k]^(s) for n >= 1 as `table --family stirling1mod` prints it, one
    # triangle per s; k < 0 reads 0, as it is in every row but row 0
    rows = ctx(stirling.triangle_rows, "stirling1mod", s, max(n, r.n_max))
    return _entry(rows[n], k)


def _check_s1mod_rec(ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    if n < 1:
        raise _Skip("requires n >= 1")
    lhs = _s1rec_or_zero(ctx, r, n, k, s)
    rhs = _entry(ctx(stirling._stirling1_mod_column, n, s), (n - 1) * s - (k - 1))
    return lhs, rhs


def _grid_s1mod_part(r: Ranges) -> Iterator[dict]:
    # the S1MOD_DEF cells whose board n(s+1)-k holds n blocks and is in bounds
    return (
        p for p in _grid_s1mod_def(r)
        if p["n"] <= p["n"] * (p["s"] + 1) - p["k"] <= r.board_max
    )


def _check_s1mod_part(ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    lhs = count_partitions_bounded(n * (s + 1) - k, n, s)
    rhs = stirling1_mod(n + 1, k + 1, s)
    return lhs, rhs


def _check_nested(ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    lhs = count_nested_minset_tuples(n, k, s)
    rhs = _s1rec_or_zero(ctx, r, n, k, s)
    return lhs, rhs


def _check_higher_rec(ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    lhs = count_equal_minset_tuples(n, k, s)
    rhs = stirling1_higher(n, k, s)
    return lhs, rhs


def _check_omega(ctx: _Ctx, r: Ranges, n: int, k: int, s: int):
    lhs = ctx(omega_poly, n, s).coefficient((k,))
    rhs = stirling1_higher(n, k, s)
    return lhs, rhs


# ---------------------------------------------------------------------------
# errata: printed variants, evaluated by the hooked checker, never asserted


@dataclass(frozen=True)
class _Erratum:
    """A printed variant: its entry's checker with ``hooks`` set, probed over
    ``ranges``.  ``cell`` gives the report form of a cell's parameters;
    ``zero_cell`` also asks for the first failing cell whose corrected side
    is 0."""

    printed_form: str
    corrected_form: str
    note: str
    ranges: Ranges
    hooks: dict
    cell: Callable[[dict], dict] = dict
    zero_cell: bool = False


def _hooked(ident: IdentityInfo, **hooks) -> IdentityInfo:
    """``ident`` with its checker run under the given hooks."""
    return replace(ident, check=partial(ident.check, **hooks))


def _erratum_report(ident: IdentityInfo) -> dict:
    # stop at the variant's first failing cell in grid order, or for a
    # zero-cell row at its first failing cell whose corrected side is 0
    row = ident.erratum
    variant = _hooked(ident, **row.hooks)
    ctx = _memo()
    first = zero = None
    for p in variant.grid(row.ranges):
        case = _run_cell(variant, ctx, p, row.ranges)
        if case.status != "fail":
            continue
        cell = {
            "params": row.cell(case.params),
            "printed": case.lhs,
            "corrected": case.rhs,
        }
        if first is None:
            first = cell
        if case.rhs == "0":
            zero = cell
        if zero is not None or not row.zero_cell:
            break
    report = {
        "id": ident.id,
        "printed_form": row.printed_form,
        "corrected_form": row.corrected_form,
        "first_failing_cell": first,
    }
    if row.zero_cell:
        report["nonzero_where_zero_cell"] = zero
    report["note"] = row.note
    return report


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class IdentityInfo:
    """One catalog entry.  Equality, hash and repr read only its id, anchor,
    grid parameters and note; the other fields run it: its checker
    ``check(ctx, ranges, **cell)``, its two profiles' bounds, its cell grid
    and the printed variant its reports carry, if any.  A record names its
    parameters and grid only where they differ from the (n, k, s) box with
    n >= 1."""

    id: str
    anchor: str
    check: Callable[..., tuple[object, object]] = field(compare=False, repr=False)
    quick: Ranges = field(compare=False, repr=False)
    full: Ranges = field(compare=False, repr=False)
    parameters: tuple[str, ...] = ("n", "k", "s")
    grid: Callable[[Ranges], Iterable[dict]] = field(
        default=partial(_grid_nks, n_lo=1), compare=False, repr=False
    )
    note: str | None = None
    erratum: _Erratum | None = field(default=None, compare=False, repr=False)

    @property
    def has_errata(self) -> bool:
        """Whether reports on this entry carry an erratum."""
        return self.erratum is not None


# keyed by each record's own id, in report order
_CATALOG: dict[str, IdentityInfo] = {
    info.id: info
    for info in (
        IdentityInfo(
            "GF_M",
            "series identity: sum_k M_k^(s)(n) t^k = "
            "prod_{i<=n} (1+x_i t)/(1-(x_i t)^(s+1))",
            _check_gf_m,
            Ranges(n_max=3, k_max=6, s_max=2),
            Ranges(n_max=5, k_max=10, s_max=3),
            grid=_grid_nks,
        ),
        IdentityInfo(
            "REC3",
            "variable-count recurrence: M_k^(s)(n) = "
            "sum_{j=0,1 mod s+1} x_n^j M_{k-j}^(s)(n-1)",
            _check_rec3,
            Ranges(n_max=3, k_max=6, s_max=2),
            Ranges(n_max=8, k_max=8, s_max=4),
        ),
        IdentityInfo(
            "REC4",
            "two-term peel for k >= s+1: M_k^(s)(n) = x_n^(s+1) "
            "M_{k-s-1}^(s)(n) + x_n M_{k-1}^(s)(n-1) + M_k^(s)(n-1)",
            _check_rec4,
            Ranges(n_max=3, k_max=6, s_max=2),
            Ranges(n_max=8, k_max=8, s_max=4),
        ),
        IdentityInfo(
            "PATHS",
            "weight sum over admissible lattice paths equals M_k^(s)(n)",
            partial(_check_weight_sum, "gen_lattice_paths"),
            Ranges(n_max=3, k_max=5, s_max=2),
            Ranges(n_max=4, k_max=8, s_max=3),
        ),
        IdentityInfo(
            "TILINGS",
            "weight sum over admissible tilings equals M_k^(s)(n)",
            partial(_check_weight_sum, "gen_tilings"),
            Ranges(n_max=3, k_max=5, s_max=2),
            Ranges(n_max=4, k_max=8, s_max=3),
        ),
        IdentityInfo(
            "ALLONES",
            "all-ones evaluation: M_k^(s)(1..1) = "
            "sum_j C(n, k-j(s+1)) C(j+n-1, n-1)",
            _check_allones,
            Ranges(n_max=4, k_max=6, s_max=2),
            Ranges(n_max=6, k_max=12, s_max=4),
        ),
        IdentityInfo(
            "S2MOD_SPEC",
            "triangle from specialization: {n,k}^(s) = M_{n-k}^(s)(1..k); "
            "polynomial-evaluation and recurrence routes agree",
            _check_s2mod_spec,
            Ranges(n_max=8, s_max=2),
            Ranges(n_max=20, s_max=4),
            grid=_grid_triangle,
        ),
        IdentityInfo(
            "S2MOD_REC",
            "triangle recurrence for n-k >= s+1: {n,k}^(s) = {n-1,k-1}^(s) "
            "+ k {n-2,k-1}^(s) + k^(s+1) {n-s-1,k}^(s)",
            _check_s2mod_rec,
            Ranges(n_max=8, s_max=2),
            Ranges(n_max=20, s_max=4),
            grid=lambda r: _grid_triangle(r, k_lo=1),
        ),
        IdentityInfo(
            "S2MOD_GF",
            "column series: sum_m {k+m,k}^(s) x^m = "
            "prod_{r<=k} (1+r x)/(1-(r x)^(s+1)), corrected numerator",
            _check_s2mod_gf,
            Ranges(n_max=8, k_max=3, s_max=2),
            Ranges(n_max=20, k_max=6, s_max=4),
            parameters=("k", "s", "m"),
            grid=_grid_s2mod_gf,
            erratum=_Erratum(
                "prod_{r=1..k} (1 + r*x^s) / (1 - (r*x)^(s+1))",
                "prod_{r=1..k} (1 + r*x) / (1 - (r*x)^(s+1))",
                "The numerator variant 1 + r*x^s selects exponents "
                "congruent to {0, s} mod s+1 and contradicts the defining "
                "specialization {n,k}^(s) = M_{n-k}^(s)(1..k): at k=1, s=2 "
                "it gives 0 at n=2 where {2,1}^(2) = 1, and 1 at n=3 where "
                "{3,1}^(2) = M_2^(2)(1) = 0.  The numerator 1 + r*x "
                "reproduces the specialization exactly and collapses to the "
                "classical column series at s=1.",
                Ranges(n_max=8, k_max=3, s_max=3),
                {"linear": False},
                cell=lambda p: {"n": p["k"] + p["m"], "k": p["k"], "s": p["s"]},
                zero_cell=True,
            ),
        ),
        IdentityInfo(
            "PART_MOD",
            "partitions with d_i = 0,1 mod s+1 are counted by {n,k}^(s)",
            _check_part_mod,
            Ranges(n_max=6, s_max=2),
            Ranges(n_max=10, s_max=4),
            grid=lambda r: _grid_triangle(r, k_lo=1),
        ),
        IdentityInfo(
            "PART_ZERO",
            "partitions with all d_i = 0 mod s+1 are counted by "
            "h_{(n-k)/(s+1)}(1^(s+1)..k^(s+1))",
            _check_part_zero,
            Ranges(n_max=6, s_max=2),
            Ranges(n_max=10, s_max=4),
            grid=lambda r: _grid_triangle(r, k_lo=1),
        ),
        IdentityInfo(
            "PS1",
            "first-kind expansion: {n+k,n}^(s) = sum_i "
            "h_{floor(k/(s+1))-i}(1^(s+1)..n^(s+1)) [n+1, n+1-r-i(s+1)], "
            "r = k mod s+1",
            _check_ps1,
            Ranges(n_max=3, k_max=5, s_max=2),
            Ranges(n_max=5, k_max=10, s_max=4),
            grid=_grid_nks,
        ),
        IdentityInfo(
            "FERMAT",
            "prime congruence: {n+k,n}^(p-1) = sum_i {n+floor(k/p)-i, n} "
            "[n+1, n+1-(r+ip)] mod p",
            _check_fermat,
            Ranges(n_max=3, k_max=5, p_list=(2, 3)),
            Ranges(n_max=5, k_max=10, p_list=(2, 3, 5)),
            parameters=("n", "k", "p"),
            grid=_grid_fermat,
        ),
        IdentityInfo(
            "LMOD",
            "residue-ell expansion of M_k^(s,ell)(1..n) via h at powered "
            "points and level-ell first-kind brackets",
            _check_lmod,
            Ranges(n_max=3, k_max=5, s_max=2),
            Ranges(n_max=4, k_max=8, s_max=4),
            parameters=("n", "k", "s", "ell"),
            grid=_grid_lmod,
            note=(
                "interpretation: the bracket factor is read as the "
                "level-ell first-kind triangle (x^k coefficients of "
                "x(x+1^ell)(x+2^ell)...); a failure here would point at "
                "that reading rather than an arithmetic bug"
            ),
        ),
        IdentityInfo(
            "EVANISH",
            "odd-s alternating convolution: "
            "sum_i (-1)^i E_i^(s) M_{k-i}^(s) = 0",
            _check_evanish,
            Ranges(n_max=2, k_max=4, s_max=2),
            Ranges(n_max=3, k_max=6, s_max=4),
            grid=lambda r: _grid_nks(r, n_lo=1, k_lo=1),
        ),
        IdentityInfo(
            "CONV_HE",
            "convolution route: M_k^(s) = sum_j h_j(x^(s+1)) e_{k-(s+1)j}, "
            "checked against direct enumeration",
            _check_conv_he,
            Ranges(n_max=3, k_max=5, s_max=2),
            Ranges(n_max=8, k_max=8, s_max=4),
        ),
        IdentityInfo(
            "INV_H",
            "inverse pair: h_k(x^(s+1)) = sum_j (-1)^j h_j "
            "M_{k(s+1)-j}^(s), corrected substitution power",
            _check_inv_h,
            Ranges(n_max=2, k_max=3, s_max=2),
            Ranges(n_max=3, k_max=4, s_max=3),
            grid=lambda r: _grid_nks(r, n_lo=1, k_lo=1),
            erratum=_Erratum(
                "h_k(x^s) = sum_j (-1)^j h_j M_{k(s+1)-j}^(s)",
                "h_k(x^(s+1)) = sum_j (-1)^j h_j M_{k(s+1)-j}^(s)",
                "The alternating h-convolution inverts the series whose "
                "t^{(s+1)k} coefficients are h_k in the (s+1)-th powers of "
                "the variables, so the left side must substitute x_i -> "
                "x_i^(s+1); with x_i^s it already fails at n=1, k=1, s=1.",
                Ranges(n_max=2, k_max=2, s_max=2),
                {"lift": 0},
            ),
        ),
        IdentityInfo(
            "INV_E",
            "inverse pair: e_k = sum_j (-1)^j e_j(x^(s+1)) "
            "M_{k-j(s+1)}^(s), corrected powered e-factor",
            _check_inv_e,
            Ranges(n_max=3, k_max=5, s_max=2),
            Ranges(n_max=3, k_max=7, s_max=3),
            grid=lambda r: _grid_nks(r, n_lo=1, k_lo=1),
            erratum=_Erratum(
                "e_k = sum_j (-1)^j e_j M_{k-j(s+1)}^(s)",
                "e_k = sum_j (-1)^j e_j(x^(s+1)) M_{k-j(s+1)}^(s)",
                "The alternating e-factor multiplies t in steps of s+1, so "
                "it must be taken in the (s+1)-th powers of the variables; "
                "with plain e_j the identity already fails at n=1, k=2, s=1.",
                Ranges(n_max=2, k_max=4, s_max=2),
                {"powered": False},
            ),
        ),
        IdentityInfo(
            "INV_ZERO",
            "vanishing convolution: sum_j (-1)^j h_j M_{k-j}^(s) = 0 "
            "for k not divisible by s+1",
            _check_inv_zero,
            Ranges(n_max=3, k_max=5, s_max=2),
            Ranges(n_max=3, k_max=7, s_max=3),
            grid=lambda r: _grid_nks(r, n_lo=1, k_lo=1),
        ),
        IdentityInfo(
            "EH_ME",
            "full convolution match: sum_j e_j h_{k-j} = "
            "sum_j M_j^(s) E_{k-j}^(s)",
            _check_eh_me,
            Ranges(n_max=2, k_max=4, s_max=2),
            Ranges(n_max=3, k_max=6, s_max=3),
            grid=lambda r: _grid_nks(r, n_lo=1, k_lo=1),
        ),
        IdentityInfo(
            "S1MOD_DEF",
            "[n+1,k+1]^(s) equals the ((n)!)^s-scaled reciprocal "
            "evaluation of E_k^(s) and the mirrored E_{ns-k}^(s)(1..n)",
            _check_s1mod_def,
            Ranges(n_max=4, s_max=2),
            Ranges(n_max=6, s_max=3),
            grid=_grid_s1mod_def,
        ),
        IdentityInfo(
            "S1MOD_REC",
            "order-s recurrence route for [n,k]^(s) agrees with the "
            "bounded-E specialization route",
            _check_s1mod_rec,
            Ranges(n_max=5, s_max=2),
            Ranges(n_max=10, s_max=4),
            grid=_grid_s1mod_rec,
        ),
        IdentityInfo(
            "S1MOD_PART",
            "partitions of a (n(s+1)-k)-board into n blocks with all "
            "d_i <= s are counted by [n+1,k+1]^(s)",
            _check_s1mod_part,
            Ranges(n_max=3, s_max=2, board_max=8),
            Ranges(n_max=5, s_max=3, board_max=12),
            parameters=("n", "k", "s", "board"),
            grid=_grid_s1mod_part,
        ),
        IdentityInfo(
            "NESTED",
            "nested min-set tuples with k+s-1 total cycles are counted "
            "by [n,k]^(s)",
            _check_nested,
            Ranges(n_max=3, s_max=2),
            Ranges(n_max=4, s_max=3),
            grid=lambda r: _grid_s1mod_rec(r, nested=True),
        ),
        IdentityInfo(
            "HIGHER_REC",
            "equal min-set s-tuples of k-cycle permutations are counted "
            "by the level-s triangle [n,k]_s",
            _check_higher_rec,
            Ranges(n_max=4, s_max=2),
            Ranges(n_max=5, s_max=3),
            grid=_grid_triangle,
        ),
        IdentityInfo(
            "OMEGA",
            "x^k coefficients of x(x+1^s)(x+2^s)...(x+(n-1)^s) "
            "equal [n,k]_s",
            _check_omega,
            Ranges(n_max=5, s_max=2),
            Ranges(n_max=10, s_max=3),
            grid=_grid_triangle,
        ),
    )
}


def list_identities() -> list[IdentityInfo]:
    """The catalog's records, in report order."""
    return list(_CATALOG.values())


def profile_ranges(identity_id: str, profile: str = "quick") -> Ranges:
    _one_of("profile", profile, PROFILES)
    return getattr(_CATALOG[_normalize_id(identity_id)], profile)


def _normalize_id(identity_id: str) -> str:
    key = identity_id.upper()
    if key not in _CATALOG:
        raise ValueError(
            f"unknown identity {identity_id!r}; known ids: {', '.join(_CATALOG)}"
        )
    return key


def check_cell(
    identity_id: str, ranges: Ranges | None = None, **params
) -> IdentityCase:
    """Evaluate a single grid cell of an identity (used for spot checks)."""
    ident = _CATALOG[_normalize_id(identity_id)]
    base = ident.quick
    effective = ranges.merged_over(base) if ranges is not None else base
    return _run_cell(ident, _memo(), params, effective, keep_sides=True)


def _run_cell(
    ident: IdentityInfo, ctx: _Ctx, params: dict, ranges: Ranges, *,
    keep_sides: bool = False,
) -> IdentityCase:
    # the one place a cell is compared; its sides are serialized only when it
    # fails or ``keep_sides`` asks for them
    try:
        lhs, rhs = ident.check(ctx, ranges, **params)
    except _Skip as skip:
        return IdentityCase(ident.id, params, "", "", "skipped", skip.reason)
    status = "pass" if lhs == rhs else "fail"
    if status == "pass" and not keep_sides:
        return IdentityCase(ident.id, params, "", "", status)
    return IdentityCase(ident.id, params, str(lhs), str(rhs), status)


def _run_identity(ident: IdentityInfo, ranges: Ranges, ctx: _Ctx) -> VerifyReport:
    cells = list(ident.grid(ranges))
    if not cells:
        raise ValueError(f"empty parameter grid for {ident.id}")
    results = [_run_cell(ident, ctx, p, ranges) for p in cells]
    passed = sum(1 for c in results if c.status == "pass")
    failed = [c for c in results if c.status == "fail"]
    skipped = sum(1 for c in results if c.status == "skipped")
    errata = [_erratum_report(ident)] if ident.erratum else []
    return VerifyReport(
        identity=ident.id,
        anchor=ident.anchor,
        range=ranges.describe(ident.parameters),
        passed=passed,
        failed=len(failed),
        skipped=skipped,
        failures=failed,
        errata=errata,
        note=ident.note,
    )


def verify(
    identity_id: str,
    ranges: Ranges | None = None,
    profile: str = "quick",
    *,
    _ctx: _Ctx | None = None,
) -> VerifyReport:
    """Exhaustively check one identity on its parameter grid.

    Explicit ``ranges`` fields override the per-identity profile bounds.
    ``_ctx`` is the memo of library calls, fresh when None; only
    ``verify_all`` passes one, to share it across its sweep.
    """
    key = _normalize_id(identity_id)
    base = profile_ranges(key, profile)
    effective = ranges.merged_over(base) if ranges is not None else base
    return _run_identity(_CATALOG[key], effective, _ctx or _memo())


def verify_all(
    profile: str = "quick", ranges: Ranges | None = None
) -> list[VerifyReport]:
    """Run every catalog entry under the given profile, in catalog order,
    with one memo of library calls for the whole sweep.  An unknown profile
    is refused by the first ``verify``, before any cell runs."""
    ctx = _memo()
    return [verify(key, ranges, profile, _ctx=ctx) for key in _CATALOG]


# ---------------------------------------------------------------------------
# mutation self-test: perturbed identities must fail


# (report id, anchor, catalog id, ranges, checker hook values)
_MUTATIONS: tuple[tuple[str, str, str, Ranges, dict], ...] = (
    (
        "REC4_drop_cross_term",
        "REC4 without the x_n M_{k-1}^(s)(n-1) term",
        "REC4",
        Ranges(n_max=3, k_max=6, s_max=2),
        {"cross": 0},
    ),
    (
        "S2MOD_REC_weaken_power",
        "S2MOD_REC with k^s in place of k^(s+1)",
        "S2MOD_REC",
        Ranges(n_max=8, s_max=2),
        {"lift": 0},
    ),
    (
        "ALLONES_shift_binomial",
        "ALLONES with C(j+n, n-1) in place of C(j+n-1, n-1)",
        "ALLONES",
        Ranges(n_max=3, k_max=6, s_max=2),
        {"shift": 1},
    ),
    (
        "CONV_HE_unpowered_h",
        "CONV_HE with h_j(x) in place of h_j(x^(s+1))",
        "CONV_HE",
        Ranges(n_max=3, k_max=6, s_max=2),
        {"powered": False},
    ),
    (
        "PS1_wrong_remainder",
        "PS1 with remainder (k+1) mod (s+1)",
        "PS1",
        Ranges(n_max=3, k_max=6, s_max=2),
        {"shift": 1},
    ),
)


def mutation_selftest() -> list[VerifyReport]:
    """Run the five built-in perturbations; every report must show failures.

    Each perturbation runs the catalog entry's own grid and checker, with
    one hook of the checker set away from its true value.  A perturbation
    that passes everywhere would mean that checker is vacuous on its grid.
    """
    reports = []
    for name, anchor, key, ranges, hooks in _MUTATIONS:
        ident = replace(_hooked(_CATALOG[key], **hooks), id=name, anchor=anchor)
        reports.append(_run_identity(ident, ranges, _memo()))
    return reports
