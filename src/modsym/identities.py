"""Registry of the library's exact identities plus a range-driven verifier.

Every relation between the algebraic routes (symmetric-function identities,
triangle recurrences, generating functions, specializations) and the
brute-force oracles (paths, tilings, partition filters, permutation tuples)
is catalogued here under a stable id.  ``verify`` checks one identity over a
parameter grid and reports pass/fail/skip totals with the failing cells in
grid order; ``verify_all`` sweeps the whole catalog under a bounds profile.

Each cell checker returns the two sides of its identity (integers or
canonical polynomials); the cell runner alone compares them, by exact
equality with no tolerances, and serializes them.  Cells whose preconditions
fail (even s for the odd-s vanishing identity, gcd(ell, s+1) > 1 for the
residue-ell expansion, and so on) are counted as skipped, never as failures.

``mutation_selftest`` reruns five catalog checkers, each with one keyword
hook (a constant whose default is the true value) changed; each must fail
somewhere, guarding the suite against vacuous passes.  Three entries carry
an erratum: a commonly printed variant of the statement that provably
disagrees with the defining specialization.  Each variant is its entry's
own checker with one hook changed (for S2MOD_GF the numerator power s in
place of 1), run over a fixed probe grid; its first failing cell is recorded
in the report's ``errata`` field and is never asserted.

Grid cells are independent pure computations.  They run one after another
in grid order and share one memo of library calls per verify call.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace
from functools import partial
from math import gcd

from modsym.enumeration import (
    count_equal_minset_tuples,
    count_nested_minset_tuples,
    count_partitions_bounded,
    count_partitions_mod,
    count_partitions_zeromod,
    gen_lattice_paths,
    gen_tilings,
)
from modsym.polycore import Polynomial, poly_eval_int
from modsym.stirling import (
    omega_poly,
    stirling1,
    stirling1_higher,
    stirling1_mod,
    stirling1_mod_rec,
    stirling2,
    stirling2_mod,
    stirling2_mod_series,
)
from modsym.symfun import (
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
        return Ranges(
            n_max=self.n_max if self.n_max is not None else base.n_max,
            k_max=self.k_max if self.k_max is not None else base.k_max,
            s_max=self.s_max if self.s_max is not None else base.s_max,
            p_list=self.p_list if self.p_list is not None else base.p_list,
            ell=self.ell if self.ell is not None else base.ell,
            board_max=self.board_max if self.board_max is not None else base.board_max,
        )

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
    """One grid cell: parameters, both serialized sides, and its status."""

    id: str
    params: dict
    lhs: str
    rhs: str
    status: str  # "pass" | "fail" | "skipped"
    reason: str | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "id": self.id,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "status": self.status,
        }
        if self.reason is not None:
            obj["reason"] = self.reason
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


@dataclass(frozen=True)
class IdentityInfo:
    """Catalog descriptor: stable id, human-readable anchor, grid parameters."""

    id: str
    anchor: str
    parameters: tuple[str, ...]
    note: str | None = None

    @property
    def has_errata(self) -> bool:
        """Whether reports on this entry carry an erratum."""
        return self.id in _ERRATA


# ---------------------------------------------------------------------------
# shared computation context (per verify call; caches are never global)


class _Ctx:
    """Memo of library calls: one dict keyed by (function, arguments).

    Call sites pass the function by its module-level name, looked up at call
    time, so a rebinding of that name (as by a tracer) is seen here too.
    """

    def __init__(self):
        self._memo: dict = {}

    def __call__(self, fn: Callable, *args, **kwargs):
        key = (fn, args, *kwargs.items()) if kwargs else (fn, args)
        v = self._memo.get(key)
        if v is None:
            v = self._memo[key] = fn(*args, **kwargs)
        return v


# ---------------------------------------------------------------------------
# reusable right-hand sides (also exercised directly by tests)


def h_at_powered_points(n: int, j: int, s: int) -> int:
    """h_j evaluated at (1^{s+1}, 2^{s+1}, ..., n^{s+1}); zero for negative j."""
    if j < 0:
        return 0
    return poly_eval_int(comp_sym(n, j), tuple(i ** (s + 1) for i in range(1, n + 1)))


def ps1_rhs(n: int, k: int, s: int, *, _shift: int = 0) -> int:
    """sum_i h_{floor(k/(s+1))-i}(powered points) * [n+1, n+1-r-i(s+1)],
    with r = k mod (s+1): the first-kind expansion of {n+k, n}^(s).

    A nonzero ``_shift`` perturbs the remainder to (k+_shift) mod (s+1);
    only the mutation self-test sets it."""
    r = (k + _shift) % (s + 1)
    hi = min((n - r) // (s + 1), k // (s + 1))
    total = 0
    for i in range(hi + 1):
        total += h_at_powered_points(n, k // (s + 1) - i, s) * stirling1(
            n + 1, n + 1 - r - i * (s + 1)
        )
    return total


def fermat_rhs(n: int, k: int, p: int) -> int:
    """sum_i {n+floor(k/p)-i, n} * [n+1, n+1-(r+ip)] with r = k mod p."""
    r = k % p
    hi = min((n - r) // p, k // p)
    total = 0
    for i in range(hi + 1):
        total += stirling2(n + k // p - i, n) * stirling1(n + 1, n + 1 - (r + i * p))
    return total


def lmod_rhs(n: int, k: int, s: int, ell: int) -> int:
    """The level-ell analogue of ps1_rhs, with r the residue of k * ell^{-1}
    mod s+1 and the first-kind bracket read at level ell."""
    if gcd(ell, s + 1) != 1:
        raise ValueError(f"ell = {ell} is not invertible mod {s + 1}")
    r = (k * pow(ell, -1, s + 1)) % (s + 1)
    base = k // (s + 1) - (r * ell) // (s + 1)
    hi = min((n - r) // (s + 1), base)
    total = 0
    for i in range(hi + 1):
        j = base - i * ell
        if j < 0:
            continue
        total += h_at_powered_points(n, j, s) * stirling1_higher(
            n + 1, n + 1 - r - i * (s + 1), ell
        )
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


def _check_gf_m(ctx: _Ctx, p: dict, r: Ranges):
    lhs = ctx(modular_series, p["n"], p["s"], r.k_max).coefficient(p["k"])
    rhs = ctx(modular_sym, p["n"], p["k"], p["s"])
    return lhs, rhs


def _check_rec3(ctx: _Ctx, p: dict, r: Ranges):
    n, k, s = p["n"], p["k"], p["s"]
    rhs = Polynomial.zero()
    for j in _residue_parts(k, s, 1):
        rhs = rhs + ctx(modular_sym, n - 1, k - j, s).mul_power(n, j)
    lhs = ctx(modular_sym, n, k, s)
    return lhs, rhs


def _check_rec4(ctx: _Ctx, p: dict, r: Ranges, cross: int = 1):
    n, k, s = p["n"], p["k"], p["s"]
    if k < s + 1:
        raise _Skip("requires k >= s+1")
    rhs = (
        ctx(modular_sym, n, k - s - 1, s).mul_power(n, s + 1)
        + cross * ctx(modular_sym, n - 1, k - 1, s).mul_power(n, 1)
        + ctx(modular_sym, n - 1, k, s)
    )
    lhs = ctx(modular_sym, n, k, s)
    return lhs, rhs


def _weight_sum(objects) -> Polynomial:
    total = Polynomial.zero()
    for obj in objects:
        total = total + obj.weight()
    return total


def _check_weight_sum(gen: Callable, ctx: _Ctx, p: dict):
    lhs = _weight_sum(gen(p["n"], p["k"], p["s"]))
    rhs = ctx(modular_sym, p["n"], p["k"], p["s"])
    return lhs, rhs


def _check_allones(ctx: _Ctx, p: dict, r: Ranges, shift: int = 0):
    n, k, s = p["n"], p["k"], p["s"]
    lhs = modular_all_ones(n, k, s, _shift=shift)
    rhs = poly_eval_int(ctx(modular_sym, n, k, s), (1,) * n)
    return lhs, rhs


def _check_s2mod_spec(ctx: _Ctx, p: dict, r: Ranges):
    n, k, s = p["n"], p["k"], p["s"]
    lhs = ctx(stirling2_mod, n, k, s, "specialization")
    rhs = stirling2_mod(n, k, s, "recurrence")
    return lhs, rhs


def _s2spec_or_zero(ctx: _Ctx, n: int, k: int, s: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    return ctx(stirling2_mod, n, k, s, "specialization")


def _check_s2mod_rec(ctx: _Ctx, p: dict, r: Ranges, lift: int = 1):
    n, k, s = p["n"], p["k"], p["s"]
    if n - k < s + 1:
        raise _Skip("requires n-k >= s+1")
    lhs = ctx(stirling2_mod, n, k, s, "specialization")
    rhs = (
        _s2spec_or_zero(ctx, n - 1, k - 1, s)
        + k * _s2spec_or_zero(ctx, n - 2, k - 1, s)
        + k ** (s + lift) * _s2spec_or_zero(ctx, n - s - 1, k, s)
    )
    return lhs, rhs


def _grid_s2mod_gf(r: Ranges) -> Iterator[dict]:
    for k in _span(r.k_max):
        for s in _span(r.s_max, 1):
            for m in _span(r.n_max):
                yield {"k": k, "s": s, "m": m}


def _check_s2mod_gf(ctx: _Ctx, p: dict, r: Ranges, linear: bool = True):
    k, s, m = p["k"], p["s"], p["m"]
    lhs = ctx(stirling2_mod_series, k, s, r.n_max, _numerator=1 if linear else s)[m]
    rhs = stirling2_mod(k + m, k, s, "recurrence")
    return lhs, rhs


def _check_part_mod(ctx: _Ctx, p: dict, r: Ranges):
    n, k, s = p["n"], p["k"], p["s"]
    lhs = count_partitions_mod(n, k, s)
    rhs = stirling2_mod(n, k, s, "recurrence")
    return lhs, rhs


def _check_part_zero(ctx: _Ctx, p: dict, r: Ranges):
    n, k, s = p["n"], p["k"], p["s"]
    if (n - k) % (s + 1):
        raise _Skip("requires s+1 to divide n-k")
    lhs = count_partitions_zeromod(n, k, s)
    rhs = ctx(h_at_powered_points, k, (n - k) // (s + 1), s)
    return lhs, rhs


def _check_ps1(ctx: _Ctx, p: dict, r: Ranges, shift: int = 0):
    n, k, s = p["n"], p["k"], p["s"]
    lhs = stirling2_mod(n + k, n, s, "recurrence")
    rhs = ps1_rhs(n, k, s, _shift=shift)
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


def _check_fermat(ctx: _Ctx, p: dict, r: Ranges):
    n, k, prime = p["n"], p["k"], p["p"]
    if not _is_prime(prime):
        raise _Skip("requires prime p")
    lhs = stirling2_mod(n + k, n, prime - 1, "recurrence") % prime
    rhs = fermat_rhs(n, k, prime) % prime
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


def _check_lmod(ctx: _Ctx, p: dict, r: Ranges):
    n, k, s, ell = p["n"], p["k"], p["s"], p["ell"]
    if gcd(ell, s + 1) != 1:
        raise _Skip("requires gcd(ell, s+1) = 1")
    lhs = poly_eval_int(lmodular_sym(n, k, s, ell), tuple(range(1, n + 1)))
    rhs = lmod_rhs(n, k, s, ell)
    return lhs, rhs


def _alternating_sum(terms: Iterable[Polynomial]) -> Polynomial:
    total = Polynomial.zero()
    for j, term in enumerate(terms):
        total = total + (-term if j % 2 else term)
    return total


def _check_evanish(ctx: _Ctx, p: dict, r: Ranges):
    n, k, s = p["n"], p["k"], p["s"]
    if s % 2 == 0:
        raise _Skip("requires odd s")
    total = _alternating_sum(
        ctx(bounded_elem_sym, n, i, s) * ctx(modular_sym, n, k - i, s)
        for i in range(k + 1)
    )
    return total, 0


def _check_conv_he(ctx: _Ctx, p: dict, r: Ranges, powered: bool = True):
    n, k, s = p["n"], p["k"], p["s"]
    lhs = ctx(modular_sym, n, k, s)
    rhs = _modular_conv(n, k, s, s + 1 if powered else 1)
    return lhs, rhs


def _check_inv_h(ctx: _Ctx, p: dict, r: Ranges, lift: int = 1):
    # h_k(x^(s+lift)) = sum_j (-1)^j h_j M_{k(s+1)-j}^(s)
    n, k, s = p["n"], p["k"], p["s"]
    lhs = ctx(comp_sym, n, k).substitute_power(s + lift)
    rhs = _alternating_sum(
        ctx(comp_sym, n, j) * ctx(modular_sym, n, k * (s + 1) - j, s)
        for j in range(k * (s + 1) + 1)
    )
    return lhs, rhs


def _check_inv_e(ctx: _Ctx, p: dict, r: Ranges, powered: bool = True):
    # e_k = sum_j (-1)^j e_j(x^(s+1)) M_{k-j(s+1)}^(s), or e_j(x) unpowered
    n, k, s = p["n"], p["k"], p["s"]
    lhs = ctx(elem_sym, n, k)
    rhs = _alternating_sum(
        ctx(elem_sym, n, j).substitute_power(s + 1 if powered else 1)
        * ctx(modular_sym, n, k - j * (s + 1), s)
        for j in range(k // (s + 1) + 1)
    )
    return lhs, rhs


def _check_inv_zero(ctx: _Ctx, p: dict, r: Ranges):
    n, k, s = p["n"], p["k"], p["s"]
    if k % (s + 1) == 0:
        raise _Skip("requires k not divisible by s+1")
    total = _alternating_sum(
        ctx(comp_sym, n, j) * ctx(modular_sym, n, k - j, s) for j in range(k + 1)
    )
    return total, 0


def _check_eh_me(ctx: _Ctx, p: dict, r: Ranges):
    n, k, s = p["n"], p["k"], p["s"]
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


def _check_s1mod_def(ctx: _Ctx, p: dict, r: Ranges):
    n, k, s = p["n"], p["k"], p["s"]
    direct = stirling1_mod(n + 1, k + 1, s)
    scaled = _scaled_reciprocal_eval(ctx(bounded_elem_sym, n, k, s), n, s)
    mirrored = poly_eval_int(
        ctx(bounded_elem_sym, n, n * s - k, s), tuple(range(1, n + 1))
    )
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


def _check_s1mod_rec(ctx: _Ctx, p: dict, r: Ranges):
    n, k, s = p["n"], p["k"], p["s"]
    lhs = stirling1_mod_rec(n, k, s)
    rhs = stirling1_mod(n, k, s)
    return lhs, rhs


def _grid_s1mod_part(r: Ranges) -> Iterator[dict]:
    # the S1MOD_DEF cells whose board n(s+1)-k holds n blocks and is in bounds
    return (
        p for p in _grid_s1mod_def(r)
        if p["n"] <= p["n"] * (p["s"] + 1) - p["k"] <= r.board_max
    )


def _check_s1mod_part(ctx: _Ctx, p: dict, r: Ranges):
    n, k, s = p["n"], p["k"], p["s"]
    lhs = count_partitions_bounded(n * (s + 1) - k, n, s)
    rhs = stirling1_mod(n + 1, k + 1, s)
    return lhs, rhs


def _check_nested(ctx: _Ctx, p: dict, r: Ranges):
    n, k, s = p["n"], p["k"], p["s"]
    lhs = count_nested_minset_tuples(n, k, s)
    rhs = stirling1_mod_rec(n, k, s)
    return lhs, rhs


def _check_higher_rec(ctx: _Ctx, p: dict, r: Ranges):
    n, k, s = p["n"], p["k"], p["s"]
    lhs = count_equal_minset_tuples(n, k, s)
    rhs = stirling1_higher(n, k, s)
    return lhs, rhs


def _check_omega(ctx: _Ctx, p: dict, r: Ranges):
    n, k, s = p["n"], p["k"], p["s"]
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


_ERRATA: dict[str, _Erratum] = {
    "S2MOD_GF": _Erratum(
        "prod_{r=1..k} (1 + r*x^s) / (1 - (r*x)^(s+1))",
        "prod_{r=1..k} (1 + r*x) / (1 - (r*x)^(s+1))",
        "The numerator variant 1 + r*x^s selects exponents congruent to "
        "{0, s} mod s+1 and contradicts the defining specialization "
        "{n,k}^(s) = M_{n-k}^(s)(1..k): at k=1, s=2 it gives 0 at n=2 "
        "where {2,1}^(2) = 1, and 1 at n=3 where {3,1}^(2) = M_2^(2)(1) "
        "= 0.  The numerator 1 + r*x reproduces the specialization "
        "exactly and collapses to the classical column series at s=1.",
        Ranges(n_max=8, k_max=3, s_max=3),
        {"linear": False},
        cell=lambda p: {"n": p["k"] + p["m"], "k": p["k"], "s": p["s"]},
        zero_cell=True,
    ),
    "INV_H": _Erratum(
        "h_k(x^s) = sum_j (-1)^j h_j M_{k(s+1)-j}^(s)",
        "h_k(x^(s+1)) = sum_j (-1)^j h_j M_{k(s+1)-j}^(s)",
        "The alternating h-convolution inverts the series whose t^{(s+1)k} "
        "coefficients are h_k in the (s+1)-th powers of the variables, so "
        "the left side must substitute x_i -> x_i^(s+1); with x_i^s it "
        "already fails at n=1, k=1, s=1.",
        Ranges(n_max=2, k_max=2, s_max=2),
        {"lift": 0},
    ),
    "INV_E": _Erratum(
        "e_k = sum_j (-1)^j e_j M_{k-j(s+1)}^(s)",
        "e_k = sum_j (-1)^j e_j(x^(s+1)) M_{k-j(s+1)}^(s)",
        "The alternating e-factor multiplies t in steps of s+1, so it must "
        "be taken in the (s+1)-th powers of the variables; with plain e_j "
        "the identity already fails at n=1, k=2, s=1.",
        Ranges(n_max=2, k_max=4, s_max=2),
        {"powered": False},
    ),
}


def _erratum_report(key: str, row: _Erratum) -> dict:
    # stop at the variant's first failing cell in grid order, or for a
    # zero-cell row at its first failing cell whose corrected side is 0
    ident = _hooked(key, **row.hooks)
    ctx = _Ctx()
    first = zero = None
    for p in ident.grid(row.ranges):
        case = _run_cell(ident, ctx, p, row.ranges)
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
        "id": key,
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
class _Identity:
    info: IdentityInfo
    grid: Callable[[Ranges], Iterable[dict]]
    check: Callable[[_Ctx, dict, Ranges], tuple[object, object]]
    quick: Ranges  # per-identity bounds of the two profiles
    full: Ranges


def _hooked(key: str, **hooks) -> _Identity:
    """Catalog entry ``key``, looked up at call time, whose checker runs with
    the given hooks."""
    entry = _CATALOG[key]
    return replace(entry, check=partial(entry.check, **hooks))


def _make_catalog() -> dict[str, _Identity]:
    entries = [
        _Identity(
            IdentityInfo(
                "GF_M",
                "series identity: sum_k M_k^(s)(n) t^k = "
                "prod_{i<=n} (1+x_i t)/(1-(x_i t)^(s+1))",
                ("n", "k", "s"),
            ),
            _grid_nks,
            _check_gf_m,
            Ranges(n_max=3, k_max=6, s_max=2),
            Ranges(n_max=5, k_max=10, s_max=3),
        ),
        _Identity(
            IdentityInfo(
                "REC3",
                "variable-count recurrence: M_k^(s)(n) = "
                "sum_{j=0,1 mod s+1} x_n^j M_{k-j}^(s)(n-1)",
                ("n", "k", "s"),
            ),
            lambda r: _grid_nks(r, n_lo=1),
            _check_rec3,
            Ranges(n_max=3, k_max=6, s_max=2),
            Ranges(n_max=8, k_max=8, s_max=4),
        ),
        _Identity(
            IdentityInfo(
                "REC4",
                "two-term peel for k >= s+1: M_k^(s)(n) = x_n^(s+1) "
                "M_{k-s-1}^(s)(n) + x_n M_{k-1}^(s)(n-1) + M_k^(s)(n-1)",
                ("n", "k", "s"),
            ),
            lambda r: _grid_nks(r, n_lo=1),
            _check_rec4,
            Ranges(n_max=3, k_max=6, s_max=2),
            Ranges(n_max=8, k_max=8, s_max=4),
        ),
        _Identity(
            IdentityInfo(
                "PATHS",
                "weight sum over admissible lattice paths equals M_k^(s)(n)",
                ("n", "k", "s"),
            ),
            lambda r: _grid_nks(r, n_lo=1),
            lambda ctx, p, r: _check_weight_sum(gen_lattice_paths, ctx, p),
            Ranges(n_max=3, k_max=5, s_max=2),
            Ranges(n_max=4, k_max=8, s_max=3),
        ),
        _Identity(
            IdentityInfo(
                "TILINGS",
                "weight sum over admissible tilings equals M_k^(s)(n)",
                ("n", "k", "s"),
            ),
            lambda r: _grid_nks(r, n_lo=1),
            lambda ctx, p, r: _check_weight_sum(gen_tilings, ctx, p),
            Ranges(n_max=3, k_max=5, s_max=2),
            Ranges(n_max=4, k_max=8, s_max=3),
        ),
        _Identity(
            IdentityInfo(
                "ALLONES",
                "all-ones evaluation: M_k^(s)(1..1) = "
                "sum_j C(n, k-j(s+1)) C(j+n-1, n-1)",
                ("n", "k", "s"),
            ),
            lambda r: _grid_nks(r, n_lo=1),
            _check_allones,
            Ranges(n_max=4, k_max=6, s_max=2),
            Ranges(n_max=6, k_max=12, s_max=4),
        ),
        _Identity(
            IdentityInfo(
                "S2MOD_SPEC",
                "triangle from specialization: {n,k}^(s) = M_{n-k}^(s)(1..k); "
                "polynomial-evaluation and recurrence routes agree",
                ("n", "k", "s"),
            ),
            _grid_triangle,
            _check_s2mod_spec,
            Ranges(n_max=8, s_max=2),
            Ranges(n_max=20, s_max=4),
        ),
        _Identity(
            IdentityInfo(
                "S2MOD_REC",
                "triangle recurrence for n-k >= s+1: {n,k}^(s) = {n-1,k-1}^(s) "
                "+ k {n-2,k-1}^(s) + k^(s+1) {n-s-1,k}^(s)",
                ("n", "k", "s"),
            ),
            lambda r: _grid_triangle(r, k_lo=1),
            _check_s2mod_rec,
            Ranges(n_max=8, s_max=2),
            Ranges(n_max=20, s_max=4),
        ),
        _Identity(
            IdentityInfo(
                "S2MOD_GF",
                "column series: sum_m {k+m,k}^(s) x^m = "
                "prod_{r<=k} (1+r x)/(1-(r x)^(s+1)), corrected numerator",
                ("k", "s", "m"),
            ),
            _grid_s2mod_gf,
            _check_s2mod_gf,
            Ranges(n_max=8, k_max=3, s_max=2),
            Ranges(n_max=20, k_max=6, s_max=4),
        ),
        _Identity(
            IdentityInfo(
                "PART_MOD",
                "partitions with d_i = 0,1 mod s+1 are counted by {n,k}^(s)",
                ("n", "k", "s"),
            ),
            lambda r: _grid_triangle(r, k_lo=1),
            _check_part_mod,
            Ranges(n_max=6, s_max=2),
            Ranges(n_max=10, s_max=4),
        ),
        _Identity(
            IdentityInfo(
                "PART_ZERO",
                "partitions with all d_i = 0 mod s+1 are counted by "
                "h_{(n-k)/(s+1)}(1^(s+1)..k^(s+1))",
                ("n", "k", "s"),
            ),
            lambda r: _grid_triangle(r, k_lo=1),
            _check_part_zero,
            Ranges(n_max=6, s_max=2),
            Ranges(n_max=10, s_max=4),
        ),
        _Identity(
            IdentityInfo(
                "PS1",
                "first-kind expansion: {n+k,n}^(s) = sum_i "
                "h_{floor(k/(s+1))-i}(1^(s+1)..n^(s+1)) [n+1, n+1-r-i(s+1)], "
                "r = k mod s+1",
                ("n", "k", "s"),
            ),
            _grid_nks,
            _check_ps1,
            Ranges(n_max=3, k_max=5, s_max=2),
            Ranges(n_max=5, k_max=10, s_max=4),
        ),
        _Identity(
            IdentityInfo(
                "FERMAT",
                "prime congruence: {n+k,n}^(p-1) = sum_i {n+floor(k/p)-i, n} "
                "[n+1, n+1-(r+ip)] mod p",
                ("n", "k", "p"),
            ),
            _grid_fermat,
            _check_fermat,
            Ranges(n_max=3, k_max=5, p_list=(2, 3)),
            Ranges(n_max=5, k_max=10, p_list=(2, 3, 5)),
        ),
        _Identity(
            IdentityInfo(
                "LMOD",
                "residue-ell expansion of M_k^(s,ell)(1..n) via h at powered "
                "points and level-ell first-kind brackets",
                ("n", "k", "s", "ell"),
                note=(
                    "interpretation: the bracket factor is read as the "
                    "level-ell first-kind triangle (x^k coefficients of "
                    "x(x+1^ell)(x+2^ell)...); a failure here would point at "
                    "that reading rather than an arithmetic bug"
                ),
            ),
            _grid_lmod,
            _check_lmod,
            Ranges(n_max=3, k_max=5, s_max=2),
            Ranges(n_max=4, k_max=8, s_max=4),
        ),
        _Identity(
            IdentityInfo(
                "EVANISH",
                "odd-s alternating convolution: "
                "sum_i (-1)^i E_i^(s) M_{k-i}^(s) = 0",
                ("n", "k", "s"),
            ),
            lambda r: _grid_nks(r, n_lo=1, k_lo=1),
            _check_evanish,
            Ranges(n_max=2, k_max=4, s_max=2),
            Ranges(n_max=3, k_max=6, s_max=4),
        ),
        _Identity(
            IdentityInfo(
                "CONV_HE",
                "convolution route: M_k^(s) = sum_j h_j(x^(s+1)) e_{k-(s+1)j}, "
                "checked against direct enumeration",
                ("n", "k", "s"),
            ),
            lambda r: _grid_nks(r, n_lo=1),
            _check_conv_he,
            Ranges(n_max=3, k_max=5, s_max=2),
            Ranges(n_max=8, k_max=8, s_max=4),
        ),
        _Identity(
            IdentityInfo(
                "INV_H",
                "inverse pair: h_k(x^(s+1)) = sum_j (-1)^j h_j "
                "M_{k(s+1)-j}^(s), corrected substitution power",
                ("n", "k", "s"),
            ),
            lambda r: _grid_nks(r, n_lo=1, k_lo=1),
            _check_inv_h,
            Ranges(n_max=2, k_max=3, s_max=2),
            Ranges(n_max=3, k_max=4, s_max=3),
        ),
        _Identity(
            IdentityInfo(
                "INV_E",
                "inverse pair: e_k = sum_j (-1)^j e_j(x^(s+1)) "
                "M_{k-j(s+1)}^(s), corrected powered e-factor",
                ("n", "k", "s"),
            ),
            lambda r: _grid_nks(r, n_lo=1, k_lo=1),
            _check_inv_e,
            Ranges(n_max=3, k_max=5, s_max=2),
            Ranges(n_max=3, k_max=7, s_max=3),
        ),
        _Identity(
            IdentityInfo(
                "INV_ZERO",
                "vanishing convolution: sum_j (-1)^j h_j M_{k-j}^(s) = 0 "
                "for k not divisible by s+1",
                ("n", "k", "s"),
            ),
            lambda r: _grid_nks(r, n_lo=1, k_lo=1),
            _check_inv_zero,
            Ranges(n_max=3, k_max=5, s_max=2),
            Ranges(n_max=3, k_max=7, s_max=3),
        ),
        _Identity(
            IdentityInfo(
                "EH_ME",
                "full convolution match: sum_j e_j h_{k-j} = "
                "sum_j M_j^(s) E_{k-j}^(s)",
                ("n", "k", "s"),
            ),
            lambda r: _grid_nks(r, n_lo=1, k_lo=1),
            _check_eh_me,
            Ranges(n_max=2, k_max=4, s_max=2),
            Ranges(n_max=3, k_max=6, s_max=3),
        ),
        _Identity(
            IdentityInfo(
                "S1MOD_DEF",
                "[n+1,k+1]^(s) equals the ((n)!)^s-scaled reciprocal "
                "evaluation of E_k^(s) and the mirrored E_{ns-k}^(s)(1..n)",
                ("n", "k", "s"),
            ),
            _grid_s1mod_def,
            _check_s1mod_def,
            Ranges(n_max=4, s_max=2),
            Ranges(n_max=6, s_max=3),
        ),
        _Identity(
            IdentityInfo(
                "S1MOD_REC",
                "order-s recurrence route for [n,k]^(s) agrees with the "
                "bounded-E specialization route",
                ("n", "k", "s"),
            ),
            _grid_s1mod_rec,
            _check_s1mod_rec,
            Ranges(n_max=5, s_max=2),
            Ranges(n_max=10, s_max=4),
        ),
        _Identity(
            IdentityInfo(
                "S1MOD_PART",
                "partitions of a (n(s+1)-k)-board into n blocks with all "
                "d_i <= s are counted by [n+1,k+1]^(s)",
                ("n", "k", "s", "board"),
            ),
            _grid_s1mod_part,
            _check_s1mod_part,
            Ranges(n_max=3, s_max=2, board_max=8),
            Ranges(n_max=5, s_max=3, board_max=12),
        ),
        _Identity(
            IdentityInfo(
                "NESTED",
                "nested min-set tuples with k+s-1 total cycles are counted "
                "by [n,k]^(s)",
                ("n", "k", "s"),
            ),
            lambda r: _grid_s1mod_rec(r, nested=True),
            _check_nested,
            Ranges(n_max=3, s_max=2),
            Ranges(n_max=4, s_max=3),
        ),
        _Identity(
            IdentityInfo(
                "HIGHER_REC",
                "equal min-set s-tuples of k-cycle permutations are counted "
                "by the level-s triangle [n,k]_s",
                ("n", "k", "s"),
            ),
            _grid_triangle,
            _check_higher_rec,
            Ranges(n_max=4, s_max=2),
            Ranges(n_max=5, s_max=3),
        ),
        _Identity(
            IdentityInfo(
                "OMEGA",
                "x^k coefficients of x(x+1^s)(x+2^s)...(x+(n-1)^s) "
                "equal [n,k]_s",
                ("n", "k", "s"),
            ),
            _grid_triangle,
            _check_omega,
            Ranges(n_max=5, s_max=2),
            Ranges(n_max=10, s_max=3),
        ),
    ]
    return {e.info.id: e for e in entries}


_CATALOG = _make_catalog()



def list_identities() -> list[IdentityInfo]:
    """The stable catalog, in report order."""
    return [ident.info for ident in _CATALOG.values()]


def profile_ranges(identity_id: str, profile: str = "quick") -> Ranges:
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
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
    return _run_cell(ident, _Ctx(), params, effective)


def _run_cell(ident: _Identity, ctx: _Ctx, params: dict, ranges: Ranges) -> IdentityCase:
    # the one place a cell is compared and serialized
    try:
        lhs, rhs = ident.check(ctx, params, ranges)
    except _Skip as skip:
        return IdentityCase(ident.info.id, params, "", "", "skipped", skip.reason)
    status = "pass" if lhs == rhs else "fail"
    return IdentityCase(ident.info.id, params, str(lhs), str(rhs), status)


def _run_identity(ident: _Identity, ranges: Ranges) -> VerifyReport:
    cells = list(ident.grid(ranges))
    if not cells:
        raise ValueError(f"empty parameter grid for {ident.info.id}")
    ctx = _Ctx()
    results = [_run_cell(ident, ctx, p, ranges) for p in cells]
    passed = sum(1 for c in results if c.status == "pass")
    failed = [c for c in results if c.status == "fail"]
    skipped = sum(1 for c in results if c.status == "skipped")
    key = ident.info.id
    errata = [_erratum_report(key, _ERRATA[key])] if key in _ERRATA else []
    return VerifyReport(
        identity=ident.info.id,
        anchor=ident.info.anchor,
        range=ranges.describe(ident.info.parameters),
        passed=passed,
        failed=len(failed),
        skipped=skipped,
        failures=failed,
        errata=errata,
        note=ident.info.note,
    )


def verify(
    identity_id: str, ranges: Ranges | None = None, profile: str = "quick"
) -> VerifyReport:
    """Exhaustively check one identity on its parameter grid.

    Explicit ``ranges`` fields override the per-identity profile bounds.
    """
    key = _normalize_id(identity_id)
    base = profile_ranges(key, profile)
    effective = ranges.merged_over(base) if ranges is not None else base
    return _run_identity(_CATALOG[key], effective)


def verify_all(
    profile: str = "quick", ranges: Ranges | None = None
) -> list[VerifyReport]:
    """Run every catalog entry under the given profile, in catalog order."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    return [verify(key, ranges, profile) for key in _CATALOG]


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
        ident = _hooked(key, **hooks)
        info = IdentityInfo(name, anchor, ident.info.parameters)
        reports.append(_run_identity(replace(ident, info=info), ranges))
    return reports
