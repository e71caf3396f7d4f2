import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym import symfun
from modsym.polycore import Polynomial, TruncatedSeries, _cauchy
from modsym.stirling import stirling1, stirling2
from modsym.symfun import (
    MODULAR_METHODS,
    bounded_elem_sym,
    comp_sym,
    elem_sym,
    lmodular_sym,
    modular_all_ones,
    modular_series,
    modular_sym,
)

X1 = Polynomial.variable(1)
X2 = Polynomial.variable(2)
X3 = Polynomial.variable(3)


def brute_compositions(n, k):
    """All exponent tuples of compositions of k into n parts (oracle)."""
    if n == 0:
        return [()] if k == 0 else []
    return [
        rest + (a,) for a in range(k + 1) for rest in brute_compositions(n - 1, k - a)
    ]


def brute_modular(n, k, s, residues=(0, 1)):
    terms = {}
    for comp in brute_compositions(n, k):
        if all(a % (s + 1) in residues for a in comp):
            terms[comp] = 1
    return Polynomial(terms)


def _reference_bounded_rows(xs, s, depth=None):
    # The E^(s) rows before they were shifted sums: each row times the
    # factor sum_{t<=s} (x u)^t as a Cauchy product, cut at u^depth
    row = [1]
    for x in xs:
        yield row
        top = len(row) - 1 + s if depth is None else min(len(row) - 1 + s, depth)
        row = _cauchy(row, [x**t for t in range(s + 1)], top)
    yield row


def _reference_composition_poly(num_vars, degree, parts):
    # The composition walk before it stopped a prefix at the degree: one
    # slot per variable, last variable first, with a part (usually 0) at
    # every variable and the trailing zeros trimmed off each key
    ok = [False] * (degree + 1)
    for a in parts:
        ok[a] = True
    if num_vars == 0:
        return Polynomial.one() if degree == 0 else Polynomial.zero()
    if num_vars == 1:
        return Polynomial.monomial((degree,)) if ok[degree] else Polynomial.zero()
    terms = {}
    buf = [0] * num_vars
    left = [0] * num_vars
    todo = [None] * num_vars
    i = num_vars - 1
    left[i] = degree
    todo[i] = iter(parts)
    while i < num_vars:
        for a in todo[i]:
            buf[i] = a
            rest = left[i] - a
            if i > 1:
                i -= 1
                left[i] = rest
                todo[i] = iter(parts[: bisect_right(parts, rest)])
                break
            if ok[rest]:
                buf[0] = rest
                end = num_vars
                while end and buf[end - 1] == 0:
                    end -= 1
                terms[tuple(buf[:end])] = 1
        else:
            i += 1
    return Polynomial._raw(terms)


class TestCompositionWalk:
    def test_terms_match_the_reference_walk(self):
        # every parts list the library passes: each residue ell <= s, and
        # the E^(s) parts
        for num_vars in range(7):
            for degree in range(11):
                for s in range(1, 5):
                    lists = [
                        list(symfun._residue_parts(degree, s, ell))
                        for ell in range(s + 1)
                    ]
                    lists.append(range(min(degree, s) + 1))
                    for parts in lists:
                        got = symfun._composition_poly(num_vars, degree, parts)
                        want = _reference_composition_poly(num_vars, degree, parts)
                        assert got.terms == want.terms, (num_vars, degree, parts)

    def test_residue_parts_are_the_filtered_range(self):
        for limit in range(31):
            for s in range(1, 6):
                for ell in range(s + 1):
                    want = [a for a in range(limit + 1) if a % (s + 1) in (0, ell)]
                    got = list(symfun._residue_parts(limit, s, ell))
                    assert got == want, (limit, s, ell)


class TestElemComp:
    def test_e2_three_vars(self):
        assert elem_sym(3, 2) == X1 * X2 + X1 * X3 + X2 * X3

    def test_e_vanishes_beyond_n(self):
        assert elem_sym(3, 4).is_zero
        assert elem_sym(0, 1).is_zero

    def test_e_specialization_is_first_kind(self):
        assert elem_sym(3, 2).evaluate((1, 2, 3)) == 11 == stirling1(4, 2)

    def test_h2_two_vars(self):
        assert comp_sym(2, 2) == X1 * X1 + X1 * X2 + X2 * X2

    def test_h0_is_one(self):
        assert comp_sym(5, 0) == Polynomial.one()
        assert comp_sym(0, 0) == Polynomial.one()
        assert comp_sym(0, 2).is_zero

    def test_h_specialization_is_second_kind(self):
        assert comp_sym(3, 2).evaluate((1, 2, 3)) == 25 == stirling2(5, 3)

    def test_classical_specializations_sweep(self):
        # h_k(1..n) = {n+k, n};  e_k(1..n) = [n+1, n+1-k]
        for n in range(9):
            pt = tuple(range(1, n + 1))
            for k in range(9):
                assert comp_sym(n, k).evaluate(pt) == stirling2(n + k, n)
                if k <= n + 1:
                    assert elem_sym(n, k).evaluate(pt) == stirling1(n + 1, n + 1 - k)


class TestModularSym:
    def test_single_variable_residues(self):
        assert modular_sym(1, 2, 2).is_zero
        assert modular_sym(1, 3, 2) == Polynomial.monomial((3,))
        assert modular_sym(1, 4, 2) == Polynomial.monomial((4,))
        assert modular_sym(1, 5, 2).is_zero

    def test_reference_small_values(self):
        assert modular_sym(2, 3, 2) == X1 * X1 * X1 + X2 * X2 * X2
        assert modular_sym(2, 2, 2) == X1 * X2
        assert str(modular_sym(3, 3, 2)) == "x1^3 + x1*x2*x3 + x2^3 + x3^3"

    def test_zero_vars_is_delta(self):
        for method in MODULAR_METHODS:
            assert modular_sym(0, 0, 3, method) == Polynomial.one()
            assert modular_sym(0, 2, 3, method).is_zero

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            modular_sym(2, 2, 2, "magic")

    def test_three_routes_agree_small(self):
        for n in range(6):
            for k in range(7):
                for s in (1, 2, 3):
                    enum = modular_sym(n, k, s, "enumeration")
                    assert enum == modular_sym(n, k, s, "recurrence")
                    assert enum == modular_sym(n, k, s, "convolution")

    def test_matches_brute_force(self):
        for n in range(5):
            for k in range(7):
                for s in (1, 2, 3):
                    assert modular_sym(n, k, s) == brute_modular(n, k, s)

    def test_recurrence_walks_many_variables(self):
        # the row is built bottom-up, so no recursion depth grows with n
        assert modular_sym(1200, 1, 1, "recurrence") == modular_sym(1200, 1, 1)

    def test_s1_collapse_to_h(self):
        for n in range(6):
            for k in range(6):
                assert modular_sym(n, k, 1) == comp_sym(n, k)


class TestLModular:
    def test_ell_one_is_modular(self):
        for n in range(4):
            for k in range(6):
                for s in (1, 2, 3):
                    assert lmodular_sym(n, k, s, 1) == modular_sym(n, k, s)

    def test_residue_two_mod_four(self):
        assert lmodular_sym(2, 2, 3, 2) == X1 * X1 + X2 * X2

    def test_degree_zero_is_one(self):
        assert lmodular_sym(4, 0, 3, 2) == Polynomial.one()

    def test_matches_brute_force(self):
        for n in range(4):
            for k in range(6):
                for s in (2, 3):
                    for ell in range(s + 1):
                        residues = {0, ell}
                        assert lmodular_sym(n, k, s, ell) == brute_modular(
                            n, k, s, residues
                        )

    def test_ell_out_of_range(self):
        with pytest.raises(ValueError):
            lmodular_sym(2, 2, 2, 3)
        with pytest.raises(ValueError):
            lmodular_sym(2, 2, 2, -1)


class TestBoundedElem:
    def test_s1_collapse_to_e(self):
        for n in range(6):
            for k in range(7):
                assert bounded_elem_sym(n, k, 1) == elem_sym(n, k)

    def test_vanishes_above_ns(self):
        assert bounded_elem_sym(2, 7, 3).is_zero

    def test_reference_values(self):
        assert bounded_elem_sym(2, 2, 2) == X1 * X1 + X1 * X2 + X2 * X2
        assert bounded_elem_sym(2, 3, 3).evaluate((1, 2)) == 15

    def test_matches_brute_force(self):
        for n in range(4):
            for k in range(7):
                for s in (1, 2, 3):
                    expected = Polynomial(
                        {
                            c: 1
                            for c in brute_compositions(n, k)
                            if all(a <= s for a in c)
                        }
                    )
                    assert bounded_elem_sym(n, k, s) == expected


class TestModularSeries:
    def test_coefficients_match_modular_sym(self):
        for n in range(4):
            for s in (1, 2, 3):
                series = modular_series(n, s, 8)
                for k in range(9):
                    assert series.coefficient(k) == modular_sym(n, k, s)

    def test_reference_t3_coefficient(self):
        assert modular_series(2, 2, 3).coefficient(3) == X1**3 + X2**3

    def test_empty_product_is_one(self):
        series = modular_series(0, 2, 4)
        assert series.coefficient(0) == Polynomial.one()
        assert all(series.coefficient(k).is_zero for k in range(1, 5))


class TestSharedRules:
    # the M^(s,ell) rows, the E^(s) rows and the product series take their
    # ring from the values: at integers they are the polynomial rules
    # evaluated there
    def test_rows_at_integers_are_evaluated_polynomial_rows(self):
        for s in (1, 2, 3):
            for k in range(5):
                point = tuple(range(1, k + 1))
                variables = [Polynomial.variable(i) for i in point]
                for ell in range(s + 1):
                    rows = symfun._modular_rows(
                        variables, Polynomial.one(), 7, s, ell=ell
                    )
                    assert [[p.evaluate(point) for p in row] for row in rows] == list(
                        symfun._modular_rows(point, 1, 7, s, ell=ell)
                    )
                for depth in (None, 4):
                    # E^(s) rows hold an int where no product reaches
                    rows = symfun._bounded_rows(variables, s, depth)
                    assert [
                        [c.evaluate(point) for c in TruncatedSeries(row).coeffs]
                        for row in rows
                    ] == list(symfun._bounded_rows(point, s, depth))

    def test_last_rows_are_the_functions(self):
        # the last row of each rule at polynomial variables is the function
        # the builders enumerate, for every ell and past the top degree of E
        for n in range(4):
            variables = [Polynomial.variable(i) for i in range(1, n + 1)]
            for s in (1, 2, 3):
                *_, e_row = symfun._bounded_rows(variables, s)
                assert len(e_row) == n * s + 1
                for k in range(n * s + 3):
                    assert symfun._last_entry(
                        symfun._bounded_rows(variables, s, k), k
                    ) == bounded_elem_sym(n, k, s), (n, k, s)
                for ell in range(s + 1):
                    *_, m_row = symfun._modular_rows(
                        variables, Polynomial.one(), 7, s, ell=ell
                    )
                    assert m_row == [
                        lmodular_sym(n, k, s, ell) for k in range(8)
                    ], (n, s, ell)

    def test_cut_rows_are_prefixes_of_the_full_rows(self):
        # a row cut at u^depth is the full row's prefix, and one value at the
        # point reads 0 below degree 0 and past the top degree
        for point in ((), (0,), (3, -2), (-1, 0, 4)):
            for s in (1, 2, 3):
                full = list(symfun._bounded_rows(point, s))
                for depth in range(-3, len(point) * s + 3):
                    rows = list(symfun._bounded_rows(point, s, depth))
                    assert rows[0] == [1] and len(rows) == len(full)
                    for row, whole in zip(rows[1:], full[1:]):
                        assert row == whole[: max(depth + 1, 0)]
                    for k in range(-3, depth + 1):
                        value = symfun._last_entry(iter(rows), k)
                        assert value == (full[-1][k] if 0 <= k < len(full[-1]) else 0)

    def test_bounded_rows_match_the_reference_rows(self):
        # the shifted sums give the Cauchy-product rows, cut or not; a
        # negative depth leaves every row after the first empty
        rng = random.Random(7)
        for n in range(8):
            for s in range(1, 5):
                point = [rng.randint(-6, 9) for _ in range(n)]
                for depth in (None, *range(-3, 13)):
                    assert list(symfun._bounded_rows(point, s, depth)) == list(
                        _reference_bounded_rows(point, s, depth)
                    ), (point, s, depth)

    def test_cut_rows_pad_no_cell_past_the_depth(self):
        # a row is padded by s cut at the depth, not by s, so a huge s costs
        # no more than s = depth
        rows = list(symfun._bounded_rows(range(1, 5), 10**20, 3))
        assert all(len(row) <= 4 for row in rows)

    def test_triangle_rows_stop_at_the_total_degree(self):
        rows = list(symfun._modular_rows(range(1, 6), 1, 5, 2, total=5))
        assert [len(row) for row in rows] == [6, 5, 4, 3, 2, 1]
        full = list(symfun._modular_rows(range(1, 6), 1, 5, 2))
        assert all(row == full[j][: len(row)] for j, row in enumerate(rows))

    def test_series_at_integers_is_the_evaluated_series(self):
        for s in (1, 2, 3):
            for k in range(5):
                point = tuple(range(1, k + 1))
                variables = [Polynomial.variable(i) for i in point]
                for numerator in (1, s):
                    series = TruncatedSeries(
                        symfun._series_product(variables, s, 9, numerator)
                    )
                    assert [c.evaluate(point) for c in series.coeffs] == (
                        symfun._series_product(point, s, 9, numerator)
                    )


class TestAllOnes:
    def test_reference_values(self):
        assert modular_all_ones(3, 3, 2) == 4
        assert modular_all_ones(2, 5, 2) == 2

    def test_degree_zero(self):
        for n in (1, 3, 6):
            assert modular_all_ones(n, 0, 4) == 1

    def test_matches_evaluated_polynomial(self):
        for n in range(1, 6):
            for k in range(9):
                for s in (1, 2, 3):
                    assert modular_all_ones(n, k, s) == modular_sym(n, k, s).evaluate(
                        (1,) * n
                    )


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            elem_sym(-1, 0)
        with pytest.raises(ValueError):
            comp_sym(0, -1)
        with pytest.raises(ValueError):
            bounded_elem_sym(0, 0, 0)
        with pytest.raises(ValueError):
            lmodular_sym(0, 0, 2, 3)


@given(
    n=st.integers(0, 4),
    k=st.integers(0, 6),
    s=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=60)
def test_symmetry_under_variable_permutation(n, k, s, data):
    point = tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
    perm = data.draw(st.permutations(point))
    for poly in (modular_sym(n, k, s), bounded_elem_sym(n, k, s)):
        assert poly.evaluate(point) == poly.evaluate(tuple(perm))
