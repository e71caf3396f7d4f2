import pytest

from modsym.polycore import Polynomial, poly_eval_int
from modsym.stirling import (
    StirlingQuery,
    omega_poly,
    stirling1,
    stirling1_higher,
    stirling1_mod,
    stirling1_mod_rec,
    stirling2,
    stirling2_mod,
    stirling2_mod_series,
    triangle_csv,
    triangle_from_csv,
    triangle_json_obj,
    triangle_rows,
)
from modsym.symfun import modular_sym


def brute_stirling2(n, k):
    """Count partitions of [n] into k blocks by direct recursion (oracle)."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return brute_stirling2(n - 1, k - 1) + k * brute_stirling2(n - 1, k)


def brute_stirling1(n, k):
    """Count permutations of [n] with k cycles by direct recursion (oracle)."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return brute_stirling1(n - 1, k - 1) + (n - 1) * brute_stirling1(n - 1, k)


class TestClassical:
    def test_initial_conditions(self):
        assert stirling2(0, 0) == 1
        assert stirling2(3, 0) == 0
        assert stirling2(0, 3) == 0
        assert stirling1(0, 0) == 1
        assert stirling1(4, 0) == 0

    def test_reference_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 2) == 15
        assert stirling1(4, 2) == 11
        assert stirling1(5, 5) == 1

    def test_against_brute_recursion(self):
        for n in range(9):
            for k in range(n + 1):
                assert stirling2(n, k) == brute_stirling2(n, k)
                assert stirling1(n, k) == brute_stirling1(n, k)

    def test_first_kind_from_rising_factorial(self):
        # [n, k] is the x^k coefficient of x(x+1)...(x+n-1)
        rising = Polynomial.one()
        x = Polynomial.variable(1)
        for j in range(5):
            rising = rising * (x + j)
        assert rising.coefficient((3,)) == stirling1(5, 3)
        assert [rising.coefficient((j,)) if j else rising.coefficient(()) for j in range(6)] == [
            stirling1(5, j) for j in range(6)
        ]

    def test_second_kind_from_h_specialization(self):
        for n in range(6):
            for k in range(6):
                assert stirling2(n + k, n) == poly_eval_int(
                    modular_sym(n, k, 1), tuple(range(1, n + 1))
                )


class TestStirling2Mod:
    def test_reference_values_both_methods(self):
        for method in ("specialization", "recurrence"):
            assert stirling2_mod(5, 2, 2, method) == 9
            assert stirling2_mod(12, 4, 3, method) == 107331

    def test_s1_collapse(self):
        for n in range(10):
            for k in range(n + 1):
                assert stirling2_mod(n, k, 1) == stirling2(n, k)

    def test_methods_agree_wide(self):
        for n in range(13):
            for k in range(n + 1):
                for s in (1, 2, 3, 4):
                    assert stirling2_mod(n, k, s, "specialization") == stirling2_mod(
                        n, k, s, "recurrence"
                    )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            stirling2_mod(2, 3, 2)
        with pytest.raises(ValueError):
            stirling2_mod(3, 2, 0)
        with pytest.raises(ValueError):
            stirling2_mod(3, 2, 2, "nosuch")


class TestStirling1Mod:
    def test_reference_values(self):
        assert stirling1_mod(4, 2, 1) == 11
        assert stirling1_mod(3, 4, 3) == 15
        assert stirling1_mod_rec(4, 2, 1) == 11
        assert stirling1_mod_rec(3, 4, 3) == 15

    def test_seed_of_recurrence(self):
        for s in (1, 2, 3, 4):
            assert stirling1_mod_rec(0, 1 - s, s) == 1
            assert stirling1_mod_rec(0, 2 - s, s) == 0
            assert stirling1_mod_rec(2, -s, s) == 0

    def test_s1_collapse(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert stirling1_mod(n, k, 1) == stirling1(n, k)
                assert stirling1_mod_rec(n, k, 1) == stirling1(n, k)

    def test_routes_agree(self):
        for n in range(1, 8):
            for s in (1, 2, 3, 4):
                for k in range(1, (n - 1) * s + 2):
                    assert stirling1_mod(n, k, s) == stirling1_mod_rec(n, k, s)

    def test_out_of_support_is_zero(self):
        assert stirling1_mod(3, 20, 2) == 0
        assert stirling1_mod_rec(3, 20, 2) == 0

    def test_scaled_reciprocal_definition(self):
        # ((n)!)^s E_k^(s)(1, 1/2, ..., 1/n) stays integral after scaling:
        # each exponent a_i contributes i^(s-a_i)
        from modsym.symfun import bounded_elem_sym

        for n in range(1, 6):
            for s in (1, 2, 3):
                for k in range(n * s + 1):
                    scaled = 0
                    for exps, coeff in bounded_elem_sym(n, k, s).terms.items():
                        v = coeff
                        for i in range(1, n + 1):
                            a = exps[i - 1] if i - 1 < len(exps) else 0
                            v *= i ** (s - a)
                        scaled += v
                    assert scaled == stirling1_mod(n + 1, k + 1, s)


class TestStirling1Higher:
    def test_level_one_is_classical(self):
        for n in range(9):
            for k in range(n + 1):
                assert stirling1_higher(n, k, 1) == stirling1(n, k)

    def test_reference_value(self):
        assert stirling1_higher(3, 2, 2) == 5
        assert stirling1_higher(0, 0, 4) == 1
        assert stirling1_higher(3, 0, 2) == 0


class TestOmega:
    def test_empty_product(self):
        assert omega_poly(0, 3) == Polynomial.one()

    def test_level_two_cubic(self):
        assert str(omega_poly(3, 2)) == "x1^3 + 5*x1^2 + 4*x1"

    def test_classical_row(self):
        om = omega_poly(4, 1)
        coeffs = [om.coefficient((j,)) if j else om.coefficient(()) for j in range(5)]
        assert coeffs == [0, 6, 11, 6, 1]

    def test_coefficients_are_higher_level_rows(self):
        for n in range(11):
            for s in (1, 2, 3):
                om = omega_poly(n, s)
                for k in range(n + 1):
                    assert om.coefficient((k,) if k else ()) == stirling1_higher(
                        n, k, s
                    )


class TestColumnSeries:
    def test_modular_column_values(self):
        coeffs = stirling2_mod_series(2, 2, 6)
        assert coeffs[3] == 9
        for m in range(7):
            assert coeffs[m] == stirling2_mod(2 + m, 2, 2)

    def test_single_variable_pattern(self):
        # column k=1, s=2: only offsets congruent to 0 or 1 mod 3 survive
        assert stirling2_mod_series(1, 2, 8) == [1, 1, 0, 1, 1, 0, 1, 1, 0]

    def test_printed_numerator_hook(self):
        # the printed numerator 1 + r*x^s at k = 1, s = 2: (1 + x^2) / (1 - x^3)
        assert stirling2_mod_series(1, 2, 5, _numerator=2) == [1, 0, 1, 1, 0, 1]

    def test_s1_collapse_to_classical_columns(self):
        for k in range(7):
            coeffs = stirling2_mod_series(k, 1, 19)
            for m in range(20):
                assert coeffs[m] == stirling2(k + m, k)

    def test_empty_column(self):
        assert stirling2_mod_series(0, 3, 4) == [1, 0, 0, 0, 0]


class TestTriangleSerialization:
    def test_rows_shapes(self):
        rows = triangle_rows("stirling2", 1, 4)
        assert rows[4] == [0, 1, 7, 6, 1]
        assert triangle_rows("stirling2", 1, 0) == [[1]]

    def test_stirling1mod_row_matches_classical(self):
        rows = triangle_rows("stirling1mod", 1, 4)
        assert rows[4] == [0, 6, 11, 6, 1]
        assert rows[0] == [1]

    def test_stirling1mod_wide_rows(self):
        rows = triangle_rows("stirling1mod", 2, 3)
        # row n spans k = 0 .. (n-1)s+1
        assert [len(r) for r in rows] == [1, 2, 4, 6]
        assert rows[0] == [0]
        for n, row in enumerate(rows):
            for k, v in enumerate(row):
                assert v == stirling1_mod_rec(n, k, 2)

    def test_stirling2mod_row5(self):
        rows = triangle_rows("stirling2mod", 2, 5)
        assert rows[5][2] == 9

    def test_csv_round_trip(self):
        rows = triangle_rows("stirling2mod", 2, 6)
        text = triangle_csv(rows)
        assert text.splitlines()[0] == "n,k,value"
        assert triangle_from_csv(text) == rows
        assert triangle_csv(triangle_from_csv(text)) == text

    def test_json_obj(self):
        rows = triangle_rows("stirling1higher", 2, 2)
        obj = triangle_json_obj("stirling1higher", 2, rows)
        assert obj == {"family": "stirling1higher", "s": 2, "rows": rows}

    def test_query_validation(self):
        with pytest.raises(ValueError):
            StirlingQuery(1, 1, "nosuch")
        with pytest.raises(ValueError):
            StirlingQuery(-1, 0, "stirling2")
        with pytest.raises(ValueError):
            triangle_rows("stirling2", 0, 3)
        with pytest.raises(ValueError, match="unexpected CSV header"):
            triangle_from_csv("")


class TestLargeTables:
    def test_deep_rows_no_recursion_issues(self):
        rows = triangle_rows("stirling2mod", 3, 200)
        assert len(rows) == 201
        assert rows[200][200] == 1
        assert rows[200][0] == 0
        # spot check one deeper cell against the other method
        assert rows[25][20] == stirling2_mod(25, 20, 3, "specialization")

    def test_deep_first_kind_rows(self):
        rows = triangle_rows("stirling1mod", 2, 200)
        assert rows[200][1] > 0
        assert rows[200][(199 * 2) + 1] == 1
        assert rows[150][5] == stirling1_mod_rec(150, 5, 2)
