from itertools import count, islice
from math import factorial

import pytest

from modsym import stirling, symfun
from modsym.polycore import Polynomial
from modsym.stirling import (
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
from modsym.symfun import _residue_parts, elem_sym, modular_sym


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


def _reference_s2mod_table(n, k_hi, s, band=False):
    # The integer table before the M^(s) rows were shared: rows[i][j] =
    # {i, j}^(s) for 0 <= j <= min(i, k_hi), filled bottom-up by
    # {i,j} = {i-1,j-1} + j*{i-2,j-1} + j^{s+1}*{i-s-1,j}, a term outside the
    # triangle read as 0.  With band only the cells with i-j <= n-k_hi are
    # filled, and the cells left of that band hold 0.
    rows = []
    for i in range(n + 1):
        lo = max(1, i - n + k_hi) if band else 1
        row = [1 if i == 0 else 0] + [0] * (lo - 1)
        for j in range(lo, min(i, k_hi) + 1):
            row.append(
                rows[i - 1][j - 1]
                + (j * rows[i - 2][j - 1] if i > j else 0)
                + (j ** (s + 1) * rows[i - s - 1][j] if i - j > s else 0)
            )
        rows.append(row)
    return rows


def _reference_point_sums(m, parts, lo, hi):
    # The composition walk before it paired half-walks: one explicit stack
    # over all m variables, each finished composition's monomial at (1..m)
    # added to out[d] on its own
    out = [0] * (hi + 1)
    if not m:
        out[0] = 1
        return out
    top = parts[-1]
    stack = [(1, 0, 1)]
    while stack:
        v, deg, prod = stack.pop()
        floor = lo - (m - v) * top
        for a in parts:
            d = deg + a
            if d > hi:
                break
            if d < floor:
                continue
            if d == hi or v == m:
                out[d] += prod * v**a
            else:
                stack.append((v + 1, d, prod * v**a))
    return out


def _reference_s1mod_rows(s):
    # The first-kind rows before they were polynomial products: the nonzero
    # values {k: [n,k]^(s)}, each summed term by term from the order-s
    # recurrence, from the seed [0, 1-s]^(s) = 1
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


def _reference_higher_rows(s):
    # The level-s rows [[n,0]_s, ..., [n,n]_s] before they were read from the
    # E rows, each from [n,k]_s = [n-1,k-1]_s + (n-1)^s [n-1,k]_s
    row = [1]
    for i in count(1):
        yield row
        w = (i - 1) ** s
        row = [0] + [row[j - 1] + w * (row[j] if j < i else 0) for j in range(1, i + 1)]


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
                assert stirling2(n + k, n) == modular_sym(n, k, 1).evaluate(
                    tuple(range(1, n + 1))
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

    def test_table_band_below_s_plus_one_is_elementary(self):
        # n-k <= s admits only parts 0 and 1, so {n,k}^(s) = e_{n-k}(1..k);
        # the rows fill this band by the recurrence alone
        for s in range(1, 6):
            cols = list(stirling._modular_rows(range(1, 21), 1, 20, s, total=20))
            for n in range(21):
                for k in range(max(0, n - s), n + 1):
                    point = tuple(range(1, k + 1))
                    assert cols[k][n - k] == elem_sym(k, n - k).evaluate(point)

    def test_scalar_recurrence_builds_only_its_cells(self, monkeypatch):
        # {n,k} by recurrence reads k+1 rows of n-k+1 cells each, no prefix
        real = stirling._modular_rows
        built = []

        def spy(*args, **kwargs):
            built.append(list(real(*args, **kwargs)))
            return iter(built[-1])

        monkeypatch.setattr(stirling, "_modular_rows", spy)
        for s in (1, 2, 3):
            for n in range(15):
                for k in range(n + 1):
                    built.clear()
                    value = stirling2_mod(n, k, s, "recurrence")
                    (rows,) = built
                    assert [len(row) for row in rows] == [n - k + 1] * (k + 1)
                    assert value == rows[k][n - k]
        for n, k in ((1100, 1099), (3000, 2999)):
            built.clear()
            stirling2_mod(n, k, 1, "recurrence")
            assert sum(map(len, built[0])) == 2 * (k + 1)

    def test_second_kind_matches_the_reference_table(self):
        for s in range(1, 5):
            full = _reference_s2mod_table(40, 40, s)
            assert triangle_rows("stirling2mod", s, 40) == full
            for n in range(41):
                for k in range(n + 1):
                    band = _reference_s2mod_table(n, k, s, band=True)
                    assert stirling2_mod(n, k, s, "recurrence") == band[n][k]

    def test_deep_specialization_column(self):
        # depth 1 over 1099 variables: e_1(1..1099)
        value = stirling2_mod(1100, 1099, 1, "specialization")
        assert value == 604450 == stirling2_mod(1100, 1099, 1, "recurrence")

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

    def test_rows_match_the_reference_rows(self, monkeypatch):
        # row n of the E^(s) rows at 0, 1, 2, ... read from the top is
        # [n, 1-s]^(s), ..., [n, (n-1)s+1]^(s)
        rows = {
            s: list(islice(stirling._bounded_rows(count(0), s), 41))
            for s in range(1, 5)
        }
        refs = {s: list(islice(_reference_s1mod_rows(s), 41)) for s in range(1, 5)}
        for s in range(1, 5):
            for n, (row, ref) in enumerate(zip(rows[s], refs[s])):
                assert len(row) == n * s + 1
                assert row[::-1] == [ref.get(k, 0) for k in range(1 - s, (n - 1) * s + 2)]
            assert triangle_rows("stirling1mod", s, 40) == [
                [ref.get(k, 0) for k in range(max(0, (n - 1) * s + 1) + 1)]
                for n, ref in enumerate(refs[s])
            ]
        # stirling1_mod_rec replays E^(s)(1..n-1) from the rows built once (the
        # point 0 multiplies by 1), cut at the depth it asks for, so that every
        # k from below the seed to past the support is read from each; an
        # index outside a row must never wrap around
        monkeypatch.setattr(
            stirling,
            "_bounded_rows",
            lambda xs, s, depth: iter([rows[s][len(xs) + 1][: max(depth + 1, 0)]]),
        )
        for s in range(1, 5):
            for n, ref in enumerate(refs[s]):
                for k in range(-s - 3, (n - 1) * s + 5):
                    assert stirling1_mod_rec(n, k, s) == ref.get(k, 0), (n, k, s)

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


class TestColumnWalks:
    def test_first_kind_column_is_a_recurrence_row(self):
        # entry idx of column n is [n, (n-1)s+1-idx]^(s) = E_idx^(s)(1..n-1),
        # entry idx of the E^(s) row n at 0, 1, 2, ...
        for s in (1, 2, 3):
            for n, row in enumerate(islice(stirling._bounded_rows(count(0), s), 9)):
                if n:
                    top = (n - 1) * s + 1
                    assert stirling._stirling1_mod_column(n, s) == row[:top], (n, s)

    def test_first_kind_single_degree_walk(self):
        for n in range(1, 8):
            for s in (1, 2, 3):
                column = stirling._stirling1_mod_column(n, s)
                for idx, value in enumerate(column):
                    alone = stirling._stirling1_mod_column(n, s, idx)
                    assert alone[idx] == value and sum(alone) == value

    def test_row_ends_of_a_long_row(self):
        # one value walks only its own compositions, not all 2^39 of the row;
        # at s = 4 a tail not cut at lo would list 5^14 compositions
        assert stirling1_mod(40, 40, 1) == 1
        assert stirling1_mod(40, 1, 1) == factorial(39)
        assert stirling1_mod(40, 39, 1) == 39 * 40 // 2
        assert stirling1_mod(30, 1, 4) == factorial(29) ** 4
        assert stirling1_mod(30, 2, 4) == sum(factorial(29) ** 4 // i for i in range(1, 30))
        assert stirling1_mod(30, 116, 4) == 435
        assert stirling1_mod(30, 117, 4) == 1

    def test_point_sums_match_the_reference_walk(self):
        # every degree window of both part kinds: parts at most s, and the
        # residues 0 and 1 mod s+1 up to hi
        for m in range(7):
            for s in range(1, 5):
                for hi in range(11):
                    for parts in (range(s + 1), list(_residue_parts(hi, s, 1))):
                        for lo in range(hi + 1):
                            out = stirling._point_sums(m, parts, lo, hi)
                            ref = _reference_point_sums(m, parts, lo, hi)
                            assert (len(out), out[lo:]) == (len(ref), ref[lo:]), (
                                m, s, list(parts), lo, hi,
                            )

    def test_point_sums_match_the_reference_walk_at_full_scale(self):
        # m = 7..12, the full profile's scale, where a head degree holds many
        # products: whole rows of parts at most s, up to 2^16 compositions,
        # and columns to n = 20 of the residues 0 and 1 mod s+1 (from s = 2;
        # at s = 1 every part is allowed, C(20, m) compositions)
        for m in range(7, 13):
            shapes = [(range(s + 1), m * s) for s in range(1, 5) if (s + 1) ** m <= 2**16]
            shapes += [(list(_residue_parts(20 - m, s, 1)), 20 - m) for s in range(2, 5)]
            for parts, hi in shapes:
                for lo in (0, hi // 2, hi):
                    out = stirling._point_sums(m, parts, lo, hi)
                    ref = _reference_point_sums(m, parts, lo, hi)
                    assert (len(out), out[lo:]) == (len(ref), ref[lo:]), (
                        m, list(parts), lo, hi,
                    )

    def test_row_end_deeper_than_the_recursion_limit(self):
        assert stirling1_mod(1100, 1100, 1) == 1

    def test_first_kind_column_edges(self):
        for s in (1, 2, 3):
            assert stirling._stirling1_mod_column(1, s) == [1]
        for n in range(1, 9):
            assert stirling._stirling1_mod_column(n, 1) == [
                stirling1(n, k) for k in range(n, 0, -1)
            ]

    def test_second_kind_column_is_a_table_column(self):
        # column k to depth d is the last of the M^(s) rows at (1..k)
        for s in (1, 2, 3):
            for k in range(13):
                for depth in range(13 - k):
                    *_, row = stirling._modular_rows(range(1, k + 1), 1, depth, s)
                    assert stirling._stirling2_mod_column(k, s, depth) == row, (
                        k, s, depth,
                    )

    def test_second_kind_column_edges(self):
        for s in (1, 2, 3):
            for depth in range(6):
                assert stirling._stirling2_mod_column(0, s, depth) == [1] + [0] * depth
        assert stirling._stirling2_mod_column(3, 1, 9) == [
            stirling2(3 + d, 3) for d in range(10)
        ]


class TestStirling1Higher:
    def test_level_one_is_classical(self):
        for n in range(9):
            for k in range(n + 1):
                assert stirling1_higher(n, k, 1) == stirling1(n, k)

    def test_rows_match_the_reference_rows(self):
        # both first-kind triangles read from the E rows at 0^s, 1^s, 2^s, ...
        # and one value cut from them, 0 past the row
        classical = list(islice(_reference_higher_rows(1), 41))
        for s in range(1, 5):
            refs = list(islice(_reference_higher_rows(s), 41))
            assert triangle_rows("stirling1higher", s, 40) == refs
            assert triangle_rows("stirling1", s, 40) == classical
            for n, ref in enumerate(refs[:21]):
                for k in range(n + 3):
                    assert stirling1_higher(n, k, s) == (ref[k] if k <= n else 0)

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
        # the printed numerator 1 + r*x^s at k = 1, s = 2: (1 + x^2) / (1 - x^3),
        # the product the verifier's S2MOD_GF erratum reads
        assert symfun._series_product(range(1, 2), 2, 5, 2) == [1, 0, 1, 1, 0, 1]

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
            triangle_rows("nosuch", 1, 3)
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
