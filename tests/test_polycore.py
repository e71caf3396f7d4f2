from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modsym.polycore import (
    Polynomial,
    TruncatedSeries,
    make_monomial,
    series_mul,
)
from modsym.symfun import modular_sym

X1 = Polynomial.variable(1)
X2 = Polynomial.variable(2)
X3 = Polynomial.variable(3)


def cube(p):
    return p * p * p


polys = st.dictionaries(
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    st.integers(-9, 9),
    max_size=5,
).map(Polynomial)

points = st.lists(st.integers(-5, 5), min_size=3, max_size=3).map(tuple)

nonzero = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9).filter(bool))


def _power_term(c, i, a):
    # c*x_i^a; the constant c when a = 0
    return Polynomial.monomial((0,) * (i - 1) + (a,), c)


# single terms: constants, powers of one variable past the width of
# ``polys``, and terms over two or more variables
one_terms = st.one_of(
    nonzero.map(Polynomial.constant),
    st.builds(_power_term, nonzero, st.integers(4, 6), st.integers(1, 4)),
    st.builds(
        Polynomial.monomial,
        st.lists(st.integers(0, 3), min_size=2, max_size=4).filter(
            lambda e: sum(map(bool, e)) >= 2
        ),
        nonzero,
    ),
)


def _mul_general_ref(a, b):
    # reference: every pair of terms, summed into one dict of trimmed keys
    acc = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            mono = tuple(map(add, ea, eb)) + ea[len(eb):] + eb[len(ea):]
            s = acc.get(mono, 0) + ca * cb
            if s:
                acc[mono] = s
            elif mono in acc:
                del acc[mono]
    return acc


def _mul_power_ref(p, index, power):
    # reference: p times x_index**power, one exponent shifted in every term
    if power == 0:
        return dict(p.terms)
    pos = index - 1
    acc = {}
    for e, c in p.terms.items():
        if len(e) > pos:
            mono = e[:pos] + (e[pos] + power,) + e[pos + 1 :]
        else:
            mono = e + (0,) * (pos - len(e)) + (power,)
        acc[mono] = c
    return acc


class TestMonomial:
    def test_trims_trailing_zeros(self):
        assert make_monomial((1, 0, 2, 0, 0)) == (1, 0, 2)
        assert make_monomial((0, 0)) == ()
        assert make_monomial(()) == ()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_monomial((1, -1))

    def test_rejects_non_int_exponents(self):
        for exps in ((0.5, 1), (1.5,), (1, "2"), (True, 2), (1, False)):
            with pytest.raises(TypeError, match="is not an int"):
                make_monomial(exps)


class TestPolynomial:
    def test_additive_inverse_is_zero(self):
        assert (X1 + (-X1)).is_zero
        assert str(X1 - X1) == "0"

    def test_add_merges_into_modular_value(self):
        # x1^3 + x2^3 plus x1*x2*x3 is M_3^(2)(3) with the x3^3 term removed
        merged = (cube(X1) + cube(X2)) + X1 * X2 * X3
        assert merged == modular_sym(3, 3, 2) - cube(X3)

    def test_zero_is_additive_identity(self):
        p = 3 * X1 * X2 - cube(X2)
        assert Polynomial.zero() + p == p

    def test_mul_binomials(self):
        assert (1 + X1) * (1 + X2) == 1 + X1 + X2 + X1 * X2

    def test_mul_expands_omega_factorization(self):
        assert X1 * (X1 + 1) * (X1 + 4) == cube(X1) + 5 * X1 * X1 + 4 * X1

    def test_general_product_cancels_terms(self):
        # neither operand is a single term, so the general loop runs, and
        # its two x1*x2 products cancel
        assert dict(((X1 + X2) * (X1 - X2)).terms) == {(2,): 1, (0, 2): -1}

    def test_mul_by_zero_absorbs(self):
        p = 7 * X1 * X3 + X2
        assert (p * Polynomial.zero()).is_zero

    def test_eval_powers(self):
        assert (cube(X1) + cube(X2)).evaluate((1, 2)) == 9

    def test_eval_constant(self):
        assert Polynomial.one().evaluate((5, -3)) == 1
        assert Polynomial.one().evaluate(()) == 1

    def test_len_is_the_term_count(self):
        assert len(3 * X1 * X2 - cube(X2) + 1) == 3
        assert len(Polynomial.zero()) == 0

    def test_repr(self):
        assert repr(3 * X1 * X2 - cube(X2) + 1) == "Polynomial(-x2^3 + 3*x1*x2 + 1)"

    def test_other_types_are_not_equal(self):
        assert (X1 == "x1") is False

    def test_eval_modular_value(self):
        assert modular_sym(3, 3, 2).evaluate((1, 2, 3)) == 42

    def test_eval_requires_full_point(self):
        with pytest.raises(ValueError):
            X3.evaluate((1, 2))

    def test_substitute_power(self):
        assert (X1 + X2).substitute_power(2) == X1 * X1 + X2 * X2
        e2 = X1 * X2
        assert e2.substitute_power(4) == Polynomial.monomial((4, 4))
        with pytest.raises(ValueError):
            X1.substitute_power(0)

    def test_index_and_powers_take_only_ints(self):
        # bool subclasses int, but is no index or power; a float power would
        # put a float exponent in a canonical polynomial
        for build, msg in (
            (lambda: Polynomial.variable(True), "variable index True"),
            (lambda: Polynomial.variable(1.0), "variable index 1.0"),
            (lambda: X1.substitute_power(1.5), "substitution power 1.5"),
            (lambda: X1.substitute_power(True), "substitution power True"),
        ):
            with pytest.raises(TypeError) as err:
                build()
            assert str(err.value) == f"{msg} is not an int"
        for power in (True, False, 2.0):
            with pytest.raises(ValueError) as err:
                X1**power
            want = f"polynomial power must be a non-negative int, got {power}"
            assert str(err.value) == want

    def test_text_form(self):
        assert str(Polynomial.zero()) == "0"
        assert str(modular_sym(3, 3, 2)) == "x1^3 + x1*x2*x3 + x2^3 + x3^3"
        assert str(5 * X1 * X1 + 4 * X1 + cube(X1)) == "x1^3 + 5*x1^2 + 4*x1"
        assert str(-X2 + 2 * X1) == "2*x1 + -x2"
        assert str(Polynomial.constant(-7)) == "-7"

    def test_json_form(self):
        p = 2 * cube(X1) - X2
        assert p.to_json_obj() == [
            {"coeff": "2", "exps": [3]},
            {"coeff": "-1", "exps": [0, 1]},
        ]
        assert Polynomial.zero().to_json_obj() == []

    def test_grlex_order_across_degrees(self):
        p = 1 + X2 + X1 * X1
        assert [e for e, _ in p.sorted_terms()] == [(2,), (0, 1), ()]

    def test_equality_is_canonical(self):
        assert Polynomial({(1, 0): 2, (0, 0, 0): 0}) == Polynomial({(1,): 2})
        assert Polynomial({(): 1}) == 1

    def test_constructors_take_only_int_exponents_and_coefficients(self):
        for build in (
            lambda: Polynomial({(0.5, 1): 2}),
            lambda: Polynomial({(1,): 1.5}),
            lambda: Polynomial.monomial((1.5,)),
            lambda: Polynomial.monomial((1,), 2.0),
            lambda: Polynomial.constant(1.5),
            lambda: TruncatedSeries([1.5, 2]),
            # bool subclasses int, but is no coefficient or exponent
            lambda: Polynomial({(1,): True}),
            lambda: Polynomial.monomial((True, 2)),
            lambda: Polynomial.monomial((1,), True),
            lambda: Polynomial.constant(True),
            lambda: TruncatedSeries([False, 2]),
        ):
            with pytest.raises(TypeError, match="is not an int"):
                build()
        assert Polynomial.monomial((2, 1), 3) == Polynomial({(2, 1): 3})

    def test_zero_monomial_validates_its_exponents(self):
        # a zero coefficient gives the zero polynomial, but only for exponents
        # the constructor would accept
        with pytest.raises(TypeError, match="is not an int"):
            Polynomial.monomial((1.5,), 0)
        for build in (
            lambda: Polynomial.monomial((-1,), 0),
            lambda: Polynomial({(-1,): 0}),
        ):
            with pytest.raises(ValueError, match="negative exponent -1"):
                build()
        assert Polynomial.monomial((2, 1), 0) == Polynomial.zero()

    def test_only_ints_mix_with_polynomials(self):
        # an int on either side is a constant; anything else, a bool
        # included, raises on both
        assert 3 - X1 == Polynomial({(): 3, (1,): -1}) == -(X1 - 3)
        for other in (1.5, "a", None, True, False):
            for op in (
                lambda: other - X1,
                lambda: X1 - other,
                lambda: other + X1,
                lambda: X1 * other,
                lambda: other * X1,
            ):
                with pytest.raises(TypeError):
                    op()


@given(a=polys, b=polys, c=st.integers(-9, 9))
def test_equal_values_hash_equal(a, b, c):
    assert hash(a + b + -b) == hash(a)
    if not a.num_vars():
        assert hash(a) == hash(a.terms.get((), 0))
    # a constant equals its int, so the two are one key in a set or a dict
    assert hash(Polynomial.constant(c)) == hash(c)
    assert {c: "int"}.get(Polynomial.constant(c)) == "int"
    assert len({c, Polynomial.constant(c)}) == 1


@given(p=polys)
def test_sorted_terms_is_padded_grlex(p):
    # reference: compare exponent vectors padded to one width
    width = p.num_vars()
    ref = sorted(p.terms, key=lambda e: (sum(e), e + (0,) * (width - len(e))))
    assert [e for e, _ in p.sorted_terms()] == ref[::-1]


@given(a=polys, b=polys)
def test_add_and_mul_commute(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(a=polys, b=st.one_of(polys, one_terms))
def test_mul_matches_general_reference(a, b):
    expected = _mul_general_ref(a, b)
    assert dict((a * b).terms) == expected
    assert dict((b * a).terms) == expected


@given(p=polys, c=nonzero, i=st.integers(1, 6), a=st.integers(0, 4))
def test_mul_by_one_variable_power_shifts_exponents(p, c, i, a):
    expected = {e: v * c for e, v in _mul_power_ref(p, i, a).items()}
    term = _power_term(c, i, a)
    assert dict((p * term).terms) == expected
    assert dict((term * p).terms) == expected


def _pow_ref(term, e):
    # reference for one term c*m: c^e times m with every exponent scaled by e
    ((mono, c),) = term.terms.items()
    return {make_monomial(a * e for a in mono): c**e}


@given(term=one_terms, e=st.integers(0, 5))
def test_pow_of_one_term_is_closed_form(term, e):
    assert dict((term**e).terms) == _pow_ref(term, e)


@given(p=polys, e=st.integers(0, 4), v=points)
def test_pow_evaluates_to_the_power_of_the_value(p, e, v):
    assert (p**e).evaluate(v) == p.evaluate(v) ** e


@given(a=polys, b=polys, c=polys)
def test_add_mul_associate(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(a=polys, b=polys, c=polys)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(a=polys, b=polys, v=points)
def test_eval_is_ring_hom(a, b, v):
    assert (a + b).evaluate(v) == a.evaluate(v) + b.evaluate(v)
    assert (a * b).evaluate(v) == a.evaluate(v) * b.evaluate(v)


@given(p=polys, v=points, m=st.integers(1, 4))
def test_substitute_power_matches_powered_point(p, v, m):
    powered = tuple(x**m for x in v)
    assert p.substitute_power(m).evaluate(v) == p.evaluate(powered)


class TestTruncatedSeries:
    def test_geometric_product(self):
        a = TruncatedSeries([1, 1], 3)
        b = TruncatedSeries([1, 1, 1, 1])
        prod = series_mul(a, b)
        assert [str(c) for c in prod.coeffs] == ["1", "2", "2", "2"]

    def test_one_is_identity(self):
        s = TruncatedSeries([X1, X2, X1 * X2], 2)
        assert series_mul(s, TruncatedSeries.one(2)) == s

    def test_truncates_to_smaller_bound(self):
        a = TruncatedSeries([1, 1, 1, 1, 1], 4)
        b = TruncatedSeries([1, 1], 1)
        assert series_mul(a, b).degree_bound == 1

    def test_coefficient_count_invariant(self):
        s = TruncatedSeries([1], 5)
        assert len(s.coeffs) == 6
        with pytest.raises(ValueError):
            TruncatedSeries([1, 2, 3], 1)
        with pytest.raises(IndexError):
            s.coefficient(6)

    def test_mul_operator_is_series_mul(self):
        a = TruncatedSeries([1, X1], 2)
        b = TruncatedSeries([X2, 1, 3])
        assert a * b == series_mul(a, b)
        with pytest.raises(TypeError):
            a * 2

    def test_equal_series_hash_alike(self):
        assert hash(TruncatedSeries([1, X1], 2)) == hash(TruncatedSeries([1, X1, 0]))

    def test_text_forms(self):
        s = TruncatedSeries([1, X1 + X2], 2)
        assert str(s) == "t^0: 1 ; t^1: x1 + x2 ; t^2: 0"
        assert repr(s) == "TruncatedSeries([1, x1 + x2, 0])"

    def test_other_types_are_not_equal(self):
        assert (TruncatedSeries([1]) == "1") is False


series_lists = st.lists(st.integers(-5, 5), min_size=1, max_size=6)


@given(a=series_lists, b=series_lists, data=st.data())
def test_series_coefficient_k_local(a, b, data):
    # coefficient k depends only on coefficients 0..k of the inputs
    sa, sb = TruncatedSeries(a), TruncatedSeries(b)
    bound = min(sa.degree_bound, sb.degree_bound)
    k = data.draw(st.integers(0, bound))
    full = series_mul(sa, sb).coefficient(k)
    cut = series_mul(
        TruncatedSeries(a[: k + 1]), TruncatedSeries(b[: k + 1])
    ).coefficient(k)
    assert full == cut
