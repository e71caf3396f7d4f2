"""Every library refusal, checked by exception type and exact message.

The refusals of an argument below its least value and of an unknown choice
each go through one rule in ``polycore``; this table pins the bytes of every
site of both rules, and of the other refusals no other test reaches.
"""

import pytest

from modsym import enumeration, identities, stirling, symfun
from modsym.cli import main
from modsym.enumeration import SetPartition
from modsym.polycore import Polynomial, TruncatedSeries

X1 = Polynomial.variable(1)

_STIRLING_FAMILIES = (
    "('stirling2', 'stirling1', 'stirling2mod', 'stirling1mod', 'stirling1higher')"
)

# (id, call, exception type, message)
_REFUSALS = [
    # polycore
    ("variable", lambda: Polynomial.variable(0), ValueError,
     "variable index must be >= 1, got 0"),
    ("substitute_power", lambda: X1.substitute_power(0), ValueError,
     "substitution power must be >= 1, got 0"),
    ("pow-negative", lambda: X1 ** -1, ValueError,
     "polynomial power must be a non-negative int, got -1"),
    ("series-empty", lambda: TruncatedSeries([]), ValueError,
     "a series needs at least the t^0 coefficient"),
    ("series-degree-bound", lambda: TruncatedSeries([1], -1), ValueError,
     "degree bound must be >= 0, got -1"),
    # symfun
    ("params-n", lambda: symfun.elem_sym(-1, 0), ValueError,
     "n must be >= 0, got -1"),
    ("params-k", lambda: symfun.elem_sym(0, -1), ValueError,
     "k must be >= 0, got -1"),
    ("params-s", lambda: symfun.bounded_elem_sym(0, 0, 0), ValueError,
     "s must be >= 1, got 0"),
    ("params-ell", lambda: symfun.lmodular_sym(0, 0, 2, 3), ValueError,
     "ell must satisfy 0 <= ell <= s, got 3"),
    ("modular_series-degree-bound", lambda: symfun.modular_series(2, 1, -1),
     ValueError, "degree bound must be >= 0, got -1"),
    ("modular_all_ones-n", lambda: symfun.modular_all_ones(0, 0, 1), ValueError,
     "n must be >= 1, got 0"),
    ("modular_sym-method", lambda: symfun.modular_sym(2, 1, 1, "bogus"), ValueError,
     "unknown method 'bogus'; expected one of "
     "('enumeration', 'recurrence', 'convolution')"),
    ("modular_sym-domain-before-method",
     lambda: symfun.modular_sym(2, 1, 0, "bogus"), ValueError,
     "s must be >= 1, got 0"),
    # stirling
    ("query-family", lambda: stirling.triangle_rows("bogus", 0, -1), ValueError,
     f"unknown family 'bogus'; expected one of {_STIRLING_FAMILIES}"),
    ("query-s", lambda: stirling.triangle_rows("stirling2", 0, -1), ValueError,
     "s must be >= 1, got 0"),
    ("stirling2", lambda: stirling.stirling2(-1, 0), ValueError,
     "n and k must be >= 0, got (-1, 0)"),
    ("stirling2_mod-s", lambda: stirling.stirling2_mod(2, 1, 0), ValueError,
     "s must be >= 1, got 0"),
    ("stirling2_mod-method", lambda: stirling.stirling2_mod(2, 1, 1, "bogus"),
     ValueError,
     "unknown method 'bogus'; expected one of ('specialization', 'recurrence')"),
    ("stirling2_mod-domain-before-method",
     lambda: stirling.stirling2_mod(1, 2, 1, "bogus"), ValueError,
     "need 0 <= k <= n, got (n, k) = (1, 2)"),
    ("stirling1_mod-n-k", lambda: stirling.stirling1_mod(0, 1, 1), ValueError,
     "n and k must be >= 1, got (0, 1)"),
    ("stirling1_mod-s", lambda: stirling.stirling1_mod(1, 1, 0), ValueError,
     "s must be >= 1, got 0"),
    ("stirling1_mod_rec-n", lambda: stirling.stirling1_mod_rec(-1, 0, 1), ValueError,
     "n must be >= 0, got -1"),
    ("stirling1_mod_rec-s", lambda: stirling.stirling1_mod_rec(1, 0, 0), ValueError,
     "s must be >= 1, got 0"),
    ("stirling1_higher-n-k", lambda: stirling.stirling1_higher(1, -1, 1), ValueError,
     "n and k must be >= 0, got (1, -1)"),
    ("stirling1_higher-s", lambda: stirling.stirling1_higher(1, 0, 0), ValueError,
     "s must be >= 1, got 0"),
    ("omega_poly-n", lambda: stirling.omega_poly(-1, 1), ValueError,
     "n must be >= 0, got -1"),
    ("omega_poly-s", lambda: stirling.omega_poly(1, 0), ValueError,
     "s must be >= 1, got 0"),
    ("series-k", lambda: stirling.stirling2_mod_series(-1, 1, 3), ValueError,
     "k must be >= 0, got -1"),
    ("series-s", lambda: stirling.stirling2_mod_series(1, 0, 3), ValueError,
     "s must be >= 1, got 0"),
    ("series-degree-bound", lambda: stirling.stirling2_mod_series(1, 1, -1),
     ValueError, "degree bound must be >= 0, got -1"),
    ("triangle_rows-n_max", lambda: stirling.triangle_rows("stirling2", 1, -1),
     ValueError, "n_max must be >= 0, got -1"),
    ("triangle_from_csv-order",
     lambda: stirling.triangle_from_csv("n,k,value\n0,1,5\n"), ValueError,
     "cell (0, 1) out of order"),
    # enumeration
    ("diff_vector-no-blocks", lambda: enumeration.diff_vector(SetPartition(())),
     ValueError, "difference vector needs at least one block"),
    ("bounded-s_bound", lambda: enumeration.gen_partitions_bounded(3, 2, -1),
     ValueError, "s_bound must be >= 0, got -1"),
    ("partitions-mod-s", lambda: enumeration.count_partitions_mod(3, 2, 0),
     ValueError, "s must be >= 1, got 0"),
    ("composition-empty", lambda: enumeration.partitions_from_composition(()),
     ValueError, "composition must have at least one part"),
    ("composition-negative",
     lambda: enumeration.partitions_from_composition((1, -1)), ValueError,
     "composition parts must be >= 0, got (1, -1)"),
    ("paths-n", lambda: enumeration.gen_lattice_paths(0, 0, 1), ValueError,
     "n must be >= 1, got 0"),
    ("paths-k", lambda: enumeration.gen_tilings(1, -1, 1), ValueError,
     "k must be >= 0, got -1"),
    ("paths-s", lambda: enumeration.gen_lattice_paths(1, 0, 0), ValueError,
     "s must be >= 1, got 0"),
    ("equal-minset-s", lambda: enumeration.count_equal_minset_tuples(2, 1, 0),
     ValueError, "s must be >= 1, got 0"),
    ("nested-n", lambda: enumeration.count_nested_minset_tuples(0, 1, 1),
     ValueError, "n must be >= 1, got 0"),
    ("nested-s", lambda: enumeration.count_nested_minset_tuples(2, 1, 0),
     ValueError, "s must be >= 1, got 0"),
    # identities
    ("fermat_rhs-p", lambda: identities.fermat_rhs(2, 3, 0), ValueError,
     "p must be >= 2, got 0"),
    ("ps1_rhs-s", lambda: identities.ps1_rhs(2, 3, 0), ValueError,
     "s must be >= 1, got 0"),
    ("lmod_rhs-s", lambda: identities.lmod_rhs(2, 3, -1, 1), ValueError,
     "s must be >= 1, got -1"),
    ("lmod_rhs-ell-negative", lambda: identities.lmod_rhs(3, 4, 2, -1), ValueError,
     "ell must satisfy 0 <= ell <= s, got -1"),
    ("lmod_rhs-ell-above-s", lambda: identities.lmod_rhs(2, 3, 2, 5), ValueError,
     "ell must satisfy 0 <= ell <= s, got 5"),
    ("lmod_rhs-gcd", lambda: identities.lmod_rhs(3, 2, 3, 2), ValueError,
     "ell = 2 is not invertible mod 4"),
    ("profile", lambda: identities.profile_ranges("PS1", "medium"), ValueError,
     "unknown profile 'medium'; expected one of ('quick', 'full')"),
    ("verify_all-profile", lambda: identities.verify_all("medium"), ValueError,
     "unknown profile 'medium'; expected one of ('quick', 'full')"),
]


@pytest.mark.parametrize(
    "call,kind,message",
    [case[1:] for case in _REFUSALS],
    ids=[case[0] for case in _REFUSALS],
)
def test_refusal_message(call, kind, message):
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind
    assert str(exc.value) == message


# the CLI's own refusals of the same form, each ending in exit 2
_CLI_REFUSALS = [
    ("table --family stirling1mod --s 0 --n-max 3", "--s must be >= 1, got 0"),
    ("table --family stirling2 --n-max -1", "--n-max must be >= 0, got -1"),
    ("eval --function M --k 1 --vars symbolic:-1",
     "symbolic variable count must be >= 0, got -1"),
    ("eval --function E --s 0 --k 1 --vars 1,2", "s must be >= 1, got 0"),
    ("enumerate --family partitions-bounded --board 3 --blocks 2 --s -1",
     "s_bound must be >= 0, got -1"),
    ("enumerate --family nested-tuples --n 2 --k -5 --s 2",
     "k must be >= 1-s = -1, got -5"),
]


@pytest.mark.parametrize(
    "argv,message", _CLI_REFUSALS, ids=[argv for argv, _ in _CLI_REFUSALS]
)
def test_cli_refusal_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"modsym: error: {message}"
