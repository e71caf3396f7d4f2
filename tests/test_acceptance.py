"""Acceptance suite: one test per release criterion, exact equality only.

Each test finishes by printing a single `criterion N: PASS` line (visible
under ``pytest -v -s``); any assertion failure marks the criterion red.
"""

import hashlib
import json

import pytest

from modsym.enumeration import (
    count_equal_minset_tuples,
    count_nested_minset_tuples,
    count_partitions_bounded,
    count_partitions_mod,
    gen_lattice_paths,
    gen_partitions_bounded,
    gen_partitions_mod,
    gen_tilings,
)
from modsym.identities import check_cell, mutation_selftest, ps1_rhs, verify_all
from modsym.polycore import Polynomial
from modsym.stirling import (
    stirling1,
    stirling1_higher,
    stirling1_mod,
    stirling1_mod_rec,
    stirling2,
    stirling2_mod,
)
from modsym.symfun import (
    bounded_elem_sym,
    comp_sym,
    elem_sym,
    modular_series,
    modular_sym,
)

PAPERLIST_9 = {
    "1234/5", "1345/2", "134/25", "135/24", "13/245",
    "145/23", "14/235", "15/234", "1/2345",
}

PAPERLIST_11 = {
    "1/23/45", "1/235/4", "12/3/45", "13/2/45", "12/34/5", "12/35/4",
    "135/2/4", "15/23/4", "124/3/5", "125/3/4", "13/25/4",
}


@pytest.fixture(scope="module")
def full_reports():
    return {r.identity: r for r in verify_all("full")}


def done(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_01_second_kind_mod_5_2_2():
    assert stirling2_mod(5, 2, 2, "specialization") == 9
    assert stirling2_mod(5, 2, 2, "recurrence") == 9
    assert {str(p) for p in gen_partitions_mod(5, 2, 2)} == PAPERLIST_9
    done(1, "{5,2}^(2) = 9 by both methods and by the 9 listed partitions")


def test_criterion_02_second_kind_mod_12_4_3():
    assert stirling2_mod(12, 4, 3, "specialization") == 107331
    assert stirling2_mod(12, 4, 3, "recurrence") == 107331
    assert ps1_rhs(4, 8, 3) == 107331
    case = check_cell("PS1", n=4, k=8, s=3)
    assert case.status == "pass" and case.lhs == "107331"
    done(2, "{12,4}^(3) = 107331, matched by the first-kind expansion")


def test_criterion_03_first_kind_mod_4_2_1():
    assert stirling1_mod(4, 2, 1) == 11
    assert stirling1_mod_rec(4, 2, 1) == 11
    assert stirling1(4, 2) == 11
    assert count_partitions_bounded(5, 3, 1) == 11
    assert {str(p) for p in gen_partitions_bounded(5, 3, 1)} == PAPERLIST_11
    done(3, "[4,2]^(1) = 11 on all routes and the 11 listed partitions")


def test_criterion_04_first_kind_mod_3_4_3():
    assert stirling1_mod(3, 4, 3) == 15
    assert stirling1_mod_rec(3, 4, 3) == 15
    assert count_nested_minset_tuples(3, 4, 3) == 15
    done(4, "[3,4]^(3) = 15 by E-form, recurrence, and nested tuples")


def test_criterion_05_six_routes_for_m3_2_3():
    expected = Polynomial(
        {(3,): 1, (0, 3): 1, (0, 0, 3): 1, (1, 1, 1): 1}
    )
    routes = {
        "enumeration": modular_sym(3, 3, 2, "enumeration"),
        "recurrence": modular_sym(3, 3, 2, "recurrence"),
        "convolution": modular_sym(3, 3, 2, "convolution"),
        "series": modular_series(3, 2, 3).coefficient(3),
    }
    paths = list(gen_lattice_paths(3, 3, 2))
    tilings = list(gen_tilings(3, 3, 2))
    assert len(paths) == 4 and len(tilings) == 4
    routes["paths"] = sum((p.weight() for p in paths), Polynomial.zero())
    routes["tilings"] = sum((t.weight() for t in tilings), Polynomial.zero())
    for name, value in routes.items():
        assert value == expected, name
    done(5, "M_3^(2)(3) identical across all six routes (4 paths, 4 tilings)")


def test_criterion_06_route_agreement_suite():
    for n in range(9):
        for k in range(9):
            for s in range(1, 5):
                enum = modular_sym(n, k, s, "enumeration")
                assert enum == modular_sym(n, k, s, "recurrence"), (n, k, s)
                assert enum == modular_sym(n, k, s, "convolution"), (n, k, s)
    for n in range(6):
        for s in range(1, 4):
            series = modular_series(n, s, 10)
            for k in range(11):
                assert series.coefficient(k) == modular_sym(n, k, s), (n, k, s)
    done(6, "three routes agree for n,k <= 8, s <= 4; series agrees to K = 10")


def test_criterion_07_oracle_equivalence_suite():
    for n in range(1, 11):
        for k in range(1, n + 1):
            for s in range(1, 5):
                assert count_partitions_mod(n, k, s) == stirling2_mod(n, k, s)
    for n in range(1, 6):
        for s in range(1, 4):
            for k in range(n * s + 1):
                board = n * (s + 1) - k
                if n <= board <= 12:
                    assert count_partitions_bounded(board, n, s) == stirling1_mod(
                        n + 1, k + 1, s
                    )
    for n in range(6):
        for k in range(n + 1):
            for s in range(1, 4):
                assert count_equal_minset_tuples(n, k, s) == stirling1_higher(n, k, s)
    for n in range(1, 5):
        for s in range(1, 4):
            for k in range(1 - s, (n - 1) * s + 2):
                assert count_nested_minset_tuples(n, k, s) == stirling1_mod_rec(
                    n, k, s
                )
    done(7, "partition, min-set, and nested-tuple oracles match the triangles")


def test_criterion_08_full_identity_suite(full_reports):
    assert len(full_reports) == 26
    assert all(r.failed == 0 for r in full_reports.values())
    evanish = full_reports["EVANISH"]
    assert evanish.range["s_max"] == 4  # odd s in {1, 3} checked, even skipped
    assert evanish.passed == 3 * 6 * 2 and evanish.skipped == 3 * 6 * 2
    inv_zero = full_reports["INV_ZERO"]
    assert inv_zero.passed == 3 * sum(
        1 for k in range(1, 8) for s in range(1, 4) if k % (s + 1)
    )
    assert full_reports["FERMAT"].range["p_list"] == [2, 3, 5]
    assert full_reports["OMEGA"].range["n_max"] == 10
    done(8, "verify_all(full): 26 identities, zero failures at module bounds")


def test_criterion_09_errata_documentation(full_reports):
    errata_ids = {i for i, r in full_reports.items() if r.errata}
    assert errata_ids == {"S2MOD_GF", "INV_H", "INV_E"}
    for i in errata_ids:
        rep = full_reports[i]
        assert rep.failed == 0  # the corrected form passes
        note = rep.errata[0]
        cell = note["first_failing_cell"]
        assert cell is not None and cell["printed"] != cell["corrected"]
    gf_note = full_reports["S2MOD_GF"].errata[0]
    assert "x^s" in gf_note["printed_form"]
    zero_cell = gf_note["nonzero_where_zero_cell"]
    assert zero_cell["params"] == {"n": 3, "k": 1, "s": 2}
    assert zero_cell["corrected"] == "0" and zero_cell["printed"] != "0"
    assert stirling2_mod(3, 1, 2) == 0  # the cell the printed form gets wrong
    done(9, "errata recorded exactly on S2MOD_GF, INV_H, INV_E with failing cells")


def test_full_report_bytes_pinned(full_reports):
    # sha256 of `modsym verify --id all --profile full` stdout: refactors of
    # the verifier must leave the full report byte-identical
    text = json.dumps(
        [r.to_json_obj() for r in full_reports.values()], separators=(", ", ": ")
    )
    digest = hashlib.sha256((text + "\n").encode()).hexdigest()
    assert digest == "ecb12bd38c1c45877496252582d8689233986227d983c1904c500fe34c6f496e"


def test_criterion_10_mutation_selftest():
    reports = mutation_selftest()
    assert len(reports) == 5
    for rep in reports:
        assert rep.failed >= 1, f"perturbation {rep.identity} never failed"
    done(10, "all five identity perturbations produce failures (non-vacuous)")


def test_criterion_11_classical_collapse():
    for n in range(13):
        for k in range(7):
            assert modular_sym(n, k, 1) == comp_sym(n, k)
            assert bounded_elem_sym(n, k, 1) == elem_sym(n, k)
        for k in range(n + 1):
            assert stirling2_mod(n, k, 1, "specialization") == stirling2(n, k)
            assert stirling2_mod(n, k, 1, "recurrence") == stirling2(n, k)
            assert stirling1_higher(n, k, 1) == stirling1(n, k)
            if n >= 1 and k >= 1:
                assert stirling1_mod(n, k, 1) == stirling1(n, k)
                assert stirling1_mod_rec(n, k, 1) == stirling1(n, k)
    done(11, "every s = 1 specialization collapses to its classical family")
