import dataclasses
import inspect
import itertools
import json
import sys
from collections import Counter
from math import comb, gcd

import pytest

from modsym import enumeration, identities, polycore, stirling, symfun
from modsym.cli import main
from modsym.identities import (
    Ranges,
    check_cell,
    fermat_rhs,
    h_at_powered_points,
    list_identities,
    lmod_rhs,
    mutation_selftest,
    profile_ranges,
    ps1_rhs,
    verify,
    verify_all,
)
from modsym.polycore import Polynomial

EXPECTED_IDS = [
    "GF_M", "REC3", "REC4", "PATHS", "TILINGS", "ALLONES",
    "S2MOD_SPEC", "S2MOD_REC", "S2MOD_GF", "PART_MOD", "PART_ZERO",
    "PS1", "FERMAT", "LMOD", "EVANISH", "CONV_HE",
    "INV_H", "INV_E", "INV_ZERO", "EH_ME",
    "S1MOD_DEF", "S1MOD_REC", "S1MOD_PART", "NESTED", "HIGHER_REC", "OMEGA",
]

ERRATA_IDS = {"S2MOD_GF", "INV_H", "INV_E"}


class TestCatalog:
    def test_size_and_ids(self):
        infos = list_identities()
        assert len(infos) == 26
        assert [i.id for i in infos] == EXPECTED_IDS

    def test_ids_unique(self):
        ids = [i.id for i in list_identities()]
        assert len(set(ids)) == len(ids)

    def test_every_entry_has_anchor(self):
        assert all(i.anchor for i in list_identities())

    def test_errata_flags(self):
        assert {i.id for i in list_identities() if i.has_errata} == ERRATA_IDS

    def test_lmod_carries_interpretation_note(self):
        info = next(i for i in list_identities() if i.id == "LMOD")
        assert info.note and "interpretation" in info.note

    @pytest.mark.parametrize("key", EXPECTED_IDS)
    def test_checker_takes_its_cell_by_name(self, key):
        # the checker's parameters past (ctx, r), less its defaulted hooks,
        # are the keys of the cells that its grid yields, in order
        ident = identities._CATALOG[key]
        names = [
            name
            for name, param in inspect.signature(ident.check).parameters.items()
            if name not in ("ctx", "r") and param.default is param.empty
        ]
        for bounds in (ident.quick, ident.full):
            assert list(next(iter(ident.grid(bounds)))) == names

    @pytest.mark.parametrize("key", EXPECTED_IDS)
    def test_parameters_name_the_grid_cells(self, key):
        # the parameters are the keys of the cells that the grid yields,
        # with S1MOD_PART's board bound after them
        ident = identities._CATALOG[key]
        board = ("board",) if key == "S1MOD_PART" else ()
        for bounds in (ident.quick, ident.full):
            cell = next(iter(ident.grid(bounds)))
            assert ident.parameters == tuple(cell) + board

    def test_list_identities_returns_the_catalog_records(self):
        for info in list_identities():
            assert info is identities._CATALOG[info.id]
            for profile in identities.PROFILES:
                assert profile_ranges(info.id, profile) is getattr(info, profile)
            assert info.has_errata == (info.erratum is not None)

    def test_only_the_descriptive_fields_compare_hash_and_print(self):
        # grid, checker, profiles and erratum run the entry but do not name it
        for info in list_identities():
            hooked = dataclasses.replace(info, check=lambda ctx, r, **cell: (0, 0))
            assert hooked == info and hash(hooked) == hash(info)
            assert repr(hooked) == repr(info) == (
                f"IdentityInfo(id={info.id!r}, anchor={info.anchor!r}, "
                f"parameters={info.parameters!r}, note={info.note!r})"
            )

    def test_profiles_cover_catalog(self):
        for info in list_identities():
            assert profile_ranges(info.id, "quick") is not None
            assert profile_ranges(info.id, "full") is not None
        with pytest.raises(ValueError):
            profile_ranges("GF_M", "medium")


class TestVerify:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            verify("NOSUCH")

    def test_case_insensitive_ids(self):
        rep = verify("ps1", Ranges(n_max=2, k_max=3, s_max=1))
        assert rep.identity == "PS1"
        assert rep.failed == 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            verify("LMOD", Ranges(n_max=2, k_max=2, s_max=1, ell=3))
        with pytest.raises(ValueError, match="empty parameter grid for FERMAT"):
            verify("FERMAT", Ranges(n_max=1, k_max=1, p_list=()))

    @pytest.mark.parametrize("key,cells", [("OMEGA", 22), ("HIGHER_REC", 18)])
    def test_triangle_grid_honors_k_max(self, key, cells):
        # quick profile n <= 5 (OMEGA) or 4 (HIGHER_REC) and s <= 2, with k <= 1
        rep = verify(key, Ranges(k_max=1))
        assert rep.range["k_max"] == 1
        assert rep.passed + rep.failed + rep.skipped == cells

    def test_fermat_skips_p_that_is_not_prime(self):
        rep = verify("FERMAT", Ranges(p_list=(1, 2)))
        assert (rep.passed, rep.failed, rep.skipped) == (24, 0, 24)

    def test_s1mod_rec_honors_k_max(self):
        rep = verify("S1MOD_REC", Ranges(k_max=2))
        assert (rep.passed, rep.failed, rep.skipped) == (18, 0, 0)
        assert rep.range["k_max"] == 2

    def test_skipped_cell_reports_its_reason(self):
        obj = check_cell("EVANISH", n=1, k=1, s=2).to_json_obj()
        assert obj["status"] == "skipped"
        assert obj["reason"] == "requires odd s"

    def test_ps1_reference_cell(self):
        case = check_cell("PS1", n=4, k=8, s=3)
        assert case.status == "pass"
        assert case.lhs == case.rhs == "107331"
        assert ps1_rhs(4, 8, 3) == 107331

    @pytest.mark.parametrize("key", ["S2MOD_SPEC", "S2MOD_REC"])
    def test_specialization_cell_beyond_the_grid(self, key):
        # n = 12 lies past the quick profile's last row, n = 8
        case = check_cell(key, n=12, k=3, s=2)
        assert case.status == "pass"
        assert case.lhs == case.rhs == "35070"

    @pytest.mark.parametrize("key,params,status", [
        ("GF_M", {"n": 2, "k": 7, "s": 1}, "pass"),  # past the quick k_max, 6
        ("S1MOD_REC", {"n": 3, "k": 0, "s": 2}, "pass"),
        ("S1MOD_REC", {"n": 9, "k": -1, "s": 2}, "pass"),
        ("S1MOD_REC", {"n": -1, "k": 1, "s": 1}, "skipped"),
        ("EVANISH", {"n": 0, "k": 0, "s": 1}, "skipped"),
    ], ids=[
        "GF_M-past-k_max", "S1MOD_REC-k0", "S1MOD_REC-k_minus_1",
        "S1MOD_REC-n_minus_1", "EVANISH-k0",
    ])
    def test_off_grid_cell(self, key, params, status):
        assert check_cell(key, **params).status == status

    def test_off_grid_box_passes_skips_or_refuses(self):
        # every cell of a box around each grid's corner passes, is skipped,
        # or has parameters the library refuses; none fails or raises
        # anything else.  S1MOD_PART's board is a bound, not a cell parameter.
        box = {
            "n": range(-1, 4), "k": range(-3, 9), "s": range(1, 4),
            "m": range(-1, 3), "p": (2, 3, 4), "ell": range(4),
        }
        for info in list_identities():
            names = [q for q in info.parameters if q != "board"]
            for values in itertools.product(*(box[q] for q in names)):
                params = dict(zip(names, values))
                try:
                    status = check_cell(info.id, **params).status
                except ValueError:
                    continue
                assert status in ("pass", "skipped"), (info.id, params)

    def test_ranges_merge_by_field(self):
        base = Ranges(n_max=1, k_max=2, s_max=3, p_list=(2,), ell=1, board_max=4)
        assert Ranges().merged_over(base) == base
        for field in dataclasses.fields(Ranges):
            value = getattr(Ranges(9, 9, 9, (5, 7), 9, 9), field.name)
            merged = Ranges(**{field.name: value}).merged_over(base)
            assert merged == dataclasses.replace(base, **{field.name: value})

    def test_ps1_example_range(self):
        rep = verify("PS1", Ranges(n_max=4, k_max=8, s_max=3))
        assert rep.failed == 0 and rep.skipped == 0
        assert rep.passed == 5 * 9 * 3

    def test_rec4_skips_small_degrees(self):
        rep = verify("REC4", Ranges(n_max=2, k_max=4, s_max=2))
        assert rep.failed == 0
        assert rep.skipped > 0

    def test_evanish_skips_even_s(self):
        rep = verify("EVANISH", Ranges(n_max=2, k_max=4, s_max=2))
        assert rep.failed == 0
        # half of the s values (s = 2) are skipped
        assert rep.skipped == rep.passed

    def test_evanish_odd_s_full_pass(self):
        rep = verify("EVANISH", Ranges(n_max=3, k_max=6, s_max=3))
        assert rep.failed == 0
        assert rep.passed == 3 * 6 * 2  # s in {1, 3}

    def test_inv_zero_skips_multiples(self):
        rep = verify("INV_ZERO", Ranges(n_max=3, k_max=7, s_max=3))
        assert rep.failed == 0
        assert rep.skipped > 0

    def test_lmod_skips_non_coprime(self):
        rep = verify("LMOD", Ranges(n_max=2, k_max=3, s_max=3))
        assert rep.failed == 0
        assert rep.skipped > 0

    def test_fermat_skips_non_prime(self):
        rep = verify("FERMAT", Ranges(n_max=2, k_max=3, p_list=(2, 4)))
        assert rep.failed == 0
        assert rep.passed == rep.skipped  # the p = 4 half is skipped

    def test_determinism(self):
        a = verify("S2MOD_GF", Ranges(n_max=6, k_max=3, s_max=2)).to_json_obj()
        b = verify("S2MOD_GF", Ranges(n_max=6, k_max=3, s_max=2)).to_json_obj()
        assert json.dumps(a) == json.dumps(b)

    def test_report_json_schema(self):
        obj = verify("OMEGA", Ranges(n_max=4, s_max=2)).to_json_obj()
        assert list(obj) == [
            "identity", "anchor", "range", "pass", "fail",
            "skipped", "failures", "errata", "note",
        ]

    def test_quick_sweep_all_green(self):
        reports = verify_all("quick")
        assert len(reports) == 26
        assert [r.identity for r in reports] == EXPECTED_IDS
        assert all(r.failed == 0 for r in reports)

    def test_verify_all_rejects_bad_profile(self):
        with pytest.raises(ValueError):
            verify_all("medium")

    def test_verify_all_walks_each_column_once(self, monkeypatch):
        # S2MOD_REC reads the columns S2MOD_SPEC walked, from the sweep's memo
        calls = []
        walk = stirling._stirling2_mod_column

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(stirling, "_stirling2_mod_column", counted)
        verify_all("quick")
        assert len(calls) == len(set(calls))
        assert set(calls) == {(k, s, 8 - k) for k in range(9) for s in (1, 2)}

    def test_verify_all_walks_first_kind_rows_once_per_grid(self, monkeypatch):
        # S1MOD_REC and NESTED read [n,k]^(s) from one modular first-kind
        # triangle of s each, through the sweep's memo
        calls = []
        triangle = stirling.triangle_rows

        def counted(family, s, n_max):
            if family == "stirling1mod":
                calls.append(s)
            return triangle(family, s, n_max)

        monkeypatch.setattr(stirling, "triangle_rows", counted)
        verify_all("quick")
        assert sorted(calls) == [1, 1, 2, 2]

    @pytest.mark.parametrize("key", ["REC3", "REC4"])
    def test_memo_computes_each_call_once_per_verify(self, monkeypatch, key):
        # the memo's call sites look modular_sym up at call time, so the
        # wrapper sees every call that reaches the library
        calls = Counter()
        modular_sym = identities.modular_sym

        def counted(*args):
            calls[args] += 1
            return modular_sym(*args)

        monkeypatch.setattr(identities, "modular_sym", counted)
        verify(key)
        assert calls and set(calls.values()) == {1}
        once = set(calls)
        verify(key)  # a fresh memo: no memo outlives its verify call
        assert calls == Counter(dict.fromkeys(once, 2))


class TestErrata:
    def test_errata_present_exactly_on_documented_ids(self):
        for rep in verify_all("quick"):
            if rep.identity in ERRATA_IDS:
                assert len(rep.errata) == 1, rep.identity
            else:
                assert rep.errata == [], rep.identity

    def test_gf_erratum_records_zero_cell(self):
        rep = verify("S2MOD_GF", Ranges(n_max=4, k_max=2, s_max=2))
        assert rep.failed == 0  # the corrected form passes
        note = rep.errata[0]
        assert note["printed_form"].count("x^s") == 1
        first = note["first_failing_cell"]
        assert first["params"] == {"n": 2, "k": 1, "s": 2}
        assert (first["printed"], first["corrected"]) == ("0", "1")
        zero = note["nonzero_where_zero_cell"]
        assert zero["params"] == {"n": 3, "k": 1, "s": 2}
        assert (zero["printed"], zero["corrected"]) == ("1", "0")

    def test_inv_h_erratum_first_cell(self):
        rep = verify("INV_H", Ranges(n_max=2, k_max=2, s_max=2))
        assert rep.failed == 0
        first = rep.errata[0]["first_failing_cell"]
        assert first["params"] == {"n": 1, "k": 1, "s": 1}
        assert first["printed"] == "x1"
        assert first["corrected"] == "x1^2"

    def test_inv_e_erratum_first_cell(self):
        rep = verify("INV_E", Ranges(n_max=2, k_max=4, s_max=2))
        assert rep.failed == 0
        first = rep.errata[0]["first_failing_cell"]
        assert first["params"] == {"n": 1, "k": 2, "s": 1}

    @pytest.mark.parametrize("key", ["S2MOD_GF", "INV_H", "INV_E"])
    def test_erratum_runs_the_catalog_checker(self, monkeypatch, key):
        # a catalog checker whose printed variant passes leaves no failing cell
        agreeable = dataclasses.replace(
            identities._CATALOG[key], check=lambda ctx, r, **cell: (0, 0)
        )
        monkeypatch.setitem(identities._CATALOG, key, agreeable)
        rep = verify(key, Ranges(n_max=1, k_max=1, s_max=1))
        assert rep.errata[0]["first_failing_cell"] is None
        if key == "S2MOD_GF":
            assert rep.errata[0]["nonzero_where_zero_cell"] is None


class TestMutations:
    def test_five_perturbations_all_fail_somewhere(self):
        reports = mutation_selftest()
        assert len(reports) == 5
        for rep in reports:
            assert rep.failed >= 1, rep.identity
            first = rep.failures[0]
            assert first.status == "fail"
            assert first.lhs != first.rhs

    def test_failures_in_grid_order(self):
        rep = next(
            r for r in mutation_selftest() if r.identity == "CONV_HE_unpowered_h"
        )
        cells = [tuple(c.params.values()) for c in rep.failures]
        assert cells == sorted(cells)
        assert rep.failures[0].params == {"n": 1, "k": 2, "s": 1}

    @pytest.mark.parametrize("key", ["REC4", "S2MOD_REC", "ALLONES", "CONV_HE", "PS1"])
    def test_seed_check_sees_a_vacuous_checker(self, monkeypatch, capsys, key):
        # the self-test runs the catalog checker itself, not a copy of it
        vacuous = dataclasses.replace(
            identities._CATALOG[key], check=lambda ctx, r, **cell: (0, 0)
        )
        monkeypatch.setitem(identities._CATALOG, key, vacuous)
        assert main(["verify", "--seed-check"]) == 1
        capsys.readouterr()

    def test_shifted_all_ones_matches_the_reference(self):
        # the ALLONES hook reads the count with C(j+n, n-1) in place of
        # C(j+n-1, n-1), as the reference's _shift does
        memo = identities._memo()
        for n, k, s in itertools.product(range(1, 8), range(16), range(1, 6)):
            lhs, _ = identities._check_allones(memo, None, n, k, s, shift=1)
            assert lhs == _reference_all_ones(n, k, s, _shift=1), (n, k, s)


def _reference_all_ones(n, k, s, *, _shift=0):
    # the all-ones count with its second binomial moved to
    # C(j+n-1+_shift, n-1), the reference for the ALLONES mutation's hook
    total = 0
    for j in range(k // (s + 1) + 1):
        r = k - j * (s + 1)
        if r <= n:
            total += comb(n, r) * comb(j + n - 1 + _shift, n - 1)
    return total


# Each perturbation puts one cell of one route core off by one.
def _bump_s1_column(walk):
    def patched(n, s, *degree):
        out = list(walk(n, s, *degree))
        if (n, s) == (3, 1):
            out[0] += 1  # [3,3]^(1)
        return out

    return patched


def _bump_e_rows(rows):
    def patched(xs, s, depth=None):
        for n, row in enumerate(rows(xs, s, depth)):
            # E_1^(1) of the first three points: [3,2]^(1) at 0, 1, 2 and
            # [3,2]_s at 0^s, 1^s, 2^s; a row cut at depth 0 has no E_1
            bumped = (n, s) == (3, 1) and len(row) >= 2
            yield row[:1] + [row[1] + 1] + row[2:] if bumped else row

    return patched


def _bump_s2_column(walk):
    def patched(k, s, depth):
        out = list(walk(k, s, depth))
        if (k, s) == (2, 1) and depth >= 3:
            out[3] += 1  # {5,2}^(1)
        return out

    return patched


def _bump_s2_rows(cell, s_bumped):
    # {cell}^(s_bumped) in every integer use of the M^(s) rows that holds it:
    # row j at the point (1..j) holds {j+d, j} at degree d
    i, j = cell

    def bump(rows_at):
        def patched(xs, one, depth, s, total=None):
            d = i - j
            for at, row in enumerate(rows_at(xs, one, depth, s, total)):
                if isinstance(one, int) and (at, s) == (j, s_bumped) and len(row) > d:
                    row = row[:d] + [row[d] + 1] + row[d + 1 :]
                yield row

        return patched

    return bump


def _bump_point_sums(m_bumped, parts_prefix, d):
    # out[d] of every walk into m_bumped parts drawn from a list that starts
    # with parts_prefix
    def bump(walk):
        def patched(m, parts, lo, hi):
            out = walk(m, parts, lo, hi)
            if m == m_bumped and tuple(parts)[: len(parts_prefix)] == parts_prefix:
                if lo <= d <= hi:
                    out[d] += 1
            return out

        return patched

    return bump


def _bump_count(cell, probe):
    # the partition count at cell = (n, k), under the entry predicates that
    # admit the entry probe
    def bump(walk):
        def patched(n, k, entry_ok):
            return walk(n, k, entry_ok) + ((n, k) == cell and entry_ok(probe))

        return patched

    return bump


def _bump_placements(cell, probe):
    # one extra placement of element n at cell = (n, k) in the shared
    # restricted-growth walk, under the entry predicates that admit probe
    def bump(walk):
        def patched(n, k, entry_ok, buf):
            yield from walk(n, k, entry_ok, buf)
            if (n, k) == cell and entry_ok(probe):
                yield range(1)

        return patched

    return bump


_X1X2 = Polynomial({(1, 1): 1})


def _bump_modular_row(rec):
    # M_2 of x_1, x_2 in every row that holds it
    def patched(n, k, s):
        row = rec(n, k, s)
        if n == 2 and k >= 2:
            row[2] = row[2] + _X1X2
        return row

    return patched


def _bump_series(product):
    # coefficient 2 of the polynomial series in x_1, x_2, {5,2}^(1) in every
    # integer column series of k = 2 that holds it, and h_1 at the squared
    # points (1, 4)
    def patched(xs, s, bound, numerator=1):
        out = product(xs, s, bound, numerator)
        if len(xs) == 2 and isinstance(xs[0], Polynomial) and bound >= 2:
            out[2] = out[2] + _X1X2
        if list(xs) == [1, 2] and s == 1 and bound >= 3:
            out[3] += 1
        if list(xs) == [1, 4] and s == 1 and bound >= 1:
            out[1] += 1
        return out

    return patched


def _bump_two_by_two(route):
    # the polynomial of degree 2 in 2 variables, whatever else the route takes
    # (the parts list of the composition walk, s and the power of the
    # convolution)
    def patched(n, k, *rest):
        out = route(n, k, *rest)
        return out + _X1X2 if (n, k) == (2, 2) else out

    return patched


def _bump_step_strings(walk):
    # the first path or tiling to (2, 1) at s = 1 twice
    def patched(n, k, s, horiz, vert):
        words = list(walk(n, k, s, horiz, vert))
        yield from words + words[:1] * ((n, k, s) == (2, 2, 1))

    return patched


def _bump_rows_stirling2(rows):
    # {3,2} of the classical triangle
    def patched():
        for n, row in enumerate(rows()):
            yield row[:2] + [row[2] + 1] + row[3:] if n == 3 else row

    return patched


def _bump_all_ones(count):
    # the all-ones count of M_2^(1) in 2 variables
    def patched(n, k, s):
        return count(n, k, s) + ((n, k, s) == (2, 2, 1))

    return patched


def _bump_nested_walk(walk):
    # the first nested pair over [3] twice, for the count and the generator
    def patched(entries, n, target, s):
        chains = list(walk(entries, n, target, s))
        yield from chains + chains[:1] * ((n, s) == (3, 2))

    return patched


def _bump_index_tuples(build):
    # x_1 x_2 once more in e_2 and h_2 of two or more variables
    def patched(index_tuples):
        tuples = list(index_tuples)
        out = build(tuples)
        return out + _X1X2 if (0, 1) in tuples else out

    return patched


def _bump_one_line(walk):
    # the first one-line form of [3] twice, whatever the cycle count
    def patched(n, k):
        for i, perm in enumerate(walk(n, k)):
            yield from [perm] * (1 + (n == 3 and i == 0))

    return patched


def _bump_tally(tally):
    # one extra permutation of [3] in the least min-set of every tally
    def patched(n):
        out = tally(n)
        if n == 3 and out:
            out[min(out, key=sorted)] += 1
        return out

    return patched


_S1_CELL = _bump_point_sums(2, (0, 1), 0)  # [3,3]^(1), parts at most 1
_S2_CELL = _bump_point_sums(2, (0, 1, 2, 3), 3)  # {5,2}^(1), all parts
_S2_ROWS = _bump_s2_rows((5, 2), 1)
# {3,2}^(2) has n-k <= s, where the recurrence's last term lies outside the
# triangle
_S2_BAND = _bump_s2_rows((3, 2), 2)

# one quick-grid count each: board 7 into 3 blocks; [5] into 3 blocks at
# s = 1 only (d = 2 passes mod 2, not mod 3); [5] into 3 even-gap blocks
_PART_BOUNDED = _bump_count((7, 3), 0)
_PART_MOD = _bump_count((5, 3), 2)
_PART_ZERO = _bump_count((5, 3), 0)
_WALK_BOUNDED = _bump_placements((7, 3), 0)
_WALK_MOD = _bump_placements((5, 3), 2)
_WALK_ZERO = _bump_placements((5, 3), 0)


ROUTE_CORES = [
    ("S1MOD_REC", stirling, "_stirling1_mod_column", _bump_s1_column),
    ("S1MOD_REC", stirling, "_bounded_rows", _bump_e_rows),
    ("S1MOD_REC", stirling, "_point_sums", _S1_CELL),
    ("S1MOD_DEF", stirling, "_stirling1_mod_column", _bump_s1_column),
    ("S1MOD_DEF", stirling, "_point_sums", _S1_CELL),
    ("S1MOD_PART", stirling, "_stirling1_mod_column", _bump_s1_column),
    ("S1MOD_PART", stirling, "_point_sums", _S1_CELL),
    ("S2MOD_SPEC", stirling, "_stirling2_mod_column", _bump_s2_column),
    ("S2MOD_SPEC", stirling, "_point_sums", _S2_CELL),
    ("S2MOD_SPEC", stirling, "_modular_rows", _S2_ROWS),
    ("S2MOD_SPEC", stirling, "_modular_rows", _S2_BAND),
    ("S2MOD_REC", stirling, "_stirling2_mod_column", _bump_s2_column),
    ("S2MOD_REC", stirling, "_point_sums", _S2_CELL),
    ("S2MOD_GF", stirling, "_modular_rows", _S2_ROWS),
    ("S2MOD_GF", stirling, "_series_product", _bump_series),
    ("PART_MOD", stirling, "_modular_rows", _S2_ROWS),
    ("PS1", stirling, "_modular_rows", _S2_ROWS),
    ("FERMAT", stirling, "_modular_rows", _S2_ROWS),
    ("S1MOD_PART", enumeration, "_count_partitions_by_diffs", _PART_BOUNDED),
    ("PART_MOD", enumeration, "_count_partitions_by_diffs", _PART_MOD),
    ("PART_ZERO", enumeration, "_count_partitions_by_diffs", _PART_ZERO),
    ("S1MOD_PART", enumeration, "_rgs_placements", _WALK_BOUNDED),
    ("PART_MOD", enumeration, "_rgs_placements", _WALK_MOD),
    ("PART_ZERO", enumeration, "_rgs_placements", _WALK_ZERO),
    ("GF_M", symfun, "_modular_rec", _bump_modular_row),
    ("GF_M", symfun, "_series_product", _bump_series),
    ("NESTED", enumeration, "_min_set_tally", _bump_tally),
    ("NESTED", stirling, "_bounded_rows", _bump_e_rows),
    ("PS1", symfun, "_series_product", _bump_series),
    ("LMOD", symfun, "_series_product", _bump_series),
    ("PART_ZERO", symfun, "_series_product", _bump_series),
    ("HIGHER_REC", enumeration, "_one_line_by_cycles", _bump_one_line),
    ("NESTED", enumeration, "_nested_walk", _bump_nested_walk),
    ("PATHS", enumeration, "_gen_step_strings", _bump_step_strings),
    ("TILINGS", enumeration, "_gen_step_strings", _bump_step_strings),
    ("FERMAT", stirling, "_rows_stirling2", _bump_rows_stirling2),
    ("CONV_HE", identities, "_modular_conv", _bump_two_by_two),
    ("ALLONES", identities, "modular_all_ones", _bump_all_ones),
    *(
        (key, stirling, "_bounded_rows", _bump_e_rows)
        for key in ("OMEGA", "HIGHER_REC", "LMOD", "PS1", "FERMAT")
    ),
    *(
        (key, symfun, "_index_tuple_poly", _bump_index_tuples)
        for key in ("EH_ME", "INV_ZERO", "INV_H", "INV_E", "CONV_HE")
    ),
    *(
        (key, symfun, "_composition_poly", _bump_two_by_two)
        for key in (
            "REC3", "REC4", "PATHS", "TILINGS", "ALLONES", "LMOD", "EVANISH",
            "CONV_HE", "INV_H", "INV_E", "INV_ZERO", "EH_ME", "S1MOD_DEF",
        )
    ),
]


@pytest.mark.parametrize(
    "key, module, core, bump",
    ROUTE_CORES,
    ids=[
        f"{key}-{core}" + ("-band" if bump is _S2_BAND else "")
        for key, _, core, bump in ROUTE_CORES
    ],
)
def test_perturbed_route_core_fails(monkeypatch, key, module, core, bump):
    # a core reached by only one side of the identity must show up as failures
    monkeypatch.setattr(module, core, bump(getattr(module, core)))
    assert verify(key, profile="quick").failed >= 1


# Every route core, by its home module and name.  Another module may hold
# the same function under the same name (stirling reads symfun's rules), so
# a core is known by its code object.
RULES = {
    symfun: (
        "_composition_poly", "_index_tuple_poly", "_modular_rows",
        "_bounded_rows", "_modular_rec", "_modular_conv", "_series_product",
        "modular_all_ones",
    ),
    stirling: (
        "_rows_stirling2", "_point_sums", "_stirling1_mod_column",
        "_stirling2_mod_column",
    ),
    enumeration: (
        "_rgs_placements", "_count_partitions_by_diffs", "_gen_step_strings",
        "_all_cycle_perms", "_min_set_tally", "_nested_walk",
        "_one_line_by_cycles",
    ),
    polycore: ("_cauchy",),
}

# Cores that may be reached from inside one other core only: that core's
# rows guard them there.
THROUGH = {
    "_all_cycle_perms": "_min_set_tally",
    "_modular_rows": "_modular_rec",
    "_cauchy": "_series_product",
}


def _rule_names():
    return {
        getattr(module, name).__code__: name
        for module, names in RULES.items()
        for name in names
    }


def _traced_cores(key):
    # {core: reached outside its THROUGH core} over the quick sweep of key,
    # from the profiler of this process only
    names = _rule_names()
    reached = {}

    def profile(frame, event, arg):
        name = names.get(frame.f_code) if event == "call" else None
        if name is None:
            return
        outer, inside = frame.f_back, False
        while name in THROUGH and outer is not None and not inside:
            inside = names.get(outer.f_code) == THROUGH[name]
            outer = outer.f_back
        reached[name] = reached.get(name, False) or not inside

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        verify(key, profile="quick")
    finally:
        sys.setprofile(old)
    return reached


def test_route_cores_are_the_traced_cores():
    # a core an identity reaches needs a row for that identity (or is
    # reached inside its THROUGH core only), and a row's core is reached
    names = _rule_names()
    rows = {key: set() for key in EXPECTED_IDS}
    for key, module, core, _ in ROUTE_CORES:
        rows[key].add(names[getattr(module, core).__code__])
    for key in EXPECTED_IDS:
        reached = _traced_cores(key)
        direct = {name for name, outside in reached.items() if outside}
        assert direct <= rows[key], (key, sorted(direct - rows[key]))
        assert rows[key] <= reached.keys(), (key, sorted(rows[key] - reached.keys()))


def _reference_lmod_rhs(n, k, s, ell, *, _shift=0):
    # the residue-ell expansion as its own loop, the reference for lmod_rhs
    # and ps1_rhs; a nonzero _shift moves r to ((k+_shift) * ell^{-1}) mod
    # (s+1)
    if gcd(ell, s + 1) != 1:
        raise ValueError(f"ell = {ell} is not invertible mod {s + 1}")
    r = ((k + _shift) * pow(ell, -1, s + 1)) % (s + 1)
    base = k // (s + 1) - (r * ell) // (s + 1)
    hi = min((n - r) // (s + 1), base)
    total = 0
    for i in range(hi + 1):
        j = base - i * ell
        if j < 0:
            continue
        total += h_at_powered_points(n, j, s) * stirling.stirling1_higher(
            n + 1, n + 1 - r - i * (s + 1), ell
        )
    return total


def _reference_fermat_rhs(n, k, p):
    # the prime expansion as its own loop, the reference for fermat_rhs
    r = k % p
    hi = min((n - r) // p, k // p)
    total = 0
    for i in range(hi + 1):
        total += stirling.stirling2(n + k // p - i, n) * stirling.stirling1(
            n + 1, n + 1 - (r + i * p)
        )
    return total


_RHS_BOX = list(itertools.product(range(6), range(11), range(1, 5)))


class TestFirstKindExpansion:
    def test_shifted_ps1_matches_the_reference(self):
        # the PS1 mutation's hook keeps k's quotient by s+1 and moves its
        # remainder, as the reference's _shift did
        for n, k, s in _RHS_BOX:
            for shift in range(s + 1):
                shifted = k - k % (s + 1) + (k + shift) % (s + 1)
                expected = _reference_lmod_rhs(n, k, s, 1, _shift=shift)
                assert ps1_rhs(n, shifted, s) == expected, (n, k, s, shift)

    def test_lmod_matches_the_reference(self):
        for n, k, s in _RHS_BOX:
            for ell in range(s + 1):
                if gcd(ell, s + 1) == 1:
                    expected = _reference_lmod_rhs(n, k, s, ell)
                    assert lmod_rhs(n, k, s, ell) == expected, (n, k, s, ell)

    def test_fermat_matches_the_reference(self):
        for n, k in itertools.product(range(6), range(11)):
            for p in (2, 3, 5, 7):
                assert fermat_rhs(n, k, p) == _reference_fermat_rhs(n, k, p)


class TestRhsHelpers:
    def test_h_at_powered_points(self):
        assert h_at_powered_points(2, 1, 2) == 1 + 8
        assert h_at_powered_points(3, 0, 4) == 1
        assert h_at_powered_points(3, -1, 2) == 0

    def test_h_at_powered_points_matches_evaluated_h(self):
        from modsym.symfun import comp_sym

        for n in range(6):
            for j in range(8):
                for s in range(1, 5):
                    powered = tuple(i ** (s + 1) for i in range(1, n + 1))
                    assert h_at_powered_points(n, j, s) == comp_sym(n, j).evaluate(
                        powered
                    )

    def test_fermat_congruence_examples(self):
        from modsym.stirling import stirling2_mod

        for p in (2, 3, 5):
            for n in range(4):
                for k in range(6):
                    lhs = stirling2_mod(n + k, n, p - 1)
                    assert (lhs - fermat_rhs(n, k, p)) % p == 0

    def test_lmod_rhs_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            lmod_rhs(3, 2, 3, 2)

    def test_lmod_rhs_matches_direct_eval(self):
        from modsym.symfun import lmodular_sym

        for n in range(4):
            for k in range(6):
                for s in (2, 3, 4):
                    for ell in range(1, s + 1):
                        from math import gcd

                        if gcd(ell, s + 1) != 1:
                            continue
                        direct = lmodular_sym(n, k, s, ell).evaluate(
                            tuple(range(1, n + 1))
                        )
                        assert direct == lmod_rhs(n, k, s, ell)

