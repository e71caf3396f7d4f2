from collections import Counter
from itertools import permutations, product
from math import prod

import pytest

from modsym import enumeration
from modsym.enumeration import (
    CyclePermutation,
    LatticePath,
    SetPartition,
    Tiling,
    count_equal_minset_tuples,
    count_nested_minset_tuples,
    count_partitions_bounded,
    count_partitions_mod,
    count_partitions_zeromod,
    cycles_from_one_line,
    diff_vector,
    gen_cycle_perms,
    gen_lattice_paths,
    gen_nested_tuples,
    gen_partitions_bounded,
    gen_partitions_mod,
    gen_set_partitions,
    gen_tilings,
    partitions_from_composition,
    path_to_tiling,
    tiling_to_path,
)
from modsym.polycore import Polynomial
from modsym.stirling import (
    stirling1,
    stirling1_higher,
    stirling1_mod,
    stirling1_mod_rec,
    stirling2,
    stirling2_mod,
)
from modsym.symfun import comp_sym, modular_sym

PAPERLIST_9 = {
    "1234/5", "1345/2", "134/25", "135/24", "13/245",
    "145/23", "14/235", "15/234", "1/2345",
}

PAPERLIST_11 = {
    "1/23/45", "1/235/4", "12/3/45", "13/2/45", "12/34/5", "12/35/4",
    "135/2/4", "15/23/4", "124/3/5", "125/3/4", "13/25/4",
}


def weight_sum(objs):
    total = Polynomial.zero()
    for o in objs:
        total = total + o.weight()
    return total


def _unpruned_count(n, k, entry_ok):
    # The counter before the admissibility table: each entry is checked when
    # it becomes fixed, every other subtree is walked to its leaves, and each
    # leaf is a call of its own.
    total = 0

    def rec(i, used, last_min):
        nonlocal total
        if i > n:
            if entry_ok(n - last_min):
                total += 1
            return
        left_after = n - i
        if used < k and used + 1 + left_after >= k:
            if used == 0 or entry_ok(i - last_min - 1):
                rec(i + 1, used + 1, i)
        if used and used + left_after >= k:
            for _ in range(used):
                rec(i + 1, used, last_min)

    rec(1, 0, 0)
    return total


def _unpruned_rgs(n, k, entry_ok=None):
    # The generator walk before the admissibility table, yielding copies.
    if k < 0 or n < 0 or k > n:
        return
    ok = entry_ok or (lambda d: True)
    buf = [0] * n

    def rec(i, used, last_min):
        if i == n:
            if ok(n - last_min):
                yield tuple(buf)
            return
        if used + n - i - 1 >= k:
            for b in range(used):
                buf[i] = b
                yield from rec(i + 1, used, last_min)
        if used < k and (used == 0 or ok(i - last_min)):
            buf[i] = used
            yield from rec(i + 1, used + 1, i + 1)

    yield from rec(0, 0, 0)


def _recursive_step_strings(n, k, s, horiz, vert):
    # The step-string walk before its explicit stack, one recursion per step.
    step = s + 1
    buf = []

    def rec(h_left, v_left, run):
        if h_left == 0 and v_left == 0:
            if run % step <= 1:
                yield "".join(buf)
            return
        if h_left:
            buf.append(horiz)
            yield from rec(h_left - 1, v_left, run + 1)
            buf.pop()
        if v_left and run % step <= 1:
            buf.append(vert)
            yield from rec(h_left, v_left - 1, 0)
            buf.pop()

    yield from rec(k, n - 1, 0)


def _reference_step_strings(n, k, s, horiz, vert):
    # The step-string walk before its stack held prefixes: per position,
    # (horiz left, vert left, open run) and the letters left to try there.
    step = s + 1
    size = k + n - 1
    buf = [horiz] * size
    state, todo = [(k, n - 1, 0)] * (size + 1), [None] * (size + 1)
    p = 0
    while p >= 0:
        h, v, run = state[p]
        if p == size:
            if run % step <= 1:
                yield "".join(buf)
            p -= 1
            continue
        if todo[p] is None:
            todo[p] = iter(horiz * (h > 0) + vert * (v > 0 and run % step <= 1))
        for c in todo[p]:
            buf[p] = c
            p += 1
            state[p] = (h - 1, v, run + 1) if c == horiz else (h, v - 1, 0)
            todo[p] = None
            break
        else:
            p -= 1


def _recursive_nested_tuples(n, k, s):
    # The nested-tuple walk before its explicit stack, one recursion per
    # tuple entry, yielding tuples of cycle tuples.
    target = enumeration._nested_target(n, k, s)
    if target is None:
        return
    perms = [(c, enumeration._min_set(c)) for c in enumeration._all_cycle_perms(n)]

    def rec(depth, chosen, prev, used):
        if depth == s:
            if used == target:
                yield tuple(chosen)
            return
        cap = target - (s - depth - 1)
        for c, m in perms:
            if m <= prev and used + len(m) <= cap:
                chosen.append(c)
                yield from rec(depth + 1, chosen, m, used + len(m))
                chosen.pop()

    yield from rec(0, [], frozenset(range(1, n + 1)), 0)


def _reference_nested_walk(entries, n, target, s):
    # The nested walk before it became a prefix stack: per tuple entry, the
    # state before it and an iterator over the entries left to try there.
    entries = list(entries)
    chosen = [None] * s
    state = [(frozenset(range(1, n + 1)), 0)] * (s + 1)
    todo = [iter(entries)] * (s + 1)
    depth = 0
    while depth >= 0:
        prev, used = state[depth]
        if depth == s:
            if used == target:
                yield tuple(chosen)
            depth -= 1
            continue
        cap = target - (s - depth - 1)
        for c, m in todo[depth]:
            if m <= prev and used + len(m) <= cap:
                chosen[depth] = c
                depth += 1
                state[depth], todo[depth] = (m, used + len(m)), iter(entries)
                break
        else:
            depth -= 1


def _reference_partitions_from_composition(a):
    # The fiber builder before it read growth strings: the block minima, the
    # free elements with their number of open blocks, and the blocks built
    # from each product of choices.
    n = len(a)
    minima = [1]
    for i in range(n - 1):
        minima.append(minima[-1] + a[i] + 1)
    total = n + sum(a)
    free = []
    for i, m in enumerate(minima, start=1):
        upper = minima[i] - 1 if i < n else total
        for e in range(m + 1, upper + 1):
            free.append((e, i))
    result = []
    for choices in product(*(range(c) for _, c in free)):
        blocks = [[m] for m in minima]
        for (e, _), c in zip(free, choices):
            blocks[c].append(e)
        result.append(SetPartition(tuple(tuple(b) for b in blocks)))
    return result


def _reference_nested_count(n, k, s):
    # The nested count before it read the nested walk: one pass over the s
    # tuple entries, counting prefixes by (last min-set, minima used).
    target = enumeration._nested_target(n, k, s)
    if target is None:
        return 0
    tally = enumeration._min_set_tally(n)
    ways = Counter({(frozenset(range(1, n + 1)), 0): 1})
    for depth in range(s):
        cap = target - (s - depth - 1)
        ways, prefixes = Counter(), ways
        for (prev, used), w in prefixes.items():
            for m, c in tally.items():
                if m <= prev and used + len(m) <= cap:
                    ways[m, used + len(m)] += w * c
    return sum(w for (_, used), w in ways.items() if used == target)


def _iter_rgs(n, k, entry_ok=None):
    # The growth strings of the walk one at a time, as the generators read
    # them before they built the blocks once per prefix; the reference for
    # _gen_partitions.  The yielded buffer is reused: copy before keeping.
    if n < 1:
        if n == k == 0:
            yield []
        return
    buf = [0] * n
    ok = entry_ok or (lambda d: True)
    for placements in enumeration._rgs_placements(n, k, ok, buf):
        for b in placements:
            buf[-1] = b
            yield buf


def _filtered_families(s):
    # (counter, generator, entry predicate) for each family defined at s;
    # the all-zero-residue family has no public generator, so its partitions
    # come from the walk itself
    step = s + 1
    zero = lambda d: d % step == 0
    families = [
        (
            count_partitions_bounded,
            gen_partitions_bounded,
            lambda d: d <= s,
        )
    ]
    if s >= 1:
        families += [
            (count_partitions_mod, gen_partitions_mod, lambda d: d % step <= 1),
            (
                count_partitions_zeromod,
                lambda n, k, s: enumeration._gen_partitions(n, k, zero),
                zero,
            ),
        ]
    return families


def _recorded_checks(monkeypatch, cls):
    # the objects of cls whose __post_init__ check runs, from here on
    built = []
    check = cls.__post_init__

    def counted_check(obj):
        built.append(obj)
        check(obj)

    monkeypatch.setattr(cls, "__post_init__", counted_check)
    return built


def _reference_min_set_tally(n, k):
    # Reference: the min-sets of the k-cycle permutations of [n] only,
    # tallied apart from the rest of S_n.
    return Counter(
        enumeration._min_set(c)
        for c in enumeration._all_cycle_perms(n)
        if len(c) == k
    )


class TestSetPartitions:
    def test_counts_match_second_kind(self):
        for n in range(8):
            for k in range(n + 1):
                assert sum(1 for _ in gen_set_partitions(n, k)) == stirling2(n, k)

    def test_reference_counts(self):
        assert sum(1 for _ in gen_set_partitions(4, 2)) == 7
        assert sum(1 for _ in gen_set_partitions(5, 2)) == 15

    def test_singletons_only(self):
        parts = list(gen_set_partitions(4, 4))
        assert len(parts) == 1
        assert str(parts[0]) == "1/2/3/4"

    def test_canonical_order_and_uniqueness(self):
        parts = list(gen_set_partitions(6, 3))
        strings = [str(p) for p in parts]
        assert len(set(strings)) == len(strings)
        assert [p.rgs() for p in parts] == sorted(p.rgs() for p in parts)

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            gen_set_partitions(2, 5)

    def test_large_element_text_form(self):
        p = SetPartition(((1, 10), (2, 3, 4, 5, 6, 7, 8, 9),))
        assert str(p) == "1,10/2,3,4,5,6,7,8,9"

    def test_validation(self):
        with pytest.raises(ValueError):
            SetPartition(((2, 3), (1,)))  # not ordered by minima
        with pytest.raises(ValueError):
            SetPartition(((1, 2), (2, 3)))  # overlap
        with pytest.raises(ValueError):
            SetPartition(((1, 3),))  # gap: not an initial segment
        with pytest.raises(ValueError):
            SetPartition(((1, 2, 2), (3,)))  # repeat inside one block
        with pytest.raises(ValueError):
            SetPartition(((1, 1),))
        with pytest.raises(ValueError):
            SetPartition(((1,), ()))  # empty block

    def test_generated_partitions_skip_the_check_they_pass(self, monkeypatch):
        built = _recorded_checks(monkeypatch, SetPartition)
        generated = []
        for n in range(9):
            for k in range(n + 1):
                generated += gen_set_partitions(n, k)
                for s in (1, 2):
                    if k:
                        generated += gen_partitions_mod(n, k, s)
                for s in (0, 1, 2):
                    if k:
                        generated += gen_partitions_bounded(n, k, s)
        assert built == []
        assert all(SetPartition(p.blocks) == p for p in generated)
        assert len(built) == len(generated)


class TestDiffVector:
    def test_reference_vectors(self):
        assert diff_vector(SetPartition(((1,), (2, 3, 4, 5)))) == (0, 3)
        assert diff_vector(SetPartition(((1, 2, 3, 4), (5,)))) == (3, 0)

    def test_all_singletons_zero(self):
        assert diff_vector(SetPartition(((1,), (2,), (3,)))) == (0, 0, 0)

    def test_entries_sum_to_n_minus_k(self):
        for p in gen_set_partitions(7, 3):
            d = diff_vector(p)
            assert sum(d) == 7 - 3
            assert all(x >= 0 for x in d)


class TestFilteredPartitionCounts:
    def test_matches_reference_list(self):
        assert count_partitions_mod(5, 2, 2) == 9
        assert {str(p) for p in gen_partitions_mod(5, 2, 2)} == PAPERLIST_9

    def test_diagonal_is_one(self):
        for s in (1, 2, 3):
            assert count_partitions_mod(6, 6, s) == 1
            assert count_partitions_zeromod(6, 6, s) == 1
            assert count_partitions_bounded(6, 6, s) == 1

    def test_matches_modular_triangle(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                for s in (1, 2, 3, 4):
                    assert count_partitions_mod(n, k, s) == stirling2_mod(n, k, s)

    def test_zeromod_reference(self):
        assert count_partitions_zeromod(5, 2, 2) == 9
        assert count_partitions_zeromod(6, 2, 2) == 0

    def test_zeromod_closed_form(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                for s in (1, 2, 3):
                    got = count_partitions_zeromod(n, k, s)
                    if (n - k) % (s + 1):
                        assert got == 0
                    else:
                        expected = comp_sym(k, (n - k) // (s + 1)).evaluate(
                            tuple(i ** (s + 1) for i in range(1, k + 1))
                        )
                        assert got == expected

    def test_bounded_reference_list(self):
        assert count_partitions_bounded(5, 3, 1) == 11
        assert {str(p) for p in gen_partitions_bounded(5, 3, 1)} == PAPERLIST_11

    def test_bounded_matches_first_kind(self):
        for n in range(1, 5):
            for s in (1, 2, 3):
                for k in range(n * s + 1):
                    board = n * (s + 1) - k
                    if board < n or board > 10:
                        continue
                    assert count_partitions_bounded(board, n, s) == stirling1_mod(
                        n + 1, k + 1, s
                    )

    def test_counts_agree_with_generators(self):
        # Counters and generators share one pruned walk; both are held to
        # the plain object-level filter over every partition.
        def reference(n, k, ok):
            return [
                p for p in gen_set_partitions(n, k) if all(ok(d) for d in diff_vector(p))
            ]

        for n in range(1, 8):
            for k in range(1, n + 1):
                for s in (1, 2):
                    mod = reference(n, k, lambda d: d % (s + 1) <= 1)
                    assert list(gen_partitions_mod(n, k, s)) == mod
                    assert count_partitions_mod(n, k, s) == len(mod)
                    bounded = reference(n, k, lambda d: d <= s)
                    assert list(gen_partitions_bounded(n, k, s)) == bounded
                    assert count_partitions_bounded(n, k, s) == len(bounded)


    def test_pruned_walks_match_the_unpruned_reference(self):
        # the cut only drops subtrees without a passing leaf: every count
        # equals the unpruned walk's and the number of strings generated
        for n in range(1, 11):
            for k in range(1, n + 1):
                for s in range(4):
                    for count, gen, ok in _filtered_families(s):
                        expected = _unpruned_count(n, k, ok)
                        assert count(n, k, s) == expected, (count, n, k, s)
                        assert sum(1 for _ in gen(n, k, s)) == expected

    def test_generator_order_matches_the_unpruned_reference(self):
        for n in range(10):
            for k in range(n + 1):
                assert [tuple(w) for w in _iter_rgs(n, k)] == list(_unpruned_rgs(n, k))
                for s in range(4):
                    for _, _, ok in _filtered_families(s):
                        got = [tuple(w) for w in _iter_rgs(n, k, ok)]
                        assert got == list(_unpruned_rgs(n, k, ok)), (n, k, s)

    def test_blocks_per_prefix_match_the_string_walk(self):
        # element n joins the blocks of 1..n-1 built once per prefix; the
        # reference builds every growth string's blocks from scratch
        rules = [None] + [ok for _, _, ok in _filtered_families(2)]
        for n in range(11):
            for k in range(n + 1):
                for ok in rules:
                    got = list(enumeration._gen_partitions(n, k, ok))
                    want = list(map(enumeration._partition_from_rgs, _iter_rgs(n, k, ok)))
                    assert got == want, (n, k)

    def test_deep_counts_do_not_recurse(self):
        assert count_partitions_mod(1100, 1100, 1) == 1
        assert count_partitions_zeromod(1100, 1100, 1) == 1
        assert count_partitions_bounded(1100, 1100, 0) == 1

    def test_admissibility_table(self):
        ok, nxt = enumeration._admissible(6, lambda d: d % 3 == 1)
        assert ok == [False, True, False, False, True, False, False]
        assert nxt == [1, 1, 4, 4, 4, 7, 7, 7]


def _refusal(call, *args):
    # the message of the ValueError the call raises, or None
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


_REFUSAL_BOX = list(product(range(-1, 4), repeat=3))


class TestFamilyRefusals:
    # each family's domain is one rule: its generator and counter refuse the
    # same arguments with the same message

    @pytest.mark.parametrize(
        "gen, counts",
        [
            (gen_partitions_mod, (count_partitions_mod, count_partitions_zeromod)),
            (gen_partitions_bounded, (count_partitions_bounded,)),
        ],
        ids=["mod", "bounded"],
    )
    def test_generator_and_counter_refuse_alike(self, gen, counts):
        refused = 0
        for args in _REFUSAL_BOX:
            message = _refusal(gen, *args)
            refused += message is not None
            for count in counts:
                assert _refusal(count, *args) == message, (count, args)
        assert 0 < refused < len(_REFUSAL_BOX)

    def test_n_k_chain_is_shared(self):
        for n, k, s in _REFUSAL_BOX:
            if n < k or k < 0:
                assert {
                    _refusal(gen_set_partitions, n, k),
                    _refusal(gen_cycle_perms, n, k),
                    _refusal(count_equal_minset_tuples, n, k, s),
                } == {f"need n >= k >= 0, got ({n}, {k})"}


class TestPartitionsFromComposition:
    def test_reference_count(self):
        parts = partitions_from_composition((2, 1, 2))
        assert len(parts) == 18
        assert all(p.diff_vector() == (2, 1, 2) for p in parts)
        assert all(p.n == 8 and p.num_blocks == 3 for p in parts)
        assert len({str(p) for p in parts}) == 18

    def test_zero_composition(self):
        parts = partitions_from_composition((0, 0, 0))
        assert [str(p) for p in parts] == ["1/2/3"]

    def test_union_over_compositions_is_everything(self):
        n, k = 3, 3

        def comps(parts_left, total):
            if parts_left == 1:
                yield (total,)
                return
            for a in range(total + 1):
                for rest in comps(parts_left - 1, total - a):
                    yield (a,) + rest

        union = set()
        for a in comps(n, k):
            chunk = {str(p) for p in partitions_from_composition(a)}
            assert not (chunk & union)
            union |= chunk
        assert union == {str(p) for p in gen_set_partitions(n + k, n)}

    def test_comes_out_in_restricted_growth_order(self):
        for n in range(1, 5):
            for a in product(range(7), repeat=n):
                if sum(a) <= 6:
                    parts = partitions_from_composition(a)
                    assert parts == sorted(parts, key=SetPartition.rgs), a

    def test_matches_the_reference_builder(self):
        # every composition of 1 to 4 parts, each 0..3: 340 in all
        compositions = [a for n in range(1, 5) for a in product(range(4), repeat=n)]
        assert len(compositions) == 340
        for a in compositions:
            want = _reference_partitions_from_composition(a)
            assert partitions_from_composition(a) == want, a

    def test_built_partitions_skip_the_check_they_pass(self, monkeypatch):
        built = _recorded_checks(monkeypatch, SetPartition)
        generated = [
            p
            for n in range(1, 5)
            for a in product(range(5), repeat=n)
            if sum(a) <= 4
            for p in partitions_from_composition(a)
        ]
        assert built == []
        assert all(SetPartition(p.blocks) == p for p in generated)
        assert len(built) == len(generated)

    @staticmethod
    def _fibers(n, k, part_ok):
        # the partitions of [n] into k blocks whose difference vector a has
        # every part admissible, one composition of n-k at a time
        out = []
        for a in product(range(n - k + 1), repeat=k):
            if sum(a) == n - k and all(map(part_ok, a)):
                fiber = partitions_from_composition(a)
                assert len(fiber) == prod(i**x for i, x in enumerate(a, 1)), a
                out += fiber
        return sorted(out, key=SetPartition.rgs)

    def test_fibers_make_up_the_modular_family(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                for s in range(1, 4):
                    want = self._fibers(n, k, lambda d: d % (s + 1) <= 1)
                    assert list(gen_partitions_mod(n, k, s)) == want, (n, k, s)

    def test_fibers_make_up_the_bounded_family(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                for s in range(3):
                    want = self._fibers(n, k, lambda d: d <= s)
                    assert list(gen_partitions_bounded(n, k, s)) == want, (n, k, s)


class TestPathsAndTilings:
    def test_four_reference_paths(self):
        paths = list(gen_lattice_paths(3, 3, 2))
        assert len(paths) == 4
        assert weight_sum(paths) == modular_sym(3, 3, 2)

    def test_degenerate_all_vertical(self):
        paths = list(gen_lattice_paths(4, 0, 2))
        assert [p.steps for p in paths] == ["VVV"]
        assert paths[0].weight() == Polynomial.one()

    def test_figure_weight_present(self):
        target = "x2^6*x4*x5*x6^4"
        hits = [p for p in gen_lattice_paths(6, 12, 2) if str(p.weight()) == target]
        assert len(hits) == 1
        assert hits[0].level_exponents() == (0, 6, 0, 1, 1, 4)

    def test_weight_sums_match_modular(self):
        for n in range(1, 5):
            for k in range(7):
                for s in (1, 2, 3):
                    m = modular_sym(n, k, s)
                    assert weight_sum(gen_lattice_paths(n, k, s)) == m
                    assert weight_sum(gen_tilings(n, k, s)) == m

    def test_single_level_runs(self):
        for k in range(9):
            for s in (1, 2, 3):
                tilings = list(gen_tilings(1, k, s))
                assert len(tilings) == (1 if k % (s + 1) <= 1 else 0)

    def test_four_reference_tilings(self):
        assert sum(1 for _ in gen_tilings(3, 3, 2)) == 4

    def test_figure_weight_present_in_tilings(self):
        target = "x2^6*x4*x5*x6^4"
        hits = [t for t in gen_tilings(6, 12, 2) if str(t.weight()) == target]
        assert len(hits) == 1
        assert hits[0].cells == "GBBBBBBGGBGBGBBBB"

    def test_lex_order(self):
        steps = [p.steps for p in gen_lattice_paths(4, 5, 2)]
        assert steps == sorted(steps)
        assert len(set(steps)) == len(steps)
        cells = [t.cells for t in gen_tilings(4, 5, 2)]
        assert cells == sorted(cells)
        assert len(set(cells)) == len(cells)

    def test_order_matches_the_recursive_reference(self):
        for n in range(1, 6):
            for k in range(9):
                for s in range(1, 4):
                    paths = [p.steps for p in gen_lattice_paths(n, k, s)]
                    assert paths == list(_recursive_step_strings(n, k, s, "H", "V"))
                    cells = [t.cells for t in gen_tilings(n, k, s)]
                    assert cells == list(_recursive_step_strings(n, k, s, "B", "G"))

    def test_words_match_the_reference_walk(self):
        # as lists, so the order counts too; the long words in one alphabet
        cells = [
            (n, k, s, letters)
            for n in range(1, 7)
            for k in range(11)
            for s in range(1, 4)
            for letters in ("HV", "BG")
        ]
        for n, k, s, letters in cells + [(1, 1100, 1, "HV"), (1100, 1, 1, "HV")]:
            got = list(enumeration._gen_step_strings(n, k, s, *letters))
            want = list(_reference_step_strings(n, k, s, *letters))
            assert got == want, (n, k, s, letters)

    def test_generated_words_skip_the_check_they_pass(self, monkeypatch):
        for cls, gen, field in (
            (LatticePath, gen_lattice_paths, "steps"),
            (Tiling, gen_tilings, "cells"),
        ):
            built = _recorded_checks(monkeypatch, cls)
            generated = [
                w
                for n, k, s in product(range(1, 5), range(7), range(1, 4))
                for w in gen(n, k, s)
            ]
            assert built == []
            assert all(cls(getattr(w, field)) == w for w in generated)
            assert len(built) == len(generated)

    def test_run_lengths_constraint(self):
        for t in gen_tilings(3, 5, 2):
            assert all(r % 3 <= 1 for r in t.run_lengths())

    def test_validation(self):
        with pytest.raises(ValueError, match="steps must be over H/V"):
            LatticePath("HBV")
        with pytest.raises(ValueError, match="cells must be over B/G"):
            Tiling("BHG")
        for word in (LatticePath("VHHV"), Tiling("GBBG")):
            assert word.level_exponents() == (0, 2, 0)
            assert (word.n, word.k) == (3, 2)


class TestPathTilingBijection:
    def test_all_vertical_maps_to_all_gray(self):
        t = path_to_tiling(LatticePath("VVV"))
        assert t.cells == "GGG"

    def test_figure_pair_weights(self):
        target = "x2^6*x4*x5*x6^4"
        path = next(
            p for p in gen_lattice_paths(6, 12, 2) if str(p.weight()) == target
        )
        tiling = path_to_tiling(path)
        assert str(tiling.weight()) == target

    def test_round_trip_exhaustive(self):
        for n, k, s in [(4, 5, 2), (3, 6, 1), (2, 4, 3)]:
            paths = list(gen_lattice_paths(n, k, s))
            tilings = list(gen_tilings(n, k, s))
            mapped = [path_to_tiling(p) for p in paths]
            assert {t.cells for t in mapped} == {t.cells for t in tilings}
            for p in paths:
                assert tiling_to_path(path_to_tiling(p)) == p
                assert path_to_tiling(p).weight() == p.weight()


class TestCyclePermutations:
    def test_reference_listing(self):
        assert [str(cp) for cp in gen_cycle_perms(3, 2)] == [
            "(1)(2 3)",
            "(1 2)(3)",
            "(1 3)(2)",
        ]

    def test_identity_only(self):
        perms = list(gen_cycle_perms(4, 4))
        assert len(perms) == 1
        assert perms[0].one_line() == (1, 2, 3, 4)

    def test_min_set_reference(self):
        cp = cycles_from_one_line((4, 3, 2, 5, 1, 6, 9, 8, 7))
        assert str(cp) == "(1 4 5)(2 3)(6)(7 9)(8)"
        assert cp.min_set() == frozenset({1, 2, 6, 7, 8})

    def test_counts_match_first_kind(self):
        for n in range(8):
            for k in range(n + 1):
                assert sum(1 for _ in gen_cycle_perms(n, k)) == stirling1(n, k)

    def test_full_sweep_n9(self):
        tallies = [0] * 10
        for perm in permutations(range(1, 10)):
            tallies[cycles_from_one_line(perm).num_cycles] += 1
        assert tallies == [0] + [stirling1(9, k) for k in range(1, 10)]

    def test_one_line_round_trip(self):
        for perm in permutations(range(1, 6)):
            assert cycles_from_one_line(perm).one_line() == perm

    def test_validation(self):
        with pytest.raises(ValueError):
            CyclePermutation(((2, 1),))  # not led by minimum
        with pytest.raises(ValueError):
            CyclePermutation(((1, 2, 2),))  # repeat inside one cycle
        with pytest.raises(ValueError):
            CyclePermutation(((),))  # empty cycle
        with pytest.raises(ValueError):
            cycles_from_one_line((1, 1, 3))

    def test_builds_only_the_yielded_objects(self, monkeypatch):
        built = []
        trusted = CyclePermutation._trusted

        def counted(cycles):
            built.append(cycles)
            return trusted(cycles)

        monkeypatch.setattr(CyclePermutation, "_trusted", counted)
        assert [str(cp) for cp in gen_cycle_perms(7, 7)] == [
            "(1)(2)(3)(4)(5)(6)(7)"
        ]
        assert len(built) == 1

    def test_pruned_walk_matches_the_filtered_sweep(self):
        # the old generator, the k-cycle slice of the whole S_n walk
        for n in range(8):
            for k in range(n + 1):
                want = [c for c in enumeration._all_cycle_perms(n) if len(c) == k]
                assert [cp.cycles for cp in gen_cycle_perms(n, k)] == want, (n, k)

    def test_puts_only_the_yielded_permutations_in_cycle_form(self, monkeypatch):
        # the identity of [12] is the one leaf of the walk; the old sweep
        # put all 12! one-line forms in cycle form
        calls = []
        cycles = enumeration._cycles

        def counted(perm):
            calls.append(tuple(perm))
            return cycles(perm)

        monkeypatch.setattr(enumeration, "_cycles", counted)
        assert [str(cp) for cp in gen_cycle_perms(12, 12)] == [
            "(1)(2)(3)(4)(5)(6)(7)(8)(9)(10)(11)(12)"
        ]
        assert calls == [tuple(range(1, 13))]

    def test_generated_perms_skip_the_check_they_pass(self, monkeypatch):
        built = _recorded_checks(monkeypatch, CyclePermutation)
        generated = [
            cp for n in range(7) for k in range(n + 1) for cp in gen_cycle_perms(n, k)
        ]
        assert built == []
        assert all(CyclePermutation(cp.cycles) == cp for cp in generated)
        assert len(built) == len(generated)


class TestMinSetTuples:
    def test_equal_minset_reference(self):
        assert count_equal_minset_tuples(3, 2, 2) == 5
        assert count_equal_minset_tuples(4, 2, 2) == 49

    def test_equal_minset_s1(self):
        for n in range(6):
            for k in range(n + 1):
                assert count_equal_minset_tuples(n, k, 1) == stirling1(n, k)

    def test_equal_minset_matches_higher_level(self):
        for n in range(6):
            for k in range(n + 1):
                for s in (1, 2, 3):
                    assert count_equal_minset_tuples(n, k, s) == stirling1_higher(
                        n, k, s
                    )

    def test_equal_minset_fully_materialized(self):
        # brute-force filter over explicit s-tuples at tiny sizes
        from itertools import product

        for n in range(1, 5):
            for k in range(1, n + 1):
                perms = list(gen_cycle_perms(n, k))
                for s in (2, 3):
                    count = sum(
                        1
                        for tup in product(perms, repeat=s)
                        if len({cp.min_set() for cp in tup}) == 1
                    )
                    assert count == count_equal_minset_tuples(n, k, s)

    def test_equal_minset_count_matches_the_filtered_tally(self):
        # the count before it read the k-cycle walk: the min-sets of all of
        # S_n tallied once, then the classes of size k kept
        for n in range(9):
            tally = Counter(map(enumeration._min_set, enumeration._all_cycle_perms(n)))
            for k in range(n + 1):
                for s in (1, 2, 3):
                    want = sum(c**s for m, c in tally.items() if len(m) == k)
                    assert count_equal_minset_tuples(n, k, s) == want, (n, k, s)

    def test_tally_classes_of_size_k_are_the_k_cycle_slice(self):
        for n in range(8):
            tally = enumeration._min_set_tally(n)
            for k in range(n + 1):
                got = Counter({m: c for m, c in tally.items() if len(m) == k})
                assert got == _reference_min_set_tally(n, k), (n, k)

    def test_generated_tuples_skip_the_check_they_pass(self, monkeypatch):
        built = _recorded_checks(monkeypatch, CyclePermutation)
        generated = [
            cp
            for n in range(1, 4)
            for s in range(1, 4)
            for k in range(1 - s, n * s + 2)
            for tup in gen_nested_tuples(n, k, s)
            for cp in tup
        ]
        assert built == []
        assert all(CyclePermutation(cp.cycles) == cp for cp in generated)
        assert len(built) == len(generated)

    def test_nested_reference(self):
        assert count_nested_minset_tuples(3, 4, 3) == 15

    def test_nested_s1(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                assert count_nested_minset_tuples(n, k, 1) == stirling1(n, k)

    def test_nested_matches_recurrence(self):
        for n in range(1, 5):
            for s in (1, 2, 3):
                for k in range(1 - s, (n - 1) * s + 2):
                    assert count_nested_minset_tuples(n, k, s) == stirling1_mod_rec(
                        n, k, s
                    )

    def test_nested_count_matches_the_reference_pass(self):
        for n in range(1, 6):
            for s in range(1, 4):
                for k in range(1 - s, n * s + 2):
                    want = _reference_nested_count(n, k, s)
                    assert count_nested_minset_tuples(n, k, s) == want, (n, k, s)

    def test_nested_generator_agrees_with_count(self):
        for n in range(1, 4):
            for s in (2, 3):
                for k in range(1 - s, (n - 1) * s + 3):
                    tuples = list(gen_nested_tuples(n, k, s))
                    assert len(tuples) == count_nested_minset_tuples(n, k, s)
                    assert len(set(tuples)) == len(tuples)
                    for tup in tuples:
                        assert sum(len(cp.min_set()) for cp in tup) == k + s - 1
                        for a, b in zip(tup, tup[1:]):
                            assert b.min_set() <= a.min_set()

    def test_nested_generator_order_matches_the_recursive_reference(self):
        for n in range(1, 4):
            for s in range(1, 4):
                for k in range(1 - s, n * s + 2):
                    got = [
                        tuple(cp.cycles for cp in tup)
                        for tup in gen_nested_tuples(n, k, s)
                    ]
                    assert got == list(_recursive_nested_tuples(n, k, s)), (n, k, s)

    def test_nested_walk_matches_the_reference_walk(self):
        # both entry kinds: the permutations with their min-sets (the
        # generator's), and the min-set classes with their sizes (the count's)
        for n in range(1, 6):
            cycles = enumeration._all_cycle_perms(n)
            perms = [(c, enumeration._min_set(c)) for c in cycles]
            classes = [(size, m) for m, size in enumeration._min_set_tally(n).items()]
            for s in range(1, 4 if n < 5 else 3):
                for k in range(1 - s, (n - 1) * s + 2):
                    target = enumeration._nested_target(n, k, s)
                    if target is None:
                        continue
                    for entries in (perms, classes):
                        got = list(enumeration._nested_walk(entries, n, target, s))
                        want = list(_reference_nested_walk(entries, n, target, s))
                        assert got == want, (n, k, s)

    def test_nested_paper_tuples_n3_k4_s3(self):
        tuples = list(gen_nested_tuples(3, 4, 3))
        assert len(tuples) == 15
        # each tuple has 6 cycles in total and min-sets shrink along it
        rendered = {" , ".join(str(cp) for cp in t) for t in tuples}
        assert "(1)(2)(3) , (1)(2 3) , (1 2 3)" in rendered
        assert "(1 3)(2) , (1 3)(2) , (1 3)(2)" in rendered
