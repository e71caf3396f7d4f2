"""Brute-force generation of the combinatorial families used as oracles.

Every algebraic quantity in this library has a family here whose exhaustive
enumeration reproduces it:

* weighted lattice paths and tilings realize the modular symmetric function
  as a weight sum;
* set partitions filtered on their difference vector d realize both modular
  Stirling kinds;
* permutations in standard cycle form, grouped by their set of cycle minima,
  realize the first-kind families (equal min-sets for the higher level,
  nested min-sets for the modular variant).

Generators yield lazily in a fixed canonical order (paths by step string
with H < V, partitions by restricted-growth string, permutations by one-line
form), so output is deterministic and duplicate-free.  Counting functions
walk the same enumerations without materializing objects.

The filtered partition generators and the partition counters prune the
restricted-growth tree by one rule: a difference entry is checked the moment
it becomes fixed, and a failed entry cuts its subtree.  The counter is its
own leaf-counting walk rather than a count over the generator, because
counting the yielded strings took about twice as long over the full
PART_MOD, PART_ZERO and S1MOD_PART grids.  All permutation families read S_n
from one walk, ``_all_cycle_perms``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from itertools import permutations, product

from modsym.polycore import Polynomial


# ---------------------------------------------------------------------------
# set partitions


@dataclass(frozen=True)
class SetPartition:
    """Blocks of [n], pairwise disjoint, ordered by their minima."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        minima = []
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if list(block) != sorted(block):
                raise ValueError(f"block {block} not sorted")
            if seen & set(block):
                raise ValueError("blocks are not disjoint")
            seen.update(block)
            minima.append(block[0])
        if minima != sorted(minima):
            raise ValueError("blocks not ordered by minima")
        if seen and (min(seen) != 1 or seen != set(range(1, max(seen) + 1))):
            raise ValueError("blocks do not cover an initial segment [n]")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def diff_vector(self) -> tuple[int, ...]:
        """Consecutive gaps between block minima, closing with n - last minimum."""
        return diff_vector(self)

    def rgs(self) -> tuple[int, ...]:
        """Restricted growth string: entry i-1 is the block index of element i."""
        owner = {}
        for idx, block in enumerate(self.blocks):
            for e in block:
                owner[e] = idx
        return tuple(owner[e] for e in range(1, self.n + 1))

    def __str__(self) -> str:
        sep = "" if self.n <= 9 else ","
        return "/".join(sep.join(str(e) for e in block) for block in self.blocks)


def diff_vector(p: SetPartition) -> tuple[int, ...]:
    """d = (m_2-m_1-1, ..., m_k-m_{k-1}-1, n-m_k) over the block minima m_i."""
    if not p.blocks:
        raise ValueError("difference vector needs at least one block")
    minima = [b[0] for b in p.blocks]
    n = p.n
    return tuple(
        minima[i + 1] - minima[i] - 1 for i in range(len(minima) - 1)
    ) + (n - minima[-1],)


def _iter_rgs(n: int, k: int, entry_ok=None) -> Iterator[list[int]]:
    # Restricted growth strings for partitions of [n] into exactly k blocks,
    # lexicographic order.  The yielded buffer is reused: copy before keeping.
    # With entry_ok, only strings whose difference entries all pass it are
    # walked, by the rule of _count_partitions_by_diffs: d_j is checked when
    # block j+1 opens (element i+1 opening it gives d_j = i - last minimum),
    # d_k at the leaf.  Existing blocks are tried before the new one, so the
    # order stays lexicographic.  No block opens past k, and an existing one
    # is reused only while the positions left can still open the rest, so
    # every leaf has exactly k blocks.
    if k < 0 or n < 0 or k > n:
        return
    ok = entry_ok or (lambda d: True)
    buf = [0] * n

    def rec(i: int, used: int, last_min: int) -> Iterator[list[int]]:
        if i == n:
            if ok(n - last_min):
                yield buf
            return
        if used + n - i - 1 >= k:
            for b in range(used):
                buf[i] = b
                yield from rec(i + 1, used, last_min)
        if used < k and (used == 0 or ok(i - last_min)):
            buf[i] = used
            yield from rec(i + 1, used + 1, i + 1)

    yield from rec(0, 0, 0)


def _partition_from_rgs(w: Sequence[int]) -> SetPartition:
    blocks: list[list[int]] = []
    for e, b in enumerate(w, start=1):
        if b == len(blocks):
            blocks.append([e])
        else:
            blocks[b].append(e)
    return SetPartition(tuple(tuple(b) for b in blocks))


def gen_set_partitions(n: int, k: int) -> Iterator[SetPartition]:
    """All partitions of [n] into k blocks, ordered by restricted-growth string."""
    if n < k or k < 0:
        raise ValueError(f"need n >= k >= 0, got ({n}, {k})")
    return (_partition_from_rgs(w) for w in _iter_rgs(n, k))


def gen_partitions_mod(n: int, k: int, s: int) -> Iterator[SetPartition]:
    """Partitions of [n] into k blocks with every d_i congruent to 0 or 1 mod s+1."""
    _check_nks(n, k, s)
    step = s + 1
    return (_partition_from_rgs(w) for w in _iter_rgs(n, k, lambda d: d % step <= 1))


def gen_partitions_bounded(
    n_board: int, n_blocks: int, s_bound: int
) -> Iterator[SetPartition]:
    """Partitions of [n_board] into n_blocks blocks with every d_i <= s_bound."""
    _check_bounded(n_board, n_blocks, s_bound)
    return (
        _partition_from_rgs(w)
        for w in _iter_rgs(n_board, n_blocks, lambda d: d <= s_bound)
    )


def _check_bounded(n_board: int, n_blocks: int, s_bound: int):
    if n_board < n_blocks or n_blocks < 1:
        raise ValueError(f"need n_board >= n_blocks >= 1, got ({n_board}, {n_blocks})")
    if s_bound < 0:
        raise ValueError(f"s_bound must be >= 0, got {s_bound}")


def _check_nks(n: int, k: int, s: int):
    if n < k or k < 1:
        raise ValueError(f"need n >= k >= 1, got ({n}, {k})")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")


def _count_partitions_by_diffs(n: int, k: int, entry_ok) -> int:
    # Walks the restricted-growth tree of partitions of [n] into k blocks:
    # leaves correspond one-to-one to RGS strings.  A difference entry d_j is
    # fixed the moment block j+1 opens (and d_k once element n is placed), so
    # each entry is checked exactly once; a failed entry cuts the subtree all
    # of whose leaves share it.
    total = 0

    def rec(i: int, used: int, last_min: int):
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


def count_partitions_mod(n: int, k: int, s: int) -> int:
    """|{partitions of [n] into k blocks : all d_i = 0 or 1 mod s+1}|."""
    _check_nks(n, k, s)
    step = s + 1
    return _count_partitions_by_diffs(n, k, lambda d: d % step <= 1)


def count_partitions_zeromod(n: int, k: int, s: int) -> int:
    """Count with every d_i divisible by s+1; zero unless s+1 divides n-k."""
    _check_nks(n, k, s)
    step = s + 1
    return _count_partitions_by_diffs(n, k, lambda d: d % step == 0)


def count_partitions_bounded(n_board: int, n_blocks: int, s_bound: int) -> int:
    """Count of partitions of [n_board] into n_blocks blocks with all d_i <= s_bound."""
    _check_bounded(n_board, n_blocks, s_bound)
    return _count_partitions_by_diffs(n_board, n_blocks, lambda d: d <= s_bound)


def partitions_from_composition(a: Sequence[int]) -> list[SetPartition]:
    """All partitions of [n + sum(a)] into n = len(a) blocks with d = a.

    Block minima are forced at m_1 = 1 and m_{i+1} = m_i + a_i + 1; each of
    the a_i elements between two minima may join any of the i open blocks,
    giving prod_i i^{a_i} partitions.  Output is sorted by restricted-growth
    string.
    """
    a = tuple(a)
    if not a:
        raise ValueError("composition must have at least one part")
    if any(x < 0 for x in a):
        raise ValueError(f"composition parts must be >= 0, got {a}")
    n = len(a)
    minima = [1]
    for i in range(n - 1):
        minima.append(minima[-1] + a[i] + 1)
    total = n + sum(a)
    free: list[tuple[int, int]] = []  # (element, number of open blocks)
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
    result.sort(key=lambda p: p.rgs())
    return result


# ---------------------------------------------------------------------------
# lattice paths and tilings


class _LevelWord:
    # Body shared by LatticePath and Tiling: a word, held in the subclass's
    # one field and returned by its __str__, over a weighted letter and a
    # separator letter (_letters, in that order).  Each separator closes a
    # level; the level exponents count the weighted letters per level.
    _letters = ""

    def __post_init__(self):
        word = str(self)
        if set(word) - set(self._letters):
            name, over = fields(self)[0].name, "/".join(self._letters)
            raise ValueError(f"{name} must be over {over}, got {word!r}")

    @property
    def k(self) -> int:
        return str(self).count(self._letters[0])

    @property
    def n(self) -> int:
        return str(self).count(self._letters[1]) + 1

    def level_exponents(self) -> tuple[int, ...]:
        return tuple(len(run) for run in str(self).split(self._letters[1]))

    def weight(self) -> Polynomial:
        return Polynomial.monomial(self.level_exponents())


@dataclass(frozen=True)
class LatticePath(_LevelWord):
    """Steps over H (east) and V (north) from (0,0) to (k, n-1).

    Each H step at height y carries the weight x_{y+1}; the level exponent
    vector lists the H count per height.
    """

    steps: str
    _letters = "HV"

    def __str__(self) -> str:
        return self.steps


@dataclass(frozen=True)
class Tiling(_LevelWord):
    """Board cells over B (black) and G (gray).

    Each black cell with m gray cells to its left carries the weight x_{m+1}.
    """

    cells: str
    _letters = "BG"

    def run_lengths(self) -> tuple[int, ...]:
        """Lengths of the maximal runs of black cells, in board order."""
        return tuple(len(r) for r in self.cells.split("G") if r)

    def __str__(self) -> str:
        return self.cells


def _check_path_args(n: int, k: int, s: int):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")


def _gen_step_strings(n: int, k: int, s: int, horiz: str, vert: str) -> Iterator[str]:
    # Lexicographic over the step alphabet with horiz < vert.  A vertical
    # symbol (or the end of the string) closes the current horizontal run,
    # which must have length 0 or 1 mod s+1.
    step = s + 1
    buf: list[str] = []

    def rec(h_left: int, v_left: int, run: int) -> Iterator[str]:
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


def gen_lattice_paths(n: int, k: int, s: int) -> Iterator[LatticePath]:
    """All admissible weighted paths to (k, n-1), lexicographic with H < V.

    Per height, the number of H steps is 0 or 1 mod s+1; the weight sum over
    the family equals modular_sym(n, k, s).
    """
    _check_path_args(n, k, s)
    return (LatticePath(steps) for steps in _gen_step_strings(n, k, s, "H", "V"))


def gen_tilings(n: int, k: int, s: int) -> Iterator[Tiling]:
    """All admissible tilings of an (n+k-1)-board with k black, n-1 gray cells.

    Every maximal black run has length 0 or 1 mod s+1; the weight sum over
    the family equals modular_sym(n, k, s).
    """
    _check_path_args(n, k, s)
    return (Tiling(cells) for cells in _gen_step_strings(n, k, s, "B", "G"))


def path_to_tiling(p: LatticePath) -> Tiling:
    """The weight-preserving bijection: H becomes black, V becomes gray."""
    return Tiling(p.steps.replace("H", "B").replace("V", "G"))


def tiling_to_path(t: Tiling) -> LatticePath:
    """Inverse of path_to_tiling: black becomes H, gray becomes V."""
    return LatticePath(t.cells.replace("B", "H").replace("G", "V"))


# ---------------------------------------------------------------------------
# permutations in standard cycle form


@dataclass(frozen=True)
class CyclePermutation:
    """Cycles led by their minima, ordered by ascending minima."""

    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        leads = []
        for cycle in self.cycles:
            if not cycle:
                raise ValueError("empty cycle")
            if cycle[0] != min(cycle):
                raise ValueError(f"cycle {cycle} not led by its minimum")
            if seen & set(cycle):
                raise ValueError("cycles are not disjoint")
            seen.update(cycle)
            leads.append(cycle[0])
        if leads != sorted(leads):
            raise ValueError("cycles not ordered by ascending minima")
        if seen and (min(seen) != 1 or seen != set(range(1, max(seen) + 1))):
            raise ValueError("cycles do not cover an initial segment [n]")

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.cycles)

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)

    def min_set(self) -> frozenset[int]:
        """The set of cycle minima."""
        return frozenset(c[0] for c in self.cycles)

    def one_line(self) -> tuple[int, ...]:
        image = {}
        for cycle in self.cycles:
            for i, e in enumerate(cycle):
                image[e] = cycle[(i + 1) % len(cycle)]
        return tuple(image[e] for e in range(1, self.n + 1))

    def __str__(self) -> str:
        return "".join("(" + " ".join(str(e) for e in c) + ")" for c in self.cycles)


def cycles_from_one_line(perm: Sequence[int]) -> CyclePermutation:
    """Standard cycle form of a permutation given in one-line notation."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm!r} is not a permutation of [{n}]")
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        e = perm[start - 1]
        while e != start:
            cycle.append(e)
            seen[e] = True
            e = perm[e - 1]
        cycles.append(tuple(cycle))
    return CyclePermutation(tuple(cycles))


def _all_cycle_perms(n: int) -> Iterator[CyclePermutation]:
    # The one walk over S_n, by one-line lex order.
    return map(cycles_from_one_line, permutations(range(1, n + 1)))


def gen_cycle_perms(n: int, k: int) -> Iterator[CyclePermutation]:
    """All permutations of [n] with exactly k cycles, by one-line lex order."""
    if n < k or k < 0:
        raise ValueError(f"need n >= k >= 0, got ({n}, {k})")
    return (cp for cp in _all_cycle_perms(n) if cp.num_cycles == k)


def _min_set_tally(n: int, k: int | None = None) -> Counter:
    # Multiplicity of each cycle-minima set over S_n (or over the k-cycle slice).
    return Counter(
        cp.min_set() for cp in _all_cycle_perms(n) if k is None or cp.num_cycles == k
    )


def count_equal_minset_tuples(n: int, k: int, s: int) -> int:
    """s-tuples of k-cycle permutations of [n] sharing one min-set.

    Computed as the power sum of min-set class sizes over the enumerated
    k-cycle permutations, so the work stays linear in the family size.
    """
    if n < k or k < 0:
        raise ValueError(f"need n >= k >= 0, got ({n}, {k})")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return sum(c**s for c in _min_set_tally(n, k).values())


def _nested_target(n: int, k: int, s: int) -> int | None:
    # Total minima count k+s-1 of a nested tuple; None when no tuple of s
    # permutations of [n] (1..n minima each) reaches it.
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if k < 1 - s:
        raise ValueError(f"k must be >= 1-s = {1 - s}, got {k}")
    target = k + s - 1
    return target if s <= target <= n * s else None


def count_nested_minset_tuples(n: int, k: int, s: int) -> int:
    """s-tuples (p_1..p_s) of permutations of [n] with min-sets nested
    downward (min(p_i) inside min(p_{i-1})) and total minima count k+s-1.

    Counts over min-set classes of the enumerated permutations, with a memo
    over (position, current set, minima still needed).
    """
    target = _nested_target(n, k, s)
    if target is None:
        return 0
    tally = _min_set_tally(n)
    sets = sorted(tally, key=sorted)
    memo: dict = {}

    def chains(depth: int, prev: frozenset, left: int) -> int:
        if depth == s:
            return 1 if left == 0 else 0
        key = (depth, prev, left)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = 0
        for m in sets:
            size = len(m)
            if depth and not m <= prev:
                continue
            # every later tuple entry needs at least one cycle
            if size > left - (s - depth - 1):
                continue
            total += tally[m] * chains(depth + 1, m, left - size)
        memo[key] = total
        return total

    return chains(0, frozenset(range(1, n + 1)), target)


def gen_nested_tuples(
    n: int, k: int, s: int
) -> Iterator[tuple[CyclePermutation, ...]]:
    """The tuples behind count_nested_minset_tuples, in lexicographic order
    of the one-line forms.  Exhaustive: intended for small n."""
    target = _nested_target(n, k, s)
    if target is None:
        return iter(())
    perms = list(_all_cycle_perms(n))

    def rec(depth: int, chosen: list[CyclePermutation], used: int):
        if depth == s:
            if used == target:
                yield tuple(chosen)
            return
        for cp in perms:
            m = cp.min_set()
            if depth and not m <= chosen[-1].min_set():
                continue
            nxt = used + len(m)
            if nxt > target - (s - depth - 1):
                continue
            chosen.append(cp)
            yield from rec(depth + 1, chosen, nxt)
            chosen.pop()

    return rec(0, [], 0)
