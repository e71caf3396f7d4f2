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

The partition generators and counters share one restricted-growth walk,
``_rgs_placements``, that yields the blocks element n may join below each
live prefix.  A counter adds one per placement, with no multiplication by a
block count and no memo, either of which would turn the oracle into the
composition sum it is checked against.  The walk's cut reads one
admissibility table (``_admissible``): nxt[g] is the least admissible entry
>= g.  Below a node whose last block minimum is m and whose next element is
i+1, the next entry fixed is an opening i-m..n-m-1 or the closing n-m, so
the node is cut when nxt[i-m] > n-m ("the gap already exceeds s" for
d_i <= s).  No walk here recurses.  Every other walk is a prefix stack: the
step words, and the one nested rule that the nested generator and count
share.  A stack entry is a prefix with its state, and its children are
pushed in reverse so that they pop in canonical order.  ``_rgs_placements`` is not a
prefix stack: it keeps one iterator of choices per level, because as a stack
of children (2.2-5x) or a list of frames (8-20%) it measured slower on the
partition counts.  ``SetPartition`` and ``CyclePermutation`` share one
validation body, ``_Parts``, and ``LatticePath`` and ``Tiling`` another,
``_LevelWord``.  Every generator builds what it yields through ``_trusted``,
which skips the check its values pass by construction; every object a caller
builds is checked.  All permutation families read S_n from
``_all_cycle_perms`` and build an object only for a permutation they yield.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, permutations, product
from math import prod

from modsym.polycore import Polynomial, _at_least


class _OneField:
    # Base of the value classes here, each a frozen dataclass with one field
    # that its __post_init__ checks.

    @classmethod
    def _trusted(cls, value):
        # Internal: value must already pass the check __post_init__ makes.
        obj = cls.__new__(cls)
        object.__setattr__(obj, cls.__match_args__[0], value)
        return obj

    @property
    def _field(self):
        return getattr(self, self.__match_args__[0])  # the one field


# ---------------------------------------------------------------------------
# set partitions


class _Parts(_OneField):
    # Body shared by SetPartition and CyclePermutation: nonempty parts in the
    # subclass's one field, ordered by their first elements and holding 1..n
    # exactly once between them, each passing the subclass's _part_ok (whose
    # failure _rule states); _noun names a part in messages.

    def __post_init__(self):
        parts = self._field
        for part in parts:
            if not part:
                raise ValueError(f"empty {self._noun}")
            if not self._part_ok(part):
                raise ValueError(f"{self._noun} {part} {self._rule}")
        firsts = [part[0] for part in parts]
        if firsts != sorted(firsts):
            raise ValueError(f"{self._noun}s not ordered by their first elements")
        elements = sorted(chain.from_iterable(parts))
        if elements != list(range(1, len(elements) + 1)):
            raise ValueError(f"{self._noun}s do not hold 1..n exactly once")

    @property
    def n(self) -> int:
        return sum(map(len, self._field))


@dataclass(frozen=True)
class SetPartition(_Parts):
    """Blocks of [n], pairwise disjoint, ordered by their minima."""

    blocks: tuple[tuple[int, ...], ...]
    _noun, _rule = "block", "not sorted"
    _part_ok = staticmethod(lambda block: list(block) == sorted(block))

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


def _admissible(n: int, entry_ok) -> tuple[list[bool], list[int]]:
    # ok[d] = entry_ok(d) for d = 0..n; nxt[g] = the least admissible d >= g,
    # or n+1 if there is none (nxt[n+1] = n+1 is the sentinel).
    ok = [bool(entry_ok(d)) for d in range(n + 1)]
    nxt = [n + 1] * (n + 2)
    for d in range(n, -1, -1):
        nxt[d] = d if ok[d] else nxt[d + 1]
    return ok, nxt


def _rgs_placements(n: int, k: int, entry_ok, buf: list[int]) -> Iterator[range]:
    # The one restricted-growth walk (n >= 1).  It fixes buf[:n-1] in
    # lexicographic order, existing blocks before the new one, and for each
    # prefix the cut leaves alive yields the blocks element n may join.
    # Level i places element i+1 after used[i] blocks, the last at mins[i].
    ok, nxt = _admissible(n, entry_ok)
    last = n - 1
    first = range(0 < k <= n and nxt[0] < n)  # block 0 fixes no entry
    if not last:
        yield first
        return
    used, mins, todo = [0] * last, [0] * last, [iter(first)] * last
    i = 0
    while i >= 0:
        u, m = used[i], mins[i]
        j = i + 1
        choices = None  # shared by the existing-block children
        for b in todo[i]:
            buf[i] = b
            if b == u:  # the new block, tried last
                u, m, choices = u + 1, j, None
            if choices is None:
                # the blocks element j+1 may join: an existing one while the
                # later elements can still open the rest, a new one at entry j-m
                new = u < k and ok[j - m] and nxt[0] < n - j
                if u + n - j - 1 >= k and nxt[j + 1 - m] <= n - m:
                    choices = range(u + new)
                else:
                    choices = range(u, u + new)
            if not choices:
                continue
            if j == last:
                yield choices
            else:
                i = j
                used[i], mins[i], todo[i] = u, m, iter(choices)
                break
        else:
            i -= 1


def _iter_rgs(n: int, k: int, entry_ok=None) -> Iterator[list[int]]:
    # Restricted growth strings of the partitions of [n] into k blocks, in
    # lexicographic order.  The yielded buffer is reused: copy before keeping.
    if n < 1:
        if n == k == 0:
            yield []
        return
    buf = [0] * n
    for placements in _rgs_placements(n, k, entry_ok or (lambda d: True), buf):
        for b in placements:
            buf[-1] = b
            yield buf


def _partition_from_rgs(w: Sequence[int]) -> SetPartition:
    # A restricted-growth string gives sorted blocks ordered by their minima
    # and holding 1..n once, so the object skips the check.
    blocks: list[list[int]] = []
    for e, b in enumerate(w, start=1):
        if b == len(blocks):
            blocks.append([e])
        else:
            blocks[b].append(e)
    return SetPartition._trusted(tuple(tuple(b) for b in blocks))


def _check_nk(n: int, k: int):
    if n < k or k < 0:
        raise ValueError(f"need n >= k >= 0, got ({n}, {k})")


def _mod_rule(n: int, k: int, s: int, residues: tuple[int, ...]):
    # The domain of the modular families, then their entry rule: every d_i
    # congruent mod s+1 to one of the residues.
    if n < k or k < 1:
        raise ValueError(f"need n >= k >= 1, got ({n}, {k})")
    _at_least("s", s, 1)
    return lambda d: d % (s + 1) in residues


def _bounded_rule(n_board: int, n_blocks: int, s_bound: int):
    # The domain of the bounded family, then its entry rule: every d_i <= s_bound.
    if n_board < n_blocks or n_blocks < 1:
        raise ValueError(f"need n_board >= n_blocks >= 1, got ({n_board}, {n_blocks})")
    _at_least("s_bound", s_bound, 0)
    return lambda d: d <= s_bound


def gen_set_partitions(n: int, k: int) -> Iterator[SetPartition]:
    """All partitions of [n] into k blocks, ordered by restricted-growth string."""
    _check_nk(n, k)
    return map(_partition_from_rgs, _iter_rgs(n, k))


def gen_partitions_mod(n: int, k: int, s: int) -> Iterator[SetPartition]:
    """Partitions of [n] into k blocks with every d_i congruent to 0 or 1 mod s+1."""
    return map(_partition_from_rgs, _iter_rgs(n, k, _mod_rule(n, k, s, (0, 1))))


def gen_partitions_bounded(
    n_board: int, n_blocks: int, s_bound: int
) -> Iterator[SetPartition]:
    """Partitions of [n_board] into n_blocks blocks with every d_i <= s_bound."""
    entry_ok = _bounded_rule(n_board, n_blocks, s_bound)
    return map(_partition_from_rgs, _iter_rgs(n_board, n_blocks, entry_ok))


def _count_partitions_by_diffs(n: int, k: int, entry_ok) -> int:
    # The walk of _iter_rgs (n >= k >= 1), one step per counted partition.
    total = 0
    for placements in _rgs_placements(n, k, entry_ok, [0] * n):
        for _ in placements:
            total += 1
    return total


def count_partitions_mod(n: int, k: int, s: int) -> int:
    """|{partitions of [n] into k blocks : all d_i = 0 or 1 mod s+1}|."""
    return _count_partitions_by_diffs(n, k, _mod_rule(n, k, s, (0, 1)))


def count_partitions_zeromod(n: int, k: int, s: int) -> int:
    """Count with every d_i divisible by s+1; zero unless s+1 divides n-k."""
    return _count_partitions_by_diffs(n, k, _mod_rule(n, k, s, (0,)))


def count_partitions_bounded(n_board: int, n_blocks: int, s_bound: int) -> int:
    """Count of partitions of [n_board] into n_blocks blocks with all d_i <= s_bound."""
    entry_ok = _bounded_rule(n_board, n_blocks, s_bound)
    return _count_partitions_by_diffs(n_board, n_blocks, entry_ok)


def partitions_from_composition(a: Sequence[int]) -> list[SetPartition]:
    """All partitions of [n + sum(a)] into n = len(a) blocks with d = a.

    Block minima are forced at m_1 = 1 and m_{i+1} = m_i + a_i + 1; each of
    the a_i elements between two minima may join any of the i open blocks,
    giving prod_i i^{a_i} partitions, in restricted-growth string order.
    """
    a = tuple(a)
    if not a:
        raise ValueError("composition must have at least one part")
    _at_least("composition parts", a, 0)
    # entry i of the growth string opens block i, and each of the a_i entries
    # after it picks one of blocks 0..i; product varies the last entry
    # fastest, so the strings come out in lexicographic order
    pools = [pool for i, ai in enumerate(a) for pool in ((i,), *[range(i + 1)] * ai)]
    return [_partition_from_rgs(w) for w in product(*pools)]


# ---------------------------------------------------------------------------
# lattice paths and tilings


class _LevelWord(_OneField):
    # Body shared by LatticePath and Tiling: a word, held in the subclass's
    # one field and returned by __str__, over a weighted letter and a
    # separator letter (_letters, in that order).  Each separator closes a
    # level; the level exponents count the weighted letters per level.
    _letters = ""

    def __post_init__(self):
        word = str(self)
        if set(word) - set(self._letters):
            name, over = self.__match_args__[0], "/".join(self._letters)
            raise ValueError(f"{name} must be over {over}, got {word!r}")

    def __str__(self) -> str:
        return self._field

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


def _check_path_args(n: int, k: int, s: int):
    _at_least("n", n, 1)
    _at_least("k", k, 0)
    _at_least("s", s, 1)


def _gen_step_strings(n: int, k: int, s: int, horiz: str, vert: str) -> Iterator[str]:
    # Lexicographic over the step alphabet with horiz < vert.  A vertical
    # symbol (or the end of the string) closes the current horizontal run,
    # which must have length 0 or 1 mod s+1.  A stack entry is a prefix with
    # the horiz and vert steps it leaves and its open run; the vert child is
    # pushed before the horiz child, so the words pop in lexicographic order.
    # Once one letter is used up the rest of the word is forced, and it is
    # admissible when the run it leaves open is.
    step = s + 1
    stack = [("", k, n - 1, 0)]
    while stack:
        word, h, v, run = stack.pop()
        if not (h and v):
            if (run + h) % step <= 1:
                yield word + horiz * h + vert * v
            continue
        if run % step <= 1:
            stack.append((word + vert, h, v - 1, 0))
        stack.append((word + horiz, h - 1, v, run + 1))


def gen_lattice_paths(n: int, k: int, s: int) -> Iterator[LatticePath]:
    """All admissible weighted paths to (k, n-1), lexicographic with H < V.

    Per height, the number of H steps is 0 or 1 mod s+1; the weight sum over
    the family equals modular_sym(n, k, s).
    """
    _check_path_args(n, k, s)
    return map(LatticePath._trusted, _gen_step_strings(n, k, s, "H", "V"))


def gen_tilings(n: int, k: int, s: int) -> Iterator[Tiling]:
    """All admissible tilings of an (n+k-1)-board with k black, n-1 gray cells.

    Every maximal black run has length 0 or 1 mod s+1; the weight sum over
    the family equals modular_sym(n, k, s).
    """
    _check_path_args(n, k, s)
    return map(Tiling._trusted, _gen_step_strings(n, k, s, "B", "G"))


def path_to_tiling(p: LatticePath) -> Tiling:
    """The weight-preserving bijection: H becomes black, V becomes gray."""
    return Tiling(p.steps.replace("H", "B").replace("V", "G"))


def tiling_to_path(t: Tiling) -> LatticePath:
    """Inverse of path_to_tiling: black becomes H, gray becomes V."""
    return LatticePath(t.cells.replace("B", "H").replace("G", "V"))


# ---------------------------------------------------------------------------
# permutations in standard cycle form


@dataclass(frozen=True)
class CyclePermutation(_Parts):
    """Cycles led by their minima, ordered by ascending minima."""

    cycles: tuple[tuple[int, ...], ...]
    _noun, _rule = "cycle", "not led by its minimum"
    _part_ok = staticmethod(lambda cycle: cycle[0] == min(cycle))

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)

    def min_set(self) -> frozenset[int]:
        """The set of cycle minima."""
        return _min_set(self.cycles)

    def one_line(self) -> tuple[int, ...]:
        image = {}
        for cycle in self.cycles:
            for i, e in enumerate(cycle):
                image[e] = cycle[(i + 1) % len(cycle)]
        return tuple(image[e] for e in range(1, self.n + 1))

    def __str__(self) -> str:
        return "".join("(" + " ".join(str(e) for e in c) + ")" for c in self.cycles)


def _cycles(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    # Standard cycle form of a permutation of [n] in one-line notation.
    n = len(perm)
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
    return tuple(cycles)


def cycles_from_one_line(perm: Sequence[int]) -> CyclePermutation:
    """Standard cycle form of a permutation given in one-line notation."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm!r} is not a permutation of [{n}]")
    return CyclePermutation(_cycles(perm))


def _all_cycle_perms(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    # The one walk over S_n, by one-line lex order, as standard cycle tuples;
    # callers build a CyclePermutation only for the permutations they yield.
    return map(_cycles, permutations(range(1, n + 1)))


def _min_set(cycles: tuple[tuple[int, ...], ...]) -> frozenset[int]:
    return frozenset(c[0] for c in cycles)


def gen_cycle_perms(n: int, k: int) -> Iterator[CyclePermutation]:
    """All permutations of [n] with exactly k cycles, by one-line lex order."""
    _check_nk(n, k)
    return (CyclePermutation._trusted(c) for c in _all_cycle_perms(n) if len(c) == k)


def _min_set_tally(n: int) -> Counter:
    # Multiplicity of each cycle-minima set over S_n.  A min-set holds one
    # minimum per cycle, so the classes of size k are the k-cycle slice.
    return Counter(map(_min_set, _all_cycle_perms(n)))


def count_equal_minset_tuples(n: int, k: int, s: int) -> int:
    """s-tuples of k-cycle permutations of [n] sharing one min-set.

    Computed as the power sum of the min-set class sizes of the k-cycle
    permutations.  The classes come from ``_min_set_tally(n)``, which maps
    all n! permutations of [n] whatever k is.
    """
    _check_nk(n, k)
    _at_least("s", s, 1)
    return sum(c**s for m, c in _min_set_tally(n).items() if len(m) == k)


def _nested_target(n: int, k: int, s: int) -> int | None:
    # Total minima count k+s-1 of a nested tuple; None when no tuple of s
    # permutations of [n] (1..n minima each) reaches it.
    _at_least("n", n, 1)
    _at_least("s", s, 1)
    if k < 1 - s:
        raise ValueError(f"k must be >= 1-s = {1 - s}, got {k}")
    target = k + s - 1
    return target if s <= target <= n * s else None


def count_nested_minset_tuples(n: int, k: int, s: int) -> int:
    """s-tuples (p_1..p_s) of permutations of [n] with min-sets nested
    downward (min(p_i) inside min(p_{i-1})) and total minima count k+s-1.

    The nested walk goes over the min-set classes of the enumerated
    permutations, and each chain it admits adds the product of its class
    sizes.
    """
    target = _nested_target(n, k, s)
    if target is None:
        return 0
    classes = ((size, m) for m, size in _min_set_tally(n).items())
    return sum(map(prod, _nested_walk(classes, n, target, s)))


def gen_nested_tuples(
    n: int, k: int, s: int
) -> Iterator[tuple[CyclePermutation, ...]]:
    """The tuples behind count_nested_minset_tuples, in lexicographic order
    of the one-line forms.  Exhaustive: intended for small n."""
    target = _nested_target(n, k, s)
    if target is None:
        return iter(())
    perms = ((c, _min_set(c)) for c in _all_cycle_perms(n))
    return (
        tuple(map(CyclePermutation._trusted, t))
        for t in _nested_walk(perms, n, target, s)
    )


def _nested_walk(entries, n: int, target: int, s: int) -> Iterator[tuple]:
    # The one nested admission rule, over (item, min-set) entries: the
    # tuples of s items whose min-sets nest downward and hold target minima
    # in all.  [n] stands before the first entry, and each later entry keeps
    # back one minimum at least.  A stack entry is (items chosen, last
    # min-set, minima used); the children are pushed last entry first, so
    # the tuples pop in the order of the entries.
    entries = list(entries)[::-1]
    stack = [((), frozenset(range(1, n + 1)), 0)]
    while stack:
        chosen, prev, used = stack.pop()
        depth = len(chosen)
        if depth == s:
            if used == target:
                yield chosen
            continue
        cap = target - (s - depth - 1)
        stack.extend(
            (chosen + (c,), m, used + len(m))
            for c, m in entries
            if m <= prev and used + len(m) <= cap
        )
