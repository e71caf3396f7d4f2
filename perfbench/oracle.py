"""Independent integer routes used to size requests and to check outputs.

Every symmetric function the CLI evaluates is a sum of x^a over the
compositions a of k into n parts whose parts pass a per-family test, each
with coefficient 1.  The dynamic program here runs over the variables one at
a time and shares no code with the library's walkers or recurrences.

The Stirling triangles are built here too, by routes of their own: the
second kinds column by column from their generating functions, the first
kinds by multiplying out their products one factor at a time.
"""

from __future__ import annotations


def part_test(function: str, s: int, ell: int | None = None):
    """The admissible-part test of one family."""
    step = s + 1
    if function == "M":
        return lambda a: a % step <= 1
    if function == "Ml":
        return lambda a: a % step in (0, ell)
    if function == "E":
        return lambda a: a <= s
    if function == "e":
        return lambda a: a <= 1
    if function == "h":
        return lambda a: True
    raise ValueError(f"unknown function {function!r}")


def composition_sum(point, k: int, ok) -> int:
    """Sum over admissible compositions a of k of prod_i point[i]**a[i]."""
    table = [1] + [0] * k
    for x in point:
        powers = [x**a if ok(a) else None for a in range(k + 1)]
        table = [
            sum(
                powers[a] * table[m - a]
                for a in range(m + 1)
                if powers[a] is not None and table[m - a]
            )
            for m in range(k + 1)
        ]
    return table[k]


def composition_count(n: int, k: int, ok) -> int:
    """Number of admissible compositions of k into n parts (the term count)."""
    return composition_sum((1,) * n, k, ok)


def stirling1_mod_rows(n_max: int, s: int) -> list[dict[int, int]]:
    """Rows 0..n_max of the order-s first-kind modular numbers as {k: value}.

    Row n holds the coefficients of prod_{i<n} sum_{l<=s} i**l x**(s-l),
    shifted so that row 0 is {1-s: 1}; negative k are kept.
    """
    rows = [{1 - s: 1}]
    for i in range(n_max):
        new: dict[int, int] = {}
        for k, v in rows[-1].items():
            for l in range(s + 1):
                new[k + s - l] = new.get(k + s - l, 0) + v * i**l
        rows.append({k: v for k, v in new.items() if v})
    return rows


def triangle(family: str, s: int, n_max: int) -> list[list[int]]:
    """Rows 0..n_max of a ``table`` family, in the shape the CLI prints."""
    if family == "stirling1mod":
        return [[row.get(k, 0) for k in range(max(0, (n - 1) * s + 1) + 1)]
                for n, row in enumerate(stirling1_mod_rows(n_max, s))]
    if family in ("stirling1", "stirling1higher"):
        # Row n: coefficients of x (x + 1^s) (x + 2^s) ... (x + (n-1)^s).
        level = 1 if family == "stirling1" else s
        rows = [[1]]
        for n in range(1, n_max + 1):
            w = (n - 1) ** level
            row = [0] * (n + 1)
            for k, v in enumerate(rows[-1]):
                row[k + 1] += v
                row[k] += w * v
            rows.append(row)
        return rows
    # Column k holds D_k[m] = {m+k, k}, the x^m coefficient of prod_{r<=k} g(rx)
    # with g(x) = 1/(1-x) (stirling2) or (1+x)/(1-x^(s+1)) (stirling2mod).
    step = s + 1
    cols = [[1] + [0] * n_max]
    for k in range(1, n_max + 1):
        prev, col = cols[-1], [0] * (n_max - k + 1)
        for m in range(len(col)):
            v = prev[m]
            if family == "stirling2":
                if m:
                    v += k * col[m - 1]
            else:
                if m:
                    v += k * prev[m - 1]
                if m >= step:
                    v += k**step * col[m - step]
            col[m] = v
        cols.append(col)
    return [[cols[k][n - k] for k in range(n + 1)] for n in range(n_max + 1)]
