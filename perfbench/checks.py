"""Output checks, run after each request and outside its timed region.

Each check returns ``None`` when the output is right, else a short reason.
Outputs are compared with a route that does not share the code under test:

* ``table``: every cell against the triangle that ``oracle`` builds with
  its own recurrences, once per family and s;
* ``eval`` at a point: the composition sum of ``oracle``;
* symbolic ``eval``: the output is parsed back and must be exactly the set
  of admissible exponent vectors, each with coefficient 1, in grlex order;
  ``M`` is also compared with ``modular_sym(..., "recurrence")``;
* ``enumerate``: the object count against the library's counting oracle
  for the family and against the benchmark's own closed form;
* ``verify``: the report's sha256 (and, for the full profile, every
  identity's pass, fail and skip counts) against ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

from modsym import enumeration, stirling, symfun

from oracle import composition_sum, part_test, triangle
from workloads import GOLDEN, TABLE_N_MAX

_GOLDEN = json.loads(GOLDEN.read_text(encoding="utf-8"))
FULL_ARGV = ("verify", "--id", "all", "--profile", "full")


def check(req, out) -> str | None:
    if out.code != 0:
        return f"exit status {out.code}"
    if not out.text.isascii():
        return "non-ASCII output"
    try:
        return _CHECKS[req.kind](req.params, out.text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


# -- table --------------------------------------------------------------------


@lru_cache(maxsize=None)
def _reference(family: str, s: int) -> list[list[str]]:
    """The family's triangle up to the largest n_max query-mix asks for."""
    return [list(map(str, row)) for row in triangle(family, s, TABLE_N_MAX[family, s])]


def _table_rows(p: dict, text: str) -> list[list[str]] | str:
    """Cells as decimal strings, row by row, from any of the three formats."""
    fmt, family = p["format"], p["family"]
    if fmt == "text":
        return [line.split(" ") for line in text.split("\n")[:-1]]
    if fmt == "json":
        obj = json.loads(text)
        s = None if family in ("stirling2", "stirling1") else p["s"]
        if obj["family"] != family or obj["s"] != s:
            return "wrong json header"
        return [[str(v) for v in row] for row in obj["rows"]]
    lines = text.split("\n")
    if lines[0] != "n,k,value" or lines[-1] != "":
        return "wrong csv framing"
    rows: list[list[str]] = []
    for line in lines[1:-1]:
        n, k, value = line.split(",")
        if int(n) == len(rows):
            rows.append([])
        if (int(n), int(k)) != (len(rows) - 1, len(rows[-1])):
            return f"csv cell ({n}, {k}) out of order"
        rows[-1].append(value)
    return rows


def _check_table(p: dict, text: str) -> str | None:
    rows = _table_rows(p, text)
    if isinstance(rows, str):
        return rows
    family, s, n_max = p["family"], p["s"], p["n_max"]
    if len(rows) != n_max + 1:
        return f"{len(rows)} rows, expected {n_max + 1}"
    reference = _reference(family, s)
    for n, row in enumerate(rows):
        if row != reference[n]:
            return f"row {n} differs from the reference triangle"
    return None


# -- eval -----------------------------------------------------------------------


def _eval_header(p: dict) -> dict:
    head = {"function": p["function"], "n": p["n"], "k": p["k"], "s": p["s"]}
    if p["function"] == "Ml":
        head["ell"] = p["ell"]
    return head


def _check_eval(p: dict, text: str) -> str | None:
    value = composition_sum(p["point"], p["k"], part_test(p["function"], p["s"], p["ell"]))
    if p["format"] == "text":
        expected = f"{value}\n"
    else:
        expected = json.dumps(
            {**_eval_header(p), "point": list(p["point"]), "value": str(value)},
            separators=(", ", ": "),
        ) + "\n"
    return None if text == expected else "value differs from the composition sum"


def _parse_text_terms(text: str, n: int) -> list[tuple[int, tuple[int, ...]]]:
    terms = []
    for term in text.rstrip("\n").split(" + "):
        coeff, exps = 1, [0] * n
        for factor in term.split("*"):
            if factor.startswith("x"):
                var, _, power = factor[1:].partition("^")
                exps[int(var) - 1] = int(power or 1)
            else:
                coeff = int(factor)
        terms.append((coeff, tuple(exps)))
    return terms


def _check_symbolic(p: dict, text: str) -> str | None:
    n, k, function = p["n"], p["k"], p["function"]
    if p["format"] == "text":
        terms = _parse_text_terms(text, n)
    else:
        obj = json.loads(text)
        if {key: obj[key] for key in _eval_header(p)} != _eval_header(p) or len(obj) != len(_eval_header(p)) + 1:
            return "wrong json header"
        terms = [
            (int(t["coeff"]), tuple(t["exps"]) + (0,) * (n - len(t["exps"])))
            for t in obj["polynomial"]
        ]
    ok = part_test(function, p["s"], p["ell"])
    if len(terms) != p["terms"]:
        return f"{len(terms)} terms, expected {p['terms']}"
    for i, (coeff, exps) in enumerate(terms):
        if coeff != 1 or len(exps) != n or sum(exps) != k or not all(map(ok, exps)):
            return f"term {i} is not an admissible monomial"
        if i and not terms[i - 1][1] > exps:
            return f"term {i} out of grlex order"
    if function == "M":
        reference = symfun.modular_sym(n, k, p["s"], "recurrence")
        if {_trim(e) for _, e in terms} != set(reference.terms):
            return "terms differ from the recurrence route"
    return None


def _trim(exps: tuple[int, ...]) -> tuple[int, ...]:
    end = len(exps)
    while end and not exps[end - 1]:
        end -= 1
    return exps[:end]


# -- enumerate --------------------------------------------------------------


def _library_count(p: dict) -> int:
    family = p["family"]
    if family in ("paths", "tilings"):
        return symfun.modular_all_ones(p["n"], p["k"], p["s"])
    if family == "partitions":
        return stirling.stirling2(p["n"], p["k"])
    if family == "partitions-mod":
        return enumeration.count_partitions_mod(p["n"], p["k"], p["s"])
    if family == "partitions-bounded":
        return enumeration.count_partitions_bounded(p["board"], p["blocks"], p["s"])
    if family == "perms":
        return stirling.stirling1(p["n"], p["k"])
    return stirling.stirling1_mod_rec(p["n"], p["k"], p["s"])


def _check_enumerate(p: dict, text: str) -> str | None:
    if p["format"] == "text":
        lines = text.split("\n")
        objects = lines[:-2]
        if lines[-1] != "" or lines[-2] != f"count: {len(objects)}":
            return "count line does not match the objects"
        if len(set(objects)) != len(objects):
            return "repeated object"
        count = len(objects)
    else:
        obj = json.loads(text)
        if obj["family"] != p["family"] or obj["count"] != len(obj["objects"]):
            return "wrong json framing"
        count = obj["count"]
    expected = _library_count(p)
    if count != expected or count != p["objects"]:
        return f"{count} objects, oracle says {expected}, closed form {p['objects']}"
    return None


# -- verify -----------------------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_verify(p: dict, text: str) -> str | None:
    return None if _sha(text) == _GOLDEN["verify_quick"][p["key"]] else "report differs from golden"


def _check_full(p: dict, text: str) -> str | None:
    golden = _GOLDEN["verify_full"]
    counts = {r["identity"]: [r["pass"], r["fail"], r["skipped"]] for r in json.loads(text)}
    for ident, expected in golden["counts"].items():
        if counts.get(ident) != expected:
            return f"{ident}: pass/fail/skip {counts.get(ident)}, expected {expected}"
    return None if _sha(text) == golden["sha256"] else "report differs from golden"


_CHECKS = {
    "table": _check_table,
    "eval": _check_eval,
    "symbolic": _check_symbolic,
    "enumerate": _check_enumerate,
    "verify": _check_verify,
    "sweep": _check_full,
}
