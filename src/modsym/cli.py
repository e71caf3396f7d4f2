"""Command-line front end.

Subcommand grammar: ``modsym <table|eval|enumerate|verify> [flags]``.  All
flags are long-form and there are no positional arguments, so invocations
stay self-documenting in scripts.  Output goes to stdout or ``--output``;
identical invocations produce byte-identical output.  ``main`` builds its
parser once per process, on the first call, and reuses it for later calls.

Exit status: 0 success, 1 verification failures present, 2 usage error (a
bad flag, or a refusal: every refusal, the library's and the CLI's own, is a
``ValueError`` that ``main`` alone turns into exit 2 with its message, as it
does an ``OverflowError``, a size too large to index a sequence), 74 a
failed write, as to a full device (``EX_IOERR``; one line on stderr), 130
interrupted by Ctrl-C (128 + SIGINT; nothing is printed to stderr), 141
stdout closed by its reader before all output was written (128 + SIGPIPE, as
for a program killed by that signal; nothing is printed to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import stat
import sys
from contextlib import contextmanager

from modsym import enumeration, identities, stirling, symfun
from modsym.polycore import _at_least

_EVAL_FUNCTIONS = ("M", "E", "e", "h", "Ml")
_CLASSICAL = ("stirling2", "stirling1")
# the integer flags of enumerate, in the order --help lists them and the
# JSON params echo them
_ENUM_FLAGS = ("n", "k", "s", "board", "blocks")


def _word_json(key):
    return lambda o: {key: str(o), "weight": str(o.weight())}


def _weighted(o):
    return f"{o} {o.weight()}"


def _blocks_json(o):
    # json.dumps writes a tuple as a list
    return {"blocks": o.blocks, "text": str(o)}


# family: (the flags its generator reads, in order; the generator's name on
# enumeration, looked up at call time so that a wrapper bound over
# enumeration.gen_* (the perfbench tracer) sees the call; text form; JSON form)
_ENUM_FAMILIES = {
    "paths": (("n", "k", "s"), "gen_lattice_paths", _weighted, _word_json("steps")),
    "tilings": (("n", "k", "s"), "gen_tilings", _weighted, _word_json("cells")),
    "partitions": (("n", "k"), "gen_set_partitions", str, _blocks_json),
    "partitions-mod": (("n", "k", "s"), "gen_partitions_mod", str, _blocks_json),
    "partitions-bounded": (
        ("board", "blocks", "s"), "gen_partitions_bounded", str, _blocks_json
    ),
    "perms": (
        ("n", "k"),
        "gen_cycle_perms",
        str,
        lambda o: {"cycles": o.cycles, "text": str(o)},
    ),
    "nested-tuples": (
        ("n", "k", "s"),
        "gen_nested_tuples",
        lambda o: " | ".join(map(str, o)),
        lambda o: {"perms": [str(cp) for cp in o]},
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process, on the first call.  Reuse is safe while no
    # argument has a mutable default, an append action or set_defaults:
    # parse_args returns a fresh namespace, and argparse reads the terminal
    # width and sys.stderr when it prints a message, not here.
    parser = argparse.ArgumentParser(
        prog="modsym",
        description=(
            "Exact modular symmetric functions, generalized Stirling "
            "triangles, brute-force enumeration, and identity verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit a Stirling triangle")
    p_table.add_argument(
        "--family", required=True, choices=stirling.TRIANGLE_FAMILIES
    )
    p_table.add_argument("--s", type=int, default=1, help="modulus/level parameter")
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_table.add_argument("--output", help="destination file (default: stdout)")

    p_eval = sub.add_parser("eval", help="evaluate a symmetric function")
    p_eval.add_argument("--function", required=True, choices=_EVAL_FUNCTIONS)
    p_eval.add_argument("--s", type=int, default=1)
    p_eval.add_argument("--ell", type=int, help="residue parameter (Ml only)")
    p_eval.add_argument("--k", type=int, required=True)
    p_eval.add_argument(
        "--vars",
        required=True,
        help="comma-separated integers, or symbolic:<n> for the polynomial",
    )
    p_eval.add_argument("--format", choices=("text", "json"), default="text")
    p_eval.add_argument("--output")

    p_enum = sub.add_parser("enumerate", help="stream a combinatorial family")
    p_enum.add_argument("--family", required=True, choices=_ENUM_FAMILIES)
    for flag in _ENUM_FLAGS:
        p_enum.add_argument(f"--{flag}", type=int)
    p_enum.add_argument("--format", choices=("text", "json"), default="text")
    p_enum.add_argument("--output")

    p_verify = sub.add_parser("verify", help="check identities over a grid")
    # None when not given, so that --seed-check can refuse them
    p_verify.add_argument("--id", help="catalog id or 'all'")
    p_verify.add_argument("--profile", choices=identities.PROFILES)
    p_verify.add_argument("--n-max", type=int)
    p_verify.add_argument("--k-max", type=int)
    p_verify.add_argument("--s-max", type=int)
    p_verify.add_argument("--p-list", help="comma-separated primes (FERMAT)")
    p_verify.add_argument("--ell", type=int, help="fix the residue (LMOD)")
    p_verify.add_argument("--board-max", type=int, help=argparse.SUPPRESS)
    p_verify.add_argument("--output")
    p_verify.add_argument(
        "--seed-check", action="store_true", help=argparse.SUPPRESS
    )

    return parser


@contextmanager
def _destination(path: str | None):
    if path is None:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError:
            # the null device takes the unwritten buffer, else the flush at exit fails
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise
        return
    # Opened without O_TRUNC, so a usage error found before any output leaves
    # an existing file as it was; a regular file is cut at the end of what
    # was written (ftruncate fails on /dev/null, and a FIFO cannot seek).
    try:
        fh = open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                  encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot open --output {path!r}: {exc.strerror}") from None
    with fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and fh.tell():
                fh.truncate()


def _json_dump(obj, fh):
    # json.dumps runs the C encoder; json.dump always runs the Python one.
    # With no arguments dumps reuses one encoder instead of building one.
    fh.write(json.dumps(obj) + "\n")


def _cmd_table(args) -> int:
    _at_least("--s", args.s, 1)
    _at_least("--n-max", args.n_max, 0)
    with _destination(args.output) as fh:
        rows = stirling.triangle_rows(args.family, args.s, args.n_max)
        if args.format == "text":
            for row in rows:
                fh.write(" ".join(str(v) for v in row) + "\n")
        elif args.format == "csv":
            fh.write(stirling.triangle_csv(rows))
        else:
            s = None if args.family in _CLASSICAL else args.s
            _json_dump(stirling.triangle_json_obj(args.family, s, rows), fh)
    return 0


def _ints(flag: str, raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        msg = f"{flag} must be comma-separated integers, got {raw!r}"
        raise ValueError(msg) from None


def _parse_vars(raw: str):
    if raw.startswith("symbolic:"):
        try:
            n = int(raw.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad symbolic variable count in {raw!r}") from None
        _at_least("symbolic variable count", n, 0)
        return n, None
    point = _ints("--vars", raw)
    return len(point), point


def _cmd_eval(args) -> int:
    n, point = _parse_vars(args.vars)
    params = {"function": args.function, "n": n, "k": args.k, "s": args.s}
    if args.function == "Ml":
        params["ell"] = args.ell
    with _destination(args.output) as fh:
        if args.function == "Ml" and args.ell is None:
            raise ValueError("--ell is required for --function Ml")
        # e is E and h is M at s = 1, and only Ml reads ell
        s = args.s if args.function in ("M", "E", "Ml") else 1
        ell = args.ell if args.function == "Ml" else 1
        symfun._check_params(n, args.k, s, ell)
        if point is not None:
            # a point reads the generating rule cut at degree k: no polynomial
            if args.function in ("E", "e"):
                rows = symfun._bounded_rows(point, s, args.k)
            else:
                rows = symfun._modular_rows(point, 1, args.k, s, ell=ell)
            value = symfun._last_entry(rows, args.k)
        elif args.function == "E":
            poly = symfun.bounded_elem_sym(n, args.k, s)
        elif args.function == "e":
            poly = symfun.elem_sym(n, args.k)
        else:
            # M is M^(s,1) and h is M^(1,1)
            poly = symfun.lmodular_sym(n, args.k, s, ell)
        if args.format == "text":
            fh.write(f"{poly if point is None else value}\n")
        elif point is None:
            _json_dump({**params, "polynomial": poly.to_json_obj()}, fh)
        else:
            _json_dump({**params, "point": list(point), "value": str(value)}, fh)
    return 0


def _cmd_enumerate(args) -> int:
    flags, gen_name, as_text, as_json = _ENUM_FAMILIES[args.family]
    values = [getattr(args, flag) for flag in flags]
    missing = [f"--{flag}" for flag, v in zip(flags, values) if v is None]
    if missing:
        raise ValueError(f"family {args.family!r} requires {', '.join(missing)}")
    gen = getattr(enumeration, gen_name)(*values)
    params = {
        key: getattr(args, key) for key in _ENUM_FLAGS if getattr(args, key) is not None
    }
    count = 0
    with _destination(args.output) as fh:
        if args.format == "text":
            for obj in gen:
                fh.write(as_text(obj) + "\n")
                count += 1
            fh.write(f"count: {count}\n")
        else:
            fh.write(
                f'{{"family": {json.dumps(args.family)}, '
                f'"params": {json.dumps(params)}, "objects": ['
            )
            sep = ""
            for obj in gen:
                fh.write(sep + json.dumps(as_json(obj)))
                sep = ", "
                count += 1
            fh.write(f'], "count": {count}}}\n')
    return 0


def _cmd_verify(args) -> int:
    # one flag per Ranges field; a flag not given keeps the profile's bound
    fields = {
        f.name: getattr(args, f.name) for f in dataclasses.fields(identities.Ranges)
    }
    if args.p_list is not None:
        fields["p_list"] = _ints("--p-list", args.p_list)
    ranges = identities.Ranges(**fields)
    if args.seed_check:
        # the self-test runs each perturbed checker on its own fixed grid
        given = [f for f in ("id", "profile", *fields) if getattr(args, f) is not None]
        if given:
            flags = ", ".join("--" + f.replace("_", "-") for f in given)
            raise ValueError(f"--seed-check takes no {flags}")
    ident = "all" if args.id is None else args.id
    profile = args.profile or "quick"
    with _destination(args.output) as fh:
        if args.seed_check:
            reports = identities.mutation_selftest()
            _json_dump([r.to_json_obj() for r in reports], fh)
            return 0 if all(r.failed for r in reports) else 1
        if ident.lower() == "all":
            reports = identities.verify_all(profile, ranges)
            payload: object = [r.to_json_obj() for r in reports]
        else:
            reports = [identities.verify(ident, ranges, profile)]
            payload = reports[0].to_json_obj()
        _json_dump(payload, fh)
    return 1 if any(r.failed for r in reports) else 0


def main(argv=None) -> int:
    # an exact answer may have more digits than the default int-to-str cap
    sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        return _cmd_verify(args)
    except (ValueError, OverflowError) as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does
        return 141
    except OSError as exc:
        print(f"modsym: error: cannot write output: {exc.strerror}", file=sys.stderr)
        return 74


def _console() -> int:
    # The installed script and ``python -m modsym.cli`` end quietly with 130
    # (128 + SIGINT) on Ctrl-C.  ``main`` lets KeyboardInterrupt through, so
    # that a caller in the same process stops on it.
    try:
        return main()
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(_console())
