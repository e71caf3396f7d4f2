"""Command-line front end.

Subcommand grammar: ``modsym <table|eval|enumerate|verify> [flags]``.  All
flags are long-form and there are no positional arguments, so invocations
stay self-documenting in scripts.  Output goes to stdout or ``--output``;
identical invocations produce byte-identical output.

Exit status: 0 success, 1 verification failures present, 2 usage error,
141 stdout closed by its reader before all output was written (128 + SIGPIPE,
as for a program killed by that signal; nothing is printed to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import contextmanager

from modsym import enumeration, identities, stirling, symfun
from modsym.polycore import poly_eval_int

_EVAL_FUNCTIONS = ("M", "E", "e", "h", "Ml")
_ENUM_FAMILIES = (
    "paths",
    "tilings",
    "partitions",
    "partitions-mod",
    "partitions-bounded",
    "perms",
    "nested-tuples",
)
_CLASSICAL = ("stirling2", "stirling1")


def _build_parser() -> argparse.ArgumentParser:
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
    p_enum.add_argument("--n", type=int)
    p_enum.add_argument("--k", type=int)
    p_enum.add_argument("--s", type=int)
    p_enum.add_argument("--board", type=int)
    p_enum.add_argument("--blocks", type=int)
    p_enum.add_argument("--format", choices=("text", "json"), default="text")
    p_enum.add_argument("--output")

    p_verify = sub.add_parser("verify", help="check identities over a grid")
    p_verify.add_argument("--id", default="all", help="catalog id or 'all'")
    p_verify.add_argument(
        "--profile", choices=identities.PROFILES, default="quick"
    )
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
def _destination(path: str | None, parser):
    if path is None:
        yield sys.stdout
        sys.stdout.flush()
        return
    # Opened without O_TRUNC, so a usage error found before any output leaves
    # an existing file as it was; a regular file is cut at the end of what
    # was written (ftruncate fails on /dev/null, and a FIFO cannot seek).
    try:
        fh = open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                  encoding="utf-8", newline="")
    except OSError as exc:
        parser.error(f"cannot open --output {path!r}: {exc.strerror}")
    with fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and fh.tell():
                fh.truncate()


def _json_dump(obj, fh):
    json.dump(obj, fh, separators=(", ", ": "))
    fh.write("\n")


def _cmd_table(args, parser) -> int:
    if args.s < 1:
        parser.error(f"--s must be >= 1, got {args.s}")
    if args.n_max < 0:
        parser.error(f"--n-max must be >= 0, got {args.n_max}")
    with _destination(args.output, parser) as fh:
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


def _parse_vars(raw: str, parser):
    if raw.startswith("symbolic:"):
        try:
            n = int(raw.split(":", 1)[1])
        except ValueError:
            parser.error(f"bad symbolic variable count in {raw!r}")
        if n < 0:
            parser.error(f"symbolic variable count must be >= 0, got {n}")
        return n, None
    try:
        point = tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        parser.error(f"--vars must be comma-separated integers, got {raw!r}")
    return len(point), point


def _cmd_eval(args, parser) -> int:
    n, point = _parse_vars(args.vars, parser)
    params = {"function": args.function, "n": n, "k": args.k, "s": args.s}
    if args.function == "Ml":
        params["ell"] = args.ell
    with _destination(args.output, parser) as fh:
        try:
            if args.function == "M":
                poly = symfun.modular_sym(n, args.k, args.s)
            elif args.function == "E":
                poly = symfun.bounded_elem_sym(n, args.k, args.s)
            elif args.function == "e":
                poly = symfun.elem_sym(n, args.k)
            elif args.function == "h":
                poly = symfun.comp_sym(n, args.k)
            else:
                if args.ell is None:
                    parser.error("--ell is required for --function Ml")
                poly = symfun.lmodular_sym(n, args.k, args.s, args.ell)
        except ValueError as exc:
            parser.error(str(exc))
        if point is None:
            if args.format == "text":
                fh.write(str(poly) + "\n")
            else:
                _json_dump({**params, "polynomial": poly.to_json_obj()}, fh)
        else:
            value = poly_eval_int(poly, point)
            if args.format == "text":
                fh.write(str(value) + "\n")
            else:
                _json_dump(
                    {**params, "point": list(point), "value": str(value)}, fh
                )
    return 0


def _require(parser, args, names):
    missing = [f"--{n}" for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        parser.error(f"family {args.family!r} requires {', '.join(missing)}")


def _enum_stream(args, parser):
    # (objects, text form, JSON form); _cmd_enumerate builds only the one asked
    # for.  The generators are looked up on the module at call time, so that a
    # wrapper bound over enumeration.gen_* (the perfbench tracer) sees the call.
    fam = args.family
    if fam in ("paths", "tilings"):
        _require(parser, args, ("n", "k", "s"))
        if fam == "paths":
            gen, key = enumeration.gen_lattice_paths(args.n, args.k, args.s), "steps"
        else:
            gen, key = enumeration.gen_tilings(args.n, args.k, args.s), "cells"
        return (
            gen,
            lambda o: f"{o} {o.weight()}",
            lambda o: {key: str(o), "weight": str(o.weight())},
        )
    if fam == "perms":
        _require(parser, args, ("n", "k"))
        gen = enumeration.gen_cycle_perms(args.n, args.k)
        return (
            gen,
            str,
            lambda o: {"cycles": [list(c) for c in o.cycles], "text": str(o)},
        )
    if fam == "nested-tuples":
        _require(parser, args, ("n", "k", "s"))
        gen = enumeration.gen_nested_tuples(args.n, args.k, args.s)
        return (
            gen,
            lambda o: " | ".join(str(cp) for cp in o),
            lambda o: {"perms": [str(cp) for cp in o]},
        )
    if fam == "partitions":
        _require(parser, args, ("n", "k"))
        gen = enumeration.gen_set_partitions(args.n, args.k)
    elif fam == "partitions-mod":
        _require(parser, args, ("n", "k", "s"))
        gen = enumeration.gen_partitions_mod(args.n, args.k, args.s)
    else:  # partitions-bounded
        _require(parser, args, ("board", "blocks", "s"))
        gen = enumeration.gen_partitions_bounded(args.board, args.blocks, args.s)
    return gen, str, lambda o: {"blocks": [list(b) for b in o.blocks], "text": str(o)}


def _cmd_enumerate(args, parser) -> int:
    try:
        gen, as_text, as_json = _enum_stream(args, parser)
    except ValueError as exc:
        parser.error(str(exc))
    params = {
        key: getattr(args, key)
        for key in ("n", "k", "s", "board", "blocks")
        if getattr(args, key) is not None
    }
    count = 0
    with _destination(args.output, parser) as fh:
        try:
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
                for obj in gen:
                    if count:
                        fh.write(", ")
                    json.dump(as_json(obj), fh, separators=(", ", ": "))
                    count += 1
                fh.write(f'], "count": {count}}}\n')
        except ValueError as exc:
            parser.error(str(exc))
    return 0


def _parse_p_list(raw: str | None, parser):
    if raw is None:
        return None
    try:
        return tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        parser.error(f"--p-list must be comma-separated integers, got {raw!r}")


def _cmd_verify(args, parser) -> int:
    fields = {
        "n_max": args.n_max,
        "k_max": args.k_max,
        "s_max": args.s_max,
        "p_list": _parse_p_list(args.p_list, parser),
        "ell": args.ell,
        "board_max": args.board_max,
    }
    ranges = (
        identities.Ranges(**fields)
        if any(v is not None for v in fields.values())
        else None
    )
    with _destination(args.output, parser) as fh:
        if args.seed_check:
            reports = identities.mutation_selftest()
            _json_dump([r.to_json_obj() for r in reports], fh)
            return 0 if all(r.failed for r in reports) else 1
        try:
            if args.id.lower() == "all":
                reports = identities.verify_all(args.profile, ranges)
                payload: object = [r.to_json_obj() for r in reports]
            else:
                reports = [identities.verify(args.id, ranges, args.profile)]
                payload = reports[0].to_json_obj()
        except ValueError as exc:
            parser.error(str(exc))
        _json_dump(payload, fh)
    return 1 if any(r.failed for r in reports) else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "table":
            return _cmd_table(args, parser)
        if args.command == "eval":
            return _cmd_eval(args, parser)
        if args.command == "enumerate":
            return _cmd_enumerate(args, parser)
        return _cmd_verify(args, parser)
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  Pointing the
        # descriptor at the null device keeps the interpreter's final flush
        # of the unwritten buffer from reporting the same error at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
