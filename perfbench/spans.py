"""Span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each modsym layer from outside
the library: ``Polynomial`` methods on the class, and module functions at
every name they are bound to in a ``modsym`` module, so names bound by
``from ... import`` are traced too.  Each call records one span: id, name,
start, end, busy time, parent span, request id, thread id and one layer
count (terms evaluated, terms returned, objects yielded).

Every thread keeps its own parent stack.  A span opened on a thread whose
stack is empty (a verifier worker) takes as parent the innermost span open
on the thread that installed the tracer.  A generator returned by a
``gen_*`` function is one span whose busy time is the sum of its ``next``
calls.  Self time is busy time minus the time that child spans cover, with
children on several threads merged into one union of intervals.

Spans stay in memory while the workload runs; ``dump`` writes them out as
JSON lines and ``summarize_file`` reads that file back into per-name totals.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("polycore", "symfun", "stirling", "enumeration", "identities", "cli")
GENERATOR_SPAN = "enumeration.gen"

# Polynomial methods, traced on the class.
_POLY_METHODS = {
    "__mul__": "polycore.mul",
    "__rmul__": "polycore.mul",
    "__add__": "polycore.add",
    "__radd__": "polycore.add",
    "evaluate": "polycore.evaluate",
    "__str__": "polycore.serialize",
    "to_json_obj": "polycore.serialize",
}

# Module functions, traced at every binding.  Per-object helpers such as
# make_monomial or cycles_from_one_line are left out: they run once per term
# or candidate, and a span each would cost more than the work it measures.
_FUNCTIONS = {
    "modsym.polycore": {"series_mul": "polycore.series_mul"},
    "modsym.symfun": {
        "modular_sym": "symfun.modular_sym",
        "bounded_elem_sym": "symfun.bounded_elem_sym",
        "lmodular_sym": "symfun.lmodular_sym",
        "elem_sym": "symfun.elem_comp",
        "comp_sym": "symfun.elem_comp",
        "modular_series": "symfun.modular_series",
        "modular_all_ones": "symfun.modular_all_ones",
    },
    "modsym.stirling": {
        "triangle_rows": "stirling.triangle_rows",
        "stirling2_mod": None,  # named by method, see _span_name
        "stirling1_mod": "stirling.stirling1_mod",
        "stirling1_mod_rec": "stirling.stirling1_mod_rec",
        "stirling2": "stirling.classical",
        "stirling1": "stirling.classical",
        "stirling1_higher": "stirling.stirling1_higher",
        "stirling2_mod_series": "stirling.stirling2_mod_series",
        "omega_poly": "stirling.omega_poly",
        "triangle_csv": "stirling.serialize",
        "triangle_json_obj": "stirling.serialize",
    },
    "modsym.enumeration": {
        "gen_lattice_paths": GENERATOR_SPAN,
        "gen_tilings": GENERATOR_SPAN,
        "gen_set_partitions": GENERATOR_SPAN,
        "gen_partitions_mod": GENERATOR_SPAN,
        "gen_partitions_bounded": GENERATOR_SPAN,
        "gen_cycle_perms": GENERATOR_SPAN,
        "gen_nested_tuples": GENERATOR_SPAN,
        "count_partitions_mod": "enumeration.count",
        "count_partitions_zeromod": "enumeration.count",
        "count_partitions_bounded": "enumeration.count",
        "count_equal_minset_tuples": "enumeration.count",
        "count_nested_minset_tuples": "enumeration.count",
    },
    "modsym.identities": {
        "verify_all": "identities.verify_all",
        "verify": None,  # one name per identity id, see _span_name
    },
    # _cmd_table formats text and JSON tables itself (JSON through
    # cli._json_dump); its self time, outside triangle_rows and triangle_csv,
    # is that formatting.
    "modsym.cli": {"main": "cli.main", "_cmd_table": "stirling.serialize"},
}


def _span_name(qualname: str, args, kwargs) -> str:
    if qualname == "modsym.stirling.stirling2_mod":
        method = args[3] if len(args) > 3 else kwargs.get("method", "recurrence")
        return "stirling.stirling2_mod." + (
            "spec" if method == "specialization" else "rec"
        )
    return "identities." + str(args[0] if args else kwargs["identity_id"]).upper()


def _terms(result) -> int:
    coeffs = getattr(result, "coeffs", None)
    if coeffs is not None:  # TruncatedSeries
        return sum(len(c) for c in coeffs)
    return len(result) if hasattr(result, "_terms") else 0


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.active = True  # cleared while the benchmark checks outputs
        self.request = 0
        self.write_calls = 0
        self.write_s = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home: list[int] = []
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        home = self._home
        return home[-1] if home else 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, extra=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = tracer._parent(stack)
            span = name if isinstance(name, str) else name(args, kwargs)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            count = extra(args, result) if extra else 0
            tracer.spans.append(
                (sid, span, t0, t1, t1 - t0, parent, tracer.request,
                 threading.get_ident(), count)
            )
            return result

        return traced

    def _wrap_generator(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = tracer._parent(stack)
            stack.append(sid)
            t0 = perf_counter()
            try:
                it = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            return _TracedIter(tracer, name, it, sid, parent, t0, t1 - t0)

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced entry point; the calling thread becomes home."""
        import modsym.cli  # noqa: F401  (imports every layer)
        from modsym.polycore import Polynomial

        self._home = self._stack()
        for attr, name in _POLY_METHODS.items():
            extra = (lambda a, r: len(a[0]._terms)) if attr == "evaluate" else None
            self._set(Polynomial, attr, self._wrap(getattr(Polynomial, attr), name, extra))
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "modsym" or key.startswith("modsym."))
        ]
        for home_module, names in _FUNCTIONS.items():
            source = sys.modules[home_module]
            for fname, name in names.items():
                original = getattr(source, fname)
                qualname = f"{home_module}.{fname}"
                if name is None:
                    name = functools.partial(_span_name, qualname)
                if fname.startswith("gen_"):
                    wrapper = self._wrap_generator(original, name)
                else:
                    extra = (lambda a, r: _terms(r)) if home_module == "modsym.symfun" else None
                    wrapper = self._wrap(original, name, extra)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def dump(self, path) -> int:
        """Write the spans as JSON lines; returns the number written."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
        return len(self.spans)


class _TracedIter:
    """Iterator proxy: the generator's span is open only inside ``next``."""

    __slots__ = ("tracer", "name", "it", "sid", "parent", "t0", "t_last",
                 "busy", "objects", "done")

    def __init__(self, tracer, name, it, sid, parent, t0, busy):
        self.tracer, self.name, self.it = tracer, name, it
        self.sid, self.parent = sid, parent
        self.t0 = self.t_last = t0
        self.busy, self.objects, self.done = busy, 0, False

    def __iter__(self):
        return self

    def __next__(self):
        stack = self.tracer._stack()
        stack.append(self.sid)
        t = perf_counter()
        try:
            obj = next(self.it)
        except BaseException:
            self._tick(stack, t)
            self._finish()
            raise
        self._tick(stack, t)
        self.objects += 1
        return obj

    def _tick(self, stack, t):
        self.t_last = perf_counter()
        self.busy += self.t_last - t
        stack.pop()

    def _finish(self):
        if not self.done:
            self.done = True
            self.tracer.spans.append(
                (self.sid, self.name, self.t0, self.t_last, self.busy,
                 self.parent, self.tracer.request, threading.get_ident(),
                 self.objects)
            )

    def __del__(self):
        self._finish()


# -- aggregation ------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize_file(path) -> dict[str, dict]:
    """Per span name: calls, busy_s, self_s, count (summed) and max_count.

    A generator child covers only its busy time, not the interval from its
    creation to its last ``next``, in which its consumer also runs.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rows.append(json.loads(line))
    children: dict[int, list] = defaultdict(list)
    generator_busy: dict[int, float] = defaultdict(float)
    for sid, name, t0, t1, busy, parent, _req, _tid, _count in rows:
        if name == GENERATOR_SPAN:
            generator_busy[parent] += busy
        else:
            children[parent].append((t0, t1))
    out: dict[str, dict] = {}
    for sid, name, t0, t1, busy, _parent, _req, _tid, count in rows:
        kids = children.get(sid)
        covered = _covered(kids, t0, t1) if kids else 0.0
        own = busy - min(busy, covered + generator_busy.get(sid, 0.0))
        agg = out.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0, "max_count": 0}
        )
        agg["calls"] += 1
        agg["busy_s"] += busy
        agg["self_s"] += own
        agg["count"] += count
        agg["max_count"] = max(agg["max_count"], count)
    return out


def layer_table(summary: dict[str, dict]) -> dict[str, dict]:
    """Self time and span count per layer."""
    table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for name, agg in summary.items():
        row = table[name.split(".", 1)[0]]
        row["calls"] += agg["calls"]
        row["self_s"] += agg["self_s"]
    return table
