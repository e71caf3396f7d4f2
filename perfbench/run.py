"""modsym benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads (see BENCHMARK.json for why each was chosen):

* ``verify-full``: ``verify --id all --profile full``, repeated while the run
  lasts (at least once).  The seed is ignored.
* ``query-mix``: seeded ``table``, integer-point ``eval`` and one-identity
  quick ``verify`` requests.
* ``stream``: seeded symbolic ``eval`` and ``enumerate`` requests.

Every request is an in-process call of ``modsym.cli.main`` from one
closed-loop client, with the next request sent when the previous one has
returned.  A run sends requests until their summed wall time reaches
``--seconds`` (or its request list runs out) and checks every output
outside the timed region; a failed check counts as a failed request.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats the
run's requests with every layer traced and reports per-layer metrics and
the tracing overhead.  On verify-full the traced sweep is made twice, with
the verifier's default thread count and with ``MODSYM_THREADS=1``; the
per-layer figures come from the second, where a span's time does not
include waits for another thread to release the interpreter lock.

Everything printed before the last line is for people: the environment, the
request digest, every metric with its unit and, when traced, a self-time
table per layer.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-full", "query-mix", "stream")
SETUP_RUNS = 30
SETUP_FIRST = 5
# Tail percentiles of (request, first object) latency: the highest whole
# percentile that left at least ten samples beyond it in the runs made when
# the benchmark was defined, slow ones included (a 20 s run sent 1500 to
# 2100 query-mix requests, and 450 to 800 stream requests, half of them
# enumerate).  They are fixed, not chosen per run, so that a change in
# request count cannot move the tail from one percentile to another.  The
# summary prints how many samples lie beyond.  verify-full reports the
# slowest sweep.
TAIL_PERCENTILE = {"verify-full": (100, 100), "query-mix": (99, 99), "stream": (97, 95)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- environment and set-up -------------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(inherited_threads: str | None) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "modsym").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        # Removed for the run: timed runs use the verifier's default of
        # cpu_count workers.
        "MODSYM_THREADS_inherited": inherited_threads,
    }


class Setup:
    """Fresh interpreters, each timing its own ``import modsym.cli``.

    The time is taken inside the child, so it leaves out the interpreter's
    start (site-packages included), which no change to modsym can move and
    which drifts most with the machine.  SETUP_FIRST interpreters are
    started before the first request and the rest one by one as the run's
    busy time passes each further share of ``--seconds``, so that set-up is
    sampled over the same stretch of time as the requests.
    """

    CODE = "import time; t = time.perf_counter(); import modsym.cli; print(time.perf_counter() - t)"

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self._start()  # writes bytecode

    def _start(self) -> float:
        out = subprocess.run([sys.executable, "-c", self.CODE], env=self.env, cwd=ROOT,
                             check=True, capture_output=True, text=True, timeout=60)
        return float(out.stdout)

    def sample(self, busy: float, seconds: float):
        """Start interpreters until the count due at ``busy`` seconds is reached."""
        due = SETUP_FIRST + int((SETUP_RUNS - SETUP_FIRST) * min(1.0, busy / seconds))
        while len(self.times) < due:
            self.times.append(self._start())


# -- running requests ---------------------------------------------------------


@dataclass
class Record:
    req: object
    wall: float
    cpu: float
    first_write: float | None
    second_write: float | None
    nbytes: int
    reason: str | None


def run_requests(requests, seconds: float | None, tracer=None, setup=None) -> list[Record]:
    """Send requests until their summed wall time reaches ``seconds``
    (all of them when ``seconds`` is None), checking each output and
    sampling ``setup`` between requests."""
    from checks import check
    from client import execute

    records: list[Record] = []
    busy = 0.0
    if setup is not None:
        setup.sample(busy, seconds)
    for req in requests:
        if tracer is not None:
            tracer.request = len(records) + 1
            tracer.active = True
        c0 = time.process_time()
        out = execute(req.argv, tracer)
        cpu = time.process_time() - c0
        if tracer is not None:
            tracer.active = False
        records.append(Record(req, out.wall, cpu, out.first_write, out.second_write,
                              out.nbytes, check(req, out)))
        busy += out.wall
        if setup is not None:
            setup.sample(busy, seconds)
        if seconds is not None and busy >= seconds:
            break
    if setup is not None:
        setup.sample(seconds, seconds)  # tops up when the list ran out first
    return records


def requests_for(workload: str, seed: int):
    from checks import FULL_ARGV
    from workloads import Request, request_list

    if workload == "verify-full":
        return itertools.repeat(Request("sweep", FULL_ARGV, {}))
    return request_list(workload, seed)


# -- end-to-end metrics -----------------------------------------------------


def tail(values: list[float], p: float) -> tuple[float, int]:
    """(nearest-rank p-th percentile, number of samples beyond it)."""
    xs = sorted(values)
    idx = max(0, math.ceil(p / 100 * len(xs)) - 1)
    return xs[idx], len(xs) - idx - 1


def first_object(rec: Record, workload: str) -> float | None:
    """Seconds until the request wrote its first result.

    On stream only enumerate counts, as the time to its first object: the
    first write in text format, the second in JSON, which writes a header
    before it generates anything.  Elsewhere the first write of every
    request carries its first result.
    """
    if workload != "stream":
        return rec.first_write
    if rec.req.kind != "enumerate":
        return None
    return rec.first_write if rec.req.params["format"] == "text" else rec.second_write


def end_to_end(workload, records, setup, peak_rss_mb) -> tuple[dict, list[str]]:
    """The result line's metrics, and notes that print the rest.

    first_object_p50_ms is a note, not a result metric: on stream it takes
    about 2 ms, four fifths of it argument parsing, and that allocation-heavy
    code follows the speed drift of a shared 2-vCPU x86 host (1.1x to 1.8x
    of its best over minutes) so closely that the median of one seed spread
    24% across ten runs, too near the largest allowed bound to gate on.  The
    tail, which lands on the generators, spreads 3% to 13%.
    """
    busy = sum(r.wall for r in records)
    lat = [r.wall * 1000 for r in records]
    first = [f * 1000 for r in records if (f := first_object(r, workload)) is not None]
    if not first:  # only when every request failed before writing
        first = lat
    p_req, p_first = TAIL_PERCENTILE[workload]
    tail_ms, beyond = tail(lat, p_req)
    ftail_ms, fbeyond = tail(first, p_first)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "request_p50_ms": (statistics.median(lat), "ms"),
        "request_tail_ms": (tail_ms, "ms"),
        "requests_per_s": (len(records) / busy, "1/s"),
        "first_object_tail_ms": (ftail_ms, "ms"),
        "output_mb_per_s": (sum(r.nbytes for r in records) / busy / 1e6, "MB/s"),
    }
    failed = sum(1 for r in records if r.reason)
    notes = [
        f"setup_s is the median import time of modsym.cli in {len(setup)} fresh interpreters, "
        f"{SETUP_FIRST} before the first request and the rest spread over the run",
        f"request_tail_ms is p{p_req} of {len(lat)} requests, {beyond} beyond it",
        f"first_object_p50_ms = {statistics.median(first):.4f} ms (printed, not bounded)",
        f"first_object_tail_ms is p{p_first} of {len(first)} requests, {fbeyond} beyond it",
        f"error_rate = {failed / len(records):g} ({failed} of {len(records)} requests failed)",
    ]
    if workload == "verify-full":
        notes.insert(0, f"verify_s = {statistics.median(r.wall for r in records):.4f} s "
                        f"(median of {len(records)} sweeps)")
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r.req.kind, []).append(r.wall * 1000)
    for kind, values in sorted(by_kind.items()):
        notes.append(f"{kind}: {len(values)} requests, p50 {statistics.median(values):.3f} ms, "
                     f"max {max(values):.3f} ms")
    return metrics, notes


# -- traced run ---------------------------------------------------------------


def _traced_pass(requests):
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        records = run_requests(requests, None, tracer)
    finally:
        tracer.uninstall()
    return tracer, records


def per_layer(workload, seed, seconds) -> tuple[dict, list[Record], list[str]]:
    from spans import layer_table, summarize_file

    # verify-full replays a single sweep, to keep three sweeps within a run.
    requests = requests_for(workload, seed)
    untraced = run_requests(itertools.islice(requests, 1) if workload == "verify-full"
                            else requests, seconds)
    replay = [r.req for r in untraced]
    tracer, traced = _traced_pass(replay)
    records = untraced + traced
    extra: dict[str, tuple[float, str]] = {}
    sweeps = [r for r in traced if r.req.kind in ("sweep", "verify")]
    extra["identities.verify_s"] = (sum(r.wall for r in sweeps), "s")
    extra["identities.cpu_per_wall"] = (
        sum(r.cpu for r in sweeps) / extra["identities.verify_s"][0] if sweeps else 0.0, "ratio")
    extra["identities.threads1.verify_s"] = (0.0, "s")
    extra["identities.threads1.cpu_per_wall"] = (0.0, "ratio")
    if workload == "verify-full":
        os.environ["MODSYM_THREADS"] = "1"
        try:
            tracer, t1 = _traced_pass(replay)
        finally:
            del os.environ["MODSYM_THREADS"]
        records += t1
        wall1 = sum(r.wall for r in t1)
        extra["identities.threads1.verify_s"] = (wall1, "s")
        extra["identities.threads1.cpu_per_wall"] = (sum(r.cpu for r in t1) / wall1, "ratio")
        traced_for_layers = t1
    else:
        traced_for_layers = traced
    untraced_s = sum(r.wall for r in untraced)
    traced_s = sum(r.wall for r in traced)
    extra["trace.untraced_s"] = (untraced_s, "s")
    extra["trace.traced_s"] = (traced_s, "s")
    extra["trace.overhead_s"] = (traced_s - untraced_s, "s")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-{os.getpid()}.jsonl"
    try:
        n_spans = tracer.dump(path)
        summary = summarize_file(path)
    finally:
        path.unlink(missing_ok=True)
        if not any(out_dir.iterdir()):
            out_dir.rmdir()
    layers = layer_table(summary)
    layer_wall = sum(r.wall for r in traced_for_layers)
    metrics = _layer_metrics(summary, layers, tracer, traced_for_layers)
    walker = sum(summary.get(n, {}).get("self_s", 0.0) for n in
                 ("symfun.lmodular_sym", "symfun.bounded_elem_sym", "polycore.evaluate"))
    metrics["trace.walker_evaluate_share"] = (walker / layer_wall, "ratio")
    metrics.update(extra)

    source = "MODSYM_THREADS=1 traced sweep" if workload == "verify-full" else "traced pass"
    notes = [
        f"per-layer figures from the {source}: {len(traced_for_layers)} requests, "
        f"{layer_wall:.3f} s, {n_spans} spans",
        f"tracing overhead: traced {traced_s:.3f} s - untraced {untraced_s:.3f} s = "
        f"{traced_s - untraced_s:.3f} s ({(traced_s / untraced_s - 1) * 100:.1f}%) "
        f"over the same {len(untraced)} requests",
        f"{'layer':<12} {'spans':>9} {'self_s':>10} {'share':>7}",
    ]
    for layer, row in layers.items():
        self_s = metrics[f"{layer}.self_s"][0]
        notes.append(f"{layer:<12} {row['calls']:>9} {self_s:>10.4f} {self_s / layer_wall:>7.1%}")
    notes.append(f"symfun walker + polycore.evaluate self time = "
                 f"{metrics['trace.walker_evaluate_share'][0]:.1%} of the traced wall time")
    if workload == "verify-full":
        for label, key in (("default threads", "identities"), ("MODSYM_THREADS=1", "identities.threads1")):
            notes.append(f"{label}: verify_s {metrics[key + '.verify_s'][0]:.3f} s traced, "
                         f"cpu_per_wall {metrics[key + '.cpu_per_wall'][0]:.3f}")
    return metrics, records, notes


def _layer_metrics(summary, layers, tracer, records) -> dict:
    from modsym.identities import list_identities

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    m: dict[str, tuple[float, str]] = {}
    for op in ("mul", "add", "evaluate", "serialize", "series_mul"):
        m[f"polycore.{op}.calls"] = (get(f"polycore.{op}", "calls"), "count")
        m[f"polycore.{op}.self_s"] = (get(f"polycore.{op}", "self_s"), "s")
    m["polycore.evaluate.terms"] = (get("polycore.evaluate", "count"), "count")
    symfun = ("modular_sym", "bounded_elem_sym", "lmodular_sym", "elem_comp", "modular_series")
    for fn in symfun:
        m[f"symfun.{fn}.calls"] = (get(f"symfun.{fn}", "calls"), "count")
        m[f"symfun.{fn}.self_s"] = (get(f"symfun.{fn}", "self_s"), "s")
        m[f"symfun.{fn}.terms"] = (get(f"symfun.{fn}", "count"), "count")
    m["symfun.max_terms"] = (max(get(f"symfun.{fn}", "max_count") for fn in symfun), "count")
    for fn in ("triangle_rows", "stirling2_mod.spec", "stirling2_mod.rec",
               "stirling1_mod", "stirling1_mod_rec"):
        m[f"stirling.{fn}.calls"] = (get(f"stirling.{fn}", "calls"), "count")
        m[f"stirling.{fn}.self_s"] = (get(f"stirling.{fn}", "self_s"), "s")
    m["stirling.serialize.self_s"] = (get("stirling.serialize", "self_s"), "s")
    objects = get("enumeration.gen", "count")
    gen_s = get("enumeration.gen", "self_s")
    m["enumeration.gen.objects"] = (objects, "count")
    m["enumeration.gen.self_s"] = (gen_s, "s")
    m["enumeration.gen.us_per_object"] = (gen_s / objects * 1e6 if objects else 0.0, "us")
    m["enumeration.count.calls"] = (get("enumeration.count", "calls"), "count")
    m["enumeration.count.self_s"] = (get("enumeration.count", "self_s"), "s")
    for info in list_identities():
        m[f"identities.{info.id}.wall_s"] = (get(f"identities.{info.id}", "busy_s"), "s")
    m["cli.write.calls"] = (tracer.write_calls, "count")
    m["cli.write.self_s"] = (tracer.write_s, "s")
    m["cli.bytes_out"] = (sum(r.nbytes for r in records), "B")
    for layer, row in layers.items():
        m[f"{layer}.self_s"] = (row["self_s"], "s")
    return m


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "modsym" / "cli.py").is_file():
        print(f"error: no modsym sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    inherited_threads = os.environ.pop("MODSYM_THREADS", None)
    env = environment(inherited_threads)
    setup = None if args.trace else Setup()

    sys.path.insert(0, str(SRC))
    import modsym

    if Path(modsym.__file__).resolve().parent != SRC / "modsym":
        print(f"error: imported modsym from {modsym.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(f"modsym benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env))
    if args.trace:
        metrics, records, notes = per_layer(args.workload, args.seed, args.seconds)
    else:
        records = run_requests(requests_for(args.workload, args.seed), args.seconds, setup=setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, notes = end_to_end(args.workload, records, setup.times, peak_rss_mb)
    from workloads import digest

    issued = list(dict.fromkeys(r.req for r in records))  # a traced run sends them again
    print(f"requests: {len(records)} sent, {len(issued)} distinct, seed {args.seed}, "
          f"list sha256 {digest(issued)}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    failures = [r for r in records if r.reason]
    for r in failures[:10]:
        print(f"FAILED {' '.join(r.req.argv)}: {r.reason}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
