"""One closed-loop client that calls ``modsym.cli.main(argv)`` in process.

``sys.stdout`` is swapped for a ``Sink`` around each call; the CLI resolves
``sys.stdout`` when it writes, so the output lands in the sink, which keeps
the text for the checks and records the bytes and the time of the first two
writes.  ``SystemExit`` from argparse is caught, and any nonzero exit or
exception is an error.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter

import modsym.cli


class Sink:
    """Text sink standing in for ``sys.stdout``; all CLI output is ASCII."""

    def __init__(self):
        self.chunks: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> int:
        if len(self.times) < 2:
            self.times.append(perf_counter())
        self.chunks.append(text)
        return len(text)

    def flush(self):
        pass

    def text(self) -> str:
        return "".join(self.chunks)


class TimedSink(Sink):
    """Sink that also adds the time spent in its own ``write`` to a tracer."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    def write(self, text: str) -> int:
        t = perf_counter()
        n = Sink.write(self, text)
        self.tracer.write_s += perf_counter() - t
        self.tracer.write_calls += 1
        return n


@dataclass
class Outcome:
    code: int | str  # exit status, or the exception's repr
    wall: float
    first_write: float | None  # seconds from start to the first write
    second_write: float | None
    nbytes: int
    text: str


def execute(argv, tracer=None) -> Outcome:
    sink = TimedSink(tracer) if tracer is not None else Sink()
    saved = sys.stdout
    sys.stdout = sink
    t0 = perf_counter()
    try:
        code = modsym.cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a crash is one failed request, not the end of the run
        code = repr(exc)
    finally:
        t1 = perf_counter()
        sys.stdout = saved
    text = sink.text()
    first, second = (sink.times + [None, None])[:2]
    return Outcome(
        code,
        t1 - t0,
        None if first is None else first - t0,
        None if second is None else second - t0,
        len(text),
        text,
    )
