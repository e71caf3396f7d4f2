"""Regenerate ``golden.json``, the expected verifier outputs.

    python3 perfbench/make_golden.py

Records, at the commit it runs on:

* ``verify_full``: sha256 and size of the report of
  ``verify --id all --profile full`` and each identity's pass, fail and
  skip counts;
* ``verify_quick``: for each one-identity quick-profile command line that
  query-mix may send, the sha256 of its report.  The lines narrow the quick
  grid (every smaller n, k, s or board bound, one FERMAT prime) so that
  there are enough distinct ones for a run never to repeat one.

Only run it at a commit whose reports are known to be right: the benchmark
counts every later difference as a failed request.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from modsym import identities  # noqa: E402

from client import execute  # noqa: E402


def _quick_lines() -> list[str]:
    lines = []
    for info in identities.list_identities():
        base = identities.profile_ranges(info.id, "quick")
        # Every smaller bound, or the profile's own (no flag).
        options = [
            ["", *(f"--{flag} {v}" for v in range(1, bound))]
            for flag, bound in (("n-max", base.n_max), ("k-max", base.k_max),
                                ("s-max", base.s_max), ("board-max", base.board_max))
            if bound is not None
        ]
        if base.p_list:
            options.append(["", *(f"--p-list {p}" for p in base.p_list)])
        for combo in itertools.product(*options):
            extra = " ".join(c for c in combo if c)
            lines.append(f"verify --id {info.id} --profile quick {extra}".strip())
    return lines


def main() -> int:
    full = execute(["verify", "--id", "all", "--profile", "full"])
    if full.code != 0:
        print(f"full sweep exited {full.code}", file=sys.stderr)
        return 1
    counts = {
        r["identity"]: [r["pass"], r["fail"], r["skipped"]]
        for r in json.loads(full.text)
    }
    quick = {}
    for line in _quick_lines():
        out = execute(line.split())
        if out.code == 0:  # narrowed grids that come out empty exit 2
            quick[line] = hashlib.sha256(out.text.encode()).hexdigest()
    golden = {
        "verify_full": {
            "sha256": hashlib.sha256(full.text.encode()).hexdigest(),
            "bytes": full.nbytes,
            "counts": counts,
        },
        "verify_quick": quick,
    }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"{sum(map(sum, counts.values()))} full-profile cells, {len(quick)} quick lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
