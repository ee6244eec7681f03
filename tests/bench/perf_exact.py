"""Compare the exact outputs of ``perf/run.py --smoke`` with a golden.

Wall-clock numbers drift from host to host; what a smoke run *counts*
does not.  Per workload these are pinned, by name:

* from the untraced run: every entry of ``counts``, ``score_digest``,
  ``input_digest`` and the ``sim_*`` metrics;
* from the traced run: every metric whose unit is ``count``,
  ``fraction`` or ``sim_ns``, except the harness's own (``harness.*``).

Usage::

    python3 perf/run.py --smoke --out perf-smoke.json
    python3 tests/bench/perf_exact.py perf-smoke.json           # compare
    python3 tests/bench/perf_exact.py perf-smoke.json --write   # re-pin

A comparison prints every name whose value differs and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

GOLDEN = Path(__file__).parent / "golden" / "perf_smoke_exact.json"
EXACT_UNITS = ("count", "fraction", "sim_ns")


def exact_outputs(smoke: dict[str, Any]) -> dict[str, Any]:
    """``{"<workload>.<plain|traced>.<name>": value}`` of one smoke
    result file (its last trajectory entry)."""
    out: dict[str, Any] = {}
    for run in smoke["trajectory"][-1]["runs"]:
        workload, metrics = run["workload"], run["metrics"]
        if run["trace"]:
            for name, entry in metrics.items():
                if entry["unit"] in EXACT_UNITS \
                        and not name.startswith("harness."):
                    out[f"{workload}.traced.{name}"] = entry["value"]
            continue
        plain = dict(run["counts"], score_digest=run["score_digest"],
                     input_digest=run["input_digest"])
        plain.update((name, entry["value"])
                     for name, entry in metrics.items()
                     if name.startswith("sim_"))
        out.update((f"{workload}.plain.{name}", value)
                   for name, value in plain.items())
    return dict(sorted(out.items()))


def differences(golden: dict[str, Any], got: dict[str, Any]) -> list[str]:
    """One line per name missing from either side or valued otherwise."""
    return [f"{name}: golden {golden.get(name, '<absent>')!r}, "
            f"got {got.get(name, '<absent>')!r}"
            for name in sorted(golden.keys() | got.keys())
            if name not in golden or name not in got
            or golden[name] != got[name]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("smoke", help="a perf/run.py --smoke --out file")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the golden from this run")
    args = parser.parse_args(argv)
    got = exact_outputs(json.loads(Path(args.smoke).read_text()))
    if args.write:
        GOLDEN.write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {len(got)} values to {GOLDEN}")
        return 0
    diff = differences(json.loads(GOLDEN.read_text()), got)
    for line in diff:
        print(line)
    print(f"{len(diff)} of {len(got)} exact outputs differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
