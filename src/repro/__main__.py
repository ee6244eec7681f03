"""Command-line entry point: ``python -m repro <command>``.

One subcommand per experiment declaration (each run by
``repro.bench.runner``) plus a few utilities, so the whole evaluation is
reachable without writing Python.  Running with no command (or an
unknown one) lists everything available.
"""

from __future__ import annotations

import sys

from repro.bench.experiments import EXPERIMENTS
from repro.bench.runner import SHARED_FLAGS, run


def cmd_all(args: list[str]) -> int:
    status = 0
    for name, experiment in EXPERIMENTS.items():
        print(f"\n=== {name}: {experiment.title} ===\n")
        status |= run(experiment, args)
    return status


def cmd_models(_args: list[str]) -> int:
    from repro.core import registered_models

    print("registered predictor models:")
    for name in registered_models():
        print(f"  {name}")
    return 0


def cmd_postmortem(args: list[str]) -> int:
    from repro.obs.postmortem import main as postmortem_main

    return postmortem_main(args)


UTILITIES = {
    "all": (cmd_all, "run every experiment in sequence (shared flags "
                     "only)"),
    "models": (cmd_models, "list the registered predictor models"),
    "postmortem": (cmd_postmortem, "render a flight-recorder bundle "
                                   "(causal span tree + critical paths)"),
}


def usage(flags) -> str:
    return " ".join(
        names[0] + (f" {options['metavar']}" if "metavar" in options
                    else "")
        for names, options in flags)


def list_commands(out=None) -> None:
    """One line per available command, for discoverability."""
    out = out if out is not None else sys.stdout
    print("experiments:", file=out)
    for name, experiment in EXPERIMENTS.items():
        own = f" [{usage(experiment.flags)}]" if experiment.flags else ""
        print(f"  {name:<11}{experiment.title}{own}", file=out)
    print("utilities:", file=out)
    for name, (_command, title) in UTILITIES.items():
        print(f"  {name:<11}{title}", file=out)
    print(f"\nshared flags (every experiment): {usage(SHARED_FLAGS)}"
          "\nsee `python -m repro <command> --help` for what each flag "
          "does", file=out)


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if not arguments:
        list_commands()
        return 2
    command, rest = arguments[0], arguments[1:]
    if command in EXPERIMENTS:
        return run(EXPERIMENTS[command], rest)
    if command in UTILITIES:
        return UTILITIES[command][0](rest)
    if command in ("-h", "--help"):
        list_commands()
        return 0
    print(f"unknown command {command!r}; available commands:\n",
          file=sys.stderr)
    list_commands(out=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
