"""Command-line entry point: ``python -m repro <command>``.

Dispatches to the experiment drivers and a few utility commands so the
whole evaluation is reachable without writing Python.  Running with no
command (or an unknown one) lists everything available.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import experiments

EXPERIMENTS = {
    "fig2": (experiments.fig2.main,
             "Figure 2: hardware lock elision on STAMP"),
    "fig3": (experiments.fig3.main,
             "Figure 3: PolyBench, 20 iterations"),
    "fig4": (experiments.fig4.main,
             "Figure 4: PolyBench, 50 iterations"),
    "fig5": (experiments.fig5.main,
             "Figure 5: macrobenchmarks"),
    "fig6": (experiments.fig6.main,
             "Figure 6: stutterp page reclaim"),
    "latency": (experiments.latency.main,
                "Prediction latency (vDSO vs syscall)"),
    "serve": (experiments.serve.main,
              "Event-driven serving sweep (10k-1M clients)"),
    "tenants": (experiments.tenants.main,
                "Multi-tenant shard scaling (htm+jit+mm)"),
}

UTILITIES = {
    "all": "run every experiment in sequence",
    "models": "list the registered predictor models",
    "check": "run the project invariant checker (docs/INVARIANTS.md)",
    "postmortem": "render a flight-recorder bundle (causal span tree "
                  "+ critical paths)",
}


def list_commands(out=None) -> None:
    """One line per available command, for discoverability."""
    out = out if out is not None else sys.stdout
    print("experiments:", file=out)
    for name, (_main, title) in EXPERIMENTS.items():
        print(f"  {name:<11}{title}", file=out)
    print("utilities:", file=out)
    for name, title in UTILITIES.items():
        print(f"  {name:<11}{title}", file=out)
    print(
        "\nshared flags (every experiment): --quick --seed N --report"
        "\nshared observability flags (every experiment, one "
        "implementation in repro.obs.obs_from_args):"
        "\n  --trace PATH        Chrome-trace event timeline + JSONL "
        "sibling"
        "\n  --metrics           latency histograms/counters, printed "
        "after the run"
        "\n  --slo               SLO health table over the run's trace "
        "(implies tracing)"
        "\n  --flight-recorder DIR"
        "\n                      post-mortem bundles on crash/chaos "
        "triggers"
        "\nsee `python -m repro --help` for per-command options "
        "(serve also takes --out PATH)",
        file=out,
    )


def cmd_models(_args: list[str]) -> int:
    from repro.core import registered_models

    print("registered predictor models:")
    for name in registered_models():
        print(f"  {name}")
    return 0


def cmd_all(args: list[str]) -> int:
    status = 0
    for name, (main, title) in EXPERIMENTS.items():
        print(f"\n=== {name}: {title} ===\n")
        status |= main(list(args))
    return status


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "check":
        # The checker owns its own flags (--format/--rules/...), so
        # dispatch before the experiment parser can reject them.
        from repro.analysis.cli import main as check_main

        return check_main(arguments[1:])
    if arguments and arguments[0] == "postmortem":
        # Takes a bundle path, not experiment flags - dispatch early
        # like `check` so the experiment parser never sees it.
        from repro.obs.postmortem import main as postmortem_main

        return postmortem_main(arguments[1:])
    if arguments and arguments[0] == "serve":
        # Owns its own flags (--out) beyond the shared set - dispatch
        # early like `check` so the experiment parser never rejects
        # them.  The shared obs flags are consumed by obs_from_args
        # inside the driver, same as every other experiment.
        from repro.bench.experiments.serve import main as serve_main

        return serve_main(arguments[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'A Prediction System Service' "
                     "(ASPLOS 2023)"),
        epilog=("commands: "
                + ", ".join([*EXPERIMENTS, *UTILITIES])
                + "; run with no command for one-line descriptions"),
    )
    parser.add_argument("command", nargs="?",
                        help="experiment or utility to run "
                             "(omit to list them)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweeps for a fast look")
    parser.add_argument("--report", action="store_true",
                        help="append per-domain fast-path effectiveness "
                             "(cache hit rates, weight generations) and "
                             "resilience summaries")
    parser.add_argument("--trace", metavar="PATH",
                        help="write a Chrome-trace (Perfetto-loadable) "
                             "event timeline to PATH, plus a JSONL "
                             "sibling")
    parser.add_argument("--metrics", action="store_true",
                        help="collect latency histograms and counters; "
                             "print a metrics snapshot after the run")
    parser.add_argument("--slo", action="store_true",
                        help="evaluate the stock SLO set over the run's "
                             "trace and print a health table (implies "
                             "tracing)")
    parser.add_argument("--flight-recorder", metavar="DIR",
                        help="record through a flight recorder that "
                             "dumps CRC-checked post-mortem bundles "
                             "into DIR on crash/chaos triggers (render "
                             "with `python -m repro postmortem`)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="RNG seed forwarded to drivers that accept "
                             "one (e.g. tenants): same seed, "
                             "byte-identical report")
    chaos = parser.add_argument_group(
        "chaos options (tenants --chaos)"
    )
    chaos.add_argument("--chaos", action="store_true",
                       help="run the tenants driver's seeded "
                            "crash/reshard chaos schedule")
    chaos.add_argument("--replicas", type=int, metavar="K",
                       help="follower replicas per shard (default 2)")
    chaos.add_argument("--reshard-at", metavar="ROUND:SHARDS[,...]",
                       help="live-reshard schedule, e.g. '6:4,14:3'")
    chaos.add_argument("--rounds", type=int, metavar="N",
                       help="chaos rounds to run")
    chaos.add_argument("--ops-per-round", type=int, metavar="N",
                       help="client operations per chaos round")
    chaos.add_argument("--crash-rate", type=float, metavar="P",
                       help="per-round shard-crash probability")
    chaos.add_argument("--snapshot-out", metavar="PATH",
                       help="write the final chaos domain state as "
                            "JSON to PATH")
    parsed = parser.parse_args(argv)

    if parsed.command is None:
        list_commands()
        return 2
    known = set(EXPERIMENTS) | set(UTILITIES)
    if parsed.command not in known:
        print(f"unknown command {parsed.command!r}; available commands:\n",
              file=sys.stderr)
        list_commands(out=sys.stderr)
        return 2

    passthrough = ["--quick"] if parsed.quick else []
    if parsed.report:
        passthrough.append("--report")
    if parsed.trace:
        passthrough.extend(["--trace", parsed.trace])
    if parsed.metrics:
        passthrough.append("--metrics")
    if parsed.slo:
        passthrough.append("--slo")
    if parsed.flight_recorder:
        passthrough.extend(["--flight-recorder", parsed.flight_recorder])
    if parsed.seed is not None:
        passthrough.extend(["--seed", str(parsed.seed)])
    if parsed.chaos:
        passthrough.append("--chaos")
    if parsed.replicas is not None:
        passthrough.extend(["--replicas", str(parsed.replicas)])
    if parsed.reshard_at is not None:
        passthrough.extend(["--reshard-at", parsed.reshard_at])
    if parsed.rounds is not None:
        passthrough.extend(["--rounds", str(parsed.rounds)])
    if parsed.ops_per_round is not None:
        passthrough.extend(["--ops-per-round",
                            str(parsed.ops_per_round)])
    if parsed.crash_rate is not None:
        passthrough.extend(["--crash-rate", str(parsed.crash_rate)])
    if parsed.snapshot_out is not None:
        passthrough.extend(["--snapshot-out", parsed.snapshot_out])
    if parsed.command == "models":
        return cmd_models(passthrough)
    if parsed.command == "all":
        return cmd_all(passthrough)
    return EXPERIMENTS[parsed.command][0](passthrough)


if __name__ == "__main__":
    sys.exit(main())
