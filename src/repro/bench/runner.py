"""One runner for every experiment: a grid of cells, a cell, a table.

An :class:`Experiment` declares only what is particular to one figure:
the flags it reads, its grid of independent seeded cells, the cell
function that turns one cell into its row, and the renderer that turns
the rows into the printed table.  :func:`run` does the rest, the same
way for all of them: one argparse parser (the shared ``--quick`` and
observability flags plus the experiment's own), one
:class:`~repro.obs.session.ObsSession`, the cells run serially in grid
order, the rendered text, any files the experiment writes, then the
session's summary.

A cell builds its own service from the run's tracer and metrics, so it
depends on nothing but its grid entry: running the last cell alone
returns the row it returns inside the grid.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.session import ObsSession


def flag(*names: str, **options: Any) -> tuple[tuple[str, ...], dict]:
    """One ``ArgumentParser.add_argument`` call, declared as data."""
    return names, options


#: the flags every experiment accepts
SHARED_FLAGS = (
    flag("--quick", action="store_true",
         help="reduced sweeps for a fast look"),
    flag("--trace", metavar="PATH",
         help="write a Chrome-trace (Perfetto-loadable) event timeline "
              "to PATH, plus a JSONL sibling"),
    flag("--metrics", action="store_true",
         help="collect latency histograms and counters; print a metrics "
              "snapshot after the run"),
    flag("--slo", action="store_true",
         help="evaluate the stock SLO set over the run's trace and print "
              "a health table (implies tracing)"),
    flag("--flight-recorder", metavar="DIR",
         help="record through a flight recorder that dumps CRC-checked "
              "post-mortem bundles into DIR on crash/chaos triggers "
              "(render with `python -m repro postmortem`)"),
)

SEED = flag("--seed", type=int, default=0, metavar="N",
            help="RNG seed for the deterministic schedule; same seed, "
                 "byte-identical output (default: 0)")

REPORT = flag("--report", action="store_true",
              help="append per-domain fast-path effectiveness (cache "
                   "hit rates, weight generations)")


@dataclass(frozen=True)
class Experiment:
    """Everything one experiment declares; :func:`run` does the rest."""

    name: str
    title: str
    #: parsed flags -> the cells, in print order
    grid: Callable[[argparse.Namespace], list]
    #: (cell, tracer or None, metrics or None) -> the cell's row
    cell: Callable[[Any, Any, Any], Any]
    #: (rows in grid order, parsed flags) -> the printed text
    render: Callable[[list, argparse.Namespace], str]
    #: the flags only this experiment reads (see :func:`flag`)
    flags: tuple = ()
    #: (rows, parsed flags) -> writes the experiment's files and
    #: returns what to print about them ("" for nothing)
    write: Callable[[list, argparse.Namespace], str] | None = None
    #: rows -> exit status (0 when not given)
    status: Callable[[list], int] | None = None


def parse(experiment: Experiment,
          argv: list[str] | None = None) -> argparse.Namespace:
    """The shared flags plus the experiment's own; anything else is
    refused with argparse's message and exit status 2."""
    parser = argparse.ArgumentParser(prog=f"repro {experiment.name}",
                                     description=experiment.title)
    for names, options in SHARED_FLAGS + experiment.flags:
        parser.add_argument(*names, **options)
    return parser.parse_args(argv)


def rows(experiment: Experiment, args: argparse.Namespace,
         tracer=None, metrics=None) -> list:
    """Every cell of the grid, serially, in grid order."""
    return [experiment.cell(cell, tracer, metrics)
            for cell in experiment.grid(args)]


def run(experiment: Experiment, argv: list[str] | None = None) -> int:
    """Parse, run the grid, print the table and the session summary."""
    args = parse(experiment, argv)
    session = ObsSession.open(args.trace, args.metrics, args.slo,
                              args.flight_recorder)
    results = rows(experiment, args,
                   session.tracer if session.tracer.enabled else None,
                   session.metrics)
    print(experiment.render(results, args))
    if experiment.write is not None:
        written = experiment.write(results, args)
        if written:
            print(written)
    if session.active:
        summary = session.finish()
        if summary:
            print()
            print(summary)
    return experiment.status(results) if experiment.status else 0
