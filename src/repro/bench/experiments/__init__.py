"""The experiments: one declaration per paper table/figure.

Each module declares an :class:`~repro.bench.runner.Experiment` - its
grid of cells, the cell function and the table renderer - and
``repro.bench.runner.run`` runs it; ``python -m repro <name>`` is the
command line for each entry of :data:`EXPERIMENTS`.
"""

from repro.bench.experiments.chaos import CHAOS
from repro.bench.experiments.fig2 import FIG2
from repro.bench.experiments.fig5 import FIG5
from repro.bench.experiments.fig6 import FIG6
from repro.bench.experiments.latency import LATENCY
from repro.bench.experiments.polybench import FIG3, FIG4
from repro.bench.experiments.serve import SERVE
from repro.bench.experiments.tenants import TENANTS

#: every experiment, by command name, in the order ``all`` runs them
EXPERIMENTS = {
    experiment.name: experiment
    for experiment in (FIG2, FIG3, FIG4, FIG5, FIG6, LATENCY, SERVE,
                       TENANTS, CHAOS)
}

__all__ = ["EXPERIMENTS"]
