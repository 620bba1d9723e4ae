"""One experiment module per paper table/figure.

Every experiment returns an :class:`~repro.experiments.base.ExperimentResult`
carrying structured rows, the paper's published claims, and our measured
values; `render()` prints the paper-vs-measured comparison.  The registry
maps experiment ids ('table1', 'figure6', 'section73', ...) to runners;
`python -m repro run <id>` prints one report, and `benchmarks/` times the
runners and asserts each artifact's headline claims.
"""

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, list_experiments, run

__all__ = ["ExperimentResult", "EXPERIMENTS", "list_experiments", "run"]
