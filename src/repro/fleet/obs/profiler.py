"""Wall-clock profiling hooks around the dispatch loop.

Everything else in :mod:`repro.fleet.obs` records *simulation* time;
this module is the one deliberate exception — it measures where the
simulator itself spends host CPU, because the ROADMAP's vectorized
event core needs a measured baseline ("profile `large`/`edge` first")
before any speedup claim can be gated.

The profiler instruments by *instance* method wrapping: ``install``
replaces the scheduler's placement/defrag/preemption entry points and
the kernel's ``step`` with timing shims on those objects only, so an
uninstrumented run (the default, and every benchmark) executes the
original bound methods with zero indirection.  Wall-clock readings
feed only these counters — never the simulation — so an instrumented
run still produces byte-identical results.

Phases nest: the placement/defrag/cross-pod/preemption rungs run
inside ``dispatch``, which runs inside event application.  The report
prints leaf phases as shares of total run wall, not as a partition.

This module is also the anchor of detlint's **D002 wall-clock
allowlist** (``repro.analysis.determinism``).  The static analyzer
bans host-clock reads everywhere in the package, with exactly two
exemptions: this file wholesale (measuring host time *is* its job),
and — in ``fleet/simulator.py`` — only functions that stamp a
profiler's ``run_seconds``, which pins the engine's best-of-N timing
reads and nothing else.  Adding a
``time.*`` call anywhere outside those sites fails the CI lint gate;
if a new sanctioned reader is ever needed, extend the allowlist in
``repro/analysis/determinism.py`` alongside a justification here.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # import cycle guard (scheduler imports obs)
    from repro.fleet.scheduler import FleetScheduler
    from repro.sim.events import Simulator

#: Instrumented phases: (phase name, target object, method name).
#: ``_preempt_for`` covers the cross-pod preemption path too (it
#: delegates); wrapping ``_preempt_cross_pod`` as well would double
#: count the nested time.
SCHEDULER_PHASES = (
    ("dispatch_total", "dispatch"),
    ("placement_scoring", "_find_anywhere"),
    ("defrag_planning", "_defrag_for"),
    ("cross_pod_planning", "_find_cross_pod"),
    ("preemption_search", "_preempt_for"),
)
SIM_PHASES = (("event_apply", "step"),)


class DispatchProfiler:
    """Accumulates wall-clock seconds and call counts per phase."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: Wall seconds of the whole run, stamped by the simulator.
        self.run_seconds: float = 0.0

    def _wrap(self, phase: str,
              method: Callable[..., Any]) -> Callable[..., Any]:
        self.seconds.setdefault(phase, 0.0)
        self.calls.setdefault(phase, 0)

        def timed(*args: Any, **kwargs: Any) -> Any:
            began = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                self.seconds[phase] += time.perf_counter() - began
                self.calls[phase] += 1
        return timed

    def install(self, scheduler: "FleetScheduler",
                sim: "Simulator") -> None:
        """Shadow the hot methods on these instances with timing shims."""
        for phase, name in SCHEDULER_PHASES:
            setattr(scheduler, name,
                    self._wrap(phase, getattr(scheduler, name)))
        for phase, name in SIM_PHASES:
            # Instance-attribute shadowing: Simulator.run calls
            # self.step(), which resolves to this shim.
            setattr(sim, name, self._wrap(phase, getattr(sim, name)))

    def report(self) -> dict[str, Any]:
        """The counters as a plain dict (for JSON or assertions)."""
        return {
            "run_seconds": self.run_seconds,
            "phases": {phase: {"seconds": self.seconds[phase],
                               "calls": self.calls[phase]}
                       for phase in sorted(self.seconds)},
        }

    def render(self) -> str:
        """Human-readable profile table."""
        lines = [f"dispatch-loop profile: run wall "
                 f"{self.run_seconds:.3f}s (phases nest; shares are "
                 f"of run wall, not a partition)",
                 f"  {'phase':<20} {'calls':>10} {'seconds':>10} "
                 f"{'share':>7} {'us/call':>9}"]
        order = [phase for phase, _ in SIM_PHASES] + \
                [phase for phase, _ in SCHEDULER_PHASES]
        for phase in order:
            if phase not in self.seconds:
                continue
            seconds = self.seconds[phase]
            calls = self.calls[phase]
            share = seconds / self.run_seconds \
                if self.run_seconds > 0 else 0.0
            per_call = seconds / calls * 1e6 if calls else 0.0
            lines.append(f"  {phase:<20} {calls:>10} {seconds:>10.3f} "
                         f"{share:>6.1%} {per_call:>9.1f}")
        return "\n".join(lines)
