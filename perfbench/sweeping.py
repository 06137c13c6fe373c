"""paper-sweep: the Figure 2 and Figure 3 sweeps of Table 5, serial and cold.

K=4..10 and N=60..180 with 5 replications of vfk, drp, drp-cds and gopt,
through ``run_experiment`` with no workers and no warm start, as
``repro figure`` runs them by default.  Every N here is below the DRP
backend crossover, so this is the only workload on the scalar side of
that switch, and it touches none of the serve layers.

The timed inputs are the figures' own: the Table 5 grid and the
workload seeds fixed in the figure configs, so every timed sweep is
checked against the committed ``benchmarks/results/figure{2,3}.csv``.
With the workload seeds drawn from ``--seed`` instead, GOPT's early stop
made a sweep's work differ by up to 10% from seed to seed.  ``--seed``
draws the workloads of one extra DRP-CDS-only sweep, untimed, which
feeds the waiting-time guard.

Each sweep value runs as its own ``run_experiment`` call on a one-value
copy of the figure's config with the same workload seeds, so one call
yields one figure data point and its latency is a sample.  A timed sweep
marks each call, each allocator call, each step of a GOPT generation and
each CDS move or partition-DP layer (see ``marks.py``).
"""

from __future__ import annotations

import csv
import subprocess
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.baselines.gopt as gopt_module
import repro.experiments.runner as runner_module
from repro.core.cds import cds_refine
from repro.core.drp import drp_allocate
from repro.exceptions import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import figure2, figure3
from repro.experiments.runner import run_experiment
from repro.workloads.generator import WorkloadSpec, generate_database

import spans
from common import Tally, percentile
from marks import Fastest, Marks, marked, marking

SETUP_SAMPLES = 5
# Sweeps per run at least.  Every interval between marks keeps its
# fastest sweep.
MIN_SWEEPS = 2
# Seconds one sweep takes on a busy host.  A run makes as many sweeps as
# fit in ``--seconds`` at that pace, whatever the host's pace on the day:
# the fastest of more sweeps reads faster, so a count that followed the
# pace would amplify it.
SWEEP_BUDGET_S = 9.0
# The program loops marked at each step, and the steps of a GOPT
# generation marked on entry and return.
LOOPS = ("cds", "dp")
MARKED_CALLS = tuple(
    (gopt_module, name)
    for name in ("_tournament", "_crossover", "_mutate", "_repair", "_population_costs")
)


@dataclass
class Sweep:
    """Figure 2 then Figure 3, one data point per ``run_experiment`` call."""

    rows: Dict[str, List[Any]] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    cells: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    marks: Optional[Marks] = None
    # The first and last mark of each figure point, in sweep order.
    bounds: List[Tuple[int, int]] = field(default_factory=list)


def canonical_configs() -> List[ExperimentConfig]:
    return [figure2(), figure3()]


def seeded_drp_cds_configs(seed: int) -> List[ExperimentConfig]:
    return [
        replace(config, base_seed=seed, algorithms=("drp-cds",))
        for config in canonical_configs()
    ]


def point_configs(config: ExperimentConfig) -> List[ExperimentConfig]:
    """One single-value config per sweep value, same workload seeds."""
    return [
        replace(config, sweep_values=(value,), base_seed=config.seed_for(index, 0))
        for index, value in enumerate(config.sweep_values)
    ]


def cell_count(config: ExperimentConfig) -> int:
    return len(config.sweep_values) * config.replications * len(config.algorithms)


def marked_sweep(marks: Marks) -> ExitStack:
    """Mark the program's loops, each GOPT generation and each
    allocator call the runner makes."""
    original = runner_module.make_allocator

    def make_marked(name: str):
        allocator = original(name)
        allocator.allocate = marked(marks, allocator.allocate)
        return allocator

    stack = ExitStack()
    stack.enter_context(spans.replaced(runner_module, "make_allocator", make_marked))
    stack.enter_context(marking(marks, LOOPS, MARKED_CALLS))
    return stack


def run_sweep(
    configs: List[ExperimentConfig],
    recorder: Optional[spans.SpanRecorder] = None,
    marks: Optional[Marks] = None,
) -> Sweep:
    sweep = Sweep(marks=marks)
    start = perf_counter()
    with ExitStack() as stack:
        if marks is not None:
            stack.enter_context(marked_sweep(marks))
        for config in configs:
            _run_points(sweep, config, recorder)
    sweep.wall_s = perf_counter() - start
    return sweep


def _run_points(
    sweep: Sweep, config: ExperimentConfig, recorder: Optional[spans.SpanRecorder]
) -> None:
    rows = sweep.rows.setdefault(config.name, [])
    for point in point_configs(config):
        cells = cell_count(point)
        sweep.cells += cells
        began = perf_counter()
        first = None if sweep.marks is None else sweep.marks.mark()
        try:
            if recorder is None:
                result = run_experiment(point)
            else:
                with spans.span(recorder, "runner.run"):
                    result = run_experiment(point)
        except ReproError as exc:
            sweep.failed += cells
            sweep.problems.append(f"{point.name}: {type(exc).__name__}: {exc}")
            continue
        sweep.latencies.append(perf_counter() - began)
        if first is not None:
            sweep.bounds.append((first, sweep.marks.mark()))
        rows.extend(result.rows)
        sweep.failed += len(result.errors)
        sweep.problems.extend(
            f"{point.name}: cell error {error}" for error in result.errors
        )


def golden_problems(sweep: Sweep, results_dir: Path) -> List[str]:
    """Rows whose mean cost differs from the committed figure CSVs."""
    problems = []
    for name, rows in sweep.rows.items():
        with (results_dir / f"{name}.csv").open(newline="") as handle:
            expected = [
                (float(row["sweep_value"]), row["algorithm"], float(row["mean_cost"]))
                for row in csv.DictReader(handle)
            ]
        got = [(row.sweep_value, row.algorithm, row.mean_cost) for row in rows]
        if got != expected:
            problems.append(f"{name}: mean_cost rows differ from {name}.csv")
    return problems


def row_values(sweep: Sweep) -> List[tuple]:
    """Every deterministic field of every row (elapsed times excluded)."""
    return [
        (
            name,
            row.sweep_value,
            row.algorithm,
            row.mean_cost,
            row.std_cost,
            row.mean_waiting_time,
            row.std_waiting_time,
            row.replications,
        )
        for name, rows in sweep.rows.items()
        for row in rows
    ]


# Run in a fresh interpreter: what ``repro figure`` does before its first
# cell is import the program (registering every allocator), build the
# allocators and generate the first workload.
SETUP_PROBE = """
import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, sys.argv[1])
from repro.core.scheduler import make_allocator
from repro.experiments.figures import figure2
from repro.experiments.runner import run_experiment
from repro.workloads.generator import WorkloadSpec, generate_database

config = figure2()
for name in config.algorithms:
    make_allocator(name)
point = config.point_parameters(config.sweep_values[0])
generate_database(
    WorkloadSpec(
        num_items=point.num_items,
        skewness=point.skewness,
        diversity=point.diversity,
        seed=config.seed_for(0, 0),
    )
)
print(perf_counter() - start)
"""


def time_setup(src: Path) -> float:
    """Seconds from a cold interpreter to the sweep's first cell."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def layer_patches(recorder: spans.SpanRecorder) -> ExitStack:
    """Wrap the names the runner calls; each allocator's ``allocate``
    gets a span named after its algorithm."""
    original = runner_module.make_allocator

    def make_traced(name: str):
        allocator = original(name)
        allocator.allocate = spans.traced(recorder, f"alloc.{name}", allocator.allocate)
        return allocator

    stack = ExitStack()
    stack.enter_context(spans.replaced(runner_module, "make_allocator", make_traced))
    stack.enter_context(
        spans.patched(
            recorder,
            [
                (runner_module, "generate_database", "generator.generate_database",
                 None),
                (runner_module, "average_waiting_time", "cost.average_waiting_time",
                 None),
                (runner_module, "merge_outcomes", "runner.merge", None),
            ],
        )
    )
    return stack


def drp_cds_wait(sweeps: Sequence[Sweep]) -> float:
    """Mean over ``sweeps`` of each one's mean DRP-CDS waiting time."""
    means = []
    for sweep in sweeps:
        waits = [
            row.mean_waiting_time
            for rows in sweep.rows.values()
            for row in rows
            if row.algorithm == "drp-cds"
        ]
        means.append(sum(waits) / len(waits))
    return sum(means) / len(means)


class SweepWorkload:
    """One paper-sweep run: timed figure sweeps, each checked."""

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.src = root / "src"
        self.results_dir = root / "benchmarks" / "results"
        self.tally = Tally()

    def _sweep(
        self,
        recorder: Optional[spans.SpanRecorder] = None,
        marks: Optional[Marks] = None,
    ) -> Sweep:
        """One sweep of both figures, booked with the golden check."""
        sweep = run_sweep(canonical_configs(), recorder, marks)
        problems = [*sweep.problems, *golden_problems(sweep, self.results_dir)]
        self.tally.add(sweep.cells, sweep.failed, problems)
        return sweep

    def _same_rows(self, first: Sweep, sweep: Sweep) -> None:
        if row_values(sweep) != row_values(first):
            self.tally.fail("rows differ between repeated sweeps", sweep.cells)

    def measure(self, seconds: float) -> Dict[str, float]:
        """Untraced: the seeded DRP-CDS sweep, then as many marked figure
        sweeps as fit in ``seconds`` on a busy host."""
        setups = [time_setup(self.src) for _ in range(SETUP_SAMPLES)]
        seeded = run_sweep(seeded_drp_cds_configs(self.seed))
        self.tally.add(seeded.cells, seeded.failed, seeded.problems)
        fastest = Fastest()
        first: Optional[Sweep] = None
        for _ in range(max(MIN_SWEEPS, int(seconds // SWEEP_BUDGET_S))):
            sweep = self._sweep(marks=Marks())
            if first is None:
                first = sweep
            else:
                self._same_rows(first, sweep)
            if not (fastest.add(sweep.marks) and sweep.bounds == first.bounds):
                self.tally.fail("repeated sweeps marked different work", first.cells)
                break
        cum = fastest.cumulative()
        points = [cum[last] - cum[start] for start, last in first.bounds]
        self.samples = {
            "sweeps": fastest.repeats,
            "setups": len(setups),
            "marks": len(first.marks.times),
            "points": len(points),
        }
        return {
            "setup_s": percentile(setups, 50),
            "ops_per_s": first.cells / sum(points),
            "latency_p50_ms": 1000.0 * percentile(points, 50),
            "latency_p90_ms": 1000.0 * percentile(points, 90),
            # The fixed figure rows halve the seed-to-seed spread.
            "wait_mean_s": drp_cds_wait([first, seeded]),
        }

    def trace(self) -> Dict[str, float]:
        """Traced: one untraced and one traced sweep, whose rows must
        agree."""
        plain = self._sweep()
        recorder = spans.SpanRecorder()
        with layer_patches(recorder):
            traced = self._sweep(recorder)
        self._same_rows(plain, traced)
        self.recorder = recorder
        self.samples = {"sweeps": 2}
        return {
            "obs.tracing_overhead_ratio": recorder.root_seconds("runner.run")
            / sum(plain.latencies)
        }

    def provenance(self) -> Dict[str, Any]:
        """DRP backend and CDS scan each figure point resolves to."""
        resolved = {}
        for config in canonical_configs():
            for index, value in enumerate(config.sweep_values):
                point = config.point_parameters(value)
                database = generate_database(
                    WorkloadSpec(
                        num_items=point.num_items,
                        skewness=point.skewness,
                        diversity=point.diversity,
                        seed=config.seed_for(index, 0),
                    )
                )
                rough = drp_allocate(database, point.num_channels)
                key = f"N={point.num_items},K={point.num_channels}"
                resolved[key] = (
                    f"drp={rough.resolved_backend},"
                    f"cds={cds_refine(rough.allocation).scan_mode}"
                )
        return {"resolved": resolved}

    def close(self) -> None:
        pass
