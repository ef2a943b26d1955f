"""Run one sniffer benchmark workload and print its metrics as JSON.

    python3 sniffbench/run.py --workload live --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up at least twice and repeats its
timed phase until ``--seconds`` of it are measured, then prints the
end-to-end metrics: medians over those repetitions.  ``--trace 1``
measures one set-up's share untraced, then prints the per-layer
metrics of one more, traced set-up and timed phase, and writes its
spans to ``sniffbench/out/``.  Progress goes to standard error; the
last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no program source at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.obs import reset  # noqa: E402

from sniffbench.layers import (  # noqa: E402
    Phase,
    Recorder,
    install,
    layer_metrics,
)
from sniffbench.workloads import (  # noqa: E402
    BENCH,
    WORKLOADS,
    Outcome,
    Scale,
    Stopwatch,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 2

TRACE_DIR = ROOT / "sniffbench" / "out"


@dataclass
class Runs:
    """Every repetition of one benchmark run."""

    setup_s: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def measured_s(self) -> float:
        return sum(outcome.wall_s for outcome in self.outcomes)

    def problems(self) -> list[str]:
        found = [p for outcome in self.outcomes for p in outcome.problems]
        if len({outcome.digest for outcome in self.outcomes}) > 1:
            found.append("repetitions of one seed gave different outputs")
        return found

    def attempted_failed(self) -> tuple[int, int]:
        """Operations over the run; all of them fail if a check failed."""
        attempted = sum(outcome.attempted for outcome in self.outcomes)
        if self.problems():
            return attempted, attempted
        return attempted, sum(outcome.failed for outcome in self.outcomes)


def log(message: str) -> None:
    print(f"[sniffbench] {message}", file=sys.stderr, flush=True)


def measure(
    workload, seed: int, seconds: float, setups: int = SETUPS
) -> Runs:
    """Untraced repetitions until ``seconds`` of timed phase are measured.

    A reusable set-up feeds several timed phases; the timed phases are
    spread evenly over at least ``setups`` set-ups.
    """
    runs = Runs()
    while len(runs.setup_s) < setups or runs.measured_s < seconds:
        reset()
        start = time.perf_counter()
        state = workload.setup(seed)
        runs.setup_s.append(time.perf_counter() - start)
        log(f"{workload.name} set-up {runs.setup_s[-1]:.2f}s")
        share = seconds * len(runs.setup_s) / setups
        while True:
            gc.collect()
            outcome = workload.run(
                state, Stopwatch(), reference=not runs.outcomes
            )
            runs.outcomes.append(outcome)
            log(
                f"{workload.name} timed {outcome.wall_s:.3f}s, "
                f"{outcome.work} units, problems {outcome.problems}"
            )
            if not workload.reusable or runs.measured_s >= share:
                break
        del state
        gc.collect()
    return runs


def end_to_end(runs: Runs) -> dict[str, tuple[float, str]]:
    attempted, failed = runs.attempted_failed()
    rates = [outcome.work / outcome.wall_s for outcome in runs.outcomes]
    return {
        "setup_s": (statistics.median(runs.setup_s), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MiB",
        ),
        "throughput_per_s": (statistics.median(rates), "1/s"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
        "spam_f1": (runs.outcomes[0].f1, "ratio"),
    }


def traced_repetition(
    workload, seed: int
) -> tuple[Recorder, Phase, Outcome]:
    """One set-up and timed phase with every layer's entry point wrapped."""
    recorder = Recorder()
    with install(recorder):
        reset()
        with Phase(recorder, "setup"):
            state = workload.setup(seed)
        timed = Phase(recorder, "timed")
        outcome = workload.run(state, timed, reference=False)
    return recorder, timed, outcome


def traced(workload, seed: int, runs: Runs):
    """Per-layer metrics of one traced repetition, and its outcome."""
    recorder, timed, outcome = traced_repetition(workload, seed)
    unaccounted = recorder.unaccounted_s("timed")
    if abs(unaccounted) > 1e-6:
        outcome.problems.append(
            f"layer self times miss the wall time by {unaccounted:.3g}s"
        )
    metrics = layer_metrics(
        recorder,
        timed,
        untraced_wall_s=statistics.median(o.wall_s for o in runs.outcomes),
        batch_gaps_ms=[g for o in runs.outcomes for g in o.batch_gaps_ms],
    )
    recorder.write(
        TRACE_DIR / f"{workload.name}-seed{seed}.json",
        workload=workload.name,
        seed=seed,
    )
    return metrics, outcome


def result(
    runs: Runs, metrics: dict[str, tuple[float, str]]
) -> dict[str, object]:
    attempted, failed = runs.attempted_failed()
    return {
        "correct": not runs.problems(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None, scale: Scale = BENCH) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](scale)
    if args.trace:
        # The untraced baseline of a traced run is one set-up's share.
        runs = measure(workload, args.seed, args.seconds / SETUPS, setups=1)
        metrics, outcome = traced(workload, args.seed, runs)
        runs.outcomes.append(outcome)
    else:
        runs = measure(workload, args.seed, args.seconds)
        metrics = end_to_end(runs)
    for problem in runs.problems():
        log(f"CHECK FAILED: {problem}")
    print(json.dumps(result(runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
