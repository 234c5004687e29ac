"""Command-line interface: one table of verbs, and the experiment loop.

:data:`COMMANDS` names every verb once, with the module that runs it and
a one-line help; ``bmbp --help`` prints it.  A package verb (``serve``,
``corpus``, ...) is dispatched to its module's ``main(argv) -> int``,
which owns the verb's parser.  The experiment verbs regenerate the
paper's tables and figures through the loop here, sharing its flags::

    python -m repro table3 --scale 0.2 --seed 11
    python -m repro all --jobs 4           # fan replays out over 4 workers
    python -m repro figure1 --csv out.csv  # also dump plot-ready CSV

Replays fan out over ``--jobs`` worker processes (default: ``BMBP_JOBS``
or 1) and their results persist in a versioned on-disk cache, so a warm
rerun does zero replays.  ``--no-cache`` bypasses the cache for one run;
``clear-cache`` wipes it.  A per-experiment timing summary (wall-clock,
cache hits, replays) goes to stderr so table output on stdout stays
byte-identical across serial, parallel, and cached runs.

``bmbp`` (the console script) is an alias for ``python -m repro``.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

from repro import runtime
from repro.experiments.runner import ExperimentConfig

__all__ = ["COMMANDS", "main"]

#: Every verb: name -> (module, one-line help).  A module under
#: ``repro.experiments`` has ``main(config) -> str`` and runs in the
#: experiment loop below, as do the loop's own ``all`` and ``clear-cache``;
#: every other module has ``main(argv) -> int``.
COMMANDS: Dict[str, Tuple[str, str]] = {
    "table1": ("repro.experiments.table1",
               "Table 1: the job-submittal trace inventory"),
    "table3": ("repro.experiments.table3",
               "Table 3: fraction of correct predictions per queue"),
    "table4": ("repro.experiments.table4",
               "Table 4: median ratio of actual to predicted wait"),
    "table5": ("repro.experiments.table5",
               "Table 5: BMBP correctness by processor-count range"),
    "table6": ("repro.experiments.table6",
               "Table 6: log-normal (no trimming) correctness by range"),
    "table7": ("repro.experiments.table7",
               "Table 7: log-normal (BMBP trimming) correctness by range"),
    "table8": ("repro.experiments.table8",
               "Table 8: one day in the life of datastar/normal"),
    "figure1": ("repro.experiments.figure1",
                "Figure 1: bounds at two sites across one day"),
    "figure2": ("repro.experiments.figure2",
                "Figure 2: small-job vs large-job bounds, June 2004"),
    "ablations": ("repro.experiments.ablations",
                  "ablations of the design choices in DESIGN.md"),
    "latency": ("repro.experiments.latency",
                "prediction latency (Section 5's timing claim)"),
    "sensitivity": ("repro.experiments.sensitivity",
                    "quantile/confidence sensitivity sweep"),
    "clustering": ("repro.experiments.clustering_eval",
                   "grouping strategies: population, fixed bins, clusters"),
    "all": (__name__, "every experiment above, in order"),
    "clear-cache": (__name__, "wipe the persistent replay cache and exit"),
    "serve": ("repro.server.daemon", "run the live forecast daemon"),
    "tail": ("repro.server.tail", "feed a daemon from an SWF trace file"),
    "fleet": ("repro.fleet.manager",
              "run a sharded, replicated fleet of forecast daemons"),
    "verify": ("repro.verify.runner",
               "run the self-verification suite and write VERIFY.json"),
    "broker": ("repro.broker.daemon",
               "run the multi-site routing broker daemon"),
    "route": ("repro.broker.broker",
              "ask where to submit a job (broker daemon or --site specs)"),
    "bench-route": ("repro.broker.evaluate",
                    "score routing regret over K sites, write BENCH_route.json"),
    "bench-sched": ("repro.scheduler.evaluate",
                    "score bound-aware scheduling policies, write "
                    "BENCH_sched.json"),
    "corpus": ("repro.corpus.cli",
               "ingest, inspect, and replay archive-scale trace corpora"),
    "archive": ("repro.workloads.archive",
                "list registered archive logs / verify a downloaded log"),
}

#: The experiment verbs (name -> module), in the order ``all`` runs them.
EXPERIMENTS: Dict[str, str] = {
    name: module for name, (module, _) in COMMANDS.items()
    if module.startswith("repro.experiments.")
}


def build_parser() -> argparse.ArgumentParser:
    """The experiment loop's parser; its epilog lists every verb."""
    width = max(map(len, COMMANDS))
    parser = argparse.ArgumentParser(
        prog="bmbp",
        description=(
            "Regenerate the tables and figures of 'Predicting Bounds on "
            "Queuing Delay in Space-shared Computing Environments' "
            "(Brevik, Nurmi, Wolski), or run the live forecast service."
        ),
        epilog="commands (bmbp COMMAND --help shows a command's flags):\n"
        + "\n".join(
            f"  {name:<{width}}  {text}" for name, (_, text) in COMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment", metavar="command", choices=list(COMMANDS),
        help="one of the commands below; the flags here apply to the "
        "experiments, all and clear-cache",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=ExperimentConfig.scale,
        help="fraction of each queue's Table 1 job count to generate "
        "(default %(default)s; 1.0 regenerates the full 1.26M-job corpus)",
    )
    parser.add_argument(
        "--seed", type=int, default=ExperimentConfig.seed,
        help="workload generator seed (default %(default)s)",
    )
    parser.add_argument(
        "--epoch", type=float, default=ExperimentConfig.epoch,
        help="predictor refit epoch in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--csv", metavar="PATH", default=None,
        help="for figure1/figure2: also write the plotted series as CSV",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for replay fan-out (default: $BMBP_JOBS or 1; "
        "1 = serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent replay cache (neither read nor write)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = argv[0] if argv else None
    module = COMMANDS.get(verb, (__name__,))[0]
    if module != __name__ and verb not in EXPERIMENTS:
        return importlib.import_module(module).main(argv[1:])
    args = build_parser().parse_args(argv)
    config = ExperimentConfig(scale=args.scale, seed=args.seed, epoch=args.epoch)

    if args.experiment == "clear-cache":
        removed = runtime.clear_disk_cache()
        print(
            f"replay cache cleared ({removed} entries removed from "
            f"{runtime.default_cache_dir()})"
        )
        return 0

    runtime.configure(jobs=args.jobs, cache=False if args.no_cache else None)
    jobs = runtime.resolve_jobs()

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failed: List[str] = []
    total = 0.0
    for i, name in enumerate(names):
        if i:
            print()
        before = runtime.stats()
        started = time.perf_counter()
        try:
            output = importlib.import_module(EXPERIMENTS[name]).main(config)
        except Exception:
            # Worker tracebacks (runtime.WorkerError carries the remote one
            # verbatim) must surface, not vanish into a half-printed run.
            failed.append(name)
            print(f"[bmbp] {name} FAILED:", file=sys.stderr)
            traceback.print_exc()
            continue
        elapsed = time.perf_counter() - started
        total += elapsed
        print(output)
        delta = runtime.stats().since(before)
        print(
            f"[bmbp] {name}: {elapsed:.2f}s ({delta.summary()} jobs={jobs})",
            file=sys.stderr,
        )

    if args.experiment == "all":
        print(
            f"[bmbp] all: {len(names) - len(failed)}/{len(names)} experiments ok, "
            f"{total:.2f}s total"
            + (f", FAILED: {', '.join(failed)}" if failed else ""),
            file=sys.stderr,
        )
    if failed:
        return 1

    if args.csv is not None:
        if args.experiment not in ("figure1", "figure2"):
            print("--csv is only meaningful for figure1/figure2", file=sys.stderr)
            return 2
        figure = importlib.import_module(EXPERIMENTS[args.experiment])
        run = getattr(figure, f"run_{args.experiment}")
        figure.write_series_csv(run(config), args.csv)
        print(f"\nseries written to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
