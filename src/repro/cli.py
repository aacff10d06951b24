"""Command-line interface.

Installed as ``repro-ptg`` (see ``pyproject.toml``); also runnable as
``python -m repro``.  Sub-commands:

* ``run``      -- run declarative scenario spec(s) from a JSON file
  and/or ``--set`` overrides (the scenario API front door; specs with an
  ``arrivals`` section route to the streaming engine automatically),
* ``stream``   -- run an online arrival stream (Poisson / bursty MMPP /
  trace-driven) through the event-driven streaming scheduler and print
  the windowed metrics,
* ``validate`` -- run the schedule-invariant validator over the records
  of a campaign/scenario store directory,
* ``list``     -- list the entries of a scenario plugin registry
  (allocators, mappers, strategies, platforms, families, arrivals),
* ``table1``   -- print the platform Table 1 and the per-site summary,
* ``fig2``     -- run the mu sweep (Figure 2) at a configurable scale,
* ``fig3`` / ``fig4`` / ``fig5`` -- run a comparison figure at a
  configurable scale,
* ``campaign`` -- run a full campaign through the orchestration
  subsystem (parallel workers, persistent result store, resume),
* ``schedule`` -- schedule one generated workload with one strategy and
  print the per-application makespans and fairness metrics,
* ``generate`` -- generate a PTG and print it as JSON or DOT,
* ``trace``    -- run scenario spec(s) in-process under telemetry and
  write a Chrome/Perfetto trace (open it in https://ui.perfetto.dev),
* ``metrics``  -- fold the telemetry summaries stored in a campaign /
  scenario store back together and print the per-phase span table and
  the histogram quantiles (p50/p99 admission latency etc),
* ``serve``    -- run the long-lived admission daemon of a scenario
  (one streaming session per tenant behind JSON-over-HTTP endpoints,
  with checkpoint/restore through a campaign store),
* ``client``   -- talk to a running daemon (submit a streaming spec's
  arrivals, query status/schedule/metrics, checkpoint, shutdown).

All stochastic commands take ``--seed`` so results are reproducible.
The campaign-style commands (``fig3``/``fig4``/``fig5``/``campaign``)
accept ``--jobs`` (worker processes), ``--store`` (result directory) and
``--resume`` (continue an interrupted store); parallel and resumed runs
reproduce the serial aggregates exactly.

Progress output goes through the stdlib :mod:`logging` tree under the
``repro`` root logger: the global ``-q`` flag silences it (WARNING), the
global ``-v`` flag adds the library's debug lines (DEBUG).

The global ``--profile`` flag wraps any subcommand in :mod:`cProfile`
(through :mod:`repro.obs.profile`) and prints the 25 most expensive
entries by cumulative time to stderr, so new hot spots can be located
without editing code
(``repro-ptg --profile fig3 --workloads 1 --max-tasks 20``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro._version import __version__
from repro.constraints.registry import STRATEGY_NAMES, strategy
from repro.exceptions import ConfigurationError, ReproError
from repro.dag.fft import generate_fft_ptg
from repro.dag.generator import RandomPTGConfig, generate_random_ptg
from repro.dag.io import ptg_to_dot, ptg_to_json
from repro.dag.strassen import generate_strassen_ptg
from repro.experiments.figures import run_figure
from repro.experiments.mu_sweep import run_mu_sweep
from repro.experiments.reporting import render_figure, render_mu_sweep
from repro.experiments.runner import run_experiment
from repro.experiments.tables import table1_text
from repro.experiments.workload import APPLICATION_FAMILIES, WorkloadSpec, make_workload
from repro.obs.logs import configure_cli_logging, progress_logger, remove_cli_logging
from repro.platform import grid5000
from repro.utils.tables import format_table


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workloads", type=int, default=3,
        help="random workloads per PTG count (25 in the paper)",
    )
    parser.add_argument(
        "--ptg-counts", type=int, nargs="+", default=[2, 4, 6, 8, 10],
        help="numbers of concurrent PTGs",
    )
    parser.add_argument(
        "--platforms", nargs="+", default=None,
        choices=grid5000.site_names(),
        help="Grid'5000 sites to use (default: all four)",
    )
    parser.add_argument(
        "--max-tasks", type=int, default=None,
        help="cap random PTG sizes (smaller graphs run faster)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (0 or omitted = one per CPU when orchestrating)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="persist per-experiment results (JSONL + workload archive) to DIR",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted --store without re-running finished experiments",
    )


def _resolve_jobs(jobs: Optional[int]) -> Optional[int]:
    """Map the ``--jobs`` flag to a worker count (0 means one per CPU)."""
    if jobs is None or jobs > 0:
        return jobs
    from repro.campaigns.pool import default_jobs

    return default_jobs()


def _resolve_platforms(names: Optional[Sequence[str]]):
    if not names:
        return None
    return [grid5000.site(name) for name in names]


def _cmd_table1(args: argparse.Namespace) -> int:
    print(table1_text())
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    result = run_mu_sweep(
        characteristic=args.characteristic,
        family=args.family,
        ptg_counts=args.ptg_counts,
        workloads_per_point=args.workloads,
        platforms=_resolve_platforms(args.platforms),
        base_seed=args.seed,
        max_tasks=args.max_tasks,
    )
    print(render_mu_sweep(result))
    print(f"\nrecommended mu (knee of the trade-off): {result.recommended_mu():.2f}")
    return 0


def _cmd_figure(figure: int, args: argparse.Namespace) -> int:
    result = run_figure(
        figure,
        ptg_counts=args.ptg_counts,
        workloads_per_point=args.workloads,
        platforms=_resolve_platforms(args.platforms),
        base_seed=args.seed,
        max_tasks=args.max_tasks,
        jobs=_resolve_jobs(args.jobs),
        store=args.store,
        resume=args.resume,
    )
    print(render_figure(result))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaigns.orchestrator import orchestrate
    from repro.campaigns.pool import RetryPolicy
    from repro.experiments.reporting import render_campaign_summary
    from repro.experiments.runner import CampaignConfig

    if args.resume and not args.store:
        raise ConfigurationError("--resume requires --store")
    retry = None
    if getattr(args, "retries", 1) > 1:
        retry = RetryPolicy(attempts=args.retries)
    config = CampaignConfig(
        family=args.family,
        ptg_counts=tuple(args.ptg_counts),
        workloads_per_point=args.workloads,
        platforms=tuple(p for p in _resolve_platforms(args.platforms) or ()) or None,
        base_seed=args.seed,
        max_tasks=args.max_tasks,
    )
    progress = progress_logger()  # '-q' raises the log level above it
    run = orchestrate(
        config,
        store=args.store,
        jobs=_resolve_jobs(args.jobs),
        progress=progress,
        resume=args.resume,
        retry=retry,
        executor=getattr(args, "executor", None),
    )
    print(render_campaign_summary(run.result))
    stats = run.stats
    print(
        f"\nshards: {stats.total_shards} total, {stats.skipped_shards} resumed, "
        f"{stats.executed_shards} executed; own-makespan cache hit rate "
        f"{100.0 * stats.cache_hit_rate:.1f}%"
    )
    if stats.quarantined:
        print(
            f"\nquarantined {len(stats.quarantined)} shard(s) "
            f"(tracebacks in the store's 'quarantine' channel; "
            f"a later --resume re-runs them):"
        )
        for label in stats.quarantined:
            error = stats.failures.get(label, "").strip()
            cause = error.splitlines()[-1] if error else "unknown error"
            print(f"  {label}: {cause}")
        return 1
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        family=args.family, n_ptgs=args.n_ptgs, seed=args.seed, max_tasks=args.max_tasks
    )
    ptgs = make_workload(spec)
    platform = grid5000.site(args.platform)
    strategies = [strategy(args.strategy, family=args.family)]
    experiment = run_experiment(ptgs, platform, strategies, workload_label=spec.label())
    outcome = experiment.outcomes[strategies[0].name]
    rows = []
    for ptg in ptgs:
        rows.append(
            [
                ptg.name,
                ptg.n_tasks,
                outcome.betas[ptg.name],
                experiment.own_makespans[ptg.name],
                outcome.makespans[ptg.name],
                outcome.slowdowns[ptg.name],
            ]
        )
    print(
        format_table(
            ["application", "tasks", "beta", "M_own", "M_multi", "slowdown"],
            rows,
            title=(
                f"{spec.label()} on {platform.name} with {strategies[0].name} "
                f"(unfairness {outcome.unfairness:.3f}, batch makespan "
                f"{outcome.batch_makespan:.1f}s)"
            ),
        )
    )
    return 0


def _parse_set_override(text: str):
    """Parse one ``--set key=value`` into a (dotted key, parsed value) pair."""
    key, sep, raw = text.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ConfigurationError(
            f"--set expects KEY=VALUE (e.g. pipeline.allocator=hcpa), got {text!r}"
        )
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare words (hcpa, WPS-width, S,ES) stay strings
    return key, value


def _apply_set_override(payload: Dict, dotted_key: str, value) -> None:
    """Apply one override to a spec dict, creating nested sections as needed."""
    parts = dotted_key.split(".")
    target = payload
    for part in parts[:-1]:
        node = target.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigurationError(
                f"--set {dotted_key}: {part!r} is not a section"
            )
        target = node
    target[parts[-1]] = value


def _load_spec_documents(
    spec_path: Optional[str], overrides: Sequence[str]
) -> List[Dict]:
    """Load scenario document(s) from a JSON file and apply ``--set`` overrides."""
    if spec_path is not None:
        try:
            with open(spec_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise ConfigurationError(f"cannot read scenario file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{spec_path} is not valid JSON: {exc}")
    else:
        payload = {}  # the default scenario, customised via --set
    documents = payload if isinstance(payload, list) else [payload]
    for override in overrides or ():
        key, value = _parse_set_override(override)
        for document in documents:
            _apply_set_override(document, key, value)
    return documents


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.scenarios.run import run_scenarios
    from repro.scenarios.spec import load_specs

    if args.resume and not args.store:
        raise ConfigurationError("--resume requires --store")
    documents = _load_spec_documents(args.spec, args.set)
    specs = load_specs(documents)

    progress = progress_logger()  # '-q' raises the log level above it

    # streaming specs (an arrivals section) run on the streaming engine,
    # batch specs on the classic harness; a file may mix both.
    streaming = [s for s in specs if s.is_streaming]
    batch = [s for s in specs if not s.is_streaming]
    stream_results = []
    if streaming:
        from repro.streaming.run import run_stream_scenarios

        stream_results = run_stream_scenarios(
            streaming,
            jobs=_resolve_jobs(args.jobs),
            store=args.store,
            resume=args.resume,
            progress=progress,
        )
    results = []
    if batch:
        results = run_scenarios(
            batch,
            jobs=_resolve_jobs(args.jobs),
            store=args.store,
            resume=args.resume,
            progress=progress,
        )

    if args.format == "json":
        documents = [_scenario_result_dict(r) for r in results]
        documents += [_stream_result_dict(r) for r in stream_results]
        print(json.dumps(documents, indent=2))
        return 0
    for stream_result in stream_results:
        _print_stream_result(stream_result)
    for result in results:
        rows = []
        for name, outcome in result.experiment.outcomes.items():
            rows.append(
                [
                    name,
                    f"{outcome.unfairness:.3f}",
                    f"{outcome.batch_makespan:.1f}",
                    f"{outcome.mean_application_makespan:.1f}",
                ]
            )
        spec = result.spec
        print(
            format_table(
                ["strategy", "unfairness", "batch makespan", "mean app makespan"],
                rows,
                title=(
                    f"{spec.label()} | {spec.pipeline.allocator} + "
                    f"{spec.pipeline.mapper}"
                    f"{'' if spec.pipeline.packing else ' (no packing)'}"
                ),
            )
        )
        print()
    return 0


def _scenario_result_dict(result) -> Dict:
    """JSON document of one scenario result (``repro-ptg run --format json``)."""
    return {
        "spec": result.spec.to_dict(),
        "key": result.key,
        "outcomes": {
            name: {
                "unfairness": outcome.unfairness,
                "batch_makespan": outcome.batch_makespan,
                "mean_application_makespan": outcome.mean_application_makespan,
            }
            for name, outcome in result.experiment.outcomes.items()
        },
    }


def _stream_result_dict(result) -> Dict:
    """JSON document of one streaming result (without the schedule rows)."""
    outcomes = {}
    for name, outcome in result.outcomes.items():
        payload = outcome.to_dict()
        payload.pop("schedule_rows", None)
        outcomes[name] = payload
    return {"spec": result.spec.to_dict(), "key": result.key, "outcomes": outcomes}


def _print_stream_result(result) -> None:
    """Render the summary tables of one streaming scenario result."""
    spec = result.spec
    for name, outcome in result.outcomes.items():
        rows = [
            ["applications", outcome.n_arrivals],
            ["horizon (s)", f"{outcome.horizon:.1f}"],
            ["mean response (s)", f"{outcome.mean_response:.1f}"],
            ["max response (s)", f"{outcome.max_response:.1f}"],
            ["mean stall (s)", f"{outcome.mean_waiting:.1f}"],
            ["utilisation", f"{outcome.utilisation:.3f}"],
            ["packed tasks", outcome.packed_tasks],
            [
                "validator",
                "skipped" if outcome.valid is None
                else ("OK" if outcome.valid else "VIOLATIONS"),
            ],
        ]
        for tenant in sorted(outcome.tenant_stall):
            label = tenant or "(no tenant)"
            rows.append(
                [f"stall of {label} (s)", f"{outcome.tenant_stall[tenant]:.1f}"]
            )
        if outcome.faults is not None:
            metrics = outcome.faults.get("metrics", {})
            rows.append(["fault plan", outcome.faults.get("plan", "?")])
            rows.append(["fault events", int(metrics.get("events", 0))])
            rows.append(["killed tasks", int(metrics.get("killed_tasks", 0))])
            rows.append(
                ["failures (perturbed replay)", len(outcome.faults.get("failures", []))]
            )
            rows.append(
                ["makespan inflation", f"{metrics.get('makespan_inflation', 1.0):.3f}"]
            )
            rows.append(
                ["recovery latency (s)", f"{metrics.get('recovery_latency', 0.0):.1f}"]
            )
            rows.append(["work lost (proc-s)", f"{metrics.get('work_lost', 0.0):.1f}"])
            rows.append(
                ["work re-executed (proc-s)",
                 f"{metrics.get('work_reexecuted', 0.0):.1f}"]
            )
            repaired_valid = outcome.faults.get("valid")
            rows.append(
                [
                    "repair validator",
                    "skipped" if repaired_valid is None
                    else ("OK" if repaired_valid else "VIOLATIONS"),
                ]
            )
        print(
            format_table(
                ["metric", "value"],
                rows,
                title=f"{spec.label()} | {name} | {spec.pipeline.allocator}"
                      f"{'' if spec.pipeline.packing else ' (no packing)'}",
            )
        )
        windowed = outcome.windowed
        window_rows = [
            [
                f"{windowed.edges[i]:.0f}-{windowed.edges[i + 1]:.0f}",
                windowed.arrivals[i],
                windowed.completions[i],
                f"{windowed.utilisation[i]:.3f}",
                f"{windowed.fairness[i]:.3f}",
                f"{windowed.mean_response[i]:.1f}",
            ]
            for i in range(windowed.n_windows)
        ]
        print(
            format_table(
                ["window (s)", "arrivals", "done", "util", "unfairness", "mean resp"],
                window_rows,
                title=f"windowed metrics (window = {windowed.window:.1f}s)",
            )
        )
        print()


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.scenarios.spec import PipelineSpec, ScenarioSpec
    from repro.streaming.arrivals import load_trace
    from repro.streaming.run import run_stream_scenarios
    from repro.streaming.spec import ArrivalSpec

    if args.resume and not args.store:
        raise ConfigurationError("--resume requires --store")
    arrivals = ArrivalSpec(
        process=args.process,
        rate=args.rate,
        n_arrivals=args.arrivals,
        seed=args.seed,
        family=args.family,
        max_tasks=args.max_tasks,
        tenants=args.tenants,
        burst=args.burst,
        dwell=args.dwell,
        trace=tuple(load_trace(args.trace)) if args.trace else None,
    )
    spec = ScenarioSpec(
        platform=args.platform,
        pipeline=PipelineSpec(
            allocator=args.allocator, packing=not args.no_packing, mu=args.mu
        ),
        strategies=[args.strategy],
        arrivals=arrivals,
    )
    progress = progress_logger()  # '-q' raises the log level above it
    results = run_stream_scenarios(
        [spec],
        jobs=1,
        store=args.store,
        resume=args.resume,
        progress=progress,
    )
    if args.format == "json":
        print(json.dumps([_stream_result_dict(r) for r in results], indent=2))
    else:
        for result in results:
            _print_stream_result(result)
    if args.check:
        bad = [
            name
            for result in results
            for name, outcome in result.outcomes.items()
            if outcome.valid is False
        ]
        if bad:
            print(f"error: validator found violations in {bad}", file=sys.stderr)
            return 1
    return 0


def _existing_store(path: str):
    """The store at *path*, refusing a missing directory instead of creating it."""
    from repro.campaigns.store import CampaignStore

    if not os.path.isdir(path):
        raise ConfigurationError(f"store directory {path} does not exist")
    return CampaignStore(path)


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.scenarios.registry import PLATFORMS
    from repro.scenarios.spec import ScenarioSpec
    from repro.streaming.run import STREAM_CHANNEL, StreamScenarioResult
    from repro.streaming.spec import generate_arrivals
    from repro.validate import validate_experiment_metrics, validate_schedule

    store = _existing_store(args.store)
    total = 0
    failed = 0
    lines: List[str] = []

    for key, payload in store.iter_payloads(STREAM_CHANNEL):
        record = StreamScenarioResult.from_record(payload)
        spec: ScenarioSpec = record.spec
        # regenerating the arrivals (potentially thousands of PTGs) is
        # only worth it when some outcome actually archived its schedule
        platform = arrivals = ptgs = releases = None
        for name, outcome in record.outcomes.items():
            total += 1
            if not outcome.schedule_rows:
                lines.append(
                    f"SKIP   stream {key[:12]} {name}: stored without schedule"
                )
                continue
            if arrivals is None:
                platform = PLATFORMS.create(spec.platform)
                arrivals = generate_arrivals(spec.arrivals)
                ptgs = [a.ptg for a in arrivals]
                releases = {a.ptg.name: a.time for a in arrivals}
            report = validate_schedule(
                outcome.schedule(platform.name), ptgs, platform, releases
            )
            status = "OK    " if report.ok else "FAIL  "
            if not report.ok:
                failed += 1
            lines.append(f"{status} stream {key[:12]} {name}: {report.summary()}")
            for violation in report.violations[: args.max_violations]:
                lines.append(f"         {violation}")
            if spec.faults is not None and (outcome.faults or {}).get("schedule_rows"):
                from repro.faults.spec import compile_timeline

                total += 1
                timeline = compile_timeline(spec.faults, platform)
                report = validate_schedule(
                    outcome.repaired_schedule(platform.name),
                    ptgs,
                    platform,
                    releases,
                    faults=timeline,
                )
                status = "OK    " if report.ok else "FAIL  "
                if not report.ok:
                    failed += 1
                lines.append(
                    f"{status} repair {key[:12]} {name}: {report.summary()}"
                )
                for violation in report.violations[: args.max_violations]:
                    lines.append(f"         {violation}")

    for key, result in store.iter_records():
        total += 1
        report = validate_experiment_metrics(result)
        status = "OK    " if report.ok else "FAIL  "
        if not report.ok:
            failed += 1
        lines.append(
            f"{status} batch  {key[:12]} {result.workload} on {result.platform}: "
            f"{report.summary()}"
        )
        for violation in report.violations[: args.max_violations]:
            lines.append(f"         {violation}")

    for line in lines:
        print(line)
    if total == 0:
        print(f"error: no validatable records in {store.root}", file=sys.stderr)
        return 2
    print(f"\nvalidated {total} record(s): {total - failed} OK, {failed} failed")
    return 1 if failed else 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.campaigns.aggregate import summarize_store

    summary = summarize_store(_existing_store(args.store))
    if args.format == "json":
        # unsorted: the series keep the summary's strategy order
        print(json.dumps(summary, indent=2))
        return 0
    print(
        f"{summary['experiments']} experiment(s), "
        f"PTG counts {summary['ptg_counts']}"
    )
    for metric in (
        "average_unfairness",
        "average_relative_makespan",
        "average_mean_application_makespan",
    ):
        print(f"{metric}:")
        for name in summary["strategies"]:
            series = ", ".join(f"{v:.4f}" for v in summary[metric][name])
            print(f"  {name:<10} {series}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.scenarios.registry import REGISTRIES

    kinds = [args.kind] if args.kind else sorted(REGISTRIES)
    if args.format == "json":
        print(
            json.dumps(
                {kind: REGISTRIES[kind].describe() for kind in kinds}, indent=2
            )
        )
        return 0
    for kind in kinds:
        registry = REGISTRIES[kind]
        print(f"{kind}:")
        for name, description in registry.describe().items():
            print(f"  {name:<12} {description}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "random":
        ptg = generate_random_ptg(args.seed, RandomPTGConfig(n_tasks=args.tasks))
    elif args.family == "fft":
        ptg = generate_fft_ptg(args.points, rng=args.seed)
    else:
        ptg = generate_strassen_ptg(rng=args.seed)
    if args.format == "json":
        print(ptg_to_json(ptg, indent=2))
    else:
        print(ptg_to_dot(ptg))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.scenarios.run import run_scenario
    from repro.scenarios.spec import load_specs
    from repro.streaming.run import run_stream_scenario

    documents = _load_spec_documents(args.spec, args.set)
    specs = load_specs(documents)
    telemetry = obs.TelemetrySpec(profile=args.profile_spans)
    # One session for the whole command: the scenario runners see the
    # installed session and do not start their own, so every span of
    # every spec lands in one trace (always in-process, jobs=1).
    with obs.capture(telemetry) as session:
        for spec in specs:
            if spec.is_streaming:
                run_stream_scenario(spec, validate=False, keep_schedule=False)
            else:
                run_scenario(spec)
    obs.write_chrome_trace(args.output, session.spans)
    if args.summary is not None:
        with open(args.summary, "w", encoding="utf-8") as handle:
            json.dump(session.summary(), handle, indent=1)
            handle.write("\n")
    rows = [
        [name, entry["count"], f"{entry['total']:.4f}", f"{entry['mean']:.4f}",
         f"{entry['max']:.4f}"]
        for name, entry in obs.aggregate_spans(session.spans).items()
    ]
    print(
        format_table(
            ["span", "count", "total (s)", "mean (s)", "max (s)"],
            rows,
            title=f"{len(session.spans)} span(s) from {len(specs)} spec(s)",
        )
    )
    for name, report in (session.tracer.profiles if session.tracer else {}).items():
        print(f"\nprofile of {name}:\n{report}", file=sys.stderr)
    print(f"\nwrote {args.output} (load it in chrome://tracing or ui.perfetto.dev)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.scenarios.spec import ScenarioSpec
    from repro.service.http import run_daemon

    if args.restore and not args.store:
        raise ConfigurationError("--restore requires --store")
    spec = None
    if args.spec is not None or args.set:
        documents = _load_spec_documents(args.spec, args.set)
        if len(documents) != 1:
            raise ConfigurationError(
                f"serve expects exactly one scenario spec, got {len(documents)}"
            )
        spec = ScenarioSpec.from_dict(documents[0])
    if spec is None and not args.restore:
        raise ConfigurationError(
            "serve needs a scenario spec (SPEC.json / --set) or --restore"
        )

    def ready(port: int) -> None:
        # parseable by wrapper scripts (the CI smoke greps the port)
        print(f"listening on {args.host}:{port}", flush=True)

    run_daemon(
        spec,
        host=args.host,
        port=args.port,
        store=args.store,
        restore=args.restore,
        ready=ready,
    )
    return 0


def _client_arrivals(args: argparse.Namespace):
    """The arrival slice ``client submit`` sends, from a scenario file."""
    from repro.scenarios.spec import ScenarioSpec
    from repro.streaming.spec import generate_arrivals

    documents = _load_spec_documents(args.spec, args.set)
    if len(documents) != 1:
        raise ConfigurationError(
            f"client submit expects exactly one scenario spec, got {len(documents)}"
        )
    spec = ScenarioSpec.from_dict(documents[0])
    if spec.arrivals is None:
        raise ConfigurationError(
            "client submit needs a streaming spec (an 'arrivals' section) "
            "to know what to submit"
        )
    arrivals = list(generate_arrivals(spec.arrivals))
    stop = None if args.limit is None else args.offset + args.limit
    return arrivals[args.offset:stop]


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.host, args.port)
    if args.action == "submit":
        arrivals = _client_arrivals(args)
        client.wait_ready()
        for arrival in arrivals:
            answer = client.submit(
                arrival.tenant or "default", arrival.time, arrival.ptg
            )
            print(
                f"submitted {answer['application']} for tenant "
                f"{answer['tenant']} ({answer['queued']} queued)"
            )
        print(f"submitted {len(arrivals)} arrival(s)")
        return 0
    if args.action == "status":
        print(json.dumps(client.status(args.tenant), indent=2))
        return 0
    if args.action == "schedule":
        if args.tenant is None:
            raise ConfigurationError("client schedule requires --tenant")
        answer = client.schedule(args.tenant)
        if args.format == "json":
            print(json.dumps(answer, indent=2))
        else:
            print(
                f"tenant {answer['tenant']}: valid={answer['valid']}, "
                f"{len(answer['rows'])} schedule row(s), "
                f"{len(answer['completion_times'])} application(s)"
            )
        return 0 if answer.get("valid") else 1
    if args.action == "metrics":
        print(json.dumps(client.metrics(), indent=2))
        return 0
    if args.action == "checkpoint":
        answer = client.checkpoint()
        print(
            f"checkpointed {answer['tenants']} tenant(s) "
            f"({answer['admitted']} admitted) under {answer['key']}"
        )
        return 0
    if args.action == "shutdown":
        client.shutdown()
        print("daemon stopping")
        return 0
    raise ConfigurationError(f"unknown client action {args.action!r}")


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        TELEMETRY_CHANNEL,
        aggregate_spans,
        merge_metrics,
        prometheus_text,
        summary_spans,
    )
    from repro.obs.meters import Histogram

    store = _existing_store(args.store)
    # last-wins per key: shard runs write one summary per key, and the
    # admission daemon's checkpoints are cumulative snapshots under one
    # key -- summing successive checkpoints would double-count them
    summaries = list(store.payloads_by_key(TELEMETRY_CHANNEL).values())
    if not summaries:
        print(
            f"error: no telemetry summaries in {store.root}; run the store "
            f"with specs that set \"telemetry\" (e.g. --set telemetry=true)",
            file=sys.stderr,
        )
        return 2
    merged = merge_metrics(s.get("metrics", {}) for s in summaries)
    spans = [span for s in summaries for span in summary_spans(s)]

    if args.format == "prometheus":
        print(prometheus_text(merged), end="")
        return 0
    if args.format == "json":
        document = dict(merged)
        document["spans"] = aggregate_spans(spans)
        document["summaries"] = len(summaries)
        print(json.dumps(document, indent=2))
        return 0

    if spans:
        rows = [
            [name, entry["count"], f"{entry['total']:.4f}", f"{entry['mean']:.4f}",
             f"{entry['max']:.4f}"]
            for name, entry in aggregate_spans(spans).items()
        ]
        print(
            format_table(
                ["span", "count", "total (s)", "mean (s)", "max (s)"],
                rows,
                title=f"per-phase spans ({len(summaries)} summaries)",
            )
        )
        print()
    if merged["histograms"]:
        rows = []
        for name, payload in merged["histograms"].items():
            histogram = Histogram.from_dict(payload)
            rows.append(
                [
                    name,
                    histogram.count,
                    f"{histogram.mean:.6g}",
                    f"{histogram.quantile(0.5):.6g}",
                    f"{histogram.quantile(0.99):.6g}",
                    f"{histogram.max if histogram.count else 0.0:.6g}",
                ]
            )
        print(
            format_table(
                ["histogram", "count", "mean", "p50", "p99", "max"],
                rows,
                title="histograms",
            )
        )
        print()
    rows = [[name, f"{value:g}"] for name, value in merged["counters"].items()]
    rows += [
        [f"{name} (max)", f"{payload['max']:g}"]
        for name, payload in merged["gauges"].items()
    ]
    if rows:
        print(format_table(["meter", "value"], rows, title="counters and gauges"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-ptg",
        description=(
            "Concurrent scheduling of parallel task graphs on multi-clusters "
            "(N'Takpe & Suter 2009) - reproduction toolkit"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--profile", action="store_true",
        help="run the subcommand under cProfile and print the top 25 "
             "cumulative entries to stderr",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="enable the library's debug log lines (repro.* loggers)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress progress output (log level WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run declarative scenario spec(s) from a JSON file and/or --set overrides",
    )
    run.add_argument(
        "spec", nargs="?", default=None, metavar="SPEC.json",
        help="JSON file holding one scenario spec or a list of specs "
             "(omitted: the default scenario, customised via --set)",
    )
    run.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a spec field by dotted path, applied to every spec "
             "(e.g. --set pipeline.allocator=hcpa --set workload.family=fft "
             "--set strategies=S,ES)",
    )
    run.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="output format of the per-scenario outcome summaries",
    )
    # default=SUPPRESS: the subparser must not clobber the global -q
    # (subparsers copy their whole namespace back over the parent's)
    run.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress progress output",
    )
    _add_parallel_arguments(run)

    stream = sub.add_parser(
        "stream",
        help="run an online arrival stream through the event-driven scheduler",
    )
    stream.add_argument(
        "--process", default="poisson", choices=["poisson", "mmpp", "trace"],
        help="arrival process (see 'repro-ptg list arrivals')",
    )
    stream.add_argument(
        "--rate", type=float, default=1.0,
        help="mean arrival rate in applications per second",
    )
    stream.add_argument(
        "--arrivals", type=int, default=None, metavar="N",
        help="stream length (default: 16, or the trace length)",
    )
    stream.add_argument(
        "--family", default="random", choices=list(APPLICATION_FAMILIES)
    )
    stream.add_argument(
        "--platform", default="rennes",
        choices=grid5000.site_names() + ["grid5000"],
        help="target platform (grid5000 = all four sites composed)",
    )
    stream.add_argument("--strategy", default="ES", choices=STRATEGY_NAMES)
    stream.add_argument(
        "--allocator", default="scrap-max",
        choices=["cpa", "hcpa", "scrap", "scrap-max"],
    )
    stream.add_argument(
        "--no-packing", action="store_true", help="disable allocation packing"
    )
    stream.add_argument("--mu", type=float, default=None, help="WPS mu override")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--max-tasks", type=int, default=None)
    stream.add_argument(
        "--tenants", type=int, default=1,
        help="number of tenants (round-robin labels for the stall metrics)",
    )
    stream.add_argument(
        "--burst", type=float, default=4.0,
        help="burst-phase rate multiplier of the mmpp process",
    )
    stream.add_argument(
        "--dwell", type=float, default=None,
        help="mean phase dwell time (s) of the mmpp process",
    )
    stream.add_argument(
        "--trace", default=None, metavar="FILE",
        help="trace file of submission instants (JSON array or one per line)",
    )
    stream.add_argument(
        "--check", action="store_true",
        help="exit non-zero when the schedule-invariant validator fails",
    )
    stream.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="output format of the stream summary",
    )
    stream.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress progress output",
    )
    _add_parallel_arguments(stream)

    val = sub.add_parser(
        "validate",
        help="run the schedule-invariant validator over a result store",
    )
    val.add_argument(
        "store", metavar="DIR",
        help="campaign / scenario store directory to validate",
    )
    val.add_argument(
        "--max-violations", type=int, default=5,
        help="violations printed per record",
    )

    lst = sub.add_parser(
        "list", help="list the entries of the scenario plugin registries"
    )
    lst.add_argument(
        "kind", nargs="?", default=None,
        choices=[
            "allocators", "mappers", "strategies", "platforms", "families",
            "arrivals", "faults", "executors",
        ],
        help="which registry to list (omitted: all of them)",
    )
    lst.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="output format",
    )

    sub.add_parser("table1", help="print the platform Table 1")

    fig2 = sub.add_parser("fig2", help="run the mu sweep (Figure 2)")
    fig2.add_argument("--characteristic", default="work", choices=["work", "cp", "width"])
    fig2.add_argument("--family", default="random", choices=list(APPLICATION_FAMILIES))
    _add_scale_arguments(fig2)

    for number in (3, 4, 5):
        fig = sub.add_parser(f"fig{number}", help=f"run Figure {number}")
        _add_scale_arguments(fig)
        _add_parallel_arguments(fig)

    camp = sub.add_parser(
        "campaign",
        help="run a campaign with parallel workers and a persistent result store",
    )
    camp.add_argument(
        "--family", default="random", choices=list(APPLICATION_FAMILIES)
    )
    camp.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress progress output",
    )
    camp.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="attempts per shard before quarantining it (default: 1, no retry)",
    )
    camp.add_argument(
        "--executor", default=None, metavar="NAME",
        choices=["serial", "process-pool"],
        help="execution engine for the shards (default: process-pool; "
             "see 'repro-ptg list executors')",
    )
    _add_scale_arguments(camp)
    _add_parallel_arguments(camp)

    store_cmd = sub.add_parser(
        "store",
        help="summarize a campaign result store",
    )
    store_cmd.add_argument(
        "action", choices=["summarize"],
        help="summarize: print the paper aggregates of the stored campaign",
    )
    store_cmd.add_argument("store", metavar="DIR", help="store directory")
    store_cmd.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="output format",
    )

    sched = sub.add_parser("schedule", help="schedule one workload with one strategy")
    sched.add_argument("--family", default="random", choices=list(APPLICATION_FAMILIES))
    sched.add_argument("--n-ptgs", type=int, default=4)
    sched.add_argument("--platform", default="rennes", choices=grid5000.site_names())
    sched.add_argument("--strategy", default="WPS-width", choices=STRATEGY_NAMES)
    sched.add_argument("--seed", type=int, default=0)
    sched.add_argument("--max-tasks", type=int, default=None)

    gen = sub.add_parser("generate", help="generate a PTG and print it")
    gen.add_argument("--family", default="random", choices=["random", "fft", "strassen"])
    gen.add_argument("--tasks", type=int, default=20, help="task count (random family)")
    gen.add_argument("--points", type=int, default=8, help="FFT size (fft family)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", default="json", choices=["json", "dot"])

    trc = sub.add_parser(
        "trace",
        help="run scenario spec(s) under telemetry and write a Chrome/Perfetto trace",
    )
    trc.add_argument(
        "spec", nargs="?", default=None, metavar="SPEC.json",
        help="JSON file holding one scenario spec or a list of specs "
             "(omitted: the default scenario, customised via --set)",
    )
    trc.add_argument(
        "-o", "--output", default="trace.json", metavar="FILE",
        help="Chrome trace output file (default: trace.json)",
    )
    trc.add_argument(
        "--summary", default=None, metavar="FILE",
        help="also write the full telemetry summary (spans + metrics) as JSON",
    )
    trc.add_argument(
        "--profile-spans", action="store_true",
        help="run each root span under cProfile and print the reports to stderr",
    )
    trc.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a spec field by dotted path, applied to every spec",
    )

    srv = sub.add_parser(
        "serve",
        help="run the admission daemon for a scenario spec (JSON over HTTP)",
    )
    srv.add_argument(
        "spec", nargs="?", default=None, metavar="SPEC.json",
        help="scenario spec the daemon serves (omitted: --restore from a "
             "checkpointed --store, or the default scenario via --set)",
    )
    srv.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    srv.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0: pick an ephemeral port and print it)",
    )
    srv.add_argument(
        "--store", default=None, metavar="DIR",
        help="campaign store checkpoints persist to (enables /checkpoint "
             "and the final checkpoint on shutdown)",
    )
    srv.add_argument(
        "--restore", action="store_true",
        help="restore every tenant from the latest checkpoint in --store",
    )
    srv.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a spec field by dotted path "
             "(e.g. --set service.queue_depth=16)",
    )

    cli = sub.add_parser(
        "client", help="talk to a running admission daemon"
    )
    cli.add_argument(
        "action",
        choices=[
            "submit", "status", "schedule", "metrics", "checkpoint", "shutdown",
        ],
        help="what to ask the daemon",
    )
    cli.add_argument(
        "spec", nargs="?", default=None, metavar="SPEC.json",
        help="streaming scenario file whose arrivals 'submit' sends",
    )
    cli.add_argument("--host", default="127.0.0.1", help="daemon address")
    cli.add_argument("--port", type=int, required=True, help="daemon port")
    cli.add_argument(
        "--tenant", default=None,
        help="tenant name (status: optional filter; schedule: required)",
    )
    cli.add_argument(
        "--offset", type=int, default=0,
        help="skip the first N arrivals of the spec (submit)",
    )
    cli.add_argument(
        "--limit", type=int, default=None,
        help="submit at most N arrivals of the spec",
    )
    cli.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a spec field by dotted path (submit)",
    )
    cli.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="output format of 'schedule'",
    )

    met = sub.add_parser(
        "metrics",
        help="report the telemetry summaries stored in a campaign/scenario store",
    )
    met.add_argument(
        "store", metavar="DIR",
        help="store directory holding telemetry summaries (specs run with "
             "\"telemetry\" set)",
    )
    met.add_argument(
        "--format", default="text", choices=["text", "json", "prometheus"],
        help="output format of the aggregated metrics",
    )

    return parser


#: Number of profile entries ``--profile`` reports (re-exported from
#: :mod:`repro.obs.profile`, which owns the profiling machinery).
from repro.obs.profile import PROFILE_TOP_ENTRIES  # noqa: E402


def _profiled(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Dispatch under :mod:`cProfile`, reporting the top cumulative entries."""
    from repro.obs.profile import profile_call

    code, report = profile_call(_dispatch, parser, args)
    print(report, file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-ptg`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = configure_cli_logging(verbose=args.verbose, quiet=args.quiet)
    try:
        if args.profile:
            return _profiled(parser, args)
        return _dispatch(parser, args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_cli_logging(handler)


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "table1":
        return _cmd_table1(args)
    if args.command == "fig2":
        return _cmd_fig2(args)
    if args.command in ("fig3", "fig4", "fig5"):
        return _cmd_figure(int(args.command[-1]), args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "schedule":
        return _cmd_schedule(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "client":
        return _cmd_client(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
