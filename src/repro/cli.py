"""Command-line interface: ``python -m repro <command>``.

Commands
--------
synthesize  CSV in → synthesized DSL program (stdout or file)
check       program + CSV → violation report
rectify     program + CSV → repaired CSV
datasets    list the 12 dataset twins, or export one as CSV
to-sql      program → SQL (audit query / CHECK clauses / UPDATEs)
experiment  regenerate one or all of the paper's tables/figures
obs         observability: render a trace file into a report
chaos       run the fault-injection suite under a degradation policy
drift       vet a stream CSV for drift against training data, with
            optional self-healing re-synthesis (--heal)
serve       drive the asyncio multi-tenant guard service with a
            closed-loop workload and print the service report

``synthesize``, ``check``, ``rectify``, ``experiment``, and ``drift``
accept ``--trace PATH`` to record a structured JSONL trace of the run
(:mod:`repro.obs`); ``obs report PATH`` renders it.  ``synthesize
--budget SECONDS`` caps synthesis wall-clock (best-so-far partial
program), ``--checkpoint PATH`` journals crash-safe synthesis state
there, and ``--resume PATH`` continues from such a journal;
``rectify --guard-policy`` and ``chaos --guard-policy`` select a
:class:`repro.resilience.GuardPolicy` degradation mode.

``synthesize``, ``check``, ``rectify``, and ``drift`` accept
``--workers N`` to fork N worker processes for the heavy phases
(``0`` = one per CPU core); results are bit-identical to a serial run
(:mod:`repro.parallel`, ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dsl import (
    check_constraints,
    format_program,
    parse_program,
    rectify_updates,
    violations_query,
)
from .errors import apply_strategy, detect_errors
from .relation import read_csv, write_csv
from .resilience import FAMILIES
from .synth import CheckpointError, GuardrailConfig, synthesize


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser (one subcommand per verb)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "GUARDRAIL: synthesize integrity constraints from noisy "
            "data and use them to detect and rectify errors."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--trace", type=Path, metavar="PATH",
            help="record a JSONL observability trace of this run",
        )

    def add_workers_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="fork N worker processes for the heavy phases "
            "(0 = one per CPU core, default 1 = serial); results are "
            "bit-identical to a serial run",
        )

    synth = sub.add_parser(
        "synthesize", help="synthesize a DSL program from a CSV file"
    )
    add_trace_flag(synth)
    add_workers_flag(synth)
    synth.add_argument("csv", type=Path, help="input data (CSV with header)")
    synth.add_argument(
        "-o", "--output", type=Path, help="write the program here"
    )
    synth.add_argument(
        "--epsilon", type=float, default=0.02,
        help="noise tolerance of Eqn. 3 (default 0.02)",
    )
    synth.add_argument(
        "--alpha", type=float, default=0.01,
        help="CI-test significance level (default 0.01)",
    )
    synth.add_argument(
        "--min-support", type=int, default=4,
        help="minimum rows per warranted condition (default 4)",
    )
    synth.add_argument(
        "--max-dags", type=int, default=256,
        help="MEC enumeration cap (default 256)",
    )
    synth.add_argument(
        "--budget", type=float, metavar="SECONDS",
        help="wall-clock budget; exhaustion returns the best-so-far "
        "partial program instead of running unbounded",
    )
    synth.add_argument(
        "--checkpoint", type=Path, metavar="PATH",
        help="journal crash-safe synthesis state here (atomic writes); "
        "a killed run resumes via --resume PATH",
    )
    synth.add_argument(
        "--resume", type=Path, metavar="PATH",
        help="resume from a checkpoint journaled by --checkpoint on the "
        "same data and settings (skips completed phases)",
    )
    synth.add_argument("--seed", type=int, default=0)

    check = sub.add_parser(
        "check", help="report rows of a CSV violating a saved program"
    )
    add_trace_flag(check)
    add_workers_flag(check)
    check.add_argument("program", type=Path, help="saved DSL program")
    check.add_argument("csv", type=Path, help="data to vet")
    check.add_argument(
        "--limit", type=int, default=20,
        help="max violating rows to print (default 20)",
    )

    rectify = sub.add_parser(
        "rectify", help="repair a CSV against a saved program"
    )
    add_trace_flag(rectify)
    add_workers_flag(rectify)
    rectify.add_argument("program", type=Path)
    rectify.add_argument("csv", type=Path)
    rectify.add_argument(
        "-o", "--output", type=Path, required=True,
        help="where to write the repaired CSV",
    )
    rectify.add_argument(
        "--strategy",
        choices=["rectify", "coerce", "ignore", "raise"],
        default="rectify",
    )
    rectify.add_argument(
        "--guard-policy",
        choices=["strict", "warn", "pass_through", "reject"],
        default="strict",
        help="degradation mode if handling itself fails: strict raises, "
        "warn/pass_through write the input unrepaired, reject refuses "
        "to write (default strict)",
    )

    datasets = sub.add_parser(
        "datasets", help="list or export the 12 evaluation dataset twins"
    )
    datasets.add_argument(
        "--export", metavar="ID", help="dataset id or name to export"
    )
    datasets.add_argument("-o", "--output", type=Path)
    datasets.add_argument(
        "--rows", type=int, help="row count override (default: Table 2)"
    )
    datasets.add_argument("--seed", type=int, default=None)

    to_sql = sub.add_parser(
        "to-sql", help="translate a saved program to SQL"
    )
    to_sql.add_argument("program", type=Path)
    to_sql.add_argument(
        "--table", default="data", help="target table name"
    )
    to_sql.add_argument(
        "--mode",
        choices=["audit", "check", "update"],
        default="audit",
    )

    experiment = sub.add_parser(
        "experiment",
        help="regenerate one or all of the paper's tables/figures",
    )
    experiment.add_argument(
        "artifact",
        nargs="?",
        help=(
            "artifact key (table1, table3, ..., fig6, fig7, optsmt); "
            "omit to run all and emit a Markdown report"
        ),
    )
    experiment.add_argument(
        "-o", "--output", type=Path,
        help="write the report here instead of stdout",
    )
    experiment.add_argument(
        "--scale-rows", type=int, default=None,
        help="row cap per dataset (default: REPRO_SCALE_ROWS or 2400)",
    )
    add_trace_flag(experiment)

    obs_parser = sub.add_parser(
        "obs", help="observability utilities (see repro.obs)"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report",
        help="render a JSONL trace: phase timings, metrics, guard "
        "dashboard",
    )
    report.add_argument(
        "trace", type=Path, help="trace file written by --trace"
    )

    chaos = sub.add_parser(
        "chaos",
        help="inject fault classes and verify the degradation policy "
        "holds (repro.resilience.chaos)",
    )
    chaos.add_argument(
        "--guard-policy",
        choices=["strict", "warn", "pass_through", "reject"],
        default="warn",
        help="policy the guarded pipeline degrades under (default warn)",
    )
    chaos.add_argument(
        "--fault",
        action="append",
        metavar="NAME",
        help="run only this fault class (repeatable)",
    )
    chaos.add_argument(
        "--family",
        action="append",
        choices=FAMILIES,
        help="run only this fault family (repeatable; default: unit, "
        "worker and durability; load and overload drive a live "
        "GuardServer)",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="seed for the harness's random generator (default 0)",
    )
    chaos.add_argument(
        "--scale", type=float, default=1.0,
        help="scale factor on overload storm volume (default 1.0)",
    )

    drift = sub.add_parser(
        "drift",
        help="vet a stream CSV for drift against training data "
        "(repro.resilience.drift)",
    )
    add_trace_flag(drift)
    add_workers_flag(drift)
    drift.add_argument(
        "train", type=Path, help="training data the guard was fit on"
    )
    drift.add_argument(
        "stream", type=Path, help="arriving data to vet for drift"
    )
    drift.add_argument(
        "--program", type=Path, metavar="PATH",
        help="saved DSL program to guard with (default: synthesize "
        "one from the training CSV)",
    )
    drift.add_argument(
        "--window", type=int, default=512,
        help="rows per drift-evaluation window (default 512)",
    )
    drift.add_argument(
        "--heal", action="store_true",
        help="run the full self-healing loop: on drift, re-synthesize "
        "under a budget, validate, and hot-swap the guardrail",
    )
    drift.add_argument(
        "--heal-budget", type=float, default=10.0, metavar="SECONDS",
        help="wall-clock budget per re-synthesis attempt (default 10)",
    )

    serve = sub.add_parser(
        "serve",
        help="drive the asyncio multi-tenant guard service "
        "(repro.serve) with a closed-loop workload",
    )
    add_trace_flag(serve)
    serve.add_argument(
        "program", type=Path, help="saved DSL program to serve"
    )
    serve.add_argument(
        "csv", type=Path, help="rows to replay as request traffic"
    )
    serve.add_argument(
        "--tenants", type=int, default=4, metavar="N",
        help="named guardrail tenants to register (default 4)",
    )
    serve.add_argument(
        "--clients", type=int, default=16, metavar="K",
        help="concurrent closed-loop clients (default 16)",
    )
    serve.add_argument(
        "--requests", type=int, default=64, metavar="M",
        help="requests per client (default 64)",
    )
    serve.add_argument(
        "--mode", default="blocking",
        choices=("blocking", "parallel"),
        help="guard-vs-predict execution mode (default blocking)",
    )
    serve.add_argument(
        "--guard-policy", default="strict", metavar="POLICY",
        help="degradation policy when the guard fails "
        "(strict|warn|pass-through|reject; default strict)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64, metavar="B",
        help="micro-batch flush threshold (default 64)",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=2.0, metavar="MS",
        help="longest a request waits for batch-mates (default 2)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=1024, metavar="Q",
        help="per-tenant admission queue bound (default 1024)",
    )
    serve.add_argument(
        "--state-dir", type=Path, default=None, metavar="DIR",
        help="make the server durable: write-ahead journal + "
        "snapshots under DIR; registrations/swaps/quarantined rows "
        "survive a crash (recover with `repro recover DIR`)",
    )

    recover = sub.add_parser(
        "recover",
        help="inspect and replay a durable guard-server state "
        "directory (repro.resilience.durability)",
    )
    add_trace_flag(recover)
    recover.add_argument(
        "state_dir", type=Path,
        help="state directory a `repro serve --state-dir` run wrote",
    )
    recover.add_argument(
        "--repair", action="store_true",
        help="also truncate a torn journal tail on disk (recovery "
        "itself is read-only by default)",
    )

    return parser


def _cmd_synthesize(args: argparse.Namespace) -> int:
    relation = read_csv(args.csv)
    config = GuardrailConfig(
        epsilon=args.epsilon,
        alpha=args.alpha,
        min_support=args.min_support,
        max_dags=args.max_dags,
        seed=args.seed,
    )
    budget = None
    if args.budget is not None:
        from .resilience import Budget

        budget = Budget(seconds=args.budget)
    try:
        result = synthesize(
            relation,
            config,
            budget=budget,
            workers=args.workers,
            checkpoint_path=args.checkpoint,
            resume_from=args.resume,
        )
    except CheckpointError as error:
        print(f"cannot resume: {error}", file=sys.stderr)
        return 2
    if result.resumed:
        print(
            f"-- resumed from checkpoint {args.resume}", file=sys.stderr
        )
    text = format_program(result.program)
    print(
        f"-- {len(result.program)} statements, "
        f"{len(result.program.branches)} branches, "
        f"coverage {result.coverage:.3f}, loss {result.loss}, "
        f"{result.n_dags_enumerated} DAGs enumerated",
        file=sys.stderr,
    )
    if result.partial:
        notes = "; ".join(result.budget_notes) or "budget exhausted"
        print(
            f"-- PARTIAL: best-so-far under a {args.budget}s budget "
            f"({notes})",
            file=sys.stderr,
        )
    if args.output:
        args.output.write_text(text + "\n", encoding="utf-8")
        print(f"program written to {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    program = parse_program(args.program.read_text(encoding="utf-8"))
    relation = read_csv(args.csv)
    result = detect_errors(program, relation, pool=args.workers)
    print(
        f"{result.n_flagged_rows} of {relation.n_rows} rows violate "
        f"the constraints"
    )
    for violation in result.violations[: args.limit]:
        print(
            f"  row {violation.row}: {violation.attribute} should be "
            f"{violation.expected!r} "
            f"(found {relation.value(violation.row, violation.attribute)!r})"
        )
    if len(result.violations) > args.limit:
        print(f"  ... and {len(result.violations) - args.limit} more")
    return 1 if result.n_flagged_rows else 0


def _cmd_rectify(args: argparse.Namespace) -> int:
    import functools

    from .errors import DataIntegrityError
    from .resilience import GuardPolicy, resilient_call

    program = parse_program(args.program.read_text(encoding="utf-8"))
    relation = read_csv(args.csv)
    policy = GuardPolicy.parse(args.guard_policy)
    outcome = resilient_call(
        functools.partial(apply_strategy, pool=args.workers),
        program,
        relation,
        args.strategy,
        policy=policy,
        fallback=None,
        expected=(DataIntegrityError,),
    )
    if outcome is None:
        # Handling itself failed and the policy says degrade.
        if policy is GuardPolicy.REJECT:
            print(
                "error handling failed; refusing to write under the "
                "reject policy",
                file=sys.stderr,
            )
            return 3
        if policy is GuardPolicy.WARN:
            print(
                "warning: error handling failed; writing the input "
                "unrepaired",
                file=sys.stderr,
            )
        write_csv(relation, args.output)
        print(f"0 cells changed (degraded); wrote {args.output}")
        return 0
    write_csv(outcome.relation, args.output)
    print(
        f"{outcome.n_changed} cells changed "
        f"({outcome.detection.n_flagged_rows} violating rows); "
        f"wrote {args.output}"
    )
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .datasets import DATASETS, load

    if args.export is None:
        print(f"{'id':<3} {'name':<34} {'category':<14} attrs rows")
        for spec in DATASETS:
            print(
                f"{spec.id:<3} {spec.name:<34} {spec.category:<14} "
                f"{spec.n_attributes:<5} {spec.n_rows}"
            )
        return 0
    key: "int | str" = (
        int(args.export) if args.export.isdigit() else args.export
    )
    dataset = load(key, n_rows=args.rows, seed=args.seed)
    target = args.output or Path(
        dataset.spec.name.lower().replace(" ", "_") + ".csv"
    )
    write_csv(dataset.relation, target)
    print(
        f"wrote {dataset.relation.n_rows} rows x "
        f"{len(dataset.relation.schema)} attrs to {target}"
    )
    return 0


def _cmd_to_sql(args: argparse.Namespace) -> int:
    program = parse_program(args.program.read_text(encoding="utf-8"))
    if args.mode == "audit":
        print(violations_query(program, args.table))
    elif args.mode == "check":
        for clause in check_constraints(program):
            print(clause + ",")
    else:
        for update in rectify_updates(program, args.table):
            print(update)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import (
        ExperimentContext,
        artifact_keys,
        generate_report,
        run_artifact,
    )

    kwargs = {}
    if args.scale_rows is not None:
        kwargs["scale_rows"] = args.scale_rows
    context = ExperimentContext(**kwargs)
    if args.artifact:
        if args.artifact not in artifact_keys():
            print(
                f"unknown artifact {args.artifact!r}; choose from: "
                + ", ".join(artifact_keys()),
                file=sys.stderr,
            )
            return 2
        body = run_artifact(args.artifact, context)
        if args.output:
            args.output.write_text(body + "\n", encoding="utf-8")
        else:
            print(body)
        return 0
    report = generate_report(context)
    if args.output:
        args.output.write_text(report, encoding="utf-8")
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        print(report)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from .obs import render_report

    if not args.trace.exists():
        print(f"no such trace file: {args.trace}", file=sys.stderr)
        return 2
    try:
        print(render_report(args.trace))
    except json.JSONDecodeError as error:
        print(
            f"not a valid JSONL trace: {args.trace} ({error})",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import numpy as np

    from .resilience import render_chaos_report, run_chaos_suite

    try:
        outcomes = run_chaos_suite(
            args.guard_policy,
            faults=tuple(args.fault) if args.fault else None,
            rng=np.random.default_rng(args.seed),
            scale=args.scale,
            families=tuple(args.family) if args.family else None,
        )
    except ValueError as error:  # an unknown or out-of-family name
        print(error, file=sys.stderr)
        return 2
    print(render_chaos_report(outcomes))
    return 0 if all(o.conformant for o in outcomes) else 1


def _cmd_drift(args: argparse.Namespace) -> int:
    from .resilience import (
        DriftDetector,
        GuardrailSupervisor,
        SupervisorConfig,
        render_drift_report,
    )
    from .synth import Guardrail

    train = read_csv(args.train)
    stream = read_csv(args.stream)
    if args.program is not None:
        guard = Guardrail.load(args.program)
    else:
        print("-- synthesizing guard from training data", file=sys.stderr)
        guard = Guardrail(GuardrailConfig()).fit(train)
    detector = DriftDetector.from_training(
        train, program=guard.program, window=args.window
    )
    if args.heal:
        supervisor = GuardrailSupervisor(
            guard,
            drift=detector,
            config=SupervisorConfig(
                heal_budget_seconds=args.heal_budget,
                min_heal_rows=min(128, max(8, stream.n_rows // 4)),
            ),
        )
        flagged = sum(
            0 if verdict.ok else 1
            for verdict in supervisor.stream(stream.iter_rows())
        )
        alerts, stats = supervisor.alerts, supervisor.drift.stats
        print(render_drift_report(alerts, stats))
        for heal in supervisor.heals:
            tag = "accepted" if heal.accepted else "rejected"
            print(f"heal {tag}: {heal.reason}")
        print(
            f"{flagged} of {stream.n_rows} rows flagged; guardrail at "
            f"version {supervisor.version}"
        )
    else:
        # One detection pass (sharded by --workers) and one drift scan:
        # verdicts, alerts, and stats are those of feeding the stream
        # through guard.guard() row by row with the detector attached.
        mask = guard.check(stream, pool=args.workers)
        detector.scan(stream, ~mask)
        flagged = int(mask.sum())
        detector.flush()
        alerts = detector.poll()
        print(render_drift_report(alerts, detector.stats))
        print(f"{flagged} of {stream.n_rows} rows flagged")
    return 1 if alerts else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import GuardServer, TenantConfig, render_service_report
    from .synth import Guardrail

    guardrail = Guardrail.load(args.program)
    relation = read_csv(args.csv)
    rows = [dict(row) for row in relation.iter_rows()]
    if not rows:
        print("no rows to serve", file=sys.stderr)
        return 2
    config = TenantConfig(
        mode=args.mode,
        policy=args.guard_policy,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_size=args.queue_size,
    )

    resent = 0

    async def drive() -> GuardServer:
        server = GuardServer(state_dir=args.state_dir)
        names = [f"tenant-{i}" for i in range(args.tenants)]
        for name in names:
            server.register(name, guardrail, config)

        async def client(client_id: int) -> None:
            nonlocal resent
            for i in range(args.requests):
                index = client_id * args.requests + i
                tenant = names[index % len(names)]
                # A shed request is re-sent after its retry hint until
                # it is admitted, so every requested check is served.
                while True:
                    response = await server.check(
                        tenant, rows[index % len(rows)]
                    )
                    if not response.rejected:
                        break
                    resent += 1
                    await asyncio.sleep(response.retry_after or 0.001)

        async with server:
            await asyncio.gather(
                *(client(i) for i in range(args.clients))
            )
        return server

    server = asyncio.run(drive())
    print(render_service_report(server))
    total = sum(s["completed"] for s in server.metrics().values())
    flagged = sum(
        t.guard.stats.degraded_verdicts
        for t in (server.tenant(n) for n in server.tenants)
    )
    print(
        f"{total} requests served across {args.tenants} tenants "
        f"({args.clients} clients x {args.requests} requests; "
        f"{resent} rejections re-sent; {flagged} degraded verdicts)"
    )
    if args.state_dir is not None:
        print(f"durable state journaled under {args.state_dir}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from .resilience.durability import (
        JOURNAL_NAME,
        DurabilityError,
        WriteAheadJournal,
        recover_runtime_state,
    )

    try:
        folded, recovered = recover_runtime_state(args.state_dir)
    except DurabilityError as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        return 2
    print(f"state directory: {args.state_dir}")
    print(
        f"snapshot: generation {recovered.snapshot_generation} "
        f"({recovered.snapshot_generations} on disk, "
        f"{recovered.rejected_snapshots} rejected as corrupt)"
    )
    print(
        f"journal: {recovered.replayed_records} record(s) replayed, "
        f"{recovered.truncated_tail_bytes} torn tail byte(s) discarded, "
        f"last committed seq {recovered.last_seq}"
    )
    for name, tenant in folded["tenants"].items():
        print(
            f"  tenant {name}: version {tenant['cursor'] + 1} of "
            f"{len(tenant['programs'])}, "
            f"{len(tenant['quarantine'])} quarantined row(s) "
            f"({tenant['quarantine_dropped']} dropped)"
        )
    if not folded["tenants"]:
        print("  no tenants committed")
    if args.repair and recovered.truncated_tail_bytes:
        journal = WriteAheadJournal(args.state_dir / JOURNAL_NAME)
        repaired = journal.repair()
        print(f"repaired: truncated {repaired} torn tail byte(s)")
    return 0


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "check": _cmd_check,
    "rectify": _cmd_rectify,
    "datasets": _cmd_datasets,
    "to-sql": _cmd_to_sql,
    "experiment": _cmd_experiment,
    "obs": _cmd_obs,
    "chaos": _cmd_chaos,
    "drift": _cmd_drift,
    "serve": _cmd_serve,
    "recover": _cmd_recover,
}


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected command, tracing it when ``--trace`` was given."""
    trace_path = getattr(args, "trace", None)
    if args.command == "obs" or trace_path is None:
        return _COMMANDS[args.command](args)
    from . import obs

    try:
        sink = obs.JsonlSink(trace_path)
    except OSError as error:
        print(f"cannot write trace to {trace_path}: {error}", file=sys.stderr)
        return 2
    try:
        with obs.tracing(sink):
            return _COMMANDS[args.command](args)
    finally:
        sink.close()
        print(f"trace written to {trace_path}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:  # e.g. piped into `head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
