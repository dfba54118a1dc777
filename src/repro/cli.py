"""Command-line interface: regenerate any table or figure of the paper.

Examples::

    repro table1
    repro figure1 --chips M1 M4
    repro figure2 --fast
    repro workloads
    repro run --kind gemm --chips M1 M4 --workers 4 --out results/
    repro run --kind spmv --chips M1 --out results/
    repro run --from results/
    repro figure2 --from results/
    repro study list
    repro study run --fast --out results/
    repro study render figure4 --from results/
    repro study render efficiency --from results/
    repro serve --store results/ --backend vectorized
    repro submit --study --fast --url http://127.0.0.1:8765
    repro query --figure figure2 --url http://127.0.0.1:8765
    repro gh200
    repro all --fast
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._version import PAPER_ARXIV, PAPER_TITLE, __version__
from repro.analysis.compare import compare_to_paper, render_comparison, shape_checks
from repro.analysis.export import figure_series_to_rows, rows_to_csv
from repro.analysis.reference_systems import render_reference_table
from repro.analysis.tables import (
    render_table1,
    render_table2,
    render_table3,
    render_workloads_table,
)
from repro.calibration import paper
from repro.cuda import CublasHandle, CudaMathMode, GH200Machine, run_gh200_stream
from repro.errors import ReproError
from repro.experiments import (
    BACKEND_NAMES,
    NUMERICS_PROFILES,
    RetryPolicy,
    RunHealth,
    RunManifest,
    Session,
    SweepSpec,
    load_envelopes,
    run_with_manifest,
    save_envelopes,
)
from repro.study import (
    FIGURES,
    TABLES,
    ResultFrame,
    compare_study,
    figure_series_bundle,
    get_figure,
    get_table,
    paper_study,
    render_efficiency_report,
    render_figure_text,
    run_study,
    study_session,
)
from repro.workloads import all_workloads, get_workload, workload_kinds

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=f"Reproduction of '{PAPER_TITLE}' (arXiv:{PAPER_ARXIV})",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("table1", "architecture comparison (Table 1)"),
        ("table2", "GEMM implementation overview (Table 2)"),
        ("table3", "devices used (Table 3)"),
        ("references", "literature reference points"),
        ("workloads", "registered workload kinds (plugin registry)"),
    ):
        sub.add_parser(name, help=help_text)

    # a figure command's defaults; `all` renders its figures with them too
    figure_defaults = {
        "chips": list(paper.CHIPS),
        "seed": 0,
        "workers": 1,
        "from_dir": None,
    }

    def add_figure(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(**figure_defaults)
        p.add_argument(
            "--chips",
            nargs="+",
            choices=list(paper.CHIPS),
            help="chips to run (default: all four)",
        )
        p.add_argument(
            "--fast",
            action="store_true",
            help="model-only numerics (the figure's full grid)",
        )
        p.add_argument("--csv", action="store_true", help="emit CSV instead of text")
        p.add_argument(
            "--chart", action="store_true", help="draw an ASCII chart of the figure"
        )
        p.add_argument("--seed", type=int, help="measurement noise seed")
        p.add_argument(
            "--workers",
            type=int,
            help="parallel experiment cells (default: sequential)",
        )
        p.add_argument(
            "--out",
            default=None,
            metavar="DIR",
            help="persist the run's result envelopes to DIR",
        )
        p.add_argument(
            "--from",
            dest="from_dir",
            metavar="DIR",
            help="render from envelopes saved in DIR instead of running",
        )
        return p

    add_figure("figure1", "STREAM bandwidths (Figure 1)")
    add_figure("figure2", "GEMM GFLOPS sweep (Figure 2)")
    add_figure("figure3", "power dissipation (Figure 3)")
    add_figure("figure4", "power efficiency (Figure 4)")
    add_figure("compare", "paper-vs-measured summary across figures")

    run = sub.add_parser(
        "run", help="execute a declarative experiment sweep (spec grid)"
    )
    run.add_argument(
        "--kind",
        default="gemm",
        choices=list(workload_kinds()),
        help="workload kind from the plugin registry (default: gemm)",
    )
    run.add_argument(
        "--chips",
        nargs="+",
        default=list(paper.CHIPS),
        choices=list(paper.CHIPS),
        help="chips to run (default: all four)",
    )
    run.add_argument(
        "--impls",
        nargs="+",
        default=None,
        metavar="KEY",
        help="implementation keys (default: the workload's own legend)",
    )
    run.add_argument(
        "--sizes",
        nargs="+",
        type=int,
        default=None,
        metavar="N",
        help="problem sizes (default: the workload's own sweep)",
    )
    run.add_argument(
        "--targets",
        nargs="+",
        default=["cpu", "gpu"],
        choices=["cpu", "gpu"],
        help="target processors (stream and spmv kinds)",
    )
    run.add_argument("--repeats", type=int, default=None, help="repetitions per cell")
    run.add_argument("--seed", type=int, default=0, help="measurement noise seed")
    run.add_argument(
        "--numerics",
        default="sampled",
        choices=list(NUMERICS_PROFILES),
        help="numerics profile (default: sampled)",
    )
    run.add_argument(
        "--workers", type=int, default=1, help="parallel experiment cells"
    )
    run.add_argument(
        "--backend",
        default=None,
        choices=list(BACKEND_NAMES),
        help="execution backend (default: vectorized for --workers 1, else "
        "sharded; serial is the per-cell reference loop, vectorized "
        "batch-evaluates whole grids through the roofline model, sharded "
        "streams contiguous grid shards through vectorized worker "
        "processes — the million-cell path)",
    )
    run.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="N",
        help="cells per worker shard; selects --backend sharded when no "
        "backend is named (default: 4096)",
    )
    run.add_argument(
        "--json", action="store_true", help="emit the envelopes as JSON on stdout"
    )
    run.add_argument(
        "--out", default=None, metavar="DIR", help="write envelope files to DIR"
    )
    run.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="session result cache directory (reused across runs)",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress the per-cell progress line"
    )
    run.add_argument(
        "--on-error",
        dest="on_error",
        default="raise",
        choices=["raise", "collect"],
        help="what exhausted-retry cell failures do: 'raise' aborts with an "
        "error naming the cells (default); 'collect' finishes the siblings, "
        "records each failure in the manifest and reports them on stderr",
    )
    run.add_argument(
        "--max-retries",
        dest="max_retries",
        type=int,
        default=None,
        metavar="N",
        help="re-executions per cell for transient failures before the cell "
        "is declared failed (default: 2, with exponential backoff)",
    )
    run.add_argument(
        "--cell-timeout",
        dest="cell_timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell deadline arming hung-worker detection in the sharded "
        "backend, which gives each shard this times its cell count "
        "(default: no deadline)",
    )
    source = run.add_mutually_exclusive_group()
    source.add_argument(
        "--from",
        dest="from_dir",
        default=None,
        metavar="DIR",
        help="re-render summaries from envelopes saved in DIR instead of "
        "running; combined with --out, re-saves them there (envelope files "
        "only — no run manifest, so the copy is not --resume-able)",
    )
    source.add_argument(
        "--resume",
        dest="resume_dir",
        default=None,
        metavar="DIR",
        help="complete an interrupted run: execute only the cells DIR's "
        "manifest does not mark done (sweep flags are taken from the manifest)",
    )

    study = sub.add_parser(
        "study", help="declarative study API: run grids, render views"
    )
    study_sub = study.add_subparsers(dest="study_command", required=True)

    study_sub.add_parser(
        "list", help="registered figures, tables, reports and metrics"
    )

    srun = study_sub.add_parser(
        "run", help="run a declarative study grid (default: the whole paper)"
    )
    srun.add_argument(
        "--figures",
        nargs="+",
        default=None,
        choices=list(FIGURES),
        metavar="FIGURE",
        help="restrict the grid to these figures' axes (default: all four)",
    )
    srun.add_argument(
        "--chips",
        nargs="+",
        default=list(paper.CHIPS),
        choices=list(paper.CHIPS),
        help="chips to run (default: all four)",
    )
    srun.add_argument(
        "--fast",
        action="store_true",
        help="model-only numerics and trimmed axes (the smoke grid)",
    )
    srun.add_argument("--seed", type=int, default=0, help="measurement noise seed")
    srun.add_argument(
        "--workers", type=int, default=1, help="parallel experiment cells"
    )
    srun.add_argument(
        "--backend",
        default=None,
        choices=list(BACKEND_NAMES),
        help="execution backend (default: vectorized for --workers 1, else "
        "sharded)",
    )
    srun.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="persist to a manifest-indexed store (re-running resumes it)",
    )
    srun.add_argument(
        "--quiet", action="store_true", help="suppress the per-cell progress line"
    )

    srender = study_sub.add_parser(
        "render", help="render a figure, table or report from a store or live"
    )
    srender.add_argument(
        "name",
        choices=[*FIGURES, *TABLES, "efficiency", "compare"],
        help="what to render",
    )
    srender.add_argument(
        "--from",
        dest="from_dir",
        default=None,
        metavar="DIR",
        help="render from envelopes saved in DIR instead of running",
    )
    srender.add_argument(
        "--chips",
        nargs="+",
        default=None,
        choices=list(paper.CHIPS),
        help="chips to include (default: whatever the store holds)",
    )
    srender.add_argument(
        "--fast", action="store_true", help="live runs use the smoke grid"
    )
    srender.add_argument("--seed", type=int, default=0, help="noise seed (live runs)")
    srender.add_argument(
        "--workers", type=int, default=1, help="parallel cells (live runs)"
    )
    srender.add_argument("--csv", action="store_true", help="emit CSV instead of text")

    serve = sub.add_parser(
        "serve", help="experiment service over a shared result-cache store"
    )
    serve.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="shared manifest-indexed store (created if missing; restarting "
        "on the same DIR resumes interrupted jobs and keeps the cache warm)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765, help="bind port")
    serve.add_argument(
        "--backend",
        default=None,
        choices=list(BACKEND_NAMES),
        help="execution backend for submitted grids (vectorized recommended "
        "for pure-model sweeps)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="parallel cells per job"
    )
    serve.add_argument(
        "--job-workers", type=int, default=2, help="concurrently executing jobs"
    )
    serve.add_argument(
        "--numerics",
        default="sampled",
        choices=list(NUMERICS_PROFILES),
        help="session numerics profile (one store = one session fingerprint)",
    )
    serve.add_argument("--seed", type=int, default=0, help="session default seed")
    serve.add_argument(
        "--max-retries",
        dest="max_retries",
        type=int,
        default=None,
        metavar="N",
        help="per-cell transient-failure retries for every job (default: 2)",
    )
    serve.add_argument(
        "--cell-timeout",
        dest="cell_timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell deadline arming hung-worker detection in the sharded "
        "backend, which gives each shard this times its cell count "
        "(default: no deadline)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )

    submit = sub.add_parser(
        "submit", help="submit a study or sweep to a running experiment service"
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8765", help="service base URL"
    )
    submit.add_argument(
        "--study",
        action="store_true",
        help="submit the declarative paper study instead of a single sweep",
    )
    submit.add_argument(
        "--figures",
        nargs="+",
        default=None,
        choices=list(FIGURES),
        metavar="FIGURE",
        help="with --study: restrict the grid to these figures' axes",
    )
    submit.add_argument(
        "--fast",
        action="store_true",
        help="with --study: model-only numerics and trimmed axes",
    )
    submit.add_argument(
        "--kind",
        default="gemm",
        choices=list(workload_kinds()),
        help="sweep workload kind (ignored with --study)",
    )
    submit.add_argument(
        "--chips",
        nargs="+",
        default=None,
        choices=list(paper.CHIPS),
        help="chips to run (default: all four)",
    )
    submit.add_argument(
        "--impls", nargs="+", default=None, metavar="KEY",
        help="implementation keys (sweep submissions)",
    )
    submit.add_argument(
        "--sizes", nargs="+", type=int, default=None, metavar="N",
        help="problem sizes (sweep submissions)",
    )
    submit.add_argument(
        "--targets",
        nargs="+",
        default=["cpu", "gpu"],
        choices=["cpu", "gpu"],
        help="target processors (sweep submissions)",
    )
    submit.add_argument(
        "--repeats", type=int, default=None, help="repetitions per cell"
    )
    submit.add_argument("--seed", type=int, default=0, help="measurement noise seed")
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="return after queueing instead of polling to completion",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0, help="--wait poll timeout (s)"
    )
    submit.add_argument(
        "--json", action="store_true", help="emit the final job record as JSON"
    )

    query = sub.add_parser(
        "query", help="query a running experiment service's warm store"
    )
    query.add_argument(
        "--url", default="http://127.0.0.1:8765", help="service base URL"
    )
    query.add_argument(
        "--figure",
        default=None,
        metavar="NAME",
        choices=[*FIGURES, *TABLES, "efficiency"],
        help="render a registered figure/table/report from the store",
    )
    query.add_argument(
        "--chips",
        nargs="+",
        default=None,
        choices=list(paper.CHIPS),
        help="chips to include",
    )
    query.add_argument(
        "--fields",
        nargs="+",
        default=None,
        metavar="FIELD",
        help="tidy-record columns to fetch (e.g. chip kind gflops)",
    )
    query.add_argument(
        "--where",
        nargs="+",
        default=None,
        metavar="FIELD=VALUE",
        help="equality/membership filters (e.g. kind=gemm chips=M1,M4)",
    )
    query.add_argument(
        "--grid",
        default=None,
        metavar="REF",
        help="restrict to one job id's (or grid hash's) cells",
    )
    query.add_argument(
        "--csv", action="store_true", help="emit CSV instead of JSON records"
    )

    gh = sub.add_parser("gh200", help="GH200 reference points (sections 4-5)")
    gh.add_argument("--fast", action="store_true")

    stream = sub.add_parser(
        "stream", help="one STREAM run with classic stream.c-style output"
    )
    stream.add_argument("--chip", default="M4", choices=list(paper.CHIPS))
    stream.add_argument("--target", default="cpu", choices=["cpu", "gpu"])
    stream.add_argument("--fast", action="store_true")

    roof = sub.add_parser(
        "roofline", help="roofline placement of the GEMM implementations"
    )
    roof.add_argument(
        "--chips", nargs="+", default=list(paper.CHIPS), choices=list(paper.CHIPS)
    )
    roof.add_argument("--n", type=int, default=16384)

    cal = sub.add_parser(
        "calibrate",
        help="fit the simulator against a measured trace; report per-chip MAPE",
    )
    cal_src = cal.add_mutually_exclusive_group()
    cal_src.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="JSON trace file (see MeasuredTrace.save)",
    )
    cal_src.add_argument(
        "--against",
        default="paper",
        choices=["paper", "synthetic"],
        help="built-in trace: the paper's published numbers, or a "
        "self-calibration trace synthesized from the anchored simulator",
    )
    cal.add_argument(
        "--chips",
        nargs="+",
        default=None,
        choices=list(paper.CHIPS),
        help="chips to fit (default: all chips in the trace)",
    )
    cal.add_argument(
        "--backend",
        default=None,
        choices=["serial", "vectorized"],
        help="candidate-sweep backend (default: vectorized; sharded workers "
        "cannot see the in-process derived-chip registry)",
    )
    cal.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write calibration.json and the resumable candidate store to DIR",
    )
    cal.add_argument(
        "--points", type=int, default=9, help="grid points per knob per round"
    )
    cal.add_argument(
        "--rounds", type=int, default=4, help="refinement rounds after the coarse grid"
    )
    cal.add_argument("--seed", type=int, default=0, help="search seed")
    cal.add_argument(
        "--json", action="store_true", help="emit the result artifact JSON"
    )
    cal.add_argument(
        "--quiet", action="store_true", help="suppress per-round progress"
    )

    exp = sub.add_parser(
        "experiments", help="run the reproduction and write EXPERIMENTS.md"
    )
    exp.add_argument("--output", default="EXPERIMENTS.md")
    exp.add_argument("--seed", type=int, default=0)

    alls = sub.add_parser("all", help="everything, in paper order")
    alls.add_argument("--fast", action="store_true")
    alls.set_defaults(**figure_defaults)
    return parser


def _figure_frame(args, figures, *, fast: bool = False) -> ResultFrame:
    """The frame a figure command renders: DIR's store (``--from``), or one
    study over ``figures``' grids (``None``: all four).

    ``args.fast`` selects model-only numerics; ``fast`` also trims the grid
    to the smoke axes, as ``repro study render --fast`` does.  With
    ``--out DIR`` the run's envelopes are saved to DIR.
    """
    if args.from_dir is not None:
        return ResultFrame.from_store(args.from_dir)
    study = paper_study(
        tuple(args.chips) if args.chips else None,
        seed=args.seed,
        fast=fast,
        figures=figures,
    )
    session = study_session(study, fast=args.fast)
    frame = run_study(study, session=session, max_workers=args.workers)
    if getattr(args, "out", None):
        paths = save_envelopes(args.out, session.cached_envelopes())
        print(f"[wrote {len(paths)} envelopes to {args.out}]", file=sys.stderr)
    return frame


def _figure1_csv_rows(data: dict) -> list[dict]:
    rows = []
    for chip, entry in data.items():
        for target in ("cpu", "gpu"):
            for kernel, gbs in entry.get(target, {}).items():
                rows.append(
                    {
                        "chip": chip,
                        "target": target,
                        "kernel": kernel,
                        "bandwidth_gbs": round(gbs, 2),
                    }
                )
    return rows


def _print_figure(name: str, frame: ResultFrame, chips, args) -> None:
    """One figure's series from ``frame``: an ASCII chart (``--chart``,
    figures 1 and 2), CSV, or the text the service also serves."""
    data = get_figure(name).series(frame, chips=chips)
    if getattr(args, "chart", False) and name in ("figure1", "figure2"):
        from repro.analysis import plots

        print(getattr(plots, f"{name}_chart")(data))
    elif not args.csv:
        print(render_figure_text(name, data))
    elif name == "figure1":
        print(rows_to_csv(_figure1_csv_rows(data)), end="")
    else:
        value_name = get_figure(name).value_name
        print(rows_to_csv(figure_series_to_rows(data, value_name)), end="")


def _sorted_envelopes(envelopes) -> list:
    """Deterministic, human-scannable emission order.

    Sorting by (kind, chip, variant, size) — falling back to the spec hash
    for anything else — keeps rows grouped the way a sweep reads while
    making live runs and ``--from`` re-renders byte-identical regardless of
    sweep expansion or directory listing order.
    """

    from repro.workloads.base import spec_size, spec_variant

    def key(env):
        spec = env.spec
        return (
            env.kind,
            spec.chip,
            spec_variant(spec),
            spec_size(spec),
            env.spec_hash,
        )

    return sorted(envelopes, key=key)


def _emit_envelopes(args, envelopes) -> None:
    """Render envelopes as JSON or per-kind summary lines (registry-driven).

    ``--on-error collect`` runs leave ``None`` holes at failed cells'
    positions — those are reported separately (stderr) and skipped here.
    """
    ordered = _sorted_envelopes([env for env in envelopes if env is not None])
    if getattr(args, "json", False):
        import json as _json

        print(
            _json.dumps(
                [env.to_dict() for env in ordered], indent=2, sort_keys=True
            )
        )
        return
    for env in ordered:
        print(get_workload(env.kind).summary_line(env.spec, env.result))


def _run_progress(args):
    """Per-cell progress printer that also counts executed cells.

    Returns ``(progress, executed)``: the hook only fires for cells that
    actually ran (manifest-skipped cells never reach it), so ``executed``
    ends up holding the true number of envelope files written.
    """
    executed = [0]

    def progress(done: int, total: int, envelope) -> None:
        executed[0] += 1
        if getattr(args, "quiet", False) or getattr(args, "json", False):
            return
        cell = get_workload(envelope.kind).cell_label(envelope.spec)
        # streaming backends report total < 0 while the grid's size is
        # still unknown (the stream's end defines it)
        shown = total if total >= 0 else "?"
        print(f"[{done}/{shown}] {cell}", file=sys.stderr)

    return progress, executed


def _effective_backend(args):
    """The backend argument for ``repro run``: a name, or a configured
    :class:`~repro.experiments.backends.ShardedBackend` when ``--shard-size``
    tunes it (which also selects sharded when no backend is named)."""
    shard_size = getattr(args, "shard_size", None)
    if shard_size is None:
        return args.backend
    if args.backend not in (None, "sharded"):
        raise ReproError("--shard-size only applies to --backend sharded")
    from repro.experiments.backends import ShardedBackend

    return ShardedBackend(args.workers, shard_size)


def _retry_from_args(args) -> RetryPolicy | None:
    """The retry policy ``--max-retries``/``--cell-timeout`` describe
    (``None`` when neither flag was given — the stock defaults apply)."""
    overrides = {}
    if getattr(args, "max_retries", None) is not None:
        overrides["max_retries"] = args.max_retries
    if getattr(args, "cell_timeout", None) is not None:
        overrides["cell_timeout"] = args.cell_timeout
    return RetryPolicy(**overrides) if overrides else None


def _report_health(args, health: RunHealth) -> None:
    """Surface the run-health report on stderr when anything happened."""
    if not health.eventful:
        return
    print(f"[run health: {health.summary()}]", file=sys.stderr)
    for failure in health.failures:
        print(f"[failed] {failure}", file=sys.stderr)


def _run_sweep(args) -> int:
    """The ``repro run`` subcommand: declarative sweep -> envelopes.

    With ``--from DIR`` no cells execute; the saved envelopes re-render
    through the same registry summary path.  With ``--resume DIR`` the
    sweep, session and completion state all come from DIR's manifest, and
    only cells not marked done (failed cells included) execute.  With
    ``--out DIR`` envelopes land in the sharded store as cells complete,
    indexed by a ``manifest.json`` that a later ``--resume`` picks up.

    Returns the exit code: under ``--on-error collect`` a run with failed
    cells finishes its siblings, reports the failures on stderr and exits
    1 instead of aborting.
    """
    out_dir = args.out
    written = 0
    exec_backend = _effective_backend(args)
    retry = _retry_from_args(args)
    health = RunHealth()
    if args.from_dir is not None:
        envelopes = load_envelopes(args.from_dir)
        if not args.quiet:
            print(
                f"[rendering {len(envelopes)} stored envelopes from "
                f"{args.from_dir}; sweep flags are ignored]",
                file=sys.stderr,
            )
        if args.out:  # re-save: migrates legacy flat stores to sharded
            written = len(save_envelopes(args.out, envelopes))
    elif args.resume_dir is not None:
        if args.out:
            raise ReproError(
                "--resume already names the output store; --out cannot "
                "redirect it (cells land back in the resumed directory)"
            )
        manifest = RunManifest.load(args.resume_dir)
        session = manifest.make_session(cache_dir=args.cache)
        counts = manifest.status_counts()
        if not args.quiet:
            pending = sum(
                n for status, n in counts.items() if status != "done"
            )
            print(
                f"[resuming {args.resume_dir}: {counts.get('done', 0)} cells "
                f"done, {pending} to run; sweep flags are ignored]",
                file=sys.stderr,
            )
        progress, executed = _run_progress(args)
        envelopes, manifest = run_with_manifest(
            session,
            manifest.specs(),
            args.resume_dir,
            backend=exec_backend,
            max_workers=args.workers,
            progress=progress,
            manifest=manifest,
            on_mismatch="error",  # resuming claims continuation, never a redo
            load_done=bool(args.json),  # done cells re-read only for --json
            on_error=args.on_error,
            retry=retry,
            health=health,
        )
        written = executed[0]
        out_dir = args.resume_dir
    else:
        sweep = SweepSpec(
            kind=args.kind,
            chips=tuple(args.chips),
            impl_keys=tuple(args.impls) if args.impls else (),
            sizes=tuple(args.sizes) if args.sizes else (),
            targets=tuple(args.targets),
            repeats=args.repeats,
            seed=args.seed,
        )
        session = Session(
            numerics=args.numerics, seed=args.seed, cache_dir=args.cache
        )
        # the sweep goes down un-expanded: run_with_manifest expands it
        # once, and run_batch streams it to the sharded backend, which never
        # holds the whole grid in this process
        progress, executed = _run_progress(args)
        if args.out:
            envelopes, _ = run_with_manifest(
                session,
                sweep,
                args.out,
                backend=exec_backend,
                max_workers=args.workers,
                progress=progress,
                on_error=args.on_error,
                retry=retry,
                health=health,
            )
            written = executed[0]
        else:
            envelopes = session.run_batch(
                sweep,
                max_workers=args.workers,
                backend=exec_backend,
                progress=progress,
                on_error=args.on_error,
                retry=retry,
                health=health,
            )
    _report_health(args, health)
    if out_dir:
        print(f"wrote {written} envelopes to {out_dir}")
    if args.json or not out_dir:
        _emit_envelopes(args, envelopes)
    return 1 if health.failures else 0


def _study_list() -> None:
    """The ``repro study list`` subcommand: every registered definition."""
    print("Figures (repro study render <name> [--from DIR]):")
    for fig in FIGURES.values():
        print(f"  {fig.name:10s} {fig.title}  [{fig.kind}: {fig.metric}]")
    print("\nTables:")
    for table in TABLES.values():
        print(f"  {table.name:10s} {table.title}")
    print("\nReports:")
    print("  efficiency GFLOPS/W across every power-bearing workload")
    print("  compare    paper-vs-measured comparison rows")
    print("\nFrame metrics (per workload kind):")
    for workload in all_workloads():
        names = ", ".join(sorted(workload.metrics)) or "—"
        print(f"  {workload.kind:14s} {names}")


def _study_run(args) -> None:
    """The ``repro study run`` subcommand: one declarative grid, optionally
    persisted to a resumable, manifest-indexed store."""
    study = paper_study(
        tuple(args.chips), seed=args.seed, fast=args.fast, figures=args.figures
    )
    session = study_session(study, fast=args.fast)
    progress, executed = _run_progress(args)
    frame = run_study(
        study,
        session=session,
        backend=args.backend,
        max_workers=args.workers,
        out=args.out,
        progress=progress,
    )
    # run_study returns the whole grid (manifest-skipped cells included),
    # so len(frame) is the compiled cell count.
    print(
        f"study {study.name} ({study.study_hash()}): {len(frame)} cells"
        + (f", {executed[0]} executed into {args.out}" if args.out else "")
    )
    if not args.out:
        _emit_envelopes(args, frame.envelopes)


def _study_render(args) -> None:
    """The ``repro study render`` subcommand: any view, from store or live."""
    if args.name in TABLES:
        if args.csv:
            raise ReproError(f"{args.name} has no CSV form; tables render as text")
        if args.name == "table1" and args.chips:
            print(get_table("table1").render(tuple(args.chips)))
        elif args.name == "calibration-mape" and args.chips:
            print(get_table(args.name).render(chips=tuple(args.chips)))
        elif args.chips:
            raise ReproError(f"{args.name} does not take --chips")
        else:
            print(get_table(args.name).render())
        return
    figures = [args.name] if args.name in FIGURES else None
    frame = _figure_frame(args, figures, fast=args.fast)
    chips = tuple(args.chips) if args.chips else None
    if args.name == "efficiency":
        if args.csv:
            from repro.study import efficiency_rows

            print(rows_to_csv(efficiency_rows(frame, chips=chips)), end="")
        else:
            print(render_efficiency_report(frame, chips=chips))
        return
    if args.name == "compare":
        print(render_comparison(compare_study(frame, chips=chips)))
        return
    _print_figure(args.name, frame, chips, args)


def _run_serve(args) -> None:
    """The ``repro serve`` subcommand: a blocking experiment service."""
    import time

    from repro.service import ExperimentService

    session = Session(numerics=args.numerics, seed=args.seed)
    service = ExperimentService(
        args.store,
        session=session,
        backend=args.backend,
        max_workers=args.workers,
        job_workers=args.job_workers,
        retry=_retry_from_args(args),
        host=args.host,
        port=args.port,
        verbose=args.verbose,
    )
    service.start()
    health = service.health()
    warm = health["cells"].get("done", 0)
    resumed = health["jobs"].get("queued", 0)
    print(
        f"experiment service listening on {service.url}",
        file=sys.stderr,
    )
    print(
        f"  store:   {health['store']} ({warm} cells warm"
        + (f", {resumed} interrupted jobs resuming" if resumed else "")
        + ")",
        file=sys.stderr,
    )
    print(f"  backend: {health['backend']}", file=sys.stderr)
    print(
        f"  try:     repro submit --study --fast --url {service.url}",
        file=sys.stderr,
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("\n[stopping; queued jobs resume on restart]", file=sys.stderr)
        service.stop()


def _submit_spec(args):
    """The spec a ``repro submit`` sends: the paper study or one sweep."""
    if args.study:
        return paper_study(
            tuple(args.chips) if args.chips else None,
            seed=args.seed,
            fast=args.fast,
            figures=args.figures,
        )
    return SweepSpec(
        kind=args.kind,
        chips=tuple(args.chips) if args.chips else tuple(paper.CHIPS),
        impl_keys=tuple(args.impls) if args.impls else (),
        sizes=tuple(args.sizes) if args.sizes else (),
        targets=tuple(args.targets),
        repeats=args.repeats,
        seed=args.seed,
    )


def _run_submit(args) -> None:
    """The ``repro submit`` subcommand: send a grid, poll it to done."""
    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    job = client.submit(_submit_spec(args))
    verb = "coalesced onto in-flight" if job["deduplicated"] else "queued"
    print(
        f"[{verb} job {job['id']} (grid {job['grid_hash']})]", file=sys.stderr
    )
    if not args.no_wait:
        job = client.wait(job["id"], timeout=args.timeout)
    if args.json:
        import json as _json

        print(_json.dumps(job, indent=2, sort_keys=True))
        return
    if args.no_wait:
        print(f"job {job['id']} {job['status']}: poll GET {args.url}/jobs/{job['id']}")
        return
    print(
        f"job {job['id']} done: {job['done']}/{job['total']} cells, "
        f"{job['executed']} executed, cache {job['cache_status']}"
    )


def _parse_where(pairs) -> dict:
    """``FIELD=VALUE`` pairs into a frame-filter dict.

    Comma-separated values become membership lists; numeric-looking tokens
    are coerced so ``size=4096`` matches the integer field.
    """

    def coerce(token: str):
        for cast in (int, float):
            try:
                return cast(token)
            except ValueError:
                continue
        return token

    where = {}
    for pair in pairs or ():
        field, sep, value = pair.partition("=")
        if not sep or not field or not value:
            raise ReproError(
                f"--where takes FIELD=VALUE pairs (e.g. kind=gemm), got {pair!r}"
            )
        tokens = [coerce(token) for token in value.split(",") if token]
        where[field] = tokens if len(tokens) > 1 else tokens[0]
    return where


def _run_query(args) -> None:
    """The ``repro query`` subcommand: read the service's warm store."""
    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    if args.figure:
        if args.fields or args.where or args.csv:
            raise ReproError(
                "--figure renders a registered view; it does not combine "
                "with --fields/--where/--csv"
            )
        print(client.figure(args.figure, chips=args.chips), end="")
        return
    if not args.fields:
        raise ReproError(
            "query needs --figure NAME or --fields COLUMN... "
            "(optionally with --where FIELD=VALUE)"
        )
    body: dict = {"fields": list(args.fields)}
    where = _parse_where(args.where)
    if args.chips:
        where.setdefault("chip", list(args.chips))
    if where:
        body["where"] = where
    if args.grid:
        body["grid"] = args.grid
    if args.csv:
        body["format"] = "csv"
        print(client.query(**body)["csv"], end="")
        return
    import json as _json

    print(_json.dumps(client.query(**body)["records"], indent=2, sort_keys=True))


def _run_study_command(args) -> None:
    if args.study_command == "list":
        _study_list()
    elif args.study_command == "run":
        _study_run(args)
    elif args.study_command == "render":
        _study_render(args)
    else:  # pragma: no cover - argparse enforces choices
        raise AssertionError(args.study_command)


def _run_gh200(fast: bool) -> None:
    from repro.sim.policy import NumericsConfig
    import numpy as np

    machine = GH200Machine(
        numerics=NumericsConfig.model_only() if fast else None
    )
    print("GH200 reference (sections 4-5)")
    for target, label in (("cpu", "Grace LPDDR5X"), ("hbm3", "Hopper HBM3")):
        # Large arrays keep overhead below 1%; with --fast the numerics are
        # skipped so the footprint costs nothing.
        result = run_gh200_stream(machine, target, n_elements=1 << 24)
        print(
            f"  STREAM {label:14s}: {result.max_gbs:7.1f} GB/s "
            f"({result.fraction_of_peak:.0%} of {result.theoretical_gbs:.0f})"
        )
    n = 4096 if fast else 16384
    for mode, label in (
        (CudaMathMode.CUDA_CORES_FP32, "CUDA cores (FP32)"),
        (CudaMathMode.TF32_TENSOR, "Tensor cores (TF32)"),
    ):
        handle = CublasHandle(machine, math_mode=mode)
        a = np.zeros((n, n), dtype=np.float32)
        b = np.zeros((n, n), dtype=np.float32)
        c = np.zeros((n, n), dtype=np.float32)
        t0 = machine.now_ns()
        from repro.cuda.cublas import CUBLAS_OP_N, cublas_sgemm

        cublas_sgemm(handle, CUBLAS_OP_N, CUBLAS_OP_N, n, n, n, 1.0, a, n, b, n, 0.0, c, n)
        elapsed = machine.now_ns() - t0
        tflops = n * n * (2 * n - 1) / elapsed / 1e3
        print(f"  cublasSgemm {label:18s}: {tflops:6.1f} TFLOPS (n={n})")


def _run_calibrate(args) -> None:
    """``repro calibrate``: fit the simulator, print the per-chip MAPE table."""
    from repro.calibrate import (
        MeasuredTrace,
        default_spec,
        load_trace,
        run_calibration,
        synthesize_trace,
    )
    from repro.study.defs import render_plain_table

    if args.trace is not None:
        trace = load_trace(args.trace)
    elif args.against == "synthetic":
        trace = synthesize_trace(chips=args.chips, backend=args.backend)
    else:
        trace = MeasuredTrace.from_paper(chips=args.chips)
    chips = tuple(args.chips) if args.chips else trace.chips
    spec = default_spec(
        chips=chips,
        coarse_points=args.points,
        refine_rounds=args.rounds,
        seed=args.seed,
    )
    log = None if (args.quiet or args.json) else (
        lambda line: print(line, file=sys.stderr)
    )
    result = run_calibration(
        trace, spec, backend=args.backend, out_dir=args.out, log=log
    )
    if args.json:
        print(result.to_json(), end="")
    else:
        headers, rows = result.mape_table()
        print(
            render_plain_table(
                headers,
                rows,
                title=f"Calibration MAPE vs {trace.source} trace "
                f"({result.cells_evaluated} cells, backend {result.backend})",
            )
        )
        print(
            f"\noverall MAPE: {result.overall_mape_pct:.3f}%  "
            f"(trace {trace.digest()}, spec {spec.spec_hash()})"
        )
    if args.out is not None:
        import pathlib as _pathlib

        print(
            f"wrote {_pathlib.Path(args.out) / 'calibration.json'}",
            file=sys.stderr,
        )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    command = args.command

    if command == "table1":
        print(render_table1())
    elif command == "table2":
        print(render_table2())
    elif command == "table3":
        print(render_table3())
    elif command == "references":
        print(render_reference_table())
    elif command == "workloads":
        print(render_workloads_table())
    elif command in FIGURES:
        _print_figure(command, _figure_frame(args, [command]), args.chips, args)
    elif command == "compare":
        frame = _figure_frame(args, ["figure1", "figure2", "figure4"])
        series = figure_series_bundle(frame, chips=args.chips)
        figs = {f"fig{n}": series[f"figure{n}"] for n in (1, 2, 4)}
        print(render_comparison(compare_to_paper(**figs)))
        print()
        for name, ok in shape_checks(**figs).items():
            print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    elif command == "run":
        return _run_sweep(args)
    elif command == "study":
        _run_study_command(args)
    elif command == "serve":
        _run_serve(args)
    elif command == "submit":
        _run_submit(args)
    elif command == "query":
        _run_query(args)
    elif command == "gh200":
        _run_gh200(args.fast)
    elif command == "stream":
        from repro.core.stream.report import render_stream_report
        from repro.core.stream.runner import run_stream as _run_stream
        from repro.sim.machine import Machine
        from repro.sim.policy import NumericsConfig

        machine = Machine.for_chip(
            args.chip,
            numerics=NumericsConfig.model_only() if args.fast else None,
        )
        print(render_stream_report(_run_stream(machine, args.target)))
    elif command == "roofline":
        from repro.analysis.roofline_analysis import render_roofline, roofline_points
        from repro.core.gemm.registry import paper_implementation_keys
        from repro.sim.policy import NumericsConfig
        from repro.sim.machine import Machine

        for chip in args.chips:
            machine = Machine.for_chip(chip, numerics=NumericsConfig.model_only())
            points = roofline_points(
                machine, paper_implementation_keys(), n=args.n
            )
            print(render_roofline(machine, points))
            print()
    elif command == "calibrate":
        _run_calibrate(args)
    elif command == "experiments":
        from repro.analysis.experiments_report import generate_experiments_report

        report = generate_experiments_report(seed=args.seed)
        import pathlib as _pathlib

        _pathlib.Path(args.output).write_text(report)
        print(f"wrote {args.output} ({len(report.splitlines())} lines)")
    elif command == "all":
        for block in (render_table1(), render_table2(), render_table3()):
            print(block)
            print()
        frame = _figure_frame(args, None)
        for name, data in figure_series_bundle(frame, chips=args.chips).items():
            print(render_figure_text(name, data))
            print()
        _run_gh200(args.fast)
        print()
        print(render_reference_table())
    else:  # pragma: no cover - argparse enforces choices
        raise AssertionError(command)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
