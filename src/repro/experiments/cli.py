"""Command-line entry point for regenerating paper artefacts.

Usage::

    python -m repro.experiments.cli fig2          # one figure
    python -m repro.experiments.cli table2 --suite quick
    python -m repro.experiments.cli all --suite full
    python -m repro.experiments.cli engine --matrix pdb1 --policy autotune --iters 5
    python -m repro.experiments.cli engine --pipeline rcm+fixed:8+cluster
    python -m repro.experiments.cli engine --pipeline rcm@scipy
    python -m repro.experiments.cli engine --backend reference
    python -m repro.experiments.cli pipelines      # registered components
    python -m repro.experiments.cli serve --port 7077          # long-lived service
    python -m repro.experiments.cli serve --serve-requests 24  # loopback smoke

Prints the same paper-style tables the benchmark harness saves under
``benchmarks/results/`` (the pytest benches additionally time the
kernels and assert the paper's shape; this CLI is the lightweight
rendering path).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..analysis import (
    amortization_profile,
    best_of,
    ratio_profile,
    render_box_figure,
    render_dataset_bars,
    render_matrix_table,
    render_profile,
    render_table2,
    summarize_speedups,
)
from ..matrices import REPRESENTATIVE, TALLSKINNY, suite_names
from .cache import cached_matrix_sweep, cached_tallskinny_sweep, sweep_suite
from .config import ExperimentConfig

REORDER_ORDER = ["shuffled", "rabbit", "amd", "rcm", "nd", "gp", "hp", "gray", "degree", "slashburn"]


def _suite(args) -> list[str]:
    if args.suite == "quick":
        return suite_names("standard")[:16]
    return suite_names(args.suite)


#: ``--suite quick`` for the representative-dataset figures (8, 9): the
#: two of :data:`REPRESENTATIVE` that sweep fastest from an empty cache
#: (about 1.6 and 6.6 s on a 2-core host; ``conf5`` takes 38 s).
QUICK_REPRESENTATIVE = ["pdb1", "AS365"]


def _representative(args) -> list[str]:
    return QUICK_REPRESENTATIVE if args.suite == "quick" else REPRESENTATIVE


def fig2(args) -> str:
    sweeps = sweep_suite(_suite(args), ExperimentConfig(), verbose=args.verbose)
    per = {a: [s.speedup("rowwise", a) for s in sweeps] for a in REORDER_ORDER}
    per["hierarchical"] = [
        s.baseline_time / s.hierarchical_rowwise.time if s.hierarchical_rowwise else float("nan") for s in sweeps
    ]
    return render_box_figure("Figure 2: row-wise SpGEMM speedup after reordering", {a: summarize_speedups(v) for a, v in per.items()})


def fig3(args) -> str:
    sweeps = sweep_suite(_suite(args), ExperimentConfig(), verbose=args.verbose)
    boxes = {}
    for variant in ("fixed", "variable"):
        for a in ["original"] + REORDER_ORDER:
            boxes[f"{variant}/{a}"] = summarize_speedups([s.speedup(variant, a) for s in sweeps])
    boxes["hierarchical"] = summarize_speedups(
        [s.baseline_time / s.hierarchical.time for s in sweeps if s.hierarchical]
    )
    return render_box_figure("Figure 3: cluster-wise SpGEMM with reordering", boxes)


def fig8(args) -> str:
    cfg = ExperimentConfig()
    names = _representative(args)
    series = {"fixed": [], "variable": [], "hierarchical": []}
    for name in names:
        s = cached_matrix_sweep(name, cfg)
        series["fixed"].append(s.speedup("fixed", "original"))
        series["variable"].append(s.speedup("variable", "original"))
        series["hierarchical"].append(s.baseline_time / s.hierarchical.time)
    return render_dataset_bars("Figure 8: cluster-wise SpGEMM on representative datasets", names, series)


def fig9(args) -> str:
    cfg = ExperimentConfig()
    algos = ["amd", "rcm", "gp", "hp"]
    names = _representative(args)
    series = {a: [] for a in algos}
    for name in names:
        s = cached_matrix_sweep(name, cfg)
        for a in algos:
            series[a].append(s.speedup("rowwise", a))
    return render_dataset_bars("Figure 9: row-wise SpGEMM speedup (AMD/RCM/GP/HP)", names, series)


def fig10(args) -> str:
    sweeps = sweep_suite(_suite(args), ExperimentConfig(), verbose=args.verbose)
    profiles = {}
    for a in [x for x in REORDER_ORDER if x != "hp"]:
        profiles[a] = amortization_profile(
            [s.rowwise[a].amortization_iterations(s.baseline_time) for s in sweeps], max_x=20
        )
    profiles["hierarchical"] = amortization_profile(
        [s.hierarchical.amortization_iterations(s.baseline_time) for s in sweeps if s.hierarchical], max_x=20
    )
    return render_profile("Figure 10: reordering amortisation profile", profiles, xs=[1, 2, 5, 10, 20])


def fig11(args) -> str:
    sweeps = sweep_suite(_suite(args), ExperimentConfig(), verbose=args.verbose)
    profiles = {
        m: ratio_profile([s.memory_ratio[m] for s in sweeps if m in s.memory_ratio], max_x=5.0)
        for m in ("fixed", "variable", "hierarchical")
    }
    return render_profile("Figure 11: cluster-format memory vs CSR", profiles, xs=[0.75, 1, 1.5, 2, 3, 5])


def table2(args) -> str:
    sweeps = sweep_suite(_suite(args), ExperimentConfig(), verbose=args.verbose)
    rows = {}
    for a in REORDER_ORDER:
        rows[a.capitalize()] = {v: [s.speedup(v, a) for s in sweeps] for v in ("rowwise", "fixed", "variable")}
    rows["Best Reord."] = {
        v: best_of({a: [s.speedup(v, a) for s in sweeps] for a in REORDER_ORDER})
        for v in ("rowwise", "fixed", "variable")
    }
    return render_table2(rows)


def table3(args) -> str:
    cfg = ExperimentConfig()
    grid = np.zeros((len(TALLSKINNY), len(REORDER_ORDER) + 1))
    for i, name in enumerate(TALLSKINNY):
        res = cached_tallskinny_sweep(name, cfg)
        vals = [res.rowwise_speedup.get(a, float("nan")) for a in REORDER_ORDER]
        grid[i, :-1] = vals
        grid[i, -1] = np.nanmax(vals)
    return render_matrix_table("Table 3: tall-skinny speedup after reordering", TALLSKINNY, REORDER_ORDER + ["Best"], grid)


def table4(args) -> str:
    cfg = ExperimentConfig()
    grid = np.full((len(TALLSKINNY), 10), np.nan)
    for i, name in enumerate(TALLSKINNY):
        res = cached_tallskinny_sweep(name, cfg)
        vals = res.hierarchical_speedup[:10]
        grid[i, : len(vals)] = vals
    return render_matrix_table(
        "Table 4: hierarchical cluster-wise speedup per BC iteration", TALLSKINNY, [f"i{k}" for k in range(1, 11)], grid, mean_col=True
    )


def engine_demo(args) -> str:
    """Run the execution engine on one suite matrix and report the plan,
    amortisation ledger and plan-cache behaviour (the ``engine`` command).

    ``--pipeline`` pins an explicit declarative spec (e.g.
    ``rcm+fixed:8+cluster``, or ``rcm@scipy`` for the native backend,
    which reads only the reordering) instead of searching with
    ``--policy``; ``--backend`` pins the execution backend every plan
    targets (``auto`` is an alias of ``scipy``).

    Observability flags (DESIGN.md §12): ``--replay N`` runs a seeded
    synthetic trace of N requests through the engine instead of the
    demo loop and prints the structured replay report; ``--trace PATH``
    streams every span the engine emits to a JSONL file;
    ``--stats-json PATH`` writes the final ledger snapshot
    (``EngineStats.to_dict``) as JSON.
    """
    from ..engine import SpGEMMEngine
    from ..matrices import get_matrix

    tracer = None
    trace_sink = None
    if args.trace:
        from ..obs import JsonlSink, Tracer

        trace_sink = JsonlSink(args.trace)
        tracer = Tracer(trace_sink)
    A = get_matrix(args.matrix)
    backend = args.backend or None
    lines = []
    if args.pipeline:
        eng = SpGEMMEngine(pipeline=args.pipeline, backend=backend, config=ExperimentConfig(), tracer=tracer)
        chosen = f"pipeline={eng.planner.spec}"
    else:
        eng = SpGEMMEngine(policy=args.policy, backend=backend, config=ExperimentConfig(), tracer=tracer)
        chosen = f"policy={args.policy}"
        if backend:
            chosen += f", backend={backend}"
    if args.replay:
        _engine_replay(args, eng, lines)
        _finish_obs(args, eng, trace_sink, lines)
        return "\n".join(lines)
    for _ in range(max(1, args.iters)):
        eng.multiply(A)
    plan = eng.plan_for(A)
    lines += [
        f"engine demo: {args.matrix} (n={A.nrows}, nnz={A.nnz}), {chosen}",
        f"plan: {plan.label}   predicted speedup {plan.predicted_speedup:.2f}x, "
        f"break-even after {plan.break_even_iterations():.1f} multiplies",
        f"spec: {plan.spec}",
        "",
        eng.stats().summary(),
    ]
    _finish_obs(args, eng, trace_sink, lines)
    return "\n".join(lines)


def _engine_replay(args, eng, lines) -> None:
    """The ``engine --replay N`` path: synthesise a seeded trace, replay
    it through the already-configured engine, report the result."""
    import json

    from ..workloads import synthesize_trace, replay

    trace = synthesize_trace(requests=args.replay, seed=args.replay_seed)
    lines.append(
        f"replaying {args.replay} requests (seed {args.replay_seed}, "
        f"population {trace.spec.population}) ..."
    )
    report = replay(trace, eng, progress=lambda done, total: print(f"  {done}/{total}", file=sys.stderr))
    lines.append(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    lines.append(f"wall clock: {report.wall_seconds:.2f}s (excluded from the report above)")


def _finish_obs(args, eng, trace_sink, lines) -> None:
    """Shared tail of the ``engine`` command: flush the JSONL trace and
    write the ``--stats-json`` ledger snapshot."""
    import json

    if trace_sink is not None:
        trace_sink.flush()
        trace_sink.close()
        lines.append(f"trace written: {args.trace}")
    if args.stats_json:
        with open(args.stats_json, "w") as fh:
            json.dump(eng.stats().to_dict(), fh, indent=2, sort_keys=True)
        lines.append(f"stats written: {args.stats_json}")


def serve_cmd(args) -> str:
    """Run the engine as a long-lived batching service (the ``serve``
    command; DESIGN.md §14).

    Wraps a :class:`~repro.serve.SpGEMMServer` in the JSONL socket
    front-end and either serves until a client sends ``shutdown`` (the
    default, blocking mode) or — with ``--serve-requests N`` — drives N
    seeded replay requests through a loopback :class:`ServeClient`,
    checks every answer bitwise against a sequential engine, and reports
    the serving stats (the CI smoke path).  ``--max-batch`` and
    ``--max-pending`` bound batches and admission control;
    ``--policy``, ``--backend``, ``--trace`` and
    ``--stats-json`` mean the same as for the ``engine`` command.
    """
    from ..engine import SpGEMMEngine
    from ..serve import ServeConfig, ServeRPCServer, SpGEMMServer

    tracer = None
    trace_sink = None
    if args.trace:
        from ..obs import JsonlSink, Tracer

        trace_sink = JsonlSink(args.trace)
        tracer = Tracer(trace_sink)
    eng = SpGEMMEngine(
        policy=args.policy, backend=args.backend or None, config=ExperimentConfig(), tracer=tracer
    )
    cfg = ServeConfig(max_batch=args.max_batch, max_pending=args.max_pending)
    server = SpGEMMServer(eng, cfg)
    rpc = ServeRPCServer(server, host=args.host, port=args.port)
    rpc.start()
    host, port = rpc.address
    lines = []
    try:
        if args.serve_requests is not None:
            lines += _serve_demo(args, host, port)
        else:
            print(f"serving on {host}:{port} (send op=shutdown to stop)", file=sys.stderr)
            rpc.wait_shutdown()
            lines.append(f"shutdown requested, draining {host}:{port}")
    finally:
        rpc.close()
    lines.append(server.stats().summary())
    _finish_obs(args, eng, trace_sink, lines)
    return "\n".join(lines)


def _serve_demo(args, host: str, port: int) -> list[str]:
    """The ``serve --serve-requests N`` loopback smoke: replay a seeded
    trace through a socket client and check every product bitwise
    against a fresh sequential engine (same policy/backend)."""
    from ..engine import SpGEMMEngine
    from ..serve import ServeClient, replay_sequential, results_identical
    from ..workloads import synthesize_trace, trace_operands

    trace = synthesize_trace(requests=args.serve_requests, seed=args.replay_seed)
    lines = [
        f"driving {args.serve_requests} seeded requests (seed {args.replay_seed}) "
        f"through {host}:{port} ..."
    ]
    served = []
    with ServeClient(host, port, client="cli-demo") as client:
        if not client.ping():
            raise RuntimeError(f"server at {host}:{port} did not answer ping")
        for _req, A, Bs in trace_operands(trace):
            for B in Bs:
                served.append(client.multiply(A, B))
    reference = SpGEMMEngine(
        policy=args.policy, backend=args.backend or None, config=ExperimentConfig()
    )
    expected = replay_sequential(reference, trace)
    identical = results_identical(served, expected)
    lines.append(
        f"served {len(served)} products, bitwise identical to sequential multiply: {identical}"
    )
    if not identical:
        raise SystemExit("serve smoke FAILED: served results differ from sequential multiply")
    return lines


def _pipeline_arg(text: str):
    """``--pipeline`` values: a parsed spec, or a usage error carrying the
    parser's message (which names a bad component and lists the valid
    ones)."""
    from ..pipeline import PipelineSpec

    try:
        return PipelineSpec.parse(text)
    except (KeyError, ValueError) as e:
        raise argparse.ArgumentTypeError(e.args[0]) from None


def _backend_arg(text: str) -> str:
    """``--backend`` values: checked against the registry, kept as given."""
    from ..backends import parse_backend

    try:
        parse_backend(text)
    except (KeyError, ValueError) as e:
        raise argparse.ArgumentTypeError(e.args[0]) from None
    return text


def pipelines_cmd(args) -> str:
    """List the registered pipeline components (the ``pipelines`` command)."""
    from ..pipeline import describe

    return describe()


#: Paper artefacts — what ``all`` regenerates.
ARTEFACTS = {
    "fig2": fig2,
    "fig3": fig3,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "table2": table2,
    "table3": table3,
    "table4": table4,
}

COMMANDS = {**ARTEFACTS, "engine": engine_demo, "pipelines": pipelines_cmd, "serve": serve_cmd}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.experiments.cli", description=__doc__)
    parser.add_argument("what", choices=[*COMMANDS, "all"], help="artefact to regenerate")
    parser.add_argument("--suite", default="standard", choices=["quick", "standard", "full"])
    parser.add_argument("--verbose", action="store_true", help="print sweep progress")
    parser.add_argument("--matrix", default="pdb1", help="suite matrix for the engine command")
    parser.add_argument(
        "--policy",
        default="autotune",
        choices=["heuristic", "autotune"],
        help="planner policy for the engine command",
    )
    parser.add_argument("--iters", type=int, default=5, help="multiplies to run in the engine command")
    parser.add_argument(
        "--pipeline",
        type=_pipeline_arg,
        default=None,
        metavar="SPEC",
        help="explicit pipeline spec for the engine command, e.g. rcm+fixed:8+cluster"
        " or rcm@scipy (scipy reads only the reordering) "
        "(overrides --policy; see the pipelines command for components)",
    )
    parser.add_argument(
        "--backend",
        type=_backend_arg,
        default=None,
        metavar="BACKEND",
        help="execution backend for the engine command: a registered backend name "
        "(scipy, or reference, the pure-python oracle); 'auto' is an alias of scipy "
        "(default: scipy, or reference when scipy is not installed)",
    )
    parser.add_argument(
        "--replay",
        type=int,
        default=None,
        metavar="N",
        help="engine command: replay a seeded synthetic trace of N requests "
        "(Zipf popularity, bursts, pattern churn) through the configured engine "
        "and print the structured report instead of the demo loop",
    )
    parser.add_argument(
        "--replay-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="trace seed for --replay (same seed, same trace, same report)",
    )
    parser.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="engine command: write the final EngineStats snapshot as JSON to PATH",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="engine command: stream every span/event the engine emits to PATH "
        "as JSON lines (inspect with jq or python -m json.tool)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve command: interface to bind the JSONL socket front-end to",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="serve command: TCP port (0 binds an ephemeral port and prints it)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=32,
        metavar="N",
        help="serve command: largest request group run as one multiply_many call",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=256,
        metavar="N",
        help="serve command: admission control — queued requests beyond N are "
        "load-shed with a typed ServerOverloaded rejection",
    )
    parser.add_argument(
        "--serve-requests",
        type=int,
        default=None,
        metavar="N",
        help="serve command: instead of serving forever, drive N seeded replay "
        "requests through a loopback client, verify bitwise against sequential "
        "multiply, print the serving stats and exit (the CI smoke path)",
    )
    args = parser.parse_args(argv)
    targets = list(ARTEFACTS) if args.what == "all" else [args.what]
    for t in targets:
        print(COMMANDS[t](args))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    sys.exit(main())
