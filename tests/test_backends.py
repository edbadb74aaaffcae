"""The execution-backend API: registry entries, the ``@backend`` spec
grammar, the single dispatch path, engine integration (``scipy`` by
default, under the one result contract) and backend-aware plan-cache
keys."""

import numpy as np
import pytest

from conftest import assert_contract_equal
from repro.backends import ExecutionContext, execute, get_backend, parse_backend
from repro.core import spgemm_rowwise
from repro.engine import PlanCache, SpGEMMEngine
from repro.matrices import generators as G
from repro.pipeline import PipelineSpec, available_components, components, get_component

A = G.web_graph(220, seed=3)
REF = spgemm_rowwise(A, A)


def _bitwise(C):
    return C.same_pattern(REF) and np.array_equal(C.values, REF.values)


# ----------------------------------------------------------------------
# Registry entries
# ----------------------------------------------------------------------
def test_builtin_backends_registered_with_capabilities():
    names = available_components("backend")
    assert names == ["reference", "scipy"]
    assert get_backend("reference").honours_kernel and not get_backend("scipy").honours_kernel
    # No built-in backend takes parameters, and none is a planned
    # candidate: a planner targets the one backend it is given.
    for name in names:
        info = get_component("backend", name)
        assert info.planner_rank is None and info.params == (), name


def test_scipy_backend_registered_when_scipy_importable():
    import scipy  # noqa: F401  (the test env has it; skip-free assertion)

    info = get_component("backend", "scipy")
    assert info.kind == "backend" and isinstance(get_backend("scipy"), info.factory)


def test_get_backend_memoises_per_canonical_params():
    assert get_backend("reference") is get_backend("reference")
    # Tuple pairs and mappings name the same canonical (empty) params.
    a = get_backend("reference", ())
    assert get_backend("reference", {}) is a and a.name == "reference"
    assert get_backend("scipy") is not a
    with pytest.raises(KeyError) as e:
        get_backend("nope")
    assert "reference" in str(e.value)


def test_warm_get_backend_skips_canonicalising(monkeypatch):
    # A spec's backend parameters are canonical already: once the
    # instance exists, looking it up again canonicalises nothing.
    from repro import backends

    inst = get_backend("scipy", ())
    calls = []
    canonical = backends._canonical
    monkeypatch.setattr(backends, "_canonical", lambda *a: calls.append(a) or canonical(*a))
    spec = PipelineSpec.parse("rcm@scipy")
    assert get_backend(spec.backend, spec.backend_params) is inst
    assert calls == []
    assert get_backend("scipy", {}) is inst  # a mapping still canonicalises
    assert len(calls) == 1
    with pytest.raises(KeyError, match=r"unknown backend 'nope'; available: \['reference', 'scipy'\]"):
        get_backend("nope", ())


def test_parse_backend():
    assert parse_backend("scipy") == ("scipy", ())
    assert parse_backend(" reference ") == ("reference", ())
    assert parse_backend(("reference", {})) == ("reference", ())
    # No built-in backend takes parameters: any given one is unknown.
    with pytest.raises(ValueError):
        parse_backend("scipy:workers=2")


def test_describe_lists_backends():
    from repro.pipeline import describe

    text = describe()
    assert "backends:" in text
    backend_lines = text.split("backends:")[1].splitlines()[1:]
    assert [line.split()[0] for line in backend_lines] == ["reference", "scipy"]


# ----------------------------------------------------------------------
# Spec grammar: @backend round-trips and errors
# ----------------------------------------------------------------------
def test_spec_backend_round_trip():
    for s in (
        "rcm+fixed:8+cluster@scipy",
        "rcm@scipy",
        "original+variable+cluster@scipy",
        "rcm+hierarchical:max_th=8+tiled@scipy",
    ):
        spec = PipelineSpec.parse(s)
        assert PipelineSpec.parse(str(spec)) == spec
        assert "@" in str(spec)


def test_spec_default_backend_is_reference_and_omitted():
    spec = PipelineSpec.parse("rcm+fixed:8+cluster")
    assert spec.backend == "reference" and spec.backend_params == ()
    assert "@" not in str(spec)
    assert spec == PipelineSpec.parse("rcm+fixed:8+cluster@reference").with_backend("reference")


def test_spec_backend_only_string():
    spec = PipelineSpec.parse("@scipy")
    assert (spec.reordering, spec.clustering, spec.kernel, spec.backend) == (
        "original",
        None,
        "rowwise",
        "scipy",
    )
    assert PipelineSpec.parse(str(spec)) == spec


def test_spec_backend_errors():
    with pytest.raises(KeyError, match="backend"):
        PipelineSpec.parse("rcm@nope")
    with pytest.raises(ValueError, match="backend"):
        PipelineSpec.parse("rcm@scipy@scipy")
    with pytest.raises(ValueError, match="'@'"):
        PipelineSpec.parse("rcm@")
    # Backend names are not '+' segments.
    with pytest.raises(ValueError, match="@scipy"):
        PipelineSpec.parse("rcm+scipy")
    # Backend parameters go through the backend's (empty) schema.
    with pytest.raises(ValueError, match="workers"):
        PipelineSpec.parse("rcm@scipy:workers=2")


def test_spec_with_backend_and_label():
    spec = PipelineSpec.parse("rcm+fixed:8+cluster")
    s2 = spec.with_backend("scipy")
    assert s2.backend == "scipy" and s2.backend_params == ()
    # Labels carry the backend so distinct configurations stay distinct
    # in the engine ledger.
    assert s2.label == "rcm+fixed/cluster@scipy"
    assert spec.label == "rcm+fixed/cluster"
    assert s2.with_backend("reference") == spec


# ----------------------------------------------------------------------
# Dispatch: one path, correct results
# ----------------------------------------------------------------------
def test_context_accumulates_stats_across_executions():
    ctx = ExecutionContext()
    built = PipelineSpec.parse("original+none+rowwise").build(A)
    execute(built, A, kernel="rowwise", kernel_params={"accumulator": "sort"}, ctx=ctx)
    execute(built, A, kernel="rowwise", kernel_params={"accumulator": "sort"}, ctx=ctx)
    assert ctx.stats["reference_calls"] == 2


def test_context_bump_is_atomic_across_threads():
    # A serving engine's dispatch and caller threads share one context:
    # two threads of 200k bumps each must count 400k, not lose updates
    # to an unlocked read-modify-write.
    import sys
    import threading

    ctx = ExecutionContext()

    def hammer():
        for _ in range(200_000):
            ctx.bump("scipy_calls")

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert ctx.stats == {"scipy_calls": 400_000}


def test_scipy_backend_meets_the_contract():
    assert_contract_equal(PipelineSpec.parse("rcm+fixed:8+cluster@scipy").run(A), REF)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
def test_engine_default_backend_is_scipy():
    eng = SpGEMMEngine(policy="heuristic")
    assert_contract_equal(eng.multiply(A), REF)
    assert eng.plan_for(A).spec.backend == "scipy"
    assert eng.stats().backend_events.get("scipy_calls") == 1


def test_engine_reference_backend_stays_bitwise():
    eng = SpGEMMEngine(policy="heuristic", backend="reference")
    assert _bitwise(eng.multiply(A))
    assert eng.plan_for(A).spec.backend == "reference"


def test_engine_constructor_backend_pins_every_plan():
    eng = SpGEMMEngine(policy="heuristic", backend="scipy")
    C = eng.multiply(A)
    plan = eng.plan_for(A)
    assert plan.spec.backend == "scipy" and plan.label.endswith("@scipy")
    assert_contract_equal(C, REF)
    assert eng.stats().backend_events.get("scipy_calls") == 1


def test_plan_cache_keys_include_backend():
    # A plan tuned for scipy must never be served to a reference engine:
    # two engines sharing one cache build two distinct entries.
    cache = PlanCache()
    ref = SpGEMMEngine(policy="heuristic", backend="reference", plan_cache=cache)
    scipy = SpGEMMEngine(policy="heuristic", backend="scipy", plan_cache=cache)
    ref.multiply(A)
    scipy.multiply(A)
    for eng in (ref, scipy):
        assert eng.stats().plans_built == 1 and eng.stats().plan_cache_hits == 0
    assert len(cache) == 2
    assert (ref.plan_for(A).spec.backend, scipy.plan_for(A).spec.backend) == ("reference", "scipy")
    # And repeating each engine's call hits its own entry.
    ref.multiply(A)
    scipy.multiply(A)
    for eng in (ref, scipy):
        assert eng.stats().plans_built == 1 and eng.stats().plan_cache_hits == 1
    assert len(cache) == 2


def test_engine_auto_backend_plans_and_matches_pattern():
    eng = SpGEMMEngine(policy="heuristic", backend="auto")
    C = eng.multiply(A)
    plan = eng.plan_for(A)
    # "auto" is scipy: the execution contract holds.
    assert_contract_equal(C, REF)
    assert plan.spec.backend == "scipy"


def test_auto_backend_pins_a_pipeline_spec_to_scipy(capsys):
    # "auto" with a fixed pipeline pins the spec to scipy, like any other
    # backend name, in the engine and in the CLI.
    from repro.experiments.cli import main

    eng = SpGEMMEngine(pipeline="rcm", backend="auto")
    assert eng.plan_for(A).spec.backend == "scipy"
    assert eng.planner.spec.label == "rcm+csr/rowwise@scipy"
    assert_contract_equal(eng.multiply(A), REF)
    # Without a backend= the spec keeps its own (reference) backend.
    assert SpGEMMEngine(pipeline="rcm").plan_for(A).spec.backend == "reference"
    rc = main(["engine", "--matrix", "pdb1", "--pipeline", "rcm", "--backend", "auto", "--iters", "1"])
    assert rc == 0 and "plan: rcm+csr/rowwise@scipy" in capsys.readouterr().out


def test_engine_pipeline_spec_with_backend():
    eng = SpGEMMEngine(pipeline="rcm+fixed:8+cluster@reference")
    assert _bitwise(eng.multiply(A))
    plan = eng.plan_for(A)
    assert plan.spec.backend == "reference" and plan.pipeline() is plan.spec
    assert eng.stats().backend_events == {"reference_calls": 1}


def test_engine_multiply_many_with_backend():
    Bs = [G.web_graph(220, seed=s) for s in (10, 11)]
    eng = SpGEMMEngine(policy="heuristic", backend="scipy")
    outs = eng.multiply_many(A, Bs)
    for B, C in zip(Bs, outs):
        assert_contract_equal(C, spgemm_rowwise(A, B))


@pytest.mark.parametrize("call", ["multiply", "multiply_many", "power"])
@pytest.mark.parametrize("name", ["reference", "scipy"])
def test_engine_resolves_backend_once_per_call(monkeypatch, name, call):
    # A public call resolves its backend once, at bind time, and hands
    # that instance to every product it runs — no per-product lookup.
    import repro.engine.engine as engine_mod

    eng = SpGEMMEngine(policy="heuristic", backend=name)
    eng.multiply(A)  # plan and prepare outside the counted call
    lookups, dispatched = [], []
    real_get, real_execute = engine_mod.get_backend, engine_mod.backend_execute_many

    def counting_get(*args, **kwargs):
        lookups.append(args)
        return real_get(*args, **kwargs)

    def recording_execute(*args, backend, **kwargs):
        dispatched.append(backend)
        return real_execute(*args, backend=backend, **kwargs)

    monkeypatch.setattr(engine_mod, "get_backend", counting_get)
    monkeypatch.setattr(engine_mod, "backend_execute_many", recording_execute)
    Bs = [G.web_graph(220, seed=s) for s in (20, 21, 22)]
    if call == "multiply":
        outs, wants = [eng.multiply(A)], [REF]
    elif call == "multiply_many":
        outs, wants = eng.multiply_many(A, Bs), [spgemm_rowwise(A, B) for B in Bs]
    else:
        A3 = spgemm_rowwise(A, REF)
        outs, wants = [eng.power(A, 4)], [spgemm_rowwise(A, A3)]
    assert lookups == [(name, ())]
    # One dispatch per batch: multiply_many hands over all its products
    # at once, power one per step of its chain.
    assert len(dispatched) == {"multiply": 1, "multiply_many": 1, "power": 3}[call]
    assert all(be is real_get(name) for be in dispatched)
    for C, want in zip(outs, wants):
        assert_contract_equal(C, want)


@pytest.mark.parametrize("name", ["reference", "scipy"])
def test_builtin_backend_rejects_parameters(name):
    # No built-in backend takes a parameter (``workers``/``inner`` went
    # with the process-sharded backend): naming one is an error in the
    # backend grammar and in a pipeline spec alike.
    with pytest.raises(ValueError):
        parse_backend(f"{name}:workers=2")
    with pytest.raises(ValueError):
        parse_backend((name, {"inner": "scipy"}))
    with pytest.raises(ValueError):
        PipelineSpec.parse(f"rcm+fixed:8+rowwise@{name}:workers=2")
    assert parse_backend(f"{name}:") == (name, ())


def test_no_source_module_starts_processes_or_shares_memory():
    # Every built-in backend runs in the calling process, so the tier-1
    # leak guard only has threads to watch for: nothing under src/
    # imports multiprocessing or its shared-memory module.
    import ast
    from pathlib import Path

    import repro

    banned = ("multiprocessing", "concurrent.futures.process", "concurrent.futures.ProcessPoolExecutor")
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {n}" for n in names if n.startswith(banned)]
    assert offenders == []


def _sparsetools_importers(root):
    """Python files under ``root`` importing scipy's private
    ``scipy.sparse._sparsetools`` module (or a name from it)."""
    import ast

    found = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(n.startswith("scipy.sparse._sparsetools") for n in names):
                found.add(path.relative_to(root).as_posix())
    return found


def test_only_scipy_backend_imports_private_sparsetools(tmp_path):
    # scipy's unchecked C++ passes are called only where their buffers
    # are sized from a count taken on the same index arrays.
    import shutil
    from pathlib import Path

    import repro

    pkg = Path(repro.__file__).parent
    assert _sparsetools_importers(pkg) == {"backends/scipy_backend.py"}
    # An injected import anywhere else fails the scan.
    copy = tmp_path / "repro"
    shutil.copytree(pkg, copy, ignore=shutil.ignore_patterns("__pycache__"))
    for line in ("from scipy.sparse._sparsetools import csr_matmat", "from scipy.sparse import _sparsetools"):
        (copy / "engine" / "engine.py").write_text((pkg / "engine" / "engine.py").read_text() + f"\n{line}\n")
        assert _sparsetools_importers(copy) == {"backends/scipy_backend.py", "engine/engine.py"}


# ----------------------------------------------------------------------
# Planner robustness: reference-only registries
# ----------------------------------------------------------------------
def test_planner_valid_with_only_reference_registered(monkeypatch):
    from repro.backends import default_backend
    from repro.engine.fingerprint import fingerprint
    from repro.engine.planner import HeuristicPlanner
    from repro.pipeline import registry as reg

    only_ref = {
        k: v for k, v in reg._REGISTRY.items() if v.kind != "backend" or v.name == "reference"
    }
    monkeypatch.setattr(reg, "_REGISTRY", only_ref)
    # Without scipy, the default backend falls back to reference.
    assert default_backend() == ("reference", ())
    planner = HeuristicPlanner()
    plan, built = planner.plan(A, A, fingerprint(A), "asquare")
    assert plan.spec.backend == "reference" and built.spec is plan.spec
    assert {c.backend for c in planner._candidates(A)} == {"reference"}
    # "auto" is an alias of scipy, which this registry lacks: the error
    # names the alias instead of a bare registry miss.
    for make in (
        lambda: HeuristicPlanner(backend="auto"),
        lambda: PipelineSpec.parse("rcm").with_backend("auto"),
    ):
        with pytest.raises(ValueError, match="'auto' is an alias of 'scipy', which is not installed"):
            make()


# ----------------------------------------------------------------------
# Backend validation happens where the spec is built
# ----------------------------------------------------------------------
def test_spec_rejects_unknown_backend_and_backend_params():
    with pytest.raises(KeyError, match="unknown backend 'nope'"):
        PipelineSpec(backend="nope")
    with pytest.raises(ValueError, match="workers"):
        PipelineSpec(backend="scipy", backend_params=(("workers", 2),))


def test_plan_rejects_unknown_backend():
    # A plan is built from a spec, so no path hands the engine a plan on
    # an unregistered backend: the engine, its pipeline spec and a spec
    # re-targeted from a valid plan all fail with the registry's listing.
    plan = SpGEMMEngine(policy="heuristic").plan_for(A)
    for make in (
        lambda: SpGEMMEngine(policy="heuristic", backend="nope"),
        lambda: SpGEMMEngine(pipeline="rcm@nope"),
        lambda: plan.spec.with_backend("nope"),
    ):
        with pytest.raises(KeyError, match=r"unknown backend 'nope'; available: \['reference', 'scipy'\]"):
            make()
