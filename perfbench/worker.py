"""One cold pass of a benchmark workload, in a fresh interpreter.

Usage (started by ``run.py``, which puts the checkout's ``src`` on
``PYTHONPATH``)::

    python3 perfbench/worker.py table1-cold '{"seed": 3, "trace": 0}'
    python3 perfbench/worker.py profile-cold '{"seed": 3, "trace": 1}'
    python3 perfbench/worker.py serve-mixed '{"seed": 3, "trace": 1}'

The pass imports the program, reports when the import finished (the
end of set-up), runs the workload on a fresh memory-only artifact
store, and prints one JSON object as its last line of output: wall
and CPU time, per-operation latencies, peak RSS, output digests and —
with ``trace`` set — the layer ledger, or without it the speed the
probe of ``probe.py`` saw during the imports and the pass.  ``serve-mixed`` is only run here
traced: the daemon then lives on a thread of this process, so the
wrappers see every call.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import common
from probe import SignalProbe


def _imported(trace: bool) -> dict:
    """Import the program and its dependencies; time the set-up.

    ``imported`` is the epoch time the imports finished.  Unless the
    pass is traced, the speed probe runs during the imports:
    ``setup_probe_s`` is the time it took and ``setup_loop_s`` the
    speed it saw.
    """
    with SignalProbe(period=0.05, enabled=not trace) as probe:
        import repro  # noqa: F401
        import repro.api  # noqa: F401
        import repro.evaluation.table1  # noqa: F401
        import repro.io.serde  # noqa: F401
        import repro.serve  # noqa: F401
        import scipy.optimize  # noqa: F401
    return {"imported": time.time(), "setup_probe_s": probe.taken_s,
            "setup_loop_s": probe.loop_s}


def fresh_store():
    """Install and return a fresh memory-only default artifact store."""
    from repro.engine.store import ArtifactStore, set_default_store

    store = ArtifactStore()
    set_default_store(store)
    return store


def _store_counts(stores) -> dict[str, int]:
    hits = misses = puts = 0
    for store in stores:
        hits += store.stats.hits
        misses += store.stats.misses
        puts += store.stats.puts
    return {"engine.store.hits": hits, "engine.store.misses": misses,
            "engine.store.puts": puts}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _start_tracer(trace: bool):
    if not trace:
        return None
    from ledger import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _finish_trace(out: dict, tracer, name: str, start: float,
                  end: float, stores) -> None:
    """Attach the ledger of ``[start, end]`` and the counts to *out*."""
    from ledger import ledger

    tracer.uninstall()
    out["ledger"] = ledger(tracer.spans, start, end)
    out["counts"] = dict(tracer.counts, **_store_counts(stores))
    tracer.dump(common.OUT_DIR / f"spans-{name}.jsonl")


def run_table1(seed: int, trace: bool) -> dict:
    """``run_table1()`` at scale 1.0, serial, on a fresh store."""
    setup = _imported(trace)
    from repro.evaluation import table1 as table1_module
    from repro.io.serde import experiment_result_to_dict
    from ledger import OPERATION

    store = fresh_store()
    captured: list[tuple[str, list]] = []
    run_sweep = table1_module.run_sweep

    def capture(workload_name, *args, **kwargs):
        points = run_sweep(workload_name, *args, **kwargs)
        captured.append((workload_name, points))
        return points

    # Keep the per-point results run_table1 folds into energies, so
    # the resident sets and simulation counters can be checked too.
    table1_module.run_sweep = capture
    table1_seed = common.table1_seed(seed)
    tracer = _start_tracer(trace)
    OPERATION.set(f"table1/seed{table1_seed}")
    with SignalProbe(enabled=not trace) as probe:
        cpu_start = time.process_time()
        start = time.perf_counter()
        result = table1_module.run_table1(seed=table1_seed, jobs=1)
        end = time.perf_counter()
        cpu = time.process_time() - cpu_start
    out = dict(setup, wall_s=end - start - probe.taken_s,
               cpu_s=cpu - probe.taken_s, loop_s=probe.loop_s,
               input_seed=table1_seed)
    if tracer is not None:
        _finish_trace(out, tracer, f"table1-cold-{seed}", start, end,
                      [store])
    digests = {}
    consistent = True
    for benchmark, points in captured:
        block = result.benchmark(benchmark)
        for row, point in zip(block.rows, points):
            consistent &= (row.casa_energy == point.energy("casa")
                           and row.ross_energy == point.energy("ross"))
            for algorithm, res in point.results.items():
                key = f"{benchmark}/{point.spm_size}/{algorithm}"
                digests[key] = common.digest(
                    experiment_result_to_dict(res))
    out.update(
        digests=digests,
        consistent=consistent and len(captured) == len(
            common.TABLE1_BENCHMARKS),
        design_points=sum(len(b.rows) for b in result.benchmarks),
        overall_vs_steinke=result.overall_vs_steinke,
        overall_vs_loop_cache=result.overall_vs_loop_cache,
        fetches=sum(res.report.total_fetches
                    for _, points in captured for point in points
                    for res in point.results.values()),
        peak_rss_mb=_peak_rss_mb(),
    )
    return out


def run_profile(seed: int, trace: bool) -> dict:
    """``Session.simulate()`` + ``.conflict_graph()`` per codec and seed."""
    setup = _imported(trace)
    from repro.api import Session
    from repro.io.serde import conflict_graph_to_dict, report_to_dict
    from ledger import OPERATION

    store = fresh_store()
    tracer = _start_tracer(trace)
    outputs = []
    latencies = []
    with SignalProbe(enabled=not trace) as probe:
        cpu_start = time.process_time()
        start = time.perf_counter()
        for executor_seed in common.profile_seeds(seed):
            for codec in common.PROFILE_CODECS:
                key = f"{codec}/{executor_seed}"
                OPERATION.set(key)
                probed = probe.taken_s
                began = time.perf_counter()
                session = Session(codec, seed=executor_seed)
                report = session.simulate()
                graph = session.conflict_graph()
                latencies.append(time.perf_counter() - began
                                 - (probe.taken_s - probed))
                outputs.append((key, report, graph))
        end = time.perf_counter()
        cpu = time.process_time() - cpu_start
    out = dict(setup, wall_s=end - start - probe.taken_s,
               cpu_s=cpu - probe.taken_s, loop_s=probe.loop_s,
               latencies_s=latencies)
    if tracer is not None:
        _finish_trace(out, tracer, f"profile-cold-{seed}", start, end,
                      [store])
    out.update(
        digests={key: {"report": common.digest(report_to_dict(report)),
                       "graph": common.digest(
                           conflict_graph_to_dict(graph))}
                 for key, report, graph in outputs},
        profiles=len(outputs),
        fetches=sum(report.total_fetches for _, report, _ in outputs),
        peak_rss_mb=_peak_rss_mb(),
    )
    return out


def service_config():
    """The service configuration ``repro serve`` runs with by default."""
    from repro.resilience.healing import RetryPolicy
    from repro.serve import ServiceConfig

    return ServiceConfig(
        jobs=1, max_batch=8, max_delay_s=0.02, store_backend="memory",
        retry=RetryPolicy(max_attempts=3, timeout_s=None),
        stall_timeout=30.0, max_inflight=64, breaker_threshold=5,
        breaker_window_s=30.0, breaker_cooldown_s=5.0,
        retry_after_s=1.0,
    )


def run_serve_traced(seed: int) -> dict:
    """Both serve-mixed phases against an in-thread daemon, traced.

    The ledger's self times come from the one-client phase, where
    calls never overlap; counts add up over both phases.
    """
    setup = _imported(True)
    from repro.serve import AllocationService, start_in_thread
    from repro.serve.schema import DEFAULT_TENANT
    from ledger import CLIENT_SPAN, ledger

    import stream

    tracer = _start_tracer(True)
    out: dict = dict(setup, outcomes={})
    stores = []
    coalesced = 0
    for phase in ("c1", "c2"):
        requests = stream.build_phase(seed, phase)
        service = AllocationService(service_config())
        handle = start_in_thread(service)

        def on_request(payload, began, ended):
            tracer.record(CLIENT_SPAN, began, ended,
                          operation=common.digest(payload))

        try:
            run = stream.drive(handle.port, requests,
                               stream.PHASE_CLIENTS[phase],
                               on_request=on_request)
        finally:
            handle.stop()
        stores.append(service.tenant_store(DEFAULT_TENANT))
        coalesced += int(service.registry.counter(
            "serve.batch.coalesced").value)
        out["outcomes"][phase] = stream.outcomes(run, requests)
        if phase == "c1":
            out["ledger"] = ledger(tracer.spans, run.started,
                                   run.started + run.wall_s)
            out["wall_s"] = run.wall_s
    tracer.uninstall()
    counts = dict(tracer.counts, **_store_counts(stores))
    counts["serve.coalesced"] = coalesced
    out["counts"] = counts
    tracer.dump(common.OUT_DIR / f"spans-serve-mixed-{seed}.jsonl")
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def main(argv: list[str]) -> int:
    workload, options = argv[0], json.loads(argv[1])
    seed, trace = int(options["seed"]), bool(options["trace"])
    if workload == "table1-cold":
        out = run_table1(seed, trace)
    elif workload == "profile-cold":
        out = run_profile(seed, trace)
    elif workload == "serve-mixed":
        out = run_serve_traced(seed)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
