"""The repository benchmark: cold table1, cold profiling, a mixed serve stream.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1-cold --seed 0 \\
        --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``table1-cold`` — ``run_table1()`` at scale 1.0, serial, each pass
  in a fresh interpreter on a fresh memory-only artifact store;
* ``profile-cold`` — ``Session.simulate()`` and ``.conflict_graph()``
  for all five codecs over seed-derived executor seeds, each pass in a
  fresh interpreter on a fresh store;
* ``serve-mixed`` — a real ``repro serve --port 0`` subprocess driven
  closed-loop by one client, then (on a fresh daemon) by two.

Passes repeat until ``--seconds`` is used up (with a minimum count
per workload), each batch pass on the inputs of the next seed, and
every figure is a median over them.  The gated times are scaled to a
reference CPU speed measured while each pass runs (see ``probe.py``);
raw times are printed beside them.  Every output
is checked against the golden digests under ``perfbench/golden``;
any failure, shed or mismatch counts in ``failed``.  With
``--trace 1`` one untraced and one traced pass run instead and the
per-layer ledger is reported.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request

import common
from common import (BENCH_DIR, OUT_DIR, ROOT, child_env, percentile,
                    tail_percentile)
from probe import Probe, scale

WORKLOADS = ("table1-cold", "profile-cold", "serve-mixed")

#: Passes a run makes at least, whatever ``--seconds`` says.
MIN_PASSES = {"table1-cold": 3, "profile-cold": 3, "serve-mixed": 2}

#: Seconds a worker pass or a daemon may take before the run aborts.
PASS_TIMEOUT_S = 150.0

#: The paper's Table 1 overall savings (CASA vs. Steinke / vs. LC).
PAPER_VS_STEINKE = 21.1
PAPER_VS_LOOP_CACHE = 28.6


class BenchError(RuntimeError):
    """A pass could not run at all (not an output failure)."""


# -- batch workloads -----------------------------------------------------


def worker_pass(workload: str, seed: int, trace: bool) -> dict:
    """One ``worker.py`` pass in a fresh interpreter.

    Adds ``setup_raw_s`` (spawn until the imports finished, less the
    speed probe's share) and, for an untraced pass, ``setup_s`` (the
    same at the reference speed).
    """
    spawned = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), workload,
             json.dumps({"seed": seed, "trace": int(trace)})],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} pass timed out") from error
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_raw_s"] = out["imported"] - spawned - out["setup_probe_s"]
    if not trace:
        out["setup_s"] = scale(out["setup_raw_s"], out["setup_loop_s"])
    return out


class Checker:
    """Counts attempted / failed / unchecked operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unchecked = 0
        self._first: dict = {}

    def check(self, key: str, value, golden) -> None:
        """Check one operation's digest against golden and earlier passes."""
        self.attempted += 1
        first = self._first.setdefault(key, value)
        if golden is None:
            self.unchecked += 1
            ok = first == value
        else:
            ok = golden == value
        if not ok:
            self.failed += 1


def check_table1(checker: Checker, out: dict) -> None:
    golden = common.load_golden("table1").get(str(out["input_seed"]))
    points: dict[str, dict] = {}
    for key, value in out["digests"].items():
        benchmark, size, algorithm = key.split("/")
        points.setdefault(f"{benchmark}/{size}", {})[algorithm] = value
    for point, value in sorted(points.items()):
        expected = None
        if golden is not None:
            expected = {algorithm: golden.get(f"{point}/{algorithm}")
                        for algorithm in value}
        checker.check(f"{out['input_seed']}/{point}", value, expected)
    if not out["consistent"] or len(points) != out["design_points"]:
        checker.failed += 1


def check_profile(checker: Checker, out: dict) -> None:
    golden = common.load_golden("profile")
    for key, value in sorted(out["digests"].items()):
        checker.check(key, value, golden.get(key))


def run_batch(workload: str, seed: int, seconds: float) -> dict:
    """Untraced passes until the time is used up."""
    checker = Checker()
    passes = []
    started = time.perf_counter()
    while True:
        # Every pass takes the inputs of the next seed, so a run's
        # median spans several inputs.
        out = worker_pass(workload, seed + len(passes), trace=False)
        (check_table1 if workload == "table1-cold"
         else check_profile)(checker, out)
        passes.append(out)
        elapsed = time.perf_counter() - started
        if (len(passes) >= MIN_PASSES[workload]
                and elapsed + elapsed / len(passes) > seconds):
            break
    walls = [scale(out["wall_s"], out["loop_s"]) for out in passes]
    if workload == "table1-cold":
        ops = passes[0]["design_points"]
        # Every design point reaches the caller when run_table1 returns.
        p50 = statistics.median(walls)
        tail, tail_label = max(walls), f"max of {len(walls)}"
    else:
        ops = passes[0]["profiles"]
        latencies = [scale(lat, out["loop_s"]) for out in passes
                     for lat in out["latencies_s"]]
        pct = tail_percentile(MIN_PASSES[workload] * ops)
        p50 = percentile(latencies, 50)
        tail = percentile(latencies, pct)
        tail_label = f"p{pct:g} of {len(latencies)}"
    metrics = {
        "setup_s": statistics.median(out["setup_s"] for out in passes),
        "cpu_s": statistics.median(scale(out["cpu_s"], out["loop_s"])
                                   for out in passes),
        "p50_ms": p50 * 1000.0,
        "peak_rss_mb": statistics.median(
            out["peak_rss_mb"] for out in passes),
    }
    raw_wall = statistics.median(out["wall_s"] for out in passes)
    loop_ms = statistics.median(out["loop_s"] for out in passes) * 1000.0
    printed = {
        "wall_s": (statistics.median(walls), "s"),
        "tail_ms": (tail * 1000.0, "ms", tail_label),
        "ops_per_s": (ops / statistics.median(walls), "1/s"),
        "raw.wall_s": (raw_wall, "s"),
        "raw.cpu_s": (statistics.median(out["cpu_s"] for out in passes),
                      "s"),
        "raw.setup_s": (statistics.median(out["setup_raw_s"]
                                          for out in passes), "s"),
        "probe.loop_ms": (loop_ms, "ms"),
    }
    info = {"passes": len(passes)}
    if workload == "table1-cold":
        info.update(
            design_points_per_pass=ops,
            fetches_simulated_per_pass=passes[0]["fetches"],
            profiles_built_per_pass=len(common.TABLE1_BENCHMARKS),
            input_seeds=[out["input_seed"] for out in passes],
            overall_vs_steinke=passes[0]["overall_vs_steinke"],
            overall_vs_loop_cache=passes[0]["overall_vs_loop_cache"],
        )
    else:
        info.update(
            profiles_built_per_pass=ops,
            fetches_simulated_per_pass=passes[0]["fetches"],
            executor_seeds=[common.profile_seeds(seed + index)
                            for index in range(len(passes))],
        )
    return {"metrics": metrics, "printed": printed, "checker": checker,
            "info": info}


# -- serve-mixed ---------------------------------------------------------


class Daemon:
    """A ``repro serve --port 0`` subprocess on an ephemeral port."""

    def __init__(self, log_name: str) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._log = open(OUT_DIR / log_name, "w")
        # The speed probe runs just before the spawn and just after
        # /readyz, while the daemon is not running or idle.
        probe = Probe()
        probe.burst()
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True)
        try:
            self.port = self._announced_port()
            self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_raw_s = time.perf_counter() - spawned
        probe.burst()
        self.setup_s = scale(self.setup_raw_s, probe.loop_s)

    def _announced_port(self) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=PASS_TIMEOUT_S):
                raise BenchError("daemon never announced its port")
        line = self.proc.stdout.readline()
        if "serving on http://" not in line:
            raise BenchError(f"unexpected daemon output {line!r}")
        return int(line.strip().rsplit(":", 1)[1])

    def _await_ready(self) -> None:
        deadline = time.perf_counter() + PASS_TIMEOUT_S
        url = f"http://127.0.0.1:{self.port}/readyz"
        while time.perf_counter() < deadline:
            try:
                with urllib.request.urlopen(url, timeout=5) as reply:
                    if reply.status == 200:
                        return
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(0.002)
        raise BenchError("daemon never became ready")

    def cpu_s(self) -> float:
        """CPU seconds the daemon has used so far (all its threads)."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        # utime and stime: fields 14 and 15 of the line, in clock ticks.
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def check_serve(checker: Checker, results: list, golden: dict) -> None:
    """Check ``(request digest, response digest)`` pairs of one phase."""
    for request, response in results:
        if response is None:
            checker.attempted += 1
            checker.failed += 1
        else:
            checker.check(request, response, golden.get(request))


def serve_pass(phases: dict, checker: Checker, golden: dict) -> dict:
    """Both phases, each on a fresh daemon."""
    import stream

    out = {}
    for phase, requests in phases.items():
        daemon = Daemon(f"daemon-{phase}.log")
        try:
            # With one client the daemon is idle between a reply and
            # the next request, so the speed probe runs there.  With
            # two it never is, and that phase is not scaled.
            probe = Probe()
            busy = daemon.cpu_s()
            run = stream.drive(
                daemon.port, requests, stream.PHASE_CLIENTS[phase],
                on_request=probe.sample if phase == "c1" else None)
            busy = daemon.cpu_s() - busy
            rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        check_serve(checker, stream.outcomes(run, requests), golden)
        completed = [sample for sample in run.samples
                     if sample.http_status == 200]
        out[phase] = {"setup_s": daemon.setup_s,
                      "setup_raw_s": daemon.setup_raw_s,
                      "raw_cpu_s": busy, "loop_s": probe.loop_s,
                      "wall_s": run.wall_s - probe.taken_s,
                      "latencies_s": [s.latency_s for s in run.samples],
                      "rps": len(completed) / run.wall_s,
                      "peak_rss_mb": rss}
    return out


def serve_phases(seed: int) -> dict:
    import stream

    return {phase: stream.build_phase(seed, phase)
            for phase in ("c1", "c2")}


def run_serve(seed: int, seconds: float) -> dict:
    import stream

    checker = Checker()
    golden = common.load_golden("serve")
    phases = serve_phases(seed)
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(serve_pass(phases, checker, golden))
        elapsed = time.perf_counter() - started
        if (len(passes) >= MIN_PASSES["serve-mixed"]
                and elapsed + elapsed / len(passes) > seconds):
            break
    c1 = [lat for out in passes for lat in out["c1"]["latencies_s"]]
    c2 = [lat for out in passes for lat in out["c2"]["latencies_s"]]
    floor = MIN_PASSES["serve-mixed"]
    pct1 = tail_percentile(floor * len(phases["c1"]))
    pct2 = tail_percentile(floor * len(phases["c2"]))

    def median_of(key: str, over=phases) -> float:
        return statistics.median(out[phase][key] for out in passes
                                 for phase in over)

    metrics = {
        "setup_s": median_of("setup_s"),
        "cpu_s": statistics.median(scale(out["c1"]["raw_cpu_s"],
                                         out["c1"]["loop_s"])
                                   for out in passes),
        # Mostly the daemon's fixed batching window, so not scaled.
        "p50_ms": percentile(c1, 50) * 1000.0,
        "peak_rss_mb": statistics.median(
            max(out[phase]["peak_rss_mb"] for phase in phases)
            for out in passes),
    }
    printed = {
        "c1_wall_s": (median_of("wall_s", ["c1"]), "s"),
        "c1_tail_ms": (percentile(c1, pct1) * 1000.0, "ms",
                       f"p{pct1:g} of {len(c1)}"),
        "c2_rps": (median_of("rps", ["c2"]), "1/s"),
        "c2_p50_ms": (percentile(c2, 50) * 1000.0, "ms"),
        "c2_tail_ms": (percentile(c2, pct2) * 1000.0, "ms",
                       f"p{pct2:g} of {len(c2)}"),
        "raw.cpu_s": (median_of("raw_cpu_s", ["c1"]), "s"),
        "c2_raw_cpu_s": (median_of("raw_cpu_s", ["c2"]), "s"),
        "raw.setup_s": (median_of("setup_raw_s"), "s"),
        "probe.loop_ms": (median_of("loop_s", ["c1"]) * 1000.0, "ms"),
    }
    info = {
        "passes": len(passes),
        "phases": {phase: stream.stream_properties(requests)
                   for phase, requests in phases.items()},
    }
    return {"metrics": metrics, "printed": printed, "checker": checker,
            "info": info}


# -- traced run ----------------------------------------------------------


def run_traced(workload: str, seed: int) -> dict:
    """One untraced and one traced pass; the per-layer ledger."""
    checker = Checker()
    if workload == "serve-mixed":
        golden = common.load_golden("serve")
        untraced = serve_pass(serve_phases(seed), checker, golden)
        untraced_wall = untraced["c1"]["wall_s"]
        traced = worker_pass(workload, seed, trace=True)
        for results in traced["outcomes"].values():
            check_serve(checker, results, golden)
    else:
        check = (check_table1 if workload == "table1-cold"
                 else check_profile)
        untraced = worker_pass(workload, seed, trace=False)
        check(checker, untraced)
        untraced_wall = untraced["wall_s"]
        traced = worker_pass(workload, seed, trace=True)
        check(checker, traced)
    wall = traced["wall_s"]
    ledger = traced["ledger"]
    attributed = wall - ledger["unattributed_s"]
    metrics = dict(ledger)
    metrics.update(traced["counts"])
    metrics.setdefault("serve.coalesced", 0)
    metrics.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.attributed_frac": attributed / wall,
    })
    return {"metrics": metrics, "checker": checker, "info": {}}


# -- reporting -----------------------------------------------------------

UNITS = {"setup_s": "s", "cpu_s": "s", "p50_ms": "ms",
         "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_s"):
        return "s"
    return "count"


def report(workload: str, result: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    checker: Checker = result["checker"]
    metrics = result["metrics"]
    info = result["info"]
    unit_of = per_layer_unit if trace else UNITS.get
    print(f"# {workload}: {checker.attempted} operations attempted, "
          f"{checker.failed} failed")
    for name, value in metrics.items():
        print(f"{workload}.{name} = {value:.6g} {unit_of(name)}")
    print(f"{workload}.failed_frac = "
          f"{checker.failed / max(checker.attempted, 1):.6g} fraction")
    for name, (value, unit, *label) in result.get("printed", {}).items():
        note = f" ({label[0]})" if label else ""
        print(f"{workload}.{name} = {value:.6g} {unit}{note}")
    if not trace:
        for phase, props in info.pop("phases", {}).items():
            print(f"# phase {phase}: {json.dumps(props)}")
        print(f"# {json.dumps(info)}")
        if workload == "table1-cold":
            print("# simulated outcome (information only; the energy "
                  "model is not validated against hardware), Table 1 "
                  f"seed {info['input_seeds'][0]}: CASA vs. Steinke {info['overall_vs_steinke']:.2f}% "
                  f"(paper {PAPER_VS_STEINKE}%), CASA vs. loop cache "
                  f"{info['overall_vs_loop_cache']:.2f}% "
                  f"(paper {PAPER_VS_LOOP_CACHE}%)")
    if checker.unchecked:
        print(f"# outputs unchecked: {checker.unchecked} operations have "
              "no golden digest for this seed (checked only for "
              "agreement between passes)")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind (stopping any daemon) when the run itself is terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    # The serve stream is built from the program's own request types.
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed)
        elif args.workload == "serve-mixed":
            result = run_serve(args.seed, args.seconds)
        else:
            result = run_batch(args.workload, args.seed, args.seconds)
    except BenchError as error:
        print(f"benchmark aborted: {error}", file=sys.stderr)
        return 1
    final = report(args.workload, result, bool(args.trace))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
