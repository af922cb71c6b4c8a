"""Record the golden output digests the benchmark checks against.

Usage, from the root of a checkout (takes a few minutes)::

    PYTHONPATH=src python3 perfbench/record_golden.py [table1 profile serve]

Writes ``perfbench/golden/{table1,profile,serve}.json``:

* ``table1`` — for every Table 1 seed of the pool, one digest per
  (benchmark, size, allocator) of the full serialised experiment
  result (resident set, simulation counters, energy breakdown);
* ``profile`` — for every codec and executor seed of the pool, digests
  of the baseline ``SimulationReport`` and of the conflict graph;
* ``serve`` — for every request the serve-mixed stream can send, the
  digest of its response body with ``run_id`` removed, keyed by the
  digest of the request.

Record only from a commit whose outputs are known to be right: every
later run is judged against these files.
"""

from __future__ import annotations

import json
import sys

import common
import stream
import worker


def record_table1() -> dict:
    golden = {}
    for seed in range(common.TABLE1_SEED_POOL):
        golden[str(seed)] = worker.run_table1(seed, trace=False)["digests"]
        print(f"table1 seed {seed}", file=sys.stderr)
    return golden


def record_profile() -> dict:
    from repro.api import Session
    from repro.io.serde import conflict_graph_to_dict, report_to_dict

    golden = {}
    for seed in range(common.PROFILE_SEED_POOL):
        worker.fresh_store()
        for codec in common.PROFILE_CODECS:
            session = Session(codec, seed=seed)
            golden[f"{codec}/{seed}"] = {
                "report": common.digest(report_to_dict(session.simulate())),
                "graph": common.digest(
                    conflict_graph_to_dict(session.conflict_graph())),
            }
    return golden


def every_serve_request() -> list[dict]:
    """Every distinct request :func:`stream.build_phase` can produce."""
    from repro.serve.schema import (AllocateRequest, ConflictGraphRequest,
                                    EvaluateRequest, SimulateRequest,
                                    SweepRequest)

    requests = []
    for workload in stream.SERVE_WORKLOADS:
        for seed in range(stream.SERVE_SEED_POOL):
            common_fields = {"workload": workload, "scale": 1.0,
                             "seed": seed}
            requests.append(SimulateRequest(**common_fields).to_json())
            requests.append(
                ConflictGraphRequest(**common_fields).to_json())
            for algorithm in stream.SERVE_ALGORITHMS:
                requests.append(SweepRequest(
                    algorithm=algorithm, **common_fields).to_json())
                for size in stream.TABLE1_SIZES[workload]:
                    for cls in (AllocateRequest, EvaluateRequest):
                        requests.append(cls(
                            algorithm=algorithm, spm_size=size,
                            **common_fields).to_json())
    return requests


def record_serve() -> dict:
    from repro.serve import AllocationService, start_in_thread

    requests = every_serve_request()
    handle = start_in_thread(AllocationService(worker.service_config()))
    try:
        run = stream.drive(handle.port, requests, clients=2)
    finally:
        handle.stop()
    golden = {}
    for sample in run.samples:
        if sample.body is None or sample.body.get("status") != "ok":
            raise SystemExit(f"request {requests[sample.index]} failed: "
                             f"{sample.error or sample.body}")
        golden[common.digest(requests[sample.index])] = \
            stream.response_digest(sample.body)
    return golden


RECORDERS = {"table1": record_table1, "profile": record_profile,
             "serve": record_serve}


def main(names: list[str]) -> int:
    common.GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in names or list(RECORDERS):
        golden = RECORDERS[name]()
        path = common.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True)
                        + "\n")
        print(f"wrote {path} ({len(golden)} entries)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
