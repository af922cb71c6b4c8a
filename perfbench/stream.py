"""The serve-mixed request stream and its closed-loop HTTP clients.

A phase is a seeded list of wire requests built from the public
:mod:`repro.serve.schema` request types.  It mixes the five verbs over
adpcm and g721 at scale 1.0, with the CASA and Steinke allocators, a
few executor seeds and the Table 1 sizes, so every phase holds
first-seen profiles, new (profile, size) solves and exact repeats.

Clients are closed-loop: each sends its next request only after the
reply to the previous one arrived, the way a toolchain waiting for its
allocation behaves.  Only the standard library is used on the client
side.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field

from common import canonical, digest

#: Workloads of the stream.
SERVE_WORKLOADS = ("adpcm", "g721")

#: Table 1 capacity axis of each stream workload (bytes).
TABLE1_SIZES = {"adpcm": (64, 128, 256), "g721": (128, 256, 512, 1024)}

#: Allocators of the allocate / evaluate / sweep verbs.
SERVE_ALGORITHMS = ("casa", "steinke")

#: Executor seeds the stream draws its per-phase seeds from.
SERVE_SEED_POOL = 16

#: Executor seeds used within one phase.
SEEDS_PER_PHASE = 3

#: Verb cycle of fresh requests (2:2:4:4:1).
VERB_CYCLE = ("allocate", "evaluate", "simulate", "allocate", "evaluate",
              "conflict_graph", "sweep", "allocate", "evaluate",
              "simulate", "allocate", "evaluate", "conflict_graph")

#: Share of a phase's requests that repeat an earlier one exactly.
REPEAT_SHARE = 0.3

#: Requests per phase.
PHASE_REQUESTS = {"c1": 120, "c2": 120}

#: Closed-loop clients per phase.
PHASE_CLIENTS = {"c1": 1, "c2": 2}


def fresh_request(index: int, seeds: list[int]) -> dict:
    """The *index*-th fresh request of a phase (a schema ``to_json()``).

    Verb, workload, allocator, size and executor seed follow fixed
    cycles, so every phase holds the same mix and the same number of
    duplicate requests; only the executor seed values differ.
    """
    from repro.serve.schema import (AllocateRequest, ConflictGraphRequest,
                                    EvaluateRequest, SimulateRequest,
                                    SweepRequest)

    verb = VERB_CYCLE[index % len(VERB_CYCLE)]
    rounds = index // len(VERB_CYCLE)
    workload = SERVE_WORKLOADS[rounds % len(SERVE_WORKLOADS)]
    block = rounds // len(SERVE_WORKLOADS)
    common = {"workload": workload, "scale": 1.0,
              "seed": seeds[block % len(seeds)]}
    if verb == "simulate":
        return SimulateRequest(**common).to_json()
    if verb == "conflict_graph":
        return ConflictGraphRequest(**common).to_json()
    algorithm = SERVE_ALGORITHMS[(block + index) % len(SERVE_ALGORITHMS)]
    if verb == "sweep":
        return SweepRequest(algorithm=algorithm, **common).to_json()
    sizes = TABLE1_SIZES[workload]
    size = sizes[index // len(SERVE_ALGORITHMS) % len(sizes)]
    cls = AllocateRequest if verb == "allocate" else EvaluateRequest
    return cls(algorithm=algorithm, spm_size=size, **common).to_json()


def build_phase(seed: int, phase: str) -> list[dict]:
    """The seeded request list of one phase (``c1`` or ``c2``).

    Fresh requests come in a seeded order; a fixed share of exact
    repeats of earlier requests, following the same verb cycle, is
    inserted at seeded positions.
    """
    rng = random.Random(f"serve-mixed:{seed}:{phase}")
    seeds = sorted(rng.sample(range(SERVE_SEED_POOL), SEEDS_PER_PHASE))
    total = PHASE_REQUESTS[phase]
    repeats = round(total * REPEAT_SHARE)
    requests = [fresh_request(index, seeds)
                for index in range(total - repeats)]
    rng.shuffle(requests)
    for index in range(repeats):
        verb = VERB_CYCLE[index % len(VERB_CYCLE)]
        first = next(at for at, request in enumerate(requests)
                     if request["kind"] == verb)
        position = rng.randrange(first + 1, len(requests) + 1)
        earlier = [request for request in requests[:position]
                   if request["kind"] == verb]
        requests.insert(position, rng.choice(earlier))
    return requests


def stream_properties(requests: list[dict]) -> dict:
    """Measured shape of one phase: repeats, first-seen profiles, verbs."""
    seen_requests: set[str] = set()
    seen_profiles: set[tuple] = set()
    seen_solves: set[tuple] = set()
    repeats = first_profiles = new_solves = 0
    verbs: dict[str, int] = {}
    for request in requests:
        key = canonical(request)
        profile = (request["workload"], request["seed"])
        verbs[request["kind"]] = verbs.get(request["kind"], 0) + 1
        if key in seen_requests:
            repeats += 1
        seen_requests.add(key)
        if profile not in seen_profiles:
            first_profiles += 1
            seen_profiles.add(profile)
        if request["kind"] in ("allocate", "evaluate", "sweep"):
            sizes = (request.get("spm_sizes")
                     or [request.get("spm_size")])
            solves = {(profile, request["algorithm"], size)
                      for size in sizes}
            if solves - seen_solves:
                new_solves += 1
            seen_solves |= solves
    total = len(requests)
    return {
        "requests": total,
        "exact_repeat_share": repeats / total,
        "first_seen_profile_share": first_profiles / total,
        "new_solve_share": new_solves / total,
        "verb_mix": {verb: count / total
                     for verb, count in sorted(verbs.items())},
    }


@dataclass
class Sample:
    """One request as its client saw it."""

    index: int
    start: float
    end: float
    http_status: int | None
    body: dict | None
    error: str | None = None

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass
class PhaseRun:
    """All samples of one phase, when it started and its wall time."""

    samples: list[Sample] = field(default_factory=list)
    started: float = 0.0
    wall_s: float = 0.0


def drive(port: int, requests: list[dict], clients: int,
          on_request=None, timeout_s: float = 120.0) -> PhaseRun:
    """Send *requests* through *clients* closed-loop connections.

    ``on_request(payload, start, end)`` is called after each reply
    (the traced run records the client span with it).
    """
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    samples: list[Sample] = []

    def client() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=timeout_s)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                payload = requests[index]
                body = json.dumps(payload).encode("utf-8")
                start = time.perf_counter()
                try:
                    connection.request(
                        "POST", f"/v1/{payload['kind']}", body,
                        {"Content-Type": "application/json"})
                    response = connection.getresponse()
                    raw = response.read()
                    end = time.perf_counter()
                    sample = Sample(index, start, end, response.status,
                                    json.loads(raw))
                except (OSError, http.client.HTTPException,
                        ValueError) as error:
                    end = time.perf_counter()
                    sample = Sample(index, start, end, None, None,
                                    f"{type(error).__name__}: {error}")
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=timeout_s)
                if on_request is not None:
                    on_request(payload, start, end)
                with lock:
                    samples.append(sample)
        finally:
            connection.close()

    threads = [threading.Thread(target=client, name=f"client-{n}")
               for n in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    samples.sort(key=lambda sample: sample.index)
    return PhaseRun(samples=samples, started=started, wall_s=wall)


def response_digest(body: dict) -> str:
    """Digest of a response body with its ``run_id`` removed."""
    return digest({key: value for key, value in body.items()
                   if key != "run_id"})


def outcomes(run: PhaseRun, requests: list[dict]
             ) -> list[tuple[str, str | None]]:
    """``(request digest, response digest)`` per request sent.

    The response digest is ``None`` for a failed request: a transport
    error, an HTTP status other than 200 or a body status other than
    ``ok`` (sheds included).  Requests that never got a reply are
    failures too.
    """
    out: list[tuple[str, str | None]] = []
    for sample in run.samples:
        ok = (sample.http_status == 200 and sample.body is not None
              and sample.body.get("status") == "ok")
        out.append((digest(requests[sample.index]),
                    response_digest(sample.body) if ok else None))
    missing = len(requests) - len(run.samples)
    out.extend(("missing", None) for _ in range(missing))
    return out
