"""Helpers shared by ``run.py`` and the processes it starts.

Only the standard library is imported here, so the helpers load in a
checkout whose ``src`` is missing and ``run.py`` can report that.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

#: Directory of the benchmark's own files.
BENCH_DIR = Path(__file__).resolve().parent

#: Root of the checkout the benchmark measures (holds ``src/repro``).
ROOT = BENCH_DIR.parent

#: Golden digests recorded from the program's outputs.
GOLDEN_DIR = BENCH_DIR / "golden"

#: Span dumps, daemon logs and other run leftovers (git-ignored).
OUT_DIR = BENCH_DIR / "out"

#: Codecs of the profile-cold workload (every MediaBench-like codec).
PROFILE_CODECS = ("adpcm", "g721", "mpeg", "epic", "jpeg")

#: Benchmarks of Table 1 (the paper's headline exhibit).
TABLE1_BENCHMARKS = ("adpcm", "g721", "mpeg")

#: Table 1 seeds with recorded golden outputs; ``--seed`` picks one.
TABLE1_SEED_POOL = 16

#: Executor seeds with recorded golden profiles; ``--seed`` draws from it.
PROFILE_SEED_POOL = 64

#: Executor seeds profile-cold profiles per codec in one pass.
PROFILE_SEEDS_PER_PASS = 8

#: Percentile ladder for tail latencies (highest first).
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def canonical(obj) -> str:
    """Key-sorted, whitespace-free JSON of *obj*."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    """Short SHA-256 digest of the canonical JSON of *obj*."""
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()[:20]


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts.

    Puts the checkout's ``src`` on the path and removes every
    ``CASA_*`` variable, so no disk cache tier (``CASA_CACHE_DIR``),
    backend override (``CASA_BACKEND``) or fault plan leaks into a
    measured run.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("CASA_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if samples * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return 50.0


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of *values* (``pct`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def load_golden(name: str) -> dict:
    """One golden digest file (empty when it was never recorded)."""
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def profile_seeds(seed: int) -> list[int]:
    """Executor seeds of one profile-cold pass, derived from *seed*."""
    rng = random.Random(f"profile-cold:{seed}")
    return sorted(rng.sample(range(PROFILE_SEED_POOL),
                             PROFILE_SEEDS_PER_PASS))


def table1_seed(seed: int) -> int:
    """The ``run_table1`` seed a benchmark ``--seed`` selects."""
    return seed % TABLE1_SEED_POOL
