#!/usr/bin/env python3
"""Bench regression gate for BENCH_mapping.json (CI smoke run).

Run after `mapping_throughput --quick`:

    python3 scripts/bench_gate.py BENCH_mapping.json

Fails (exit 1) when

* any circuit entry's engine-vs-legacy speedup drops below its pinned
  floor (floors are set well under measured values to absorb CI-runner
  noise, but above the pre-bitplane engine's speedups, so losing the
  word-parallel construction or the solve fast paths trips the gate),
* any entry's HBA/EA success counts drift from the golden values for the
  quick campaign (20 samples, seed 2018, 10% defects) — the determinism
  contract of each sampling stream (V1 goldens are frozen forever; V2
  pins its own counts), or
* the V2 geometric-skip stream loses its pinned advantage over the V1
  dense sweep on the large circuits: resample-phase throughput must stay
  >= 5x and end-to-end engine throughput >= 2x on ex1010 and alu4, or
* the yield-oracle service's cache front stops saving work: the
  `service_overhead` entry's cold-over-hit ratio must stay >= 3.0 (and
  the entry must be present). A warm submit is a TCP round-trip plus a
  file read — measured hundreds of times cheaper than the cold execute —
  so a ratio collapse means the cache path started re-running campaigns.

Speedups are measured against the other path/stream in the same process
on the same machine, so every floor is machine-independent. The bench
times each measured pass best-of-3 (minimum wall-clock of three runs),
so transient CI-runner contention inflates neither side of a ratio.
"""

import json
import sys

QUICK_SAMPLES = 20  # mapping_throughput --quick (200 / 10)
QUICK_SEED = 2018
QUICK_DEFECT_RATE = 0.1

# (name, stream) -> (speedup_floor, hba_successes, ea_successes)
#
# V1 floors for the large circuits sit above the pre-bitplane engine's
# measured speedups (rd73 29x, rd84 54x, ex1010 75x, alu4 153x) and far
# below current measurements (rd73 ~200x, rd84 ~350x, ex1010 ~900x,
# alu4 ~3000x). The two small circuits finish in microseconds at quick
# sample counts, so their floors are only a sanity check. V2 entries
# draw different defect maps from the same seeds (geometric skip), so
# their success counts are independent goldens; their speedup floors sit
# under measured values (rd73 ~70x, rd84 ~700x, ex1010 ~1900x,
# alu4 ~7500x) with the same noise margin philosophy.
GOLDEN = {
    ("rd53", "v1"): (5.0, 18, 18),
    ("misex1", "v1"): (2.0, 20, 20),
    ("rd73", "v1"): (50.0, 15, 16),
    ("rd84", "v1"): (100.0, 12, 15),
    ("ex1010", "v1"): (200.0, 20, 20),
    ("alu4", "v1"): (500.0, 20, 20),
    ("rd53", "v2"): (5.0, 20, 20),
    ("misex1", "v2"): (2.0, 20, 20),
    ("rd73", "v2"): (20.0, 15, 16),
    ("rd84", "v2"): (100.0, 15, 15),
    ("ex1010", "v2"): (400.0, 20, 20),
    ("alu4", "v2"): (1000.0, 20, 20),
}

# circuit -> (min resample-phase ratio, min end-to-end engine ratio) of
# V2 over V1 — the acceptance floors of the geometric-skip stream. Only
# the large circuits are gated: the small ones finish too fast for the
# ratio to be stable.
V2_OVER_V1 = {
    "ex1010": (5.0, 2.0),
    "alu4": (5.0, 2.0),
}

# Minimum cold-over-hit ratio for the yield-oracle service entry: a warm
# submit (content-addressed cache hit) vs the cold submit that executed
# the campaign. Measured ratios are in the hundreds even at quick sample
# counts; 3.0 only trips when the cache path does real per-request work —
# exactly the regression the serving layer exists to prevent.
SERVICE_FLOOR = 3.0


def main(path: str) -> int:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("seed") != QUICK_SEED or doc.get("defect_rate") != QUICK_DEFECT_RATE:
        print(
            f"bench gate: campaign mismatch (seed {doc.get('seed')}, "
            f"rate {doc.get('defect_rate')}); goldens are pinned for "
            f"seed {QUICK_SEED} at rate {QUICK_DEFECT_RATE}"
        )
        return 1
    failures = []
    seen = {}
    for c in doc["circuits"]:
        key = (c["name"], c.get("stream", "v1"))
        if key not in GOLDEN:
            continue
        seen[key] = c
        name = f"{key[0]} [{key[1]}]"
        floor, hba, ea = GOLDEN[key]
        if c["samples"] != QUICK_SAMPLES:
            failures.append(
                f"{name}: {c['samples']} samples (goldens pinned at {QUICK_SAMPLES}; "
                f"run with --quick)"
            )
            continue
        if c["speedup"] < floor:
            failures.append(
                f"{name}: speedup {c['speedup']:.2f}x below pinned floor {floor}x"
            )
        if (c["hba_successes"], c["ea_successes"]) != (hba, ea):
            failures.append(
                f"{name}: success counts ({c['hba_successes']}, {c['ea_successes']}) "
                f"drifted from golden ({hba}, {ea})"
            )
    missing = sorted(set(GOLDEN) - set(seen))
    if missing:
        pretty = ", ".join(f"{n} [{s}]" for n, s in missing)
        failures.append(f"missing circuit entries: {pretty}")
    for name, (resample_floor, engine_floor) in V2_OVER_V1.items():
        v1, v2 = seen.get((name, "v1")), seen.get((name, "v2"))
        if v1 is None or v2 is None:
            continue  # already reported as missing
        resample_ratio = v2["resample_samples_per_sec"] / max(
            v1["resample_samples_per_sec"], 1e-300
        )
        engine_ratio = v2["engine_samples_per_sec"] / max(
            v1["engine_samples_per_sec"], 1e-300
        )
        if resample_ratio < resample_floor:
            failures.append(
                f"{name}: V2 resample only {resample_ratio:.2f}x V1 "
                f"(floor {resample_floor}x)"
            )
        if engine_ratio < engine_floor:
            failures.append(
                f"{name}: V2 end-to-end only {engine_ratio:.2f}x V1 "
                f"(floor {engine_floor}x)"
            )
    service = doc.get("service_overhead")
    if service is None:
        failures.append(
            "missing service_overhead entry (cache-front guard disabled)"
        )
    elif service["cold_over_hit"] < SERVICE_FLOOR:
        failures.append(
            f"service cache hit only {service['cold_over_hit']:.1f}x cheaper "
            f"than cold execution (floor {SERVICE_FLOOR}x)"
        )
    if failures:
        print("bench gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(
        f"bench gate passed: {len(seen)} circuit entries at or above pinned "
        f"floors, counts golden, V2/V1 and service-cache ratios hold"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_mapping.json"))
