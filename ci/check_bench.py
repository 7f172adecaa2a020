#!/usr/bin/env python3
"""Bench-regression guard for CI.

Compares a freshly recorded BENCH_scaling.json against the committed
baseline and fails (exit 1) if `logical_reads` or `read_faults`
regresses by more than the tolerance for any (combination, threads)
entry. Logical reads are deterministic — the same code reads the same
pages — so they gate reliably on shared runners, where wall-clock
numbers are advisory noise (they are printed for context only).

Sequential entries (`threads: 1`) are the paper's fault counts: one
join through one LRU buffer, with no prefetcher and no scheduling, so
their `logical_reads` and `read_faults` must equal the baseline
exactly, in either storage mode.

Parallel read faults share the tolerance rather than an exact gate:
the order in which workers touch the shared buffer pool varies between
runs, so parallel fault counts can wiggle by a handful of pages — a
>10% jump, by contrast, means the cache actually got worse (e.g.
someone re-split it per worker). On disk-native recordings
(`"storage": "on-disk"`) the parallel fault gate is relaxed further to
a residency invariant — whether the background prefetcher staged a page
before the worker asked for it is scheduling-timing dependent, so the
hit/fault *split* is not reproducible, only the accounting identity
`read_hits + read_faults == logical_reads` and `prefetch_hits <=
read_hits` are. Out-of-core entries (combination `*-OOC`) must
additionally fault at all: their budget is a quarter of the dataset.

The scaling recording also carries an `updates` section — one entry per
live-update round (seeded insert/upsert/delete batches applied through
the engine's epoch-versioned update path, each followed by a join).
Epochs must count 1..N with no gaps (one applied batch advances exactly
one epoch), every round must record ops and satisfy `read_hits +
read_faults == logical_reads` under copy-on-write page versioning, and
against a baseline that carries the section the per-round result_pairs
are exact (the mutation stream is seeded) while logical_reads gates at
the shared tolerance.

Optionally sanity-checks a BENCH_serving.json smoke: every shard count
must have completed with a positive request rate and the same result
cardinality (the serving sweep itself asserts byte-identity; the file
check catches a sweep that silently did not run). The distributed
phase must cover both worker modes (local-threads and remote-procs)
with determinism asserted, all workers healthy at the end, and
replays_total / remote_kind provenance recorded. The recovery section
must show WAL records replayed after a coordinator restart with the
byte-identity flag set (wall-clock is advisory).

Usage:
  check_bench.py --baseline ci/BENCH_scaling_baseline.json \
                 --fresh /tmp/BENCH_scaling_smoke.json \
                 [--serving /tmp/BENCH_serving_smoke.json] \
                 [--tolerance 0.10]
"""

import argparse
import json
import sys


def fail(msg: str) -> None:
    print(f"check_bench: FAIL: {msg}")
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")


def check_scaling(baseline_path: str, fresh_path: str, tolerance: float) -> None:
    baseline = load(baseline_path)
    fresh = load(fresh_path)
    if baseline.get("scale") != fresh.get("scale"):
        fail(
            f"scale mismatch: baseline {baseline.get('scale')} vs fresh "
            f"{fresh.get('scale')} — logical reads only compare at equal scale "
            f"(re-record {baseline_path} if the CI scale changed)"
        )
    storage = fresh.get("storage", "resident")
    if baseline.get("storage", "resident") != storage:
        fail(
            f"storage mismatch: baseline {baseline.get('storage', 'resident')} vs "
            f"fresh {storage} — the hit/fault split only compares within one mode "
            f"(re-record {baseline_path} if the CI storage mode changed)"
        )
    on_disk = storage == "on-disk"

    def index(doc: dict) -> dict:
        return {
            (e["combination"], e["threads"]): e for e in doc.get("entries", [])
        }

    base, new = index(baseline), index(fresh)
    if not base:
        fail(f"{baseline_path} has no entries")
    missing = sorted(set(base) - set(new))
    if missing:
        fail(f"fresh run is missing entries: {missing}")

    regressions = []
    for key in sorted(base):
        b, f = base[key], new[key]
        # Residency invariants of the fresh run: the hit/fault split must
        # partition the logical reads exactly, prefetch hits are a subset
        # of the hits, and an out-of-core entry must actually fault.
        if "prefetch_hits" not in f:
            fail(f"{key}: fresh entry lacks prefetch_hits (stale recorder?)")
        if f["read_hits"] + f["read_faults"] != f["logical_reads"]:
            fail(
                f"{key}: read_hits {f['read_hits']} + read_faults {f['read_faults']} "
                f"!= logical_reads {f['logical_reads']} (accounting broke)"
            )
        if f["prefetch_hits"] > f["read_hits"]:
            fail(
                f"{key}: prefetch_hits {f['prefetch_hits']} > read_hits "
                f"{f['read_hits']} (prefetch hits must be a subset of hits)"
            )
        ooc = key[0].endswith("-OOC")
        if ooc and f["read_faults"] == 0:
            fail(
                f"{key}: out-of-core entry recorded zero read_faults — a "
                f"quarter-size budget that never faults means the budget is "
                f"not being enforced"
            )
        # A sequential run replays one LRU with no prefetcher: its counts
        # are exact in either storage mode.
        if key[1] == 1:
            for counter in ("logical_reads", "read_faults"):
                if f[counter] != b[counter]:
                    regressions.append(
                        f"{key}: sequential {counter} changed {b[counter]} -> "
                        f"{f[counter]} (must equal the baseline exactly)"
                    )
        # The parallel fault split is prefetch-timing dependent whenever
        # the page space is a real file, so those entries keep only the
        # invariants above plus the deterministic logical_reads gate.
        fault_gated = key[1] == 1 or (not on_disk and not ooc)
        for counter in ("logical_reads", "read_faults", "result_pairs"):
            if b.get(counter, 0) == 0:
                continue
            ratio = f[counter] / b[counter]
            note = ""
            if counter == "read_faults" and not fault_gated:
                note = "  (advisory: prefetch-timing dependent)"
            elif counter in ("logical_reads", "read_faults") and ratio > 1.0 + tolerance:
                regressions.append(
                    f"{key}: {counter} {b[counter]} -> {f[counter]} "
                    f"(+{(ratio - 1.0) * 100:.1f}% > {tolerance * 100:.0f}%)"
                )
                note = "  <-- REGRESSION"
            elif counter == "result_pairs" and f[counter] != b[counter]:
                regressions.append(
                    f"{key}: {counter} changed {b[counter]} -> {f[counter]} "
                    f"(the join answer itself moved)"
                )
                note = "  <-- ANSWER CHANGED"
            print(
                f"  {key[0]:>6} threads={key[1]:<2} {counter}: "
                f"{b[counter]} -> {f[counter]} ({(ratio - 1.0) * 100:+.1f}%){note}"
            )
        wall = f.get("wall_secs", 0.0)
        print(f"  {key[0]:>6} threads={key[1]:<2} wall_secs: {wall:.4f} (advisory)")

    # Live-update phase: one entry per round of interleaved mutate/query.
    # Epochs must count 1..N (the engine advances exactly one epoch per
    # applied batch — a skip means a batch was dropped, a repeat means one
    # was double-applied), and the accounting identity must survive
    # copy-on-write page versioning. Against the baseline, the per-round
    # answer is exact (the mutation stream is seeded) and logical_reads
    # gates at the shared tolerance.
    updates = fresh.get("updates", [])
    if not updates:
        fail(f"{fresh_path} has no updates entries — the live-update phase did not run")
    for i, u in enumerate(updates):
        if u.get("epoch") != i + 1:
            fail(
                f"update round {i + 1}: epoch {u.get('epoch')} breaks monotonicity "
                f"(expected {i + 1}; one applied batch must advance exactly one epoch)"
            )
        if u.get("ops", 0) <= 0:
            fail(f"update round {i + 1}: recorded no operations")
        if u["read_hits"] + u["read_faults"] != u["logical_reads"]:
            fail(
                f"update round {i + 1}: read_hits {u['read_hits']} + read_faults "
                f"{u['read_faults']} != logical_reads {u['logical_reads']} "
                f"(accounting broke under COW versioning)"
            )
        if u.get("prefetch_hits", 0) > u["read_hits"]:
            fail(
                f"update round {i + 1}: prefetch_hits {u['prefetch_hits']} > "
                f"read_hits {u['read_hits']}"
            )
        print(
            f"  update round {i + 1}: epoch={u['epoch']} ops={u['ops']} "
            f"logical_reads={u['logical_reads']} result_pairs={u['result_pairs']} "
            f"(update {u.get('update_secs', 0.0):.4f}s / join "
            f"{u.get('join_secs', 0.0):.4f}s advisory)"
        )
    base_updates = baseline.get("updates", [])
    if base_updates:
        if len(base_updates) != len(updates):
            fail(
                f"update round count changed: baseline {len(base_updates)} vs "
                f"fresh {len(updates)}"
            )
        for i, (b, u) in enumerate(zip(base_updates, updates)):
            if u["result_pairs"] != b["result_pairs"]:
                regressions.append(
                    f"update round {i + 1}: result_pairs changed "
                    f"{b['result_pairs']} -> {u['result_pairs']} "
                    f"(the post-update join answer itself moved)"
                )
            if b["logical_reads"] > 0:
                ratio = u["logical_reads"] / b["logical_reads"]
                if ratio > 1.0 + tolerance:
                    regressions.append(
                        f"update round {i + 1}: logical_reads {b['logical_reads']} -> "
                        f"{u['logical_reads']} (+{(ratio - 1.0) * 100:.1f}% > "
                        f"{tolerance * 100:.0f}%)"
                    )

    if regressions:
        fail("I/O regressions vs committed baseline:\n  " + "\n  ".join(regressions))
    print(
        f"check_bench: scaling OK ({len(base)} entries within {tolerance * 100:.0f}%, "
        f"{len(updates)} update rounds, {storage} storage)"
    )


def check_serving(path: str) -> None:
    doc = load(path)
    entries = doc.get("entries", [])
    if not entries:
        fail(f"{path} has no entries — the serving sweep did not run")
    cardinalities = {e.get("result_pairs") for e in entries}
    if len(cardinalities) != 1:
        fail(f"serving result cardinality differs across shard counts: {cardinalities}")
    for e in entries:
        for rate in ("join_req_per_sec", "topk_req_per_sec"):
            if e.get(rate, 0) <= 0:
                fail(f"serving entry {e.get('shards')} shards has non-positive {rate}")
        # Latency percentiles are advisory wall-clock, but they must at
        # least be shaped like latencies: present, positive, p50 <= p99.
        for op in ("join", "topk"):
            p50, p99 = e.get(f"{op}_p50_ms", 0), e.get(f"{op}_p99_ms", 0)
            if p50 <= 0 or p99 <= 0:
                fail(f"serving entry {e.get('shards')} shards lacks {op} p50/p99 latencies")
            if p50 > p99:
                fail(f"serving entry {e.get('shards')} shards: {op} p50 {p50} > p99 {p99}")
        print(
            f"  shards={e['shards']}: join {e['join_req_per_sec']:.2f} req/s "
            f"(p50 {e['join_p50_ms']:.1f} / p99 {e['join_p99_ms']:.1f} ms), "
            f"topk {e['topk_req_per_sec']:.2f} req/s, {e['result_pairs']} pairs (advisory)"
        )
    concurrent = doc.get("concurrent", [])
    if not concurrent:
        fail(f"{path} has no concurrent entries — the multi-session phase did not run")
    if max(c.get("clients", 0) for c in concurrent) < 4:
        fail("concurrent serving phase never reached 4 clients")
    for c in concurrent:
        if c.get("join_req_per_sec", 0) <= 0:
            fail(f"concurrent entry {c.get('clients')} clients has non-positive req/s")
        p50, p99 = c.get("p50_ms", 0), c.get("p99_ms", 0)
        if p50 <= 0 or p99 <= 0 or p50 > p99:
            fail(f"concurrent entry {c.get('clients')} clients: bad p50/p99 ({p50}/{p99})")
        if c.get("result_pairs") not in cardinalities:
            fail(
                f"concurrent entry {c.get('clients')} clients: result_pairs "
                f"{c.get('result_pairs')} differs from the single-session sweep"
            )
        print(
            f"  clients={c['clients']}: join {c['join_req_per_sec']:.2f} req/s "
            f"(p50 {p50:.1f} / p99 {p99:.1f} ms) (advisory)"
        )
    distributed = doc.get("distributed", [])
    if not distributed:
        fail(f"{path} has no distributed entries — the distributed phase did not run")
    modes = {d.get("mode") for d in distributed}
    if modes != {"local-threads", "remote-procs"}:
        fail(f"distributed phase must cover both worker modes, saw {sorted(modes)}")
    for d in distributed:
        label = f"{d.get('mode')}@{d.get('shards')} shards"
        if d.get("join_req_per_sec", 0) <= 0:
            fail(f"distributed entry {label} has non-positive req/s")
        p50, p99 = d.get("join_p50_ms", 0), d.get("join_p99_ms", 0)
        if p50 <= 0 or p99 <= 0 or p50 > p99:
            fail(f"distributed entry {label}: bad p50/p99 ({p50}/{p99})")
        if d.get("result_pairs") not in cardinalities:
            fail(
                f"distributed entry {label}: result_pairs {d.get('result_pairs')} "
                f"differs from the single-session sweep"
            )
        if d.get("deterministic") is not True:
            fail(f"distributed entry {label} did not assert determinism")
        if d.get("all_shards_up") is not True:
            fail(f"distributed entry {label} finished with a worker down")
        if "replays_total" not in d:
            fail(f"distributed entry {label} lacks replays_total provenance")
        if d.get("mode") == "remote-procs" and d.get("remote_kind") in (None, "none"):
            fail(f"distributed entry {label} lacks remote_kind provenance")
        print(
            f"  {d['mode']}@{d['shards']} shards: join {d['join_req_per_sec']:.2f} req/s "
            f"(p50 {p50:.1f} / p99 {p99:.1f} ms) (advisory)"
        )
    recovery = doc.get("recovery")
    if not isinstance(recovery, dict):
        fail(f"{path} has no recovery section — the durability phase did not run")
    if recovery.get("records_replayed", 0) <= 0:
        fail("recovery phase replayed no WAL records")
    if recovery.get("wal_bytes", 0) <= 0:
        fail("recovery phase logged no WAL bytes")
    if recovery.get("wal_records") != recovery.get("records_replayed"):
        fail(
            f"recovery replayed {recovery.get('records_replayed')} records but the "
            f"reopened WAL holds {recovery.get('wal_records')} — replay re-appended"
        )
    # Wall-clock is advisory (scales with the logged history) but must
    # be shaped like a duration; byte-identity is the contract.
    if recovery.get("recovery_secs", -1.0) < 0:
        fail("recovery phase lacks a recovery_secs wall-clock")
    if recovery.get("byte_identical") is not True:
        fail("recovered join was not byte-identical to the pre-restart answer")
    print(
        f"  recovery@{recovery.get('shards')} shards: "
        f"{recovery['records_replayed']} record(s) replayed in "
        f"{recovery['recovery_secs']:.3f}s, {recovery['wal_bytes']} WAL byte(s), "
        f"byte-identical (advisory wall-clock)"
    )
    print(
        f"check_bench: serving OK ({len(entries)} shard counts, "
        f"{len(concurrent)} concurrent client counts, "
        f"{len(distributed)} distributed mode entries, recovery verified)"
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--fresh", required=True)
    ap.add_argument("--serving")
    ap.add_argument("--tolerance", type=float, default=0.10)
    args = ap.parse_args()
    check_scaling(args.baseline, args.fresh, args.tolerance)
    if args.serving:
        check_serving(args.serving)


if __name__ == "__main__":
    main()
