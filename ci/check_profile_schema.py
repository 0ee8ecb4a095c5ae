#!/usr/bin/env python3
"""Validate the stability of the `cmcc --profile=json` schema.

Reads driver output on stdin, finds the single-line JSON profile object
(the line opening with ``{"schema":"cmcc-profile-v5"``), and checks every
documented key of the cmcc-profile-v5 schema (DESIGN.md §13/§18) is
present with a sane type — including the region-lease block
(``leases.*``), the lease and trace counters under ``report.exec``, the
model-drift cross-check under ``derived``, and the flight-recorder
latency histograms under ``latency.phases``. Exits non-zero with a
diagnostic on any missing or mistyped field, so CI fails when the schema
drifts without a version bump.

With ``--serve`` it instead validates the ``cmcc --serve --profile=json``
output: the single ``cmcc-serve-v3`` line with per-tenant stats and
latency histograms, the sharded plan-cache aggregate, the lease totals
and contention attribution (``latency.lease.*``, whose
``waits_consistent`` flag must be true — the traced conflicted waits
agree with the lease table's conflict counter), the build-once flag
(which must be true — one build per distinct plan however many tenants
race), the drained flag (which must be true — zero live or queued
leases after the pool exits), and each tenant's blocked + executing
split staying within its wall time.

With ``--trace FILE`` it instead validates a Chrome trace-event file
written by ``cmcc --trace=FILE``: well-formed JSON with a
``traceEvents`` list, integral pid/tid on every event, non-decreasing
timestamps, balanced B/E duration pairs per thread and name, and
balanced b/e async pairs per (name, id). With ``--expect-conflict`` it
additionally requires at least one conflicted ``lease_acquire`` end
event (``args.arg == 1``) — proof the run induced a lease overlap.

With ``--bench-parallel FILE`` it instead validates the schema of the
``repro_parallel`` bench output (``BENCH_parallel.json``), including the
``scaling_gate`` string that records whether the ≥2× assertion was
asserted, recorded only, or skipped on a single-core host.

With ``--bench-temporal FILE`` it instead validates the schema of the
``repro_temporal`` bench output (``BENCH_temporal.json``) and re-checks
its recorded correctness gates: every depth bit-identical to the
iterated scalar oracle, halo exchanges reduced by exactly the fused
depth, and observed copy words equal to the analytic prediction.

With ``--bench-serve FILE`` it instead validates the schema of the
``repro_serve`` bench output (``BENCH_serve.json``) and re-checks its
recorded gates: every phase's results bit-identical, zero live leases
after the pool drains, at least one region grant, at least 5
interleaved rounds with well-formed per-phase spreads (0 < min <=
median, IQR >= 0), and — when the speedup gate was asserted (2+
cores) — ≥1.5× throughput with the overlap probe having counted a
conflict.

Usage:
    cmcc --run --iters 3 --profile=json five.f90 | python3 ci/check_profile_schema.py
    cmcc --serve --profile=json - < batch.txt | python3 ci/check_profile_schema.py --serve
    python3 ci/check_profile_schema.py --trace trace.json [--expect-conflict]
    python3 ci/check_profile_schema.py --bench-parallel BENCH_parallel.json
    python3 ci/check_profile_schema.py --bench-temporal BENCH_temporal.json
    python3 ci/check_profile_schema.py --bench-serve BENCH_serve.json
"""

import json
import numbers
import sys

SCHEMA = "cmcc-profile-v5"
SERVE_SCHEMA = "cmcc-serve-v3"

# The operations latency.phases keys (crates/obs/src/trace.rs order).
LATENCY_PHASES = [
    "plan_build",
    "plan_rebind",
    "execute",
    "execute_workers",
    "halo_exchange",
    "interior_refresh",
    "kernel_sweep",
    "region_commit",
    "lease_acquire",
    "lease_held",
    "mirror_gather",
    "mirror_scatter",
]

# Every histogram summary carries exactly these keys.
HIST_EXPECTED = [
    ("count", numbers.Integral),
    ("p50_ns", numbers.Integral),
    ("p95_ns", numbers.Integral),
    ("p99_ns", numbers.Integral),
    ("max_ns", numbers.Integral),
]


def check_hist(obj, label, errors):
    """Appends an error per missing/mistyped key of a histogram summary."""
    if not isinstance(obj, dict):
        errors.append("%s: histogram summary is not an object" % label)
        return
    for key, kind in HIST_EXPECTED:
        value = obj.get(key)
        if isinstance(value, bool) or not isinstance(value, kind):
            errors.append("%s.%s: missing or mistyped" % (label, key))


def check_latency_phases(obj, label, errors):
    """Validates a ``latency.phases`` object: one histogram per phase."""
    if not isinstance(obj, dict):
        errors.append("%s: latency.phases is not an object" % label)
        return
    for phase in LATENCY_PHASES:
        if phase not in obj:
            errors.append("%s: latency.phases missing %s" % (label, phase))
        else:
            check_hist(obj[phase], "%s.latency.phases.%s" % (label, phase), errors)

# (dotted path, expected type) for every key the schema promises.
EXPECTED = [
    ("schema", str),
    ("statement", numbers.Integral),
    ("engine", str),
    ("mode", str),
    ("nodes", numbers.Integral),
    ("iters", numbers.Integral),
    ("measurement.useful_flops", numbers.Integral),
    ("measurement.cycles.comm", numbers.Integral),
    ("measurement.cycles.compute", numbers.Integral),
    ("measurement.cycles.frontend", numbers.Integral),
    ("measurement.cycles.total", numbers.Integral),
    ("measurement.nodes", numbers.Integral),
    ("derived.effective_gflops", numbers.Real),
    ("derived.model_fraction", numbers.Real),
    ("derived.wall_gflops", numbers.Real),
    ("derived.cpu_gflops", numbers.Real),
    ("derived.temporal_depth", numbers.Integral),
    ("derived.bytes_per_iter_observed", numbers.Real),
    ("derived.bytes_per_iter_predicted", numbers.Real),
    ("derived.bytes_per_step_amortized", numbers.Real),
    ("derived.model_drift", numbers.Real),
    ("derived.model_drift_ok", bool),
    ("plan_cache.hits", numbers.Integral),
    ("plan_cache.misses", numbers.Integral),
    ("plan_cache.evictions", numbers.Integral),
    ("plan_cache.capacity", numbers.Integral),
    ("plan_cache.shards", list),
    ("plan_cache.shard_evictions", list),
    ("plan_cache.shared_in_flight", numbers.Integral),
    ("leases.region_grants", numbers.Integral),
    ("leases.conflicts", numbers.Integral),
    ("leases.peak_concurrent", numbers.Integral),
    ("leases.live", numbers.Integral),
    ("latency.phases", dict),
    ("report.enabled", bool),
    ("report.compile.recognize_ns", numbers.Integral),
    ("report.compile.recognize_calls", numbers.Integral),
    ("report.compile.multistencil_ns", numbers.Integral),
    ("report.compile.multistencil_calls", numbers.Integral),
    ("report.compile.regalloc_ns", numbers.Integral),
    ("report.compile.regalloc_calls", numbers.Integral),
    ("report.compile.unroll_ns", numbers.Integral),
    ("report.compile.unroll_calls", numbers.Integral),
    ("report.plan.build_ns", numbers.Integral),
    ("report.plan.builds", numbers.Integral),
    ("report.plan.rebind_ns", numbers.Integral),
    ("report.plan.rebinds", numbers.Integral),
    ("report.plan.cache_hits", numbers.Integral),
    ("report.plan.cache_misses", numbers.Integral),
    ("report.plan.cache_evictions", numbers.Integral),
    ("report.exchange.edge_words", numbers.Integral),
    ("report.exchange.corner_words", numbers.Integral),
    ("report.exchange.interior_words", numbers.Integral),
    ("report.exchange.gather_words", numbers.Integral),
    ("report.exchange.scatter_words", numbers.Integral),
    ("report.strips.width8", numbers.Integral),
    ("report.strips.width4", numbers.Integral),
    ("report.strips.width2", numbers.Integral),
    ("report.strips.width1", numbers.Integral),
    ("report.exec.execute_ns", numbers.Integral),
    ("report.exec.executes", numbers.Integral),
    ("report.exec.execute_workers_ns", numbers.Integral),
    ("report.exec.execute_workers_calls", numbers.Integral),
    ("report.exec.halo_exchanges", numbers.Integral),
    ("report.exec.fused_steps", numbers.Integral),
    ("report.exec.temporal_fallbacks", numbers.Integral),
    ("report.exec.scalar_runs", numbers.Integral),
    ("report.exec.lockstep_runs", numbers.Integral),
    ("report.exec.scalar_steps", numbers.Integral),
    ("report.exec.lockstep_steps", numbers.Integral),
    ("report.exec.kernelized_steps", numbers.Integral),
    ("report.exec.interpreted_steps", numbers.Integral),
    ("report.exec.mirror_allocations", numbers.Integral),
    ("report.exec.mirror_pool_misses", numbers.Integral),
    ("report.exec.region_leases", numbers.Integral),
    ("report.exec.lease_conflicts", numbers.Integral),
    ("report.exec.concurrent_executes_peak", numbers.Integral),
    ("report.exec.trace_drops", numbers.Integral),
    ("report.exec.useful_flops", numbers.Integral),
    ("report.exec.total_flops", numbers.Integral),
]


def lookup(obj, path):
    for part in path.split("."):
        if not isinstance(obj, dict) or part not in obj:
            return None, False
        obj = obj[part]
    return obj, True


# (dotted path, expected type) for every key BENCH_parallel.json promises.
BENCH_PARALLEL_EXPECTED = [
    ("pattern", str),
    ("global_grid", list),
    ("subgrid", list),
    ("host_cores", numbers.Integral),
    ("scaling_gate", str),
    ("warmup", numbers.Integral),
    ("iters", numbers.Integral),
    ("curve", list),
    ("max_threads_speedup", numbers.Real),
    ("bit_identical", bool),
    ("measurement_equal", bool),
]


def check_bench_parallel(path):
    with open(path) as f:
        bench = json.load(f)
    errors = []
    for key, kind in BENCH_PARALLEL_EXPECTED:
        value, found = lookup(bench, key)
        if not found:
            errors.append("%s: missing key %s" % (path, key))
        elif kind is not bool and isinstance(value, bool):
            errors.append("%s: %s is a bool, expected %s" % (path, key, kind))
        elif not isinstance(value, kind):
            errors.append(
                "%s: %s has type %s, expected %s"
                % (path, key, type(value).__name__, kind)
            )
    for i, point in enumerate(bench.get("curve", [])):
        for key, kind in [
            ("threads", numbers.Integral),
            ("secs_per_iter", numbers.Real),
            ("speedup", numbers.Real),
        ]:
            value, found = lookup(point, key)
            if not found or not isinstance(value, kind):
                errors.append("%s: curve[%d].%s missing or mistyped" % (path, i, key))
    gate = bench.get("scaling_gate", "")
    if not gate.startswith(("asserted", "recorded only", "skipped")):
        errors.append("%s: scaling_gate %r is not a recognized disposition" % (path, gate))
    if gate.startswith("asserted") and bench.get("max_threads_speedup", 0.0) < 2.0:
        errors.append("%s: scaling gate asserted but speedup < 2x" % path)
    if errors:
        sys.exit("\n".join(errors))
    print("ok: %s matches the repro_parallel bench schema" % path)


# (dotted path, expected type) for every key BENCH_temporal.json promises.
BENCH_TEMPORAL_EXPECTED = [
    ("workload", str),
    ("global_grid", list),
    ("host_cores", numbers.Integral),
    ("scaling_gate", str),
    ("subgrid", list),
    ("threads", numbers.Integral),
    ("steps", numbers.Integral),
    ("interleave_rounds", numbers.Integral),
    ("scalar_secs", numbers.Real),
    ("depths", list),
    ("speedup_at_depth_4", numbers.Real),
    ("bit_identical", bool),
    ("copy_model_exact", bool),
    ("exchange_reduction_exact", bool),
]

# (dotted path, expected type) for each element of ``depths``.
BENCH_TEMPORAL_DEPTH_EXPECTED = [
    ("depth", numbers.Integral),
    ("min_cycle_us", numbers.Real),
    ("speedup", numbers.Real),
    ("loop_secs", numbers.Real),
    ("timed_steps", numbers.Integral),
    ("halo_exchanges", numbers.Integral),
    ("copy_words_observed", numbers.Integral),
    ("copy_words_predicted", numbers.Integral),
    ("bit_identical", bool),
]


def check_bench_temporal(path):
    with open(path) as f:
        bench = json.load(f)
    errors = []
    for key, kind in BENCH_TEMPORAL_EXPECTED:
        value, found = lookup(bench, key)
        if not found:
            errors.append("%s: missing key %s" % (path, key))
        elif kind is not bool and isinstance(value, bool):
            errors.append("%s: %s is a bool, expected %s" % (path, key, kind))
        elif not isinstance(value, kind):
            errors.append(
                "%s: %s has type %s, expected %s"
                % (path, key, type(value).__name__, kind)
            )
    for i, point in enumerate(bench.get("depths", [])):
        for key, kind in BENCH_TEMPORAL_DEPTH_EXPECTED:
            value, found = lookup(point, key)
            if not found:
                errors.append("%s: depths[%d].%s missing" % (path, i, key))
            elif (kind is bool) != isinstance(value, bool) or not isinstance(
                value, kind
            ):
                errors.append("%s: depths[%d].%s mistyped" % (path, i, key))
        if point.get("copy_words_observed") != point.get("copy_words_predicted"):
            errors.append(
                "%s: depths[%d] observed copy words diverge from the model" % (path, i)
            )
    # The bench asserts these before writing the file; re-check so a
    # stale or hand-edited artifact cannot pass CI.
    for gate in ("bit_identical", "copy_model_exact", "exchange_reduction_exact"):
        if bench.get(gate) is not True:
            errors.append("%s: correctness gate %s is not true" % (path, gate))
    if errors:
        sys.exit("\n".join(errors))
    print(
        "ok: %s matches the repro_temporal bench schema (%d depths, gates held)"
        % (path, len(bench.get("depths", [])))
    )


# (dotted path, expected type) for every key BENCH_serve.json promises.
BENCH_SERVE_EXPECTED = [
    ("workers", numbers.Integral),
    ("subgrid", list),
    ("host_cores", numbers.Integral),
    ("iters", numbers.Integral),
    ("rounds", numbers.Integral),
    ("concurrent_secs", numbers.Real),
    ("serialized_secs", numbers.Real),
    ("concurrent.min", numbers.Real),
    ("concurrent.median", numbers.Real),
    ("concurrent.iqr", numbers.Real),
    ("serialized.min", numbers.Real),
    ("serialized.median", numbers.Real),
    ("serialized.iqr", numbers.Real),
    ("concurrent_runs_per_sec", numbers.Real),
    ("serialized_runs_per_sec", numbers.Real),
    ("speedup", numbers.Real),
    ("region_grants", numbers.Integral),
    ("peak_concurrent", numbers.Integral),
    ("overlap_conflicts", numbers.Integral),
    ("live_leases_after", numbers.Integral),
    ("lane_resident", list),
    ("bit_identical", bool),
    ("gate", str),
    ("scaling_gate", str),
]


def check_bench_serve(path):
    with open(path) as f:
        bench = json.load(f)
    errors = []
    for key, kind in BENCH_SERVE_EXPECTED:
        value, found = lookup(bench, key)
        if not found:
            errors.append("%s: missing key %s" % (path, key))
        elif kind is not bool and isinstance(value, bool):
            errors.append("%s: %s is a bool, expected %s" % (path, key, kind))
        elif not isinstance(value, kind):
            errors.append(
                "%s: %s has type %s, expected %s"
                % (path, key, type(value).__name__, kind)
            )
    # The bench asserts these before writing the file; re-check so a
    # stale or hand-edited artifact cannot pass CI.
    if bench.get("bit_identical") is not True:
        errors.append("%s: concurrent results diverged from the baseline" % path)
    if bench.get("live_leases_after") != 0:
        errors.append("%s: leases leaked after the pool drained" % path)
    if not bench.get("region_grants", 0) > 0:
        errors.append("%s: no lane-resident execute was ever granted" % path)
    if not bench.get("rounds", 0) >= 5:
        errors.append("%s: fewer than 5 interleaved rounds" % path)
    for phase in ("concurrent", "serialized"):
        spread = bench.get(phase)
        try:
            if not 0 < spread["min"] <= spread["median"] or spread["iqr"] < 0:
                errors.append("%s: %s spread is malformed: %r" % (path, phase, spread))
        except (KeyError, TypeError):
            pass  # already reported as a missing or mistyped key
    gate = bench.get("gate", "")
    if not gate.startswith(("asserted", "skipped")):
        errors.append("%s: gate %r is not a recognized disposition" % (path, gate))
    if gate.startswith("asserted"):
        if bench.get("speedup", 0.0) < 1.5:
            errors.append("%s: gate asserted but speedup < 1.5x" % path)
        if not bench.get("overlap_conflicts", 0) > 0:
            errors.append(
                "%s: gate asserted but the overlap probe counted no conflict" % path
            )
    if errors:
        sys.exit("\n".join(errors))
    print(
        "ok: %s matches the repro_serve bench schema (%s, %.2fx)"
        % (path, gate.split(" (")[0], bench.get("speedup", 0.0))
    )


# (dotted path, expected type) for the aggregate half of cmcc-serve-v2.
SERVE_EXPECTED = [
    ("schema", str),
    ("workers", numbers.Integral),
    ("quota", numbers.Integral),
    ("statements", numbers.Integral),
    ("iters", numbers.Integral),
    ("build_once", bool),
    ("drained", bool),
    ("tenants", list),
    ("leases.region_grants", numbers.Integral),
    ("leases.conflicts", numbers.Integral),
    ("leases.peak_concurrent", numbers.Integral),
    ("leases.live", numbers.Integral),
    ("plan_cache.hits", numbers.Integral),
    ("plan_cache.misses", numbers.Integral),
    ("plan_cache.evictions", numbers.Integral),
    ("plan_cache.capacity", numbers.Integral),
    ("plan_cache.shards", list),
    ("plan_cache.shard_evictions", list),
    ("plan_cache.shared_in_flight", numbers.Integral),
    ("latency.phases", dict),
    ("latency.lease.time_to_grant", dict),
    ("latency.lease.conflicted_waits", numbers.Integral),
    ("latency.lease.waits_consistent", bool),
    ("trace_drops", numbers.Integral),
]

# (dotted path, expected type) for each element of ``tenants``.
SERVE_TENANT_EXPECTED = [
    ("tenant", numbers.Integral),
    ("statements", numbers.Integral),
    ("runs", numbers.Integral),
    ("plan_builds", numbers.Integral),
    ("cache_hits", numbers.Integral),
    ("cache_misses", numbers.Integral),
    ("kernelized_steps", numbers.Integral),
    ("interpreted_steps", numbers.Integral),
    ("scalar_steps", numbers.Integral),
    ("latency", dict),
    ("blocked_ns", numbers.Integral),
    ("executing_ns", numbers.Integral),
    ("wall_ns", numbers.Integral),
    ("errors", numbers.Integral),
]


def check_serve():
    batch = None
    for line in sys.stdin:
        line = line.strip()
        if line.startswith('{"schema":"%s"' % SERVE_SCHEMA):
            batch = json.loads(line)
    if batch is None:
        sys.exit("no %s line found on stdin" % SERVE_SCHEMA)

    errors = []
    for path, kind in SERVE_EXPECTED:
        value, found = lookup(batch, path)
        if not found:
            errors.append("serve: missing key %s" % path)
        elif kind is not bool and isinstance(value, bool):
            errors.append("serve: %s is a bool, expected %s" % (path, kind))
        elif not isinstance(value, kind):
            errors.append(
                "serve: %s has type %s, expected %s"
                % (path, type(value).__name__, kind)
            )
    tenants = batch.get("tenants", [])
    if len(tenants) != batch.get("workers"):
        errors.append("serve: tenants length != workers")
    for i, tenant in enumerate(tenants):
        for path, kind in SERVE_TENANT_EXPECTED:
            value, found = lookup(tenant, path)
            if not found or isinstance(value, bool) or not isinstance(value, kind):
                errors.append("serve: tenants[%d].%s missing or mistyped" % (i, path))
        if tenant.get("errors", 0):
            errors.append("serve: tenants[%d] reported errors" % i)
        check_hist(tenant.get("latency"), "serve: tenants[%d].latency" % i, errors)
        blocked = tenant.get("blocked_ns", 0)
        executing = tenant.get("executing_ns", 0)
        wall = tenant.get("wall_ns", 0)
        if blocked + executing > wall:
            errors.append(
                "serve: tenants[%d] blocked %s + executing %s exceeds wall %s"
                % (i, blocked, executing, wall)
            )
    phases, found = lookup(batch, "latency.phases")
    if found:
        check_latency_phases(phases, "serve", errors)
    grant, found = lookup(batch, "latency.lease.time_to_grant")
    if found:
        check_hist(grant, "serve: latency.lease.time_to_grant", errors)
    consistent, found = lookup(batch, "latency.lease.waits_consistent")
    if found and consistent is not True:
        errors.append(
            "serve: traced conflicted waits diverge from the lease conflict counter"
        )
    if batch.get("build_once") is not True:
        errors.append("serve: build-once violated (builds != misses)")
    if batch.get("drained") is not True:
        errors.append("serve: lease table not drained (live or queued leases remain)")
    builds = sum(t.get("plan_builds", 0) for t in tenants)
    misses, _ = lookup(batch, "plan_cache.misses")
    if builds != misses:
        errors.append(
            "serve: tenant plan_builds sum %s != cache misses %s" % (builds, misses)
        )
    for key in ("plan_cache.shards", "plan_cache.shard_evictions"):
        value, found = lookup(batch, key)
        if found and isinstance(value, list):
            if not all(isinstance(v, numbers.Integral) for v in value):
                errors.append("serve: %s has non-integer entries" % key)
    if errors:
        sys.exit("\n".join(errors))
    print(
        "ok: serve batch matches %s (%d tenants, build-once held, leases drained)"
        % (SERVE_SCHEMA, len(tenants))
    )


def check_trace(path, expect_conflict):
    with open(path) as f:
        trace = json.load(f)
    errors = []
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        sys.exit("%s: no traceEvents list" % path)

    # Per (pid, tid): a stack of open B names; per (name, id): async depth.
    stacks = {}
    async_depth = {}
    prev_ts = None
    conflicted = 0
    for i, e in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                errors.append("%s: event %d missing %s" % (path, i, key))
        name, ph = e.get("name", ""), e.get("ph", "")
        for key in ("pid", "tid"):
            if isinstance(e.get(key), bool) or not isinstance(
                e.get(key), numbers.Integral
            ):
                errors.append("%s: event %d %s is not integral" % (path, i, key))
        if ph == "M":
            continue
        ts = e.get("ts")
        if not isinstance(ts, numbers.Real):
            errors.append("%s: event %d has no numeric ts" % (path, i))
            continue
        if prev_ts is not None and ts < prev_ts:
            errors.append("%s: event %d ts runs backwards" % (path, i))
        prev_ts = ts
        key = (e.get("pid"), e.get("tid"))
        if ph == "B":
            stacks.setdefault(key, []).append(name)
        elif ph == "E":
            stack = stacks.setdefault(key, [])
            if not stack or stack.pop() != name:
                errors.append(
                    "%s: event %d E %r does not close the open B on tid %s"
                    % (path, i, name, e.get("tid"))
                )
            if name == "lease_acquire" and e.get("args", {}).get("arg") == 1:
                conflicted += 1
        elif ph == "b":
            akey = (name, e.get("id"))
            async_depth[akey] = async_depth.get(akey, 0) + 1
        elif ph == "e":
            akey = (name, e.get("id"))
            async_depth[akey] = async_depth.get(akey, 0) - 1
            if async_depth[akey] < 0:
                errors.append("%s: event %d async e without b" % (path, i))
        elif ph != "i":
            errors.append("%s: event %d has unknown ph %r" % (path, i, ph))
    for key, stack in stacks.items():
        if stack:
            errors.append(
                "%s: tid %s left unclosed B events %s" % (path, key[1], stack)
            )
    for akey, depth in async_depth.items():
        if depth != 0:
            errors.append("%s: async track %r unbalanced" % (path, akey))
    if expect_conflict and conflicted == 0:
        errors.append(
            "%s: expected at least one conflicted lease_acquire end event" % path
        )
    if errors:
        sys.exit("\n".join(errors))
    print(
        "ok: %s is a balanced Chrome trace (%d events, %d conflicted waits)"
        % (path, len(events), conflicted)
    )


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "--serve":
        check_serve()
        return
    if len(sys.argv) >= 2 and sys.argv[1] == "--trace":
        if len(sys.argv) not in (3, 4) or (
            len(sys.argv) == 4 and sys.argv[3] != "--expect-conflict"
        ):
            sys.exit("usage: check_profile_schema.py --trace FILE [--expect-conflict]")
        check_trace(sys.argv[2], len(sys.argv) == 4)
        return
    if len(sys.argv) >= 2 and sys.argv[1] == "--bench-parallel":
        if len(sys.argv) != 3:
            sys.exit("usage: check_profile_schema.py --bench-parallel FILE")
        check_bench_parallel(sys.argv[2])
        return
    if len(sys.argv) >= 2 and sys.argv[1] == "--bench-temporal":
        if len(sys.argv) != 3:
            sys.exit("usage: check_profile_schema.py --bench-temporal FILE")
        check_bench_temporal(sys.argv[2])
        return
    if len(sys.argv) >= 2 and sys.argv[1] == "--bench-serve":
        if len(sys.argv) != 3:
            sys.exit("usage: check_profile_schema.py --bench-serve FILE")
        check_bench_serve(sys.argv[2])
        return

    profiles = []
    for line in sys.stdin:
        line = line.strip()
        if line.startswith('{"schema":"%s"' % SCHEMA):
            profiles.append(json.loads(line))
    if not profiles:
        sys.exit("no %s line found on stdin" % SCHEMA)

    errors = []
    for i, profile in enumerate(profiles):
        for path, kind in EXPECTED:
            value, found = lookup(profile, path)
            if not found:
                errors.append("profile %d: missing key %s" % (i, path))
            elif kind is not bool and isinstance(value, bool):
                # bool is an int subclass; only report.enabled may be one.
                errors.append("profile %d: %s is a bool, expected %s" % (i, path, kind))
            elif not isinstance(value, kind):
                errors.append(
                    "profile %d: %s has type %s, expected %s"
                    % (i, path, type(value).__name__, kind)
                )
        if profile.get("schema") != SCHEMA:
            errors.append("profile %d: schema key mismatch" % i)
        phases, found = lookup(profile, "latency.phases")
        if found:
            check_latency_phases(phases, "profile %d" % i, errors)
        if profile.get("derived", {}).get("model_drift_ok") is not True:
            errors.append("profile %d: model drift exceeded tolerance" % i)

    if errors:
        sys.exit("\n".join(errors))
    print("ok: %d profile(s) match %s" % (len(profiles), SCHEMA))


if __name__ == "__main__":
    main()
