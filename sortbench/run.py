#!/usr/bin/env python3
"""The tracked benchmark: builds sortbench_run from this checkout, runs one
workload, checks its outputs, and prints every metric by name and unit.

    python3 sortbench/run.py --workload ints_inmem --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run (spans recorded by the benchmark around each library
call, exported as Chrome/Perfetto JSON under .bench_build/sortbench/traces).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. sortbench/METRICS.md lists the
workloads, the metrics and which end-to-end metric each layer should move.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = {
    "ints_inmem": "Fig. 12: 5M shuffled INT32 on the radix path, fits in memory",
    "customer_strings": "Fig. 14: VARCHAR keys force pdqsort with tie "
                        "resolution and a string gather",
    "catalog_spill": "Fig. 13: 4 INT32 keys under a 32 MiB limit, so runs "
                     "spill and the merge is external",
    "service_mix": "the only workload with service admission, the express "
                   "lane, victim spills and the Top-N/window/join operators",
}

# name: (unit, better, bound). bound = share of the parent's median by which
# the metric may worsen before a change counts as a regression. Timings,
# faults and throughput get the largest bound allowed: on the 4-vCPU host
# this was tuned on, the host's own speed drifts by 10-20% over minutes
# (CPU time per sort included), so ten runs of one commit spread by up to
# 0.2 of their median.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "sort_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "sys_s": ("s", "lower", 0.25),
    "minor_faults": ("count", "lower", 0.25),
    "peak_bytes_per_row": ("B/row", "lower", 0.1),
    "interactive_p50_ms": ("ms", "lower", 0.25),
    "interactive_p99_ms": ("ms", "lower", 0.25),
    "req_per_s": ("1/s", "higher", 0.25),
    "ok_rate": ("frac", "higher", 0.01),
}

_ENGINE = "ints_inmem, customer_strings, catalog_spill"
# name: (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "sink.call_s": ("s", "lower", "sort_s on ints_inmem, customer_strings"),
    "sink.cpu_s": ("s", "lower", "sort_s on ints_inmem, customer_strings"),
    "sink.calls": ("count", "lower", "sort_s on ints_inmem, customer_strings"),
    "sink.wall_s": ("s", "lower", "sort_s on ints_inmem, customer_strings"),
    "run_sort.call_s": ("s", "lower",
                        "sort_s on ints_inmem (radix), customer_strings "
                        "(pdqsort)"),
    "run_sort.cpu_s": ("s", "lower",
                       "sort_s on ints_inmem (radix), customer_strings "
                       "(pdqsort)"),
    "run_sort.runs": ("count", "lower", "sort_s on ints_inmem, "
                      "customer_strings"),
    "run_sort.compares": ("count", "lower", "sort_s on customer_strings"),
    "merge.wall_s": ("s", "lower", "sort_s on ints_inmem, catalog_spill"),
    "merge.compares": ("count", "lower", "sort_s on ints_inmem, "
                       "catalog_spill"),
    "merge.ovc_decided": ("count", "higher", "sort_s on ints_inmem, "
                          "catalog_spill"),
    "merge.ovc_fallback": ("count", "lower", "sort_s on ints_inmem, "
                           "catalog_spill"),
    "merge.ovc_hit_ratio": ("frac", "higher", "sort_s on ints_inmem, "
                            "catalog_spill"),
    "merge.fan_in": ("count", "lower", "sort_s on ints_inmem, catalog_spill"),
    "merge.rows_bulk_copied": ("count", "higher", "sort_s on ints_inmem, "
                               "catalog_spill"),
    "scan.wall_s": ("s", "lower", "sort_s on " + _ENGINE +
                    " (most on customer_strings)"),
    "scan.chunks": ("count", "lower", "sort_s on " + _ENGINE),
    "spill.runs": ("count", "lower", "sort_s, spill_bytes_per_row on "
                   "catalog_spill; zero elsewhere"),
    "spill.bytes_raw": ("B", "lower", "sort_s, spill_bytes_per_row on "
                        "catalog_spill; zero elsewhere"),
    "spill.bytes_written": ("B", "lower", "sort_s, spill_bytes_per_row on "
                            "catalog_spill; zero elsewhere"),
    "spill.compress_ratio": ("ratio", "higher", "spill_bytes_per_row on "
                             "catalog_spill; zero elsewhere"),
    "spill.io_wait_s": ("s", "lower", "sort_s on catalog_spill; zero "
                        "elsewhere"),
    "spill.compress_s": ("s", "lower", "sort_s on catalog_spill; zero "
                         "elsewhere"),
    "spill.decompress_s": ("s", "lower", "sort_s on catalog_spill; zero "
                           "elsewhere"),
    "spill.blocks_prefetched": ("count", "higher", "sort_s on catalog_spill; "
                                "zero elsewhere"),
    "spill.write_behind_stalls": ("count", "lower", "sort_s on "
                                  "catalog_spill; zero elsewhere"),
    "mem.faults_sink": ("count", "lower", "minor_faults, sys_s, sort_s on "
                        "ints_inmem"),
    "mem.faults_merge": ("count", "lower", "minor_faults, sys_s, sort_s on "
                         "ints_inmem"),
    "mem.faults_scan": ("count", "lower", "minor_faults, sys_s, sort_s on "
                        "ints_inmem"),
    "mem.sys_s_sink": ("s", "lower", "sys_s, sort_s on ints_inmem"),
    "mem.sys_s_merge": ("s", "lower", "sys_s, sort_s on ints_inmem"),
    "mem.sys_s_scan": ("s", "lower", "sys_s, sort_s on ints_inmem"),
    "mem.rss_peak_mb": ("MiB", "lower", "minor_faults, sys_s on ints_inmem"),
    "pool.tasks": ("count", "lower", "sort_s on " + _ENGINE +
                   "; interactive_p99_ms on service_mix"),
    "pool.queue_wait_s": ("s", "lower", "sort_s on " + _ENGINE +
                          "; interactive_p99_ms on service_mix"),
    "pool.busy_s": ("s", "lower", "sort_s on " + _ENGINE +
                    "; interactive_p99_ms on service_mix"),
    "service.queue_wait_ms_p50": ("ms", "lower", "interactive_p99_ms, "
                                  "req_per_s on service_mix"),
    "service.queue_wait_ms_p99": ("ms", "lower", "interactive_p99_ms, "
                                  "req_per_s on service_mix"),
    "service.admitted": ("count", "higher", "req_per_s on service_mix"),
    "service.express_admitted": ("count", "higher", "interactive_p99_ms on "
                                 "service_mix"),
    "service.shed": ("count", "lower", "ok_rate, interactive_p99_ms on "
                     "service_mix"),
    "service.victim_spills": ("count", "lower", "interactive_p99_ms, "
                              "req_per_s on service_mix"),
    "service.victim_bytes_freed": ("B", "lower", "interactive_p99_ms, "
                                   "req_per_s on service_mix"),
    "service.max_queue_depth": ("count", "lower", "interactive_p99_ms on "
                                "service_mix"),
    "op.sort_ms_p50": ("ms", "lower", "interactive_p50_ms, req_per_s on "
                       "service_mix"),
    "op.topn_ms_p50": ("ms", "lower", "interactive_p50_ms, req_per_s on "
                       "service_mix"),
    "op.window_ms_p50": ("ms", "lower", "interactive_p50_ms, req_per_s on "
                         "service_mix"),
    "op.join_ms_p50": ("ms", "lower", "interactive_p50_ms, req_per_s on "
                       "service_mix"),
    "op.giant_s_p50": ("s", "lower", "sort_s, req_per_s on service_mix"),
    "trace.unattributed_s": ("s", "lower", "none: the part of sort_s no "
                             "layer span covers"),
    "trace.overhead_frac": ("frac", "lower", "none: traced vs untraced "
                            "sort_s in one run"),
    "spill_bytes_per_row": ("B/row", "lower", "end-to-end, zero on "
                            "in-memory workloads"),
    "error_rate": ("frac", "lower", "end-to-end, 1 - ok_rate"),
}

GIANT = 4


def benchmark_json():
    """BENCHMARK.json as this script defines it."""
    return {
        "command": ["python3", "sortbench/run.py"],
        "paths": ["sortbench"],
        "run_seconds": 20,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b, _) in PER_LAYER.items()],
    }


# ------------------------------------------------------------------ build

def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds sortbench_run; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "sortbench_run"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "sortbench_run")


# ------------------------------------------------------------ fingerprint

def _read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return "n/a"


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args), env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(raw):
    cpu_model = "n/a"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max"),
        "cpu_model": cpu_model,
        "compiler": raw["compiler"],
        "cxx_flags": raw["cxx_flags"].strip(),
        "build_type": raw["build_type"],
        "rowsort_native": raw["rowsort_native"],
        "git_sha": sha or "none (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "glibc_tunables": os.environ.get("GLIBC_TUNABLES", "unset"),
    }


# ---------------------------------------------------------------- metrics

def _med(values):
    return stats.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def reconcile(trace_path):
    """Per op: root span, its phase children and their sum, from the exported
    trace. Returns (unattributed seconds per op, self seconds per span name
    summed per op, worst phase overlap in seconds)."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    by_op = {}
    for e in events:
        by_op.setdefault(e["args"]["op"], []).append(e)
    unattributed, self_by_name, worst_overlap = [], {}, 0.0
    for spans in by_op.values():
        children = {}
        for s in spans:
            children.setdefault(s["args"]["parent"], []).append(s)
        roots = children.get(0, [])
        if len(roots) != 1:
            continue
        root = roots[0]
        phases = sorted(children.get(root["args"]["id"], []),
                        key=lambda s: s["ts"])
        for a, b in zip(phases, phases[1:]):
            worst_overlap = max(worst_overlap,
                                (a["ts"] + a["dur"] - b["ts"]) * 1e-6)
        unattributed.append(
            (root["dur"] - sum(p["dur"] for p in phases)) * 1e-6)
        per_op = {}
        for s in spans:
            kids = sorted(((max(c["ts"], s["ts"]),
                            min(c["ts"] + c["dur"], s["ts"] + s["dur"]))
                           for c in children.get(s["args"]["id"], [])))
            covered, reach = 0.0, s["ts"]
            for lo, hi in kids:  # union of the children's intervals
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            per_op[s["name"]] = per_op.get(s["name"], 0.0) + \
                (s["dur"] - covered) * 1e-6
        for name, value in per_op.items():
            self_by_name.setdefault(name, []).append(value)
    return unattributed, {n: _med(v) for n, v in self_by_name.items()}, \
        worst_overlap


def engine_end_to_end(raw):
    ops = [o for o in raw["ops"] if not o["traced"]]
    rows = raw["rows"]
    # On an engine workload the request a client waits on is one sort. A
    # run has far fewer than the 1000 sorts a p99 with ten beyond it needs,
    # and a quantile picked from the sort count would read a different
    # statistic whenever the program's speed changes. So both the p50 and
    # the p99 are the median sort latency here.
    latency_ms = [o["sort_s"] * 1e3 for o in ops]
    sort_s = _med([o["sort_s"] for o in ops])
    m = {
        "sort_s": sort_s,
        "cpu_s": _med([o["usage"]["user_s"] + o["usage"]["sys_s"]
                       for o in ops]),
        "sys_s": _med([o["usage"]["sys_s"] for o in ops]),
        "minor_faults": _med([o["usage"]["minflt"] for o in ops]),
        "peak_bytes_per_row": _med([o["metrics"]["peak_memory_bytes"] / rows
                                    for o in ops]),
        "interactive_p50_ms": _med(latency_ms),
        "interactive_p99_ms": _med(latency_ms),
        "req_per_s": 1.0 / sort_s,
    }
    notes = ["%d timed sorts; interactive p50 and p99 = the median sort"
             % len(ops)]
    return m, notes


def service_end_to_end(raw):
    reqs = raw["requests"]
    interactive = [(r["end_ns"] - r["start_ns"]) * 1e-6 if r["ok"]
                   else float("inf") for r in reqs if r["kind"] != GIANT]
    giants = [r for r in reqs if r["kind"] == GIANT]
    done = sum(1 for r in reqs if r["ok"])
    p99, q_used = stats.tail_percentile(interactive, 0.99)
    # Resources: the process usage over the whole timed loop, net of the
    # output checks. CPU time follows the work, so cpu_s is per completed
    # request. Sys time and faults follow the loop's length instead (one
    # commit's runs complete 5200 to 6200 requests with the same sys seconds
    # and faults), so they are per second of the loop: per request they
    # would only mirror the throughput.
    usage = raw["usage"]
    m = {
        "sort_s": _med([(r["end_ns"] - r["start_ns"]) * 1e-9
                        for r in giants]),
        "cpu_s": _ratio(usage["user_s"] + usage["sys_s"], done),
        "sys_s": _ratio(usage["sys_s"], raw["window_s"]),
        "minor_faults": _ratio(usage["minflt"], raw["window_s"]),
        "peak_bytes_per_row": _med([r["metrics"]["peak_memory_bytes"] /
                                    raw["rows"] for r in giants]),
        "interactive_p50_ms": _med(interactive),
        "interactive_p99_ms": p99,
        "req_per_s": done / raw["window_s"],
    }
    notes = ["%d requests in %.2f s (%d interactive, %d giants); "
             "p99 at q=%.4f; %d interactive samples beyond it; output checks "
             "used %.3f s CPU, taken out of cpu_s and sys_s"
             % (len(reqs), raw["window_s"], len(interactive), len(giants),
                q_used, stats.beyond(interactive, p99), raw["check_cpu_s"])]
    return m, notes


def _counter_layers(metric_rows, rows):
    g = lambda key: _med([m[key] for m in metric_rows])  # noqa: E731
    return {
        "spill.runs": g("runs_spilled"),
        "spill.bytes_raw": g("spill_bytes_raw"),
        "spill.bytes_written": g("spill_bytes_compressed"),
        "spill.compress_ratio": _med([_ratio(m["spill_bytes_raw"],
                                             m["spill_bytes_compressed"])
                                      for m in metric_rows]),
        "spill.io_wait_s": g("io_wait_us") * 1e-6,
        "spill.compress_s": g("compress_us") * 1e-6,
        "spill.decompress_s": g("decompress_us") * 1e-6,
        "spill.blocks_prefetched": g("blocks_prefetched"),
        "spill.write_behind_stalls": g("write_behind_stalls"),
        "spill_bytes_per_row": _med([m["spill_bytes_compressed"] / rows
                                     for m in metric_rows]),
        "merge.ovc_decided": g("ovc_decided"),
        "merge.ovc_fallback": g("ovc_fallback_compares"),
        "merge.ovc_hit_ratio": _med([
            _ratio(m["ovc_decided"],
                   m["ovc_decided"] + m["ovc_fallback_compares"])
            for m in metric_rows]),
        "merge.fan_in": g("merge_fan_in"),
        "merge.rows_bulk_copied": g("rows_bulk_copied"),
        "run_sort.runs": g("runs_generated"),
    }


def engine_per_layer(raw, trace_path):
    traced = [o for o in raw["ops"] if o["traced"]]
    plain = [o for o in raw["ops"] if not o["traced"]]
    t = lambda key: _med([o[key] for o in traced])  # noqa: E731
    u = lambda part, key: _med([o[part][key] for o in traced])  # noqa: E731
    counting = raw["counting"]
    m = {name: 0.0 for name in PER_LAYER}
    m.update(_counter_layers([o["metrics"] for o in traced], raw["rows"]))
    unattributed, self_s, overlap = reconcile(trace_path)
    m.update({
        "sink.call_s": t("sink_call_s"),
        "sink.cpu_s": t("sink_cpu_s"),
        "sink.calls": t("sink_calls"),
        "sink.wall_s": t("sink_wall_s"),
        "run_sort.call_s": t("run_sort_call_s"),
        "run_sort.cpu_s": t("run_sort_cpu_s"),
        # Radix sort compares nothing; pdqsort's count comes from one extra
        # untimed sort with comparison counting on.
        "run_sort.compares": 0 if raw["uses_radix"]
        else counting["run_generation_compares"],
        "merge.wall_s": t("merge_wall_s"),
        "merge.compares": counting["merge_compares"],
        "scan.wall_s": t("scan_wall_s"),
        "scan.chunks": t("scan_chunks"),
        "mem.faults_sink": u("usage_sink", "minflt"),
        "mem.faults_merge": u("usage_merge", "minflt"),
        "mem.faults_scan": u("usage_scan", "minflt"),
        "mem.sys_s_sink": u("usage_sink", "sys_s"),
        "mem.sys_s_merge": u("usage_merge", "sys_s"),
        "mem.sys_s_scan": u("usage_scan", "sys_s"),
        "mem.rss_peak_mb": raw["rss_peak_kb"] / 1024.0,
        "pool.tasks": t("pool_tasks"),
        "pool.queue_wait_s": t("pool_queue_wait_s"),
        "pool.busy_s": t("pool_busy_s"),
        "trace.unattributed_s": _med(unattributed),
        "trace.overhead_frac": _med([o["sort_s"] for o in traced]) /
        _med([o["sort_s"] for o in plain]) - 1.0,
        "error_rate": _ratio(raw["failed"], raw["attempted"]),
    })
    sort_s = t("sort_s")
    notes = [
        "reconcile (medians over %d traced sorts): sink.wall_s %.6f + "
        "merge.wall_s %.6f + scan.wall_s %.6f + trace.unattributed_s %.6f "
        "vs sort_s %.6f; worst phase overlap %.6f s"
        % (len(traced), m["sink.wall_s"], m["merge.wall_s"],
           m["scan.wall_s"], m["trace.unattributed_s"], sort_s, overlap),
        "self time (s, median per sort): " + ", ".join(
            "%s %.6f" % (n, v) for n, v in sorted(self_s.items())),
    ]
    # Per traced op the phases must add back up to sort_s exactly.
    for o in traced:
        rest = o["sort_s"] - o["sink_wall_s"] - o["merge_wall_s"] - \
            o["scan_wall_s"]
        if rest < -1e-6:
            raise RuntimeError("layer spans exceed the sort's wall time")
    return m, notes


def service_per_layer(raw, trace_path):
    reqs = raw["requests"]
    giants = [r["metrics"] for r in reqs if r["kind"] == GIANT]
    done = sum(1 for r in reqs if r["ok"])
    m = {name: 0.0 for name in PER_LAYER}
    m.update(_counter_layers(giants, raw["rows"]))
    lat = {k: [(r["end_ns"] - r["start_ns"]) * 1e-6 for r in reqs
               if r["kind"] == k and r["ok"]] for k in range(5)}
    waits = raw["queue_wait_ms"]
    wait_p99, _ = stats.tail_percentile(waits, 0.99)
    small = [r for r in reqs if r["kind"] == 0 and r["ok"]]
    lat_of = lambda rs: [(r["end_ns"] - r["start_ns"]) for r in rs]  # noqa
    traced = [r for r in reqs if r["traced"]]
    unattributed, self_s, _ = reconcile(trace_path)
    svc, pool = raw["service"], raw["pool"]
    m.update({
        "mem.rss_peak_mb": raw["rss_peak_kb"] / 1024.0,
        "pool.tasks": _ratio(pool["tasks"], done),
        "pool.queue_wait_s": _ratio(pool["queue_wait_s"], done),
        "pool.busy_s": _ratio(pool["busy_s"], done),
        "service.queue_wait_ms_p50": _med(waits),
        "service.queue_wait_ms_p99": wait_p99,
        "service.admitted": svc["admitted"],
        "service.express_admitted": svc["express_admitted"],
        "service.shed": svc["shed"],
        "service.victim_spills": svc["victim_spills"],
        "service.victim_bytes_freed": svc["victim_bytes_freed"],
        "service.max_queue_depth": svc["max_queue_depth"],
        "op.sort_ms_p50": _med(lat[0]),
        "op.topn_ms_p50": _med(lat[1]),
        "op.window_ms_p50": _med(lat[2]),
        "op.join_ms_p50": _med(lat[3]),
        "op.giant_s_p50": _med(lat[GIANT]) * 1e-3,
        "trace.unattributed_s": _med(unattributed),
        # Traced requests read the client thread's CPU and usage and record
        # a span around Submit; untraced ones do neither.
        "trace.overhead_frac":
            _med(lat_of([r for r in small if r["traced"]])) /
            _med(lat_of([r for r in small if not r["traced"]])) - 1.0,
        "error_rate": _ratio(raw["failed"], raw["attempted"]),
    })
    notes = [
        "%d queue-wait samples (flight recorder enqueue -> admit), %d "
        "dropped events" % (len(waits), raw["flight_dropped"]),
        "per request: client latency = service.queued + service.run + "
        "trace.unattributed_s (median %.6f s over %d traced requests)"
        % (m["trace.unattributed_s"], len(unattributed)),
        "self time (s, median per request): " + ", ".join(
            "%s %.6f" % (n, v) for n, v in sorted(self_s.items())),
        "client thread inside Submit (median per traced request): CPU "
        "%.6f s, %.1f minor faults"
        % (_med([r["client_cpu_s"] for r in traced]),
           _med([r["client_usage"]["minflt"] for r in traced])),
        "engine layers inside SortService.Submit are not visible to the "
        "benchmark: sink.*, scan.*, run_sort call/cpu and mem.faults_* read 0",
    ]
    return m, notes


# ------------------------------------------------------------------- main

def _checksum_registry(results_dir, raw):
    """The same workload and seed must give the same input checksum in every
    run of this checkout; returns an error string or ""."""
    path = os.path.join(results_dir, "input_checksums.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    key = "%s/%d" % (raw["workload"], raw["seed"])
    checksum = raw["setup"]["input_checksum"]
    if known.get(key, checksum) != checksum:
        return "seed %d gave input checksum %s, earlier %s" % (
            raw["seed"], checksum, known[key])
    known[key] = checksum
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return ""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")

    work = os.path.join(ROOT, ".bench_build", "sortbench")
    results_dir = os.path.join(work, "results")
    traces_dir = os.path.join(work, "traces")
    try:
        binary = build(os.path.join(work, "build"))
    except (subprocess.CalledProcessError, OSError) as e:
        log("sortbench: build failed: %s" % e)
        return 1
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(traces_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = os.path.join(results_dir, tag + ".raw.json")
    trace_path = os.path.join(traces_dir, tag + ".json")
    spill_dir = os.path.join(work, "spill", "%s-%d" % (tag, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--spill-dir", spill_dir]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        subprocess.run(cmd, check=True, timeout=170, stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log("sortbench: %s failed: %s" % (args.workload, e))
        return 1
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    with open(raw_path) as f:
        raw = json.load(f)

    fp = fingerprint(raw)
    if fp["build_type"] != "Release":
        for _ in range(3):
            log("WARNING: build type is %r, not Release: timings are not "
                "comparable" % fp["build_type"])
    errors = [e["e"] for e in raw["errors"]]
    if not raw["setup"]["reproducible"]:
        errors.append("the same seed produced different inputs within a run")
    registry_error = _checksum_registry(results_dir, raw)
    if registry_error:
        errors.append(registry_error)

    service = args.workload == "service_mix"
    if args.trace:
        compute = service_per_layer if service else engine_per_layer
        metrics, notes = compute(raw, trace_path)
        table = {n: PER_LAYER[n][0] for n in PER_LAYER}
    else:
        compute = service_end_to_end if service else engine_end_to_end
        metrics, notes = compute(raw)
        metrics["setup_s"] = stats.median(raw["setup"]["setup_s"])
        metrics["ok_rate"] = 1.0 - _ratio(raw["failed"], raw["attempted"])
        table = {n: END_TO_END[n][0] for n in END_TO_END}
    attempted, failed = raw["attempted"], raw["failed"]
    correct = not errors and failed == 0

    print("sortbench %s  seed %d  input checksum %s  trace %d"
          % (args.workload, args.seed, raw["setup"]["input_checksum"],
             args.trace))
    for key, value in fp.items():
        print("  host/build %-16s %s" % (key, value))
    print("  operations: %d attempted, %d failed, error_rate %.6f"
          % (attempted, failed, _ratio(failed, attempted)))
    for note in notes:
        print("  " + note)
    for name, unit in table.items():
        moves = "" if not args.trace else "   moves: " + PER_LAYER[name][2]
        print("  %-28s %18.6f %-6s%s" % (name, metrics[name], unit, moves))
    for e in errors:
        print("  ERROR: " + e)
    if args.trace:
        print("  trace: " + os.path.relpath(trace_path, ROOT))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in table.items()},
    }
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump(dict(result, seed=args.seed, workload=args.workload,
                       input_checksum=raw["setup"]["input_checksum"],
                       fingerprint=fp, notes=notes, errors=errors), f,
                  indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
