#!/usr/bin/env python3
"""The stems benchmark: host time of the jobs users of `stems` wait on.

    python3 stemsbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 stemsbench/run.py --smoke

Run from the root of a stems checkout. It builds `stems` and the
`stemsbench` harness from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), writes scratch files under .bench_out/, and prints a
human-readable summary followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones from a
separate traced run. Exit code 1 (and no JSON line) when the build fails
or an output check fails. README.md in this directory has the workload
rationale and the metric -> layer -> workload table.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
NPROC = max(1, min(4, len(os.sched_getaffinity(0))))
# Runner threads, dispatch workers and the serve fleet: half the cores.
# A job spread over every core waits for its slowest thread, so one
# core taken by other load on a shared host delays the whole job.
WORKERS = max(1, NPROC // 2)
DEADLINE_S = 175  # every run must end within 180 s
# the traced run starts no obs-overhead pair it cannot end by then
TRACED_BUDGET_S = 130

# Sizes: ncpu x refs per simulated CPU. The smoke size only checks that
# everything runs and every metric is emitted.
SIZES = {
    "full": {"sweep": (8, 20000), "serve": (4, 8000), "paper": "paper",
             "suite_size": 11},
    "smoke": {"sweep": (2, 1500), "serve": (2, 1000),
              "paper": "OLTP-DB2,em3d", "suite_size": 2},
}
SMS_SWEEP = ["sweep.pht-entries=1024,4096,16384",
             "sweep.region=512,1024,2048,4096"]
SERVE_WORKLOADS = "OLTP-DB2,em3d"
SERVE_CELLS = 4  # SERVE_WORKLOADS x prefetchers=sms,none
# serve_mixed: one closed-loop client submits, in an order shuffled by
# the seed, COLD_PER_S cold specs per second of --seconds and three
# warm resubmissions for each (about --seconds of work on a 4-core
# host). Fixed counts, not a deadline, keep the mix and the daemon's
# memo growth (and so its peak RSS) independent of how fast the
# requests happen to run.
COLD_PER_S = 4

END_TO_END = {
    "setup_s": "s", "job_p50_ms": "ms", "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "workloads.generate_ns_per_ref": "ns/ref",
    "trace.spill_write_ns_per_ref": "ns/ref",
    "trace.map_validate_ns_per_ref": "ns/ref",
    "trace.interleave_ns_per_ref": "ns/ref",
    "mem.access_ns_per_ref": "ns/ref",
    "mem.l1_misses_per_kref": "count/kref",
    "mem.l2_misses_per_kref": "count/kref",
    "core.sms_ns_per_ref": "ns/ref",
    "core.sms_predictions_per_kref": "count/kref",
    "prefetch.ghb_ns_per_miss": "ns/miss",
    "prefetch.ghb_issued_per_miss": "count/miss",
    "sim.timing_ns_per_ref.none": "ns/ref",
    "sim.timing_ns_per_ref.sms": "ns/ref",
    "sim.timing_ns_per_ref.ghb": "ns/ref",
    "sim.ghb_extra_ns_per_ref": "ns/ref",
    "sim.ghb_self_ns_per_ref": "ns/ref",
    "sim.ghb_issue_path_ns_per_ref": "ns/ref",
    "sim.ghb_self_share": "fraction",
    "study.system_ns_per_ref": "ns/ref",
    "study.l1_ns_per_ref": "ns/ref",
    "driver.execute_ms": "ms",
    "driver.executor_overhead_ms": "ms",
    "driver.report_json_ms": "ms",
    "driver.longest_cell_share": "fraction",
    "driver.runner_util": "fraction",
    "driver.memo_hit_rate": "fraction",
    "driver.trace_prep_share_critical": "fraction",
    "driver.trace_prep_share_cells": "fraction",
    "dispatch.result_encode_us": "us",
    "dispatch.result_decode_us": "us",
    "dispatch.wire_bytes_per_cell": "bytes",
    "dispatch.overhead_s": "s",
    "serve.connect_hello_us": "us",
    "serve.queue_wait_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.warm_hit_rate": "fraction",
    "serve.rss_mb_per_cold_request": "MB",
    "obs.trace_overhead_pct": "%",
    "obs.trace_overhead_iqr_pct": "%",
}


class CheckFailed(Exception):
    pass


def median(xs):
    return statistics.median(xs)


def quantile(xs, q):
    """Linear interpolation between closest ranks (inclusive)."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def iqr(xs):
    return quantile(xs, 0.75) - quantile(xs, 0.25) if len(xs) > 1 else 0.0


class Bench:
    """Process management, spans and the build, for one invocation."""

    def __init__(self, out_dir, traced):
        self.out = out_dir
        self.traced = traced
        self.spans = []
        self.live = set()
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        self.build_dir = os.path.abspath(build)
        self.stems = os.path.join(self.build_dir, "stems", "stems")
        self.harness = os.path.join(self.build_dir, "stemsbench")
        self.errlog = os.path.join(out_dir, "stderr.log")
        self.env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
        os.makedirs(self.env["TMPDIR"], exist_ok=True)

    # -- build -----------------------------------------------------------

    def build(self):
        log = os.path.join(self.out, "build.log")
        with open(log, "wb") as f:
            for cmd in (["cmake", "-S", HERE, "-B", self.build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"],
                        ["cmake", "--build", self.build_dir, "--target",
                         "stems", "stemsbench", "-j", str(NPROC)]):
                if subprocess.call(cmd, stdout=f, stderr=f) != 0:
                    with open(log, errors="replace") as g:
                        sys.stderr.write(g.read()[-4000:])
                    raise CheckFailed("build failed: " + " ".join(cmd))

    # -- processes -------------------------------------------------------

    def spawn(self, cmd, stdout_path=None):
        so = open(stdout_path or os.devnull, "wb")
        se = open(self.errlog, "ab")
        p = subprocess.Popen(cmd, stdout=so, stderr=se, env=self.env)
        so.close()
        se.close()
        self.live.add(p)
        return p

    def reap(self, p):
        """Wait for @p p; (exit code, peak RSS in MB of it and the
        children it waited for)."""
        _, status, ru = os.wait4(p.pid, 0)
        self.live.discard(p)
        p.returncode = os.waitstatus_to_exitcode(status)
        return p.returncode, ru.ru_maxrss / 1024.0

    def run(self, cmd, stdout_path=None, span=None):
        """Run to completion: (exit code, wall seconds, peak RSS MB)."""
        t0 = time.perf_counter_ns()
        rc, rss = self.reap(self.spawn(cmd, stdout_path))
        t1 = time.perf_counter_ns()
        if span and self.traced:
            self.spans.append({"name": span, "id": 0, "parent": None,
                               "start_ns": t0, "end_ns": t1, "work": 1,
                               "on_path": False})
        return rc, (t1 - t0) / 1e9, rss

    def must(self, cmd, stdout_path=None, span=None):
        rc, wall, rss = self.run(cmd, stdout_path, span)
        if rc != 0:
            raise CheckFailed(f"exit {rc}: {' '.join(cmd)}\n" + self.tail())
        return wall, rss

    def tail(self):
        try:
            with open(self.errlog, errors="replace") as f:
                return f.read()[-3000:]
        except OSError:
            return ""

    def kill_all(self):
        for p in list(self.live):
            try:
                p.kill()
                os.waitpid(p.pid, 0)
            except (OSError, ChildProcessError):
                pass
        self.live.clear()

    def stems_run(self, tokens, report_path, **kw):
        return self.must([self.stems, "run", *tokens, "quiet=1", "wall=0",
                          "json=" + report_path], **kw)

    def path(self, *parts):
        return os.path.join(self.out, *parts)


def load(path):
    with open(path) as f:
        return json.load(f)


def require(problems, what):
    if problems:
        raise CheckFailed(f"{what}:\n  " + "\n  ".join(problems[:10]))


# ---------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------

def paper_spec(size, seed):
    ncpu, refs = SIZES[size]["sweep"]
    return [f"workloads={SIZES[size]['paper']}", "prefetchers=sms,ghb,none",
            "timing=1", f"ncpu={ncpu}", f"refs={refs}", f"seed={seed}"]


def l1_spec(size, seed, trace_dir):
    ncpu, refs = SIZES[size]["sweep"]
    return ["mode=l1", f"workloads={SIZES[size]['paper']}",
            "prefetchers=sms", *SMS_SWEEP, f"ncpu={ncpu}",
            f"refs={refs}", f"seed={seed}", f"trace-dir={trace_dir}"]


def serve_spec(size, seed):
    ncpu, refs = SIZES[size]["serve"]
    return [f"workloads={SERVE_WORKLOADS}", "prefetchers=sms,none",
            "timing=1", f"ncpu={ncpu}", f"refs={refs}", f"seed={seed}"]


def expected_cells(workload, size):
    if workload == "paper_sweep":
        return SIZES[size]["suite_size"] * 3
    if workload == "sms_sweep_replay":
        return SIZES[size]["suite_size"] * 12
    return SERVE_CELLS


def record_traces(b, size, seed, trace_dir):
    """Record the paper suite's traces into @p trace_dir: an L1-mode run
    of the no-prefetch engine spills every trace it generates."""
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    ncpu, refs = SIZES[size]["sweep"]
    count = SIZES[size]["suite_size"]
    report = b.path("record.json")
    wall, _ = b.stems_run(["mode=l1", f"workloads={SIZES[size]['paper']}",
                           "prefetchers=none", f"ncpu={ncpu}",
                           f"refs={refs}", f"seed={seed}",
                           f"trace-dir={trace_dir}", f"threads={WORKERS}"],
                          report)
    require(check.invariants(load(report), count, False),
            "trace recording report")
    spills = [f for f in os.listdir(trace_dir) if f.endswith(".stmt")]
    if len(spills) != count:
        raise CheckFailed(f"recorded {len(spills)} traces, expected {count}")
    return wall


# ---------------------------------------------------------------------
# sweeps (paper_sweep, sms_sweep_replay)
# ---------------------------------------------------------------------

def sweep_job(workload, size, seed, trace_dir):
    """(measured spec, reference spec on another execution path)."""
    if workload == "paper_sweep":
        spec = paper_spec(size, seed)
        return (spec + [f"threads={WORKERS}"],
                spec + [f"--dispatch={WORKERS}"])
    spec = l1_spec(size, seed, trace_dir)
    live = [t for t in spec if not t.startswith("trace-dir=")]
    return (spec + [f"--dispatch={WORKERS}"],
            live + [f"threads={WORKERS}"])


def measure_sweep(b, workload, size, seed, seconds):
    trace_dir = b.path("traces")
    # the reference run on the other execution path comes first: it also
    # warms the CPU and page cache before anything is timed
    spec, ref_spec = sweep_job(workload, size, seed, trace_dir)
    b.stems_run(ref_spec, b.path("reference.json"))
    reference = load(b.path("reference.json"))
    n = expected_cells(workload, size)
    timing = workload == "paper_sweep"
    require(check.invariants(reference, n, timing), "reference report")

    setups = []
    if workload == "paper_sweep":
        # set-up of a paper sweep is the process itself: start-up, spec
        # expansion and report writing, timed on a one-cell run
        tiny = ["workloads=sparse", "prefetchers=none", "ncpu=1",
                "refs=1000", f"seed={seed}", "threads=1"]
        for i in range(1 + 29):
            wall, _ = b.stems_run(tiny, b.path("tiny.json"))
            require(check.invariants(load(b.path("tiny.json")), 1, False),
                    "start-up run report")
            setups.append(wall)
    else:
        for i in range(1 + 5):
            setups.append(record_traces(b, size, seed, trace_dir))
    # the first set-up warms the page cache and the CPU; it is not timed
    setups = setups[1:]

    walls, rss = [], []
    start = time.monotonic()
    while len(walls) < 3 or time.monotonic() - start < seconds:
        report_path = b.path("sweep.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        rc, wall, peak = b.run([b.stems, "run", *spec, "quiet=1", "wall=0",
                                "json=" + report_path])
        if not os.path.exists(report_path):
            raise CheckFailed(f"sweep exited {rc} without a report\n"
                              + b.tail())
        # a cell error fails the invariants, and with them the run
        report = load(report_path)
        require(check.invariants(report, n, timing), "sweep report")
        require(check.compare(report, reference, "sweep vs reference"),
                "sweep cells differ from the other execution path")
        walls.append(wall)
        rss.append(peak)

    # each sweep's peak is the largest among its processes. It takes
    # one of a few values, set by which cells happen to run at once, so
    # the run reports their mean: a median jumps between them
    metrics = {
        "setup_s": median(setups),
        "job_p50_ms": median(walls) * 1e3,
        "jobs_per_s": len(walls) / sum(walls),
        "peak_rss_mb": statistics.fmean(rss),
    }
    summary = {"wall_s (median sweep)": (median(walls), "s"),
               "wall_s (p90 sweep)": (quantile(walls, 0.9), "s"),
               "peak_rss_mb (largest sweep)": (max(rss), "MB"),
               "sweeps": (len(walls), "count"),
               "error_rate": (0.0, "fraction")}
    return metrics, summary, n * len(walls), 0


# ---------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------

class Daemon:
    """A `stems serve` process in its own directory under the run dir."""

    def __init__(self, b, name, trace_artifacts=False):
        self.b = b
        self.dir = b.path(name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        # relative: a Unix socket path must stay short
        self.addr = "unix:" + os.path.relpath(
            os.path.join(self.dir, "s.sock"))
        cmd = [b.stems, "serve", "listen=" + self.addr,
               f"fleet={WORKERS}", "max-active=2",
               "trace-dir=" + os.path.join(self.dir, "traces"), "quiet=1"]
        if trace_artifacts:
            cmd += ["trace-out=" + os.path.join(self.dir, "trace.json"),
                    "telemetry-out=" + os.path.join(self.dir, "tel.json")]
        self.started = time.perf_counter()
        self.proc = b.spawn(cmd)
        # wait for the listener here, at a finer grain than the client's
        # 50 ms connect retry
        sock = os.path.join(self.dir, "s.sock")
        while not os.path.exists(sock):
            if self.proc.poll() is not None:
                raise CheckFailed("stems serve exited at start-up\n"
                                  + b.tail())
            time.sleep(0.001)

    def stop(self):
        """SIGTERM, wait; the daemon's peak RSS in MB."""
        self.proc.send_signal(signal.SIGTERM)
        rc, rss = self.b.reap(self.proc)
        if rc != 0:
            raise CheckFailed(f"stems serve exited {rc}\n" + self.b.tail())
        return rss

    def submit(self, tokens, report_path):
        return self.b.must([self.b.stems, "submit", "server=" + self.addr,
                            *tokens, "wall=0", "json=" + report_path])


def serve_reference(b, size, seed, tag):
    path = b.path(f"ref_{tag}.json")
    b.stems_run(serve_spec(size, seed) + [f"threads={WORKERS}"], path)
    report = load(path)
    require(check.invariants(report, expected_cells("serve_mixed", size),
                             True), "serve reference report")
    return report


def serve_setup(b, size, seed, warm_ref):
    """Daemon start to the first warm report, in seconds."""
    d = Daemon(b, "setup_daemon")
    try:
        for i in range(2):
            d.submit(serve_spec(size, seed), b.path(f"setup_{i}.json"))
        took = time.perf_counter() - d.started
    finally:
        d.stop()
    require(check.compare(load(b.path("setup_1.json")), warm_ref,
                          "set-up warm report vs stems run"), "serve set-up")
    return took


def run_client(b, daemon, spec, seed, colds):
    """One closed-loop client, @p colds cold requests and three warm
    ones for each, in a seeded order."""
    out = b.path("client.jsonl")
    cmd = [b.harness, "client", "server=" + daemon.addr, f"seed={seed}",
           f"cold={colds}", "out=" + out, "--", *spec, "wall=0", "json=-"]
    b.must(cmd, span="serve.client")
    records = []
    with open(out) as f:
        for line in f:
            r = json.loads(line)
            if r["report"] is not None:
                r["report"] = json.loads(r["report"])
            records.append(r)
    return records


def check_requests(b, records, size, seed, warm_ref):
    """Every report a client got must equal `stems run` on its tokens."""
    n = expected_cells("serve_mixed", size)
    warm = [r for r in records if r["kind"] == "warm"]
    problems = []
    for r in records:
        if r["status"] != "done" or r["failed"]:
            continue  # counted as failed by the caller
        if r["report"] is not None:
            problems += check.invariants(r["report"], n, True)
        if r["kind"] == "warm":
            if not r["same_as_first_warm"]:
                problems.append(f"warm request {r['index']} differs "
                                "from the first")
            if r["report"] is not None:
                problems += check.compare(r["report"], warm_ref,
                                          "warm report vs stems run")
    if warm and not any(r["report"] for r in warm):
        problems.append("no warm report was kept")
    # a seeded sample of the distinct cold specs, rerun through stems run
    colds = sorted((r for r in records if r["kind"] == "cold"
                    and r["report"] is not None), key=lambda r: r["seed"])
    pick = [colds[(seed * 7919 + k * 104729) % len(colds)]
            for k in range(min(3, len(colds)))] if colds else []
    for r in pick:
        ref = serve_reference(b, size, r["seed"], f"cold{r['seed']}")
        problems += check.compare(r["report"], ref,
                                  f"cold report seed {r['seed']} vs "
                                  "stems run")
    require(problems, "serve reports")


def measure_serve(b, size, seed, seconds):
    warm_ref = serve_reference(b, size, seed, "warm")
    # the first set-up warms the page cache and the CPU; it is not timed
    setups = [serve_setup(b, size, seed, warm_ref)
              for _ in range(1 + 9)][1:]

    d = Daemon(b, "daemon")
    try:
        d.submit(serve_spec(size, seed), b.path("prime.json"))
        records = run_client(b, d, serve_spec(size, seed), seed,
                             max(4, round(seconds * COLD_PER_S)))
    finally:
        rss = d.stop()
    require(check.compare(load(b.path("prime.json")), warm_ref,
                          "first report vs stems run"), "serve reports")
    check_requests(b, records, size, seed, warm_ref)

    ok = [r for r in records if r["status"] == "done" and not r["failed"]]
    failed = len(records) - len(ok)
    if not ok:
        raise CheckFailed("no serve request succeeded")
    lat = {kind: [(r["end_ns"] - r["start_ns"]) / 1e6 for r in ok
                  if r["kind"] == kind] for kind in ("warm", "cold")}
    if not lat["warm"] or not lat["cold"]:
        raise CheckFailed("no warm or no cold request succeeded")
    window = (max(r["end_ns"] for r in records)
              - min(r["start_ns"] for r in records)) / 1e9
    # the gated latency is the warm median; the cold requests' cost
    # shows in jobs_per_s, as the mix is fixed
    metrics = {
        "setup_s": median(setups),
        "job_p50_ms": median(lat["warm"]),
        "jobs_per_s": len(ok) / window,
        "peak_rss_mb": rss,
    }
    summary = {}
    for cls, xs in (("warm", lat["warm"]), ("cold", lat["cold"]),
                    ("pooled", lat["warm"] + lat["cold"])):
        summary[f"submit_{cls}_p50_ms"] = (median(xs), "ms")
        summary[f"submit_{cls}_p90_ms"] = (quantile(xs, 0.9), "ms")
        summary[f"submit_{cls}_samples"] = (len(xs), "count")
    summary["requests_per_s"] = (len(ok) / window, "req/s")
    summary["error_rate"] = (failed / len(records), "fraction")
    return metrics, summary, len(records), failed


# ---------------------------------------------------------------------
# traced per-layer run
# ---------------------------------------------------------------------

def job_spec(b, workload, size, seed):
    """The workload's job spec, in-process at threads=WORKERS, plus any
    set-up it needs (recorded traces for the replay sweep)."""
    if workload == "paper_sweep":
        return paper_spec(size, seed)
    if workload == "sms_sweep_replay":
        record_traces(b, size, seed, b.path("traces"))
        return l1_spec(size, seed, b.path("traces"))
    return serve_spec(size, seed)


def seed_of(spec):
    return int(next(t for t in spec if t.startswith("seed="))[5:])


def layer_metrics(b, spec, reference):
    """Per-layer self times from the harness's panel on @p spec."""
    out = b.path("layers")
    os.makedirs(out, exist_ok=True)
    b.must([b.harness, "layers", "out=" + out, "--", *spec, "wall=0"],
           b.path("layers.json"), span="harness.layers")
    got = load(b.path("layers.json"))
    report = load(os.path.join(out, "layers_report.json"))
    require(check.compare(report, reference, "library path vs stems run"),
            "layer-panel cells differ from stems run")
    with open(os.path.join(out, "spans.json")) as f:
        spans = json.load(f)
    L = got["layers"]

    def per(name):
        return L[name]["self_ns"] / L[name]["work"]

    def group(prefix):
        rows = [r for k, r in L.items() if k.startswith(prefix)]
        return sum(r["self_ns"] for r in rows) / sum(r["work"] for r in rows)

    refs = L["workloads.generate"]["work"]
    misses = L["prefetch.ghb"]["work"]
    m = {
        "workloads.generate_ns_per_ref": per("workloads.generate"),
        "trace.spill_write_ns_per_ref": per("trace.spill_write"),
        "trace.map_validate_ns_per_ref": per("trace.map_validate"),
        "trace.interleave_ns_per_ref": per("trace.interleave"),
        "mem.access_ns_per_ref": per("mem.access"),
        "mem.l1_misses_per_kref":
            1e3 * L["count.l1_read_misses"]["work"] / refs,
        "mem.l2_misses_per_kref":
            1e3 * L["count.l2_read_misses"]["work"] / refs,
        "core.sms_ns_per_ref": per("core.sms"),
        "core.sms_predictions_per_kref":
            1e3 * L["count.sms_predictions"]["work"] / refs,
        "prefetch.ghb_ns_per_miss": per("prefetch.ghb"),
        "prefetch.ghb_issued_per_miss":
            L["count.ghb_issued"]["work"] / misses,
    }
    for kind in ("none", "sms", "ghb"):
        m[f"sim.timing_ns_per_ref.{kind}"] = per(f"sim.timing.{kind}")
    # GHB attribution: the timing model's extra cost with GHB attached,
    # split into the engine's own time on the L1-miss stream and the
    # rest, which is the prefetch issue path through the hierarchy
    extra = m["sim.timing_ns_per_ref.ghb"] - m["sim.timing_ns_per_ref.none"]
    own = m["prefetch.ghb_ns_per_miss"] * misses / refs
    m["sim.ghb_extra_ns_per_ref"] = extra
    m["sim.ghb_self_ns_per_ref"] = own
    m["sim.ghb_issue_path_ns_per_ref"] = extra - own
    m["sim.ghb_self_share"] = own / extra if extra else 0.0
    m["study.system_ns_per_ref"] = group("study.system.")
    m["study.l1_ns_per_ref"] = group("study.l1.")
    execute = L["driver.execute"]
    on_path = sum(r["on_path_ns"] for r in L.values())
    m["driver.execute_ms"] = execute["self_ns"] / execute["count"] / 1e6
    m["driver.executor_overhead_ms"] = (execute["self_ns"] - on_path) / 1e6
    m["driver.report_json_ms"] = L["driver.report_json"]["self_ns"] / 1e6
    m["dispatch.result_encode_us"] = \
        per("dispatch.result_encode") / 1e3
    m["dispatch.result_decode_us"] = \
        per("dispatch.result_decode") / 1e3
    m["dispatch.wire_bytes_per_cell"] = got["wire_bytes"] / got["cells"]
    return m, spans, L


def run_metrics(b, spec):
    """driver.* from one traced `stems run` of the job spec, read back
    through the program's own analyzer."""
    trace, tel = b.path("run_trace.json"), b.path("run_tel.json")
    b.stems_run(spec + [f"threads={WORKERS}", "trace-out=" + trace,
                        "telemetry-out=" + tel], b.path("traced.json"),
                span="stems.run.traced")
    b.must([b.harness, "analyze", "trace=" + trace, "telemetry=" + tel],
           b.path("analyze.json"))
    a = load(b.path("analyze.json"))["analyze"]
    wall = a["wall_ms"]
    lanes = a["timeline"]["lanes"]
    hits = sum(r["hits"] for r in a["hit_rates"].values())
    lookups = sum(r["hits"] + r["misses"] for r in a["hit_rates"].values())
    path = a["critical_path"]
    cell_ms = sum(s["dur_ms"] for s in path if s["name"] == "cell")
    prep_ms = sum(s["dur_ms"] for s in path if s["name"] == "trace")
    phases = {p["name"]: p["total_ms"] for p in a["phases"]}
    longest = max((s["dur_ms"] for s in a["stragglers"]), default=0.0)
    return {
        "driver.longest_cell_share": longest / wall,
        "driver.runner_util":
            sum(ln["utilization"] for ln in lanes) / max(1, len(lanes)),
        "driver.memo_hit_rate": hits / lookups if lookups else 0.0,
        "driver.trace_prep_share_critical":
            prep_ms / cell_ms if cell_ms else 0.0,
        "driver.trace_prep_share_cells":
            phases.get("trace", 0.0) / phases["cell"],
    }


def obs_overhead(b, spec, until):
    """Paired runs with trace-out/telemetry-out on vs off, alternating
    which arm goes first: 10 pairs, or as many as end by the monotonic
    time @p until (at least 4), so that a slow host still finishes the
    traced run in time."""
    base = spec + [f"threads={WORKERS}"]
    on = base + ["trace-out=" + b.path("obs_trace.json"),
                 "telemetry-out=" + b.path("obs_tel.json")]
    pcts = []
    pair_s = 0.0
    while len(pcts) < 4 or (len(pcts) < 10
                            and time.monotonic() + pair_s < until):
        t0 = time.monotonic()
        first_on = len(pcts) % 2 == 1
        walls = {}
        for arm in ((True, False) if first_on else (False, True)):
            walls[arm], _ = b.stems_run(on if arm else base,
                                        b.path("obs.json"),
                                        span="obs.pair")
        pcts.append((walls[True] - walls[False]) / walls[False] * 100)
        pair_s = max(pair_s, time.monotonic() - t0)
    return {"obs.trace_overhead_pct": median(pcts),
            "obs.trace_overhead_iqr_pct": iqr(pcts)}, len(pcts)


def dispatch_overhead(b, spec):
    """Wall at --dispatch=N minus the in-process wall at threads=N."""
    gaps = []
    for i in range(3):
        walls = {}
        order = ("d", "t") if i % 2 == 0 else ("t", "d")
        for arm in order:
            extra = [f"--dispatch={WORKERS}"] if arm == "d" else \
                [f"threads={WORKERS}"]
            walls[arm], _ = b.stems_run(spec + extra, b.path("disp.json"),
                                        span="dispatch.pair")
        gaps.append(walls["d"] - walls["t"])
    return {"dispatch.overhead_s": median(gaps)}


def rss_per_cold(b, spec, n):
    """Peak-RSS growth per cold request: two untraced daemons take the
    same sequential requests, except that the second takes 3 @p n more
    cold ones (fresh seeds) before its warm request. Both start with
    @p n cold ones, so the allocator's first growth is in the floor."""
    seed = seed_of(spec)
    toks = [t for t in spec if not t.startswith("seed=")]
    peaks = []
    for extra in (n, 4 * n):
        d = Daemon(b, f"serve_rss{extra}")
        seeds = [seed] + [seed + 1 + i for i in range(extra)] + [seed]
        try:
            for i, s in enumerate(seeds):
                path = b.path(f"rss{extra}_{i}.json")
                d.submit(toks + [f"seed={s}"], path)
                require(check.invariants(load(path), SERVE_CELLS, True),
                        "RSS session report")
        finally:
            peaks.append(d.stop())
    return (peaks[1] - peaks[0]) / (3 * n)


def serve_metrics(b, size, seed):
    """A short traced daemon session on serve_mixed's spec at @p seed:
    hello latency, queue wait vs execution per request, warm hits; RSS
    per cold request from untraced daemons."""
    spec = serve_spec(size, seed)
    d = Daemon(b, "serve_traced", trace_artifacts=True)
    try:
        d.submit(spec, b.path("serve_prime.json"))
        b.must([b.harness, "hello", "server=" + d.addr],
               b.path("hello.json"), span="serve.hello")
        hello = [ns / 1e3 for ns in load(b.path("hello.json"))]
        records = run_client(b, d, spec, seed_of(spec), 4)
    finally:
        d.stop()
    bad = [r for r in records if r["status"] != "done" or r["failed"]]
    if bad:
        raise CheckFailed(f"traced serve session: {len(bad)} failed")
    b.must([b.harness, "analyze", "trace=" + os.path.join(d.dir,
                                                          "trace.json"),
            "telemetry=" + os.path.join(d.dir, "tel.json")],
           b.path("serve_analyze.json"))
    a = load(b.path("serve_analyze.json"))["analyze"]
    rows = a.get("serve", [])
    if not rows:
        raise CheckFailed("daemon trace has no serve section")
    with open(os.path.join(d.dir, "tel.json")) as f:
        counters = json.load(f)["telemetry"]["counters"]
    served = sum(r["cells"] for r in rows)
    return {
        "serve.connect_hello_us": median(hello),
        "serve.queue_wait_ms": median(r["queue_ms"] for r in rows),
        "serve.exec_ms": median(r["exec_ms"] for r in rows),
        "serve.warm_hit_rate": counters["serve_cache_warm_hits"] / served,
        "serve.rss_mb_per_cold_request":
            rss_per_cold(b, spec, 4),
    }


def measure_traced(b, workload, size, seed):
    start = time.monotonic()
    spec = job_spec(b, workload, size, seed)
    cells = expected_cells(workload, size)
    timing = workload != "sms_sweep_replay"
    ref_path = b.path("layers_ref.json")
    b.stems_run(spec + [f"threads={WORKERS}"], ref_path)
    reference = load(ref_path)
    require(check.invariants(reference, cells, timing),
            "traced-run reference report")

    m, spans, layers = layer_metrics(b, spec, reference)
    m.update(run_metrics(b, spec))
    m.update(dispatch_overhead(b, spec))
    # the serve layer is measured on serve_mixed's spec at this seed
    m.update(serve_metrics(b, size, seed))
    obs, pairs = obs_overhead(b, spec, start + TRACED_BUDGET_S)
    m.update(obs)

    # one span file: the harness's layer calls plus this process's
    # timed subprocess calls, written once at the end
    with open(b.path("spans.json"), "w") as f:
        json.dump(spans + b.spans, f)
    summary = {"obs.trace_overhead pairs": (pairs, "count")}
    for name, r in sorted(layers.items()):
        if r["count"] and not name.startswith("count.") and r["self_ns"]:
            summary[f"self {name}"] = (r["self_ns"] / 1e6, "ms")
    return m, summary, 1, 0


# ---------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------

WORKLOADS = ("paper_sweep", "sms_sweep_replay", "serve_mixed")


def measure(b, workload, size, seed, seconds, traced):
    if traced:
        return measure_traced(b, workload, size, seed)
    if workload == "serve_mixed":
        return measure_serve(b, size, seed, seconds)
    return measure_sweep(b, workload, size, seed, seconds)


def emit(metrics, units, summary, attempted, failed):
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise CheckFailed(f"metrics not produced: {missing}")
    width = max(len(k) for k in list(metrics) + list(summary))
    for k in sorted(summary):
        v, u = summary[k]
        print(f"  {k:<{width}}  {v:>14.6g} {u}")
    for k in units:
        print(f"  {k:<{width}}  {metrics[k]:>14.6g} {units[k]}")
    out = {"correct": True, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                       for k in units}}
    print(json.dumps(out))


def smoke():
    """Every workload, untraced and traced, at a tiny size, plus the
    negative test of the output check; checks that every metric named
    in BENCHMARK.json is present with its unit."""
    spec = load("BENCHMARK.json")
    want = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for trace, units in (("0", END_TO_END), ("1", PER_LAYER)):
        if want[trace] != units:
            raise CheckFailed(f"BENCHMARK.json metrics for --trace {trace} "
                              "do not match run.py")
    for w in spec["workloads"]:
        if w["name"] not in WORKLOADS:
            raise CheckFailed(f"unknown workload {w['name']}")
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   w["name"], "--seed", "3", "--seconds", "1", "--trace",
                   trace, "--size", "smoke"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                raise CheckFailed(f"smoke {w['name']} trace {trace} "
                                  f"exited {out.returncode}")
            last = json.loads(out.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != want[trace] or not last["correct"]:
                raise CheckFailed(f"smoke {w['name']} trace {trace}: "
                                  f"metrics {sorted(got)}")
            print(f"smoke: {w['name']} --trace {trace}: "
                  f"{len(got)} metrics ok", flush=True)
    # negative test: a report with one altered metric must fail the check
    b = Bench(fresh_dir("selftest"), traced=False)
    try:
        b.build()
        b.stems_run(paper_spec("smoke", 5) + [f"threads={WORKERS}"],
                    b.path("r.json"))
        failures = check.self_test(load(b.path("r.json")),
                                   expected_cells("paper_sweep", "smoke"),
                                   True)
    finally:
        b.kill_all()
    require(failures, "output-check self-test")
    shutil.rmtree(b.out, ignore_errors=True)
    print("smoke: output check rejects altered reports")
    print("smoke ok")


def fresh_dir(tag):
    path = os.path.abspath(os.path.join(".bench_out",
                                        f"{tag}-{os.getpid()}"))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--smoke", action="store_true",
                    help="quick self-test of every workload and metric")
    args = ap.parse_args()

    if args.smoke:
        try:
            smoke()
        except CheckFailed as e:
            print(f"stemsbench: {e}", file=sys.stderr)
            return 1
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 1:
        ap.error("--seed must be positive")

    b = Bench(fresh_dir(f"{args.workload}-{args.seed}"), bool(args.trace))

    def on_alarm(signum, frame):
        raise CheckFailed(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    try:
        b.build()
        signal.alarm(DEADLINE_S)
        metrics, summary, attempted, failed = measure(
            b, args.workload, args.size, args.seed, args.seconds,
            bool(args.trace))
        signal.alarm(0)
        print(f"stemsbench: {args.workload} seed={args.seed} "
              f"trace={args.trace} nproc={NPROC} workers={WORKERS}")
        emit(metrics, PER_LAYER if args.trace else END_TO_END, summary,
             attempted, failed)
    except (CheckFailed, OSError, ValueError, KeyError) as e:
        signal.alarm(0)
        b.kill_all()
        print(f"stemsbench: {type(e).__name__}: {e}", file=sys.stderr)
        print(f"stemsbench: scratch kept in {b.out}", file=sys.stderr)
        return 1
    finally:
        b.kill_all()
    shutil.rmtree(b.out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
