#!/usr/bin/env python3
"""Session-level PAC benchmark.

    python3 perfbench/run.py --workload lan_quickstart_flash --seed 1 --seconds 45 --trace 0

Builds pac_perfbench (perfbench/CMakeLists.txt, into .bench_build/perfbench),
then runs one workload for --seconds, one benchmark operation per exec'd
child process, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
An operation that aborts, dies on a signal or throws counts as failed,
with its cause on stderr.  See perfbench/README.md for every metric and
the reason for each workload.
"""

import argparse
import json
import math
import os
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "pac_perfbench")
MIB = 1024.0 * 1024.0

# Session workloads run the pac_perfbench shape of the same name as a
# closed loop of one client: each job is one session in a fresh child, and
# the next starts when it ends.
SESSION_WORKLOADS = ("lan_flash", "lan_quickstart", "lan_quickstart_flash",
                     "cached_ram")
# tenant_mix is an open loop: seeded exponential arrivals with this mean gap
# onto a 4-device fleet, shapes drawn from MIX; its traced run composes
# the 2-device cached shape.
TENANT_MEAN_GAP_S = 0.15
TENANT_MIN_JOBS = 100
TENANT_MIX = [("quickstart", 0.7), ("cached_pair", 0.3)]

UNITS = {"setup_s": "s", "session_s": "s", "peak_device_mib": "MiB",
         "job_latency_s_p50": "s", "job_latency_s_p90": "s",
         "jobs_per_s": "1/s"}

# Per-layer metrics the compose child reports (prefix "m."), plus the ones
# run.py derives; see README.md for what each measures.
COMPOSE_METRICS = [
    ("planner.profile_s", "s"), ("planner.plan_s", "s"),
    ("planner.minibatch_s_planned", "s"), ("planner.minibatch_error", "ratio"),
    ("planner.memory_mib_planned", "MiB"), ("planner.memory_error", "ratio"),
    ("pipeline.phase1_s", "s"), ("pipeline.minibatch_s", "s"),
    ("pipeline.phase1_comm_mib", "MiB"), ("pipeline.phase1_peak_mib", "MiB"),
    ("pipeline.phase2_s", "s"), ("pipeline.phase2_epoch_s", "s"),
    ("pipeline.phase2_comm_mib", "MiB"),
    ("cache.fetch_calls", "count"), ("cache.fetch_ms_p50", "ms"),
    ("cache.fetch_ms_p99", "ms"), ("cache.fetch_s", "s"),
    ("cache.record_calls", "count"), ("cache.record_s", "s"),
    ("cache.record_mib", "MiB"), ("cache.resident_mib", "MiB"),
    ("cache.total_mib", "MiB"), ("cache.redist_s", "s"),
    ("cache.redist_items", "count"), ("cache.redist_mib", "MiB"),
    ("nn.block_fwd_ms_p50", "ms"), ("nn.block_bwd_ms_p50", "ms"),
]
SERVICE_METRICS = [
    ("service.submit_us_p50", "us"), ("service.queue_wait_s_p50", "s"),
    ("service.queue_wait_s_p90", "s"), ("service.run_s_p50", "s"),
    ("service.admit_share", "ratio"), ("service.queue_depth_max", "count"),
    ("service.running_max", "count"), ("service.generator_late_s", "s"),
]
PER_LAYER = (COMPOSE_METRICS + [("planner.oom_retries", "count")] +
             SERVICE_METRICS + [("trace.overhead", "ratio")])

# Accuracy every completed session must reach on its SST-2-shaped binary
# task (chance 0.5).  The lowest seen over 80 seeds of the quickstart shape
# was 0.625, over 24 of lan_quickstart_flash 0.75; the others stay above
# 0.93.
EVAL_FLOOR = 0.6
# A child still running this long (past its last arrival, for a service
# child) has hung; it is killed and counts as a timeout failure.
OP_TIMEOUT_S = 30.0
# Lines after which a child has nothing left to do but exit.
RESULT_EVENTS = (b"session", b"compose", b"end", b"error")
EXIT_GRACE_S = 5.0
HARD_CAP_S = 110.0    # a run stops looking for a missing sample after this
MAX_RESTARTS = 50     # service children one tenant run may start


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quantile(values, q):
    """Linear interpolation between order statistics (numpy's default)."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(step))
            sys.exit(2)


class Op:
    """One exec'd child process and what it printed before it ended.

    A child that printed its result line but has not exited EXIT_GRACE_S
    later has hung at exit and is killed, like one that outlives its
    timeout; either way the operation failed."""

    def __init__(self, argv, timeout, cwd, err_path):
        self.spawn = time.monotonic()
        self.hung_after_result = False
        with open(err_path, "w+b") as err_file:
            proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                                    stderr=err_file)
            out = self._read(proc, self.spawn + timeout)
            err_file.seek(0)
            err = err_file.read().decode(errors="replace")
        self.end = time.monotonic()
        self.lines = []
        for raw in out.decode(errors="replace").splitlines():
            try:
                self.lines.append(json.loads(raw))
            except ValueError:
                pass  # a line cut short by a crash
        self.ok = self.rc == 0
        self.cause = None if self.ok else self._cause(err)

    def _read(self, proc, deadline):
        """Collects stdout until the child exits or must be killed."""
        out = b""
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(deadline - time.monotonic()):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break  # stdout closed: the child is exiting
                out += chunk
                if (not self.hung_after_result and
                        any(b'"ev":"%s"' % ev for ev in RESULT_EVENTS if
                            b'"ev":"%s"' % ev in out)):
                    self.hung_after_result = True  # until it exits
                    deadline = min(deadline, time.monotonic() + EXIT_GRACE_S)
        try:
            self.rc = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            self.hung_after_result = False
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            self.rc = None
        proc.stdout.close()
        return out

    def _cause(self, err):
        tail = [l for l in err.strip().splitlines() if l.strip()]
        detail = tail[-1].strip() if tail else ""
        if self.rc is None:
            return ("hung at exit after printing its result"
                    if self.hung_after_result else "timeout")
        if self.rc < 0:
            try:
                name = signal.Signals(-self.rc).name
            except ValueError:
                name = "signal %d" % -self.rc
            return "%s: %s" % (name, detail) if detail else name
        errors = [l for l in self.lines if l.get("ev") == "error"]
        if errors:
            return "exception: " + errors[-1].get("what", "")
        return "exit %d: %s" % (self.rc, detail)

    def first(self, ev):
        for line in self.lines:
            if line.get("ev") == ev:
                return line
        return None

    def setup_s(self):
        ready = self.first("ready")
        return None if ready is None else ready["mono"] - self.spawn


class Run:
    """Shared state of one benchmark run: ops, failures, correctness."""

    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.deadline = self.start + args.seconds
        self.dir = os.path.join(ROOT, ".bench_build", "runs",
                                "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.errors = []       # correctness violations
        self.attempted = 0
        self.failed = 0
        self.causes = {}
        self.seq = 0

    def in_window(self, missing=False):
        now = time.monotonic()
        return now < self.deadline or (missing and now < self.start + HARD_CAP_S)

    def op(self, kind, mode_args, timeout=OP_TIMEOUT_S, counted=True):
        self.seq += 1
        work = os.path.join(self.dir, "op%d" % self.seq)
        os.makedirs(work)
        argv = [BINARY] + mode_args + ["--seed", str(self.args.seed), "--dir", work]
        op = Op(argv, timeout, self.dir, os.path.join(work, "stderr.txt"))
        shutil.rmtree(work, ignore_errors=True)
        if counted:
            self.attempted += 1
            if not op.ok:
                self.fail(kind, op.cause)
        return op

    def fail(self, what, cause):
        """One failed operation; causes are tallied by their first word
        (SIGABRT, SIGSEGV, exception, timeout, ...)."""
        self.failed += 1
        key = (cause or "unknown").split(":")[0]
        self.causes[key] = self.causes.get(key, 0) + 1
        log("perfbench: failed %s: %s" % (what, cause))

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)
            log("perfbench: INCORRECT: " + message)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------- sessions

def session_op(run, shape):
    op = run.op("session", ["session", "--shape", shape])
    rep = op.first("session")
    if op.ok and rep is None:
        run.check(False, "session child exited 0 without a report")
    return op, (rep if op.ok else None)


def check_sessions(run, reports):
    """Completed sessions with one plan agree bit-for-bit; eval over floor."""
    by_plan, count = {}, {}
    for rep in reports:
        key = (rep["plan"], rep["effective_batch"])
        by_plan.setdefault(key, rep["losses"])
        count[key] = count.get(key, 0) + 1
        run.check(rep["losses"] == by_plan[key],
                  "sessions with plan %s disagree on epoch losses" % (key,))
        run.check(all(math.isfinite(l) for l in rep["losses"]),
                  "non-finite epoch loss")
        run.check(rep["eval"] >= EVAL_FLOOR,
                  "eval %.4f under floor %.2f" % (rep["eval"], EVAL_FLOOR))
    for (plan, batch), n in sorted(count.items()):
        log("perfbench: plan %s, effective batch %d: %d sessions" % (plan, batch, n))


def session_workload(run):
    """Closed loop, one client: one session child after another."""
    shape = run.args.workload
    reports, setups = [], []
    first = time.monotonic()
    while run.in_window(missing=not reports):
        op, rep = session_op(run, shape)
        if op.setup_s() is not None:
            setups.append(op.setup_s())
        if rep:
            rep["latency_s"] = rep["mono"] - op.spawn
            reports.append(rep)
    if not reports:
        raise SystemExit("perfbench: no session completed within %.0f s" % HARD_CAP_S)
    check_sessions(run, reports)
    lat = [r["latency_s"] for r in reports]
    log("perfbench: %d of %d sessions completed" % (len(reports), run.attempted))
    return {
        "setup_s": statistics.median(setups),
        "session_s": statistics.median(r["session_s"] for r in reports),
        "peak_device_mib": max(r["peak_device_bytes"] for r in reports) / MIB,
        "job_latency_s_p50": quantile(lat, 0.5),
        "job_latency_s_p90": quantile(lat, 0.9),
        "jobs_per_s": len(reports) / (time.monotonic() - first),
    }


def compose_metrics(run, shape, spans_out):
    """Alternates session and compose children until the window closes;
    every composition must reproduce its reference session's epoch losses
    bit-for-bit.  Keeps the spans of the last composition in spans_out."""
    sessions, composes = [], []
    while run.in_window(missing=not sessions or not composes):
        if not sessions:
            _, rep = session_op(run, shape)
            if rep:
                sessions.append(rep)
            continue
        ref = sessions[0]
        spans = os.path.join(run.dir, "spans%d.json" % (run.seq + 1))
        op = run.op("compose", ["compose", "--shape", shape,
                                "--plan", ref["plan_code"],
                                "--batch", str(int(ref["effective_batch"])),
                                "--spans", spans,
                                "--session-id", str(run.seq + 1)])
        comp = op.first("compose") if op.ok else None
        if comp:
            run.check(comp["losses"] == ref["losses"],
                      "composition of plan %s does not reproduce Session::run() "
                      "losses" % ref["plan"])
            composes.append(comp)
            if os.path.exists(spans):
                shutil.copyfile(spans, spans_out)
        if os.path.exists(spans):
            os.remove(spans)
        _, rep = session_op(run, shape)
        if rep:
            sessions.append(rep)
    if not composes:
        raise SystemExit("perfbench: no composition completed within %.0f s" % HARD_CAP_S)
    check_sessions(run, sessions)
    out = {}
    for name, _ in COMPOSE_METRICS:
        out[name] = statistics.median(c["m." + name] for c in composes)
    out["planner.oom_retries"] = statistics.median(s["oom_retries"] for s in sessions)
    out["trace.overhead"] = (statistics.median(c["compose_s"] for c in composes) /
                             statistics.median(s["attempt_s"] for s in sessions))
    log("perfbench: %d compositions, %d sessions" % (len(composes), len(sessions)))
    return out


# ----------------------------------------------------------------- tenants

def make_schedule(run):
    """Seeded open-loop arrivals: exponential gaps, shapes drawn from mix."""
    rng = random.Random(run.args.seed)
    n = max(TENANT_MIN_JOBS, int(0.6 * run.args.seconds / TENANT_MEAN_GAP_S))
    t, schedule = 0.0, []
    for job in range(n):
        t += rng.expovariate(1.0 / TENANT_MEAN_GAP_S)
        pick, acc = rng.random(), 0.0
        for shape, share in TENANT_MIX:
            acc += share
            if pick < acc:
                break
        schedule.append((job, shape, t))
    return schedule


def service_run(run, schedule, fleet_args):
    """Replays `schedule` onto a service child.  When one crashes, every job
    it accepted and did not report complete fails, and a fresh child takes
    the jobs still to come."""
    t0 = time.monotonic() + 0.2
    due = {job: t0 + off for job, _, off in schedule}
    jobs = {}      # job -> its "done" line, or a record of its loss
    submits, admits, setups, hw = [], [], [], {"q": 0, "r": 0}
    pending = list(schedule)
    for _ in range(MAX_RESTARTS):
        if not pending:
            break
        path = os.path.join(run.dir, "schedule%d.txt" % (run.seq + 1))
        with open(path, "w") as f:
            for job, shape, off in pending:
                f.write("%d %s %.9f\n" % (job, shape, off))
        last_due = t0 + pending[-1][2]
        op = run.op("tenants", ["tenants", "--schedule", path, "--t0", repr(t0)]
                    + fleet_args,
                    timeout=max(0.0, last_due - time.monotonic()) + OP_TIMEOUT_S,
                    counted=False)
        if op.setup_s() is not None:
            setups.append(op.setup_s())
        submitted = set()
        for line in op.lines:
            ev = line.get("ev")
            if ev == "submit":
                submitted.add(int(line["job"]))
                submits.append(line)
            elif ev == "admit":
                admits.append(line)
            elif ev == "done":
                jobs[int(line["job"])] = line
                hw["q"] = max(hw["q"], line["queue_depth_hw"])
                hw["r"] = max(hw["r"], line["running_hw"])
        lost = [job for job in submitted if job not in jobs]
        for job in lost:
            jobs[job] = {"state": "lost", "mono": op.end, "error": op.cause}
        if lost:
            log("perfbench: service child ended (%s); %d jobs lost" %
                (op.cause, len(lost)))
        pending = [p for p in pending if p[0] not in submitted]
    return due, jobs, submits, admits, setups, hw


def tenant_outcomes(run, due, jobs):
    """Counts every job as one operation; returns the completed jobs and
    their latencies from scheduled arrival to completion."""
    lat, completed = [], []
    for job, arrive in sorted(due.items()):
        j = jobs.get(job, {"state": "never submitted",
                           "error": "service restarts exhausted"})
        run.attempted += 1
        if j["state"] != "completed":
            run.fail("job %d (%s)" % (job, j["state"]), j.get("error"))
            continue
        completed.append(j)
        lat.append(j["mono"] - arrive)
        # Decreasing from the first epoch: near convergence (~1e-3) the
        # later epochs of the 8-epoch shape wobble against each other.
        losses = j["losses"]
        run.check(all(math.isfinite(l) for l in losses) and
                  all(l < losses[0] for l in losses[1:]),
                  "job %d losses not finite and decreasing: %s" % (job, losses))
        run.check(j["eval"] >= EVAL_FLOOR,
                  "job %d eval %.4f under floor" % (job, j["eval"]))
    return lat, completed


def tenant_workload(run):
    schedule = make_schedule(run)
    due, jobs, _, admits, setups, _ = service_run(run, schedule, [])
    lat, completed = tenant_outcomes(run, due, jobs)
    if not completed:
        raise SystemExit("perfbench: no tenant job completed")
    admit_at = {int(a["job"]): a["mono"] for a in admits}
    first = min(due.values())
    wall = max(j["mono"] for j in jobs.values()) - first
    log("perfbench: %d of %d jobs completed" % (len(completed), len(due)))
    return {
        "setup_s": statistics.median(setups),
        "session_s": statistics.median(j["mono"] - admit_at[int(j["job"])]
                                       for j in completed),
        "peak_device_mib": max(j["peak_device_bytes"] for j in completed) / MIB,
        "job_latency_s_p50": quantile(lat, 0.5),
        "job_latency_s_p90": quantile(lat, 0.9),
        "jobs_per_s": len(completed) / wall,
    }


def service_metrics(run, schedule, fleet_args):
    """The service.* metrics of one service run, or None when no job in it
    completed."""
    due, jobs, submits, admits, _, hw = service_run(run, schedule, fleet_args)
    _, completed = tenant_outcomes(run, due, jobs)
    admit_at = {int(a["job"]): a["mono"] for a in admits}
    waits = [a["queue_wait_s"] for a in admits]
    runs = [j["mono"] - admit_at[int(j["job"])] for j in completed]
    if not runs:
        return None
    return {
        "service.submit_us_p50": statistics.median(s["submit_us"] for s in submits),
        "service.queue_wait_s_p50": quantile(waits, 0.5),
        "service.queue_wait_s_p90": quantile(waits, 0.9),
        "service.run_s_p50": statistics.median(runs),
        "service.admit_share": len(admits) / len(submits),
        "service.queue_depth_max": hw["q"],
        "service.running_max": hw["r"],
        "service.generator_late_s": max(s["late_s"] for s in submits),
    }


# -------------------------------------------------------------------- main

def traced(run):
    spans_out = os.path.join(ROOT, ".bench_build", "trace",
                             "%s-%d.json" % (run.args.workload, run.args.seed))
    os.makedirs(os.path.dirname(spans_out), exist_ok=True)
    shape = run.args.workload
    if shape in SESSION_WORKLOADS:
        # The service layer on a session workload: the workload's session
        # submitted as one job to a dispatcher over a matching fleet, again
        # until one such job completes.
        service = None
        while service is None and run.in_window(missing=True):
            service = service_metrics(run, [(0, shape, 0.0)],
                                      ["--fleet-shape", shape])
    else:
        service = service_metrics(run, make_schedule(run), [])
        shape = "cached_pair"
    layers = compose_metrics(run, shape, spans_out)
    if service is None:
        raise SystemExit("perfbench: the service ran no job to completion")
    layers.update(service)
    return {name: layers[name] for name, _ in PER_LAYER}, dict(PER_LAYER)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SESSION_WORKLOADS + ("tenant_mix",)))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    run = Run(args)
    try:
        if args.trace:
            values, units = traced(run)
        elif args.workload in SESSION_WORKLOADS:
            values, units = session_workload(run), UNITS
        else:
            values, units = tenant_workload(run), UNITS
    finally:
        run.close()
    if run.causes:
        log("perfbench: failures by cause: %s" % json.dumps(run.causes))
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))


if __name__ == "__main__":
    main()
