#!/usr/bin/env python3
"""End-to-end benchmark of holmes_cli, with a traced per-layer mode.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

The first run builds holmes_cli (and, for --trace 1, holmes_replay) from
the checkout into .bench_build/. Each run writes a stamp of every request
it made to .bench_out/ and prints, as its last stdout line, one JSON object
{"correct", "attempted", "failed", "metrics"}.

--trace 0 drives holmes_cli the way a user does: one client, one request at
a time (a closed loop), for S seconds, and reports the end-to-end metrics.
--trace 1 replays the same seeded requests in-process with holmes_replay,
times each call into a layer, and reports the per-layer metrics. --record
rewrites perfbench/expected.json: exit codes and document digests for every
menu request plus the default seed's fault-plan requests.

perfbench/README.md describes the workloads, metrics and layers.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"
CLI = BUILD / "tools" / "holmes_cli"
REPLAY = BUILD / "holmes_replay"

DEFAULT_SEED = 1
SETUPS_PER_RUN = 3  # setup_s is the median of these
REPLAY_SHARE = 0.6  # of --seconds spent in the in-process replay

FRAMEWORKS = ["holmes", "megatron-lm", "megatron-deepspeed", "megatron-llama"]
WHATIF_ENVS = ["ib", "roce", "eth", "hybrid", "split-ib", "split-roce"]
WHATIF_NODES = [4, 8]
WHATIF_GROUPS = [1, 2, 3, 4, 7]
WHATIF_COMMANDS = ["simulate", "stats", "explain", "timeline"]
WHATIF_BIN = 10  # combos per stratum, by graph size
LINT_SPECS = ["16x8:ib+16x8:roce", "12x8:ib+20x8:roce",
              "8x8:ib+8x8:roce+16x8:eth", "32x8:ib"]
LINT_FRAMEWORKS = ["holmes", "megatron-lm", "megatron-deepspeed"]
# (topology, group, also inject). `inject` keeps three or four graphs alive
# depending on how many re-plan rounds its plan needs, so its peak RSS moves
# with the seed (by 14% at 128 GPUs, 5% at hybrid:8 group 4). It runs only
# where that peak stays below the 128-GPU checks', which then set a run's
# peak_rss_mb whatever the seed. The two heavy checks are 2 of 11 requests,
# so latency_p90_ms falls inside that group rather than on its edge.
FAULT_SCENARIOS = [("hybrid:8", 1, True), ("hybrid:8", 4, False),
                   ("hybrid:8", 7, True), ("eth:8", 1, True),
                   ("split-roce:8", 7, True), ("8x8:ib+8x8:roce", 7, False),
                   ("8x8:ib+8x8:eth", 7, False)]
CHECK_PERMUTATIONS = 2
PLANS_PER_STRATUM = 4

SCHEMAS = {
    "stats": "holmes.run_summary.v1",
    "explain": "holmes.critical_path.v1",
    "timeline": "holmes.timeline.v1",
    "lint": "holmes.lint_report.v1",
    "check": "holmes.check_report.v1",
    "inject": "holmes.recovery_report.v1",
}

END_TO_END_UNITS = {
    "setup_s": "s", "requests_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "cpu_ms_per_request": "ms", "peak_rss_mb": "MiB",
}

# Per-layer metrics: span name -> (metric, what is summed). "dur" is the
# call's wall time, "self" its duration minus its children's.
SPAN_METRICS = [
    ("core.plan", "core.plan_ms", "dur"),
    ("core.simulate", "core.simulate_ms", "dur"),
    ("core.simulate", "core.lower_ms", "self"),
    ("sim.compile_adjacency", "sim.compile_adjacency_ms", "dur"),
    ("sim.execute", "sim.execute_ms", "dur"),
    ("sim.execute_permuted", "sim.execute_permuted_ms", "dur"),
    ("sim.execute_faulted", "sim.execute_faulted_ms", "dur"),
    ("core.lint_artifacts", "core.lint_artifacts_ms", "dur"),
    ("verify.lint_graph", "verify.lint_graph_ms", "dur"),
    ("verify.lint_execution", "verify.lint_execution_ms", "dur"),
    ("verify.flow", "verify.flow_ms", "dur"),
    ("obs.run_summary", "obs.run_summary_ms", "dur"),
    ("obs.critical_path", "obs.critical_path_ms", "dur"),
    ("obs.timeline", "obs.timeline_ms", "dur"),
    ("obs.serialize", "obs.serialize_ms", "dur"),
    ("core.check", "core.check_ms", "dur"),
    ("core.inject", "core.inject_ms", "dur"),
]
COUNT_METRICS = ["sim.tasks", "sim.deps", "sim.executor_runs",
                 "verify.findings", "obs.json_bytes", "core.check_divergences"]


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Build and process control
# ---------------------------------------------------------------------------

def build(targets):
    for needed in ("CMakeLists.txt", "src", "tools/holmes_cli.cpp"):
        if not (ROOT / needed).exists():
            raise SetupError(f"no holmes source tree here: {needed} missing")
    OUT.mkdir(exist_ok=True)
    with open(OUT / "build.log", "ab") as log:
        def step(cmd):
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                raise SetupError(f"build step failed: {' '.join(cmd)} "
                                 f"(see {OUT / 'build.log'})")
        if not (BUILD / "CMakeCache.txt").exists():
            step(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                  f"-DCMAKE_PROJECT_INCLUDE={HERE / 'replay.cmake'}"])
        jobs = str(min(4, len(os.sched_getaffinity(0))))
        step(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets])


class Runner:
    """Spawns one holmes_cli request at a time and reaps it with wait4, which
    gives the child's CPU time and peak RSS.

    posix_spawn starts the child on this process's memory until it execs,
    and Linux carries that high-water mark into the child's max RSS. So the
    timed requests spool their output to files instead of this process
    holding them: it stays far smaller than any request."""

    def __init__(self):
        OUT.mkdir(exist_ok=True)
        self.out = os.open(OUT / "stdout.tmp", os.O_RDWR | os.O_CREAT, 0o644)
        self.null = os.open(os.devnull, os.O_WRONLY)
        self.spool = OUT / "outputs"
        shutil.rmtree(self.spool, ignore_errors=True)
        self.spool.mkdir()
        self.spooled = 0

    def run(self, argv, spool=False):
        """Runs one request. Its output is in "data", or, with `spool`, in
        the file at "path"."""
        if spool:
            self.spooled += 1
            path = self.spool / f"{self.spooled}.out"
            out = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        else:
            out = self.out
            os.ftruncate(out, 0)
            os.lseek(out, 0, os.SEEK_SET)  # the child shares this offset
        actions = [(os.POSIX_SPAWN_DUP2, out, 1),
                   (os.POSIX_SPAWN_DUP2, self.null, 2)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(CLI, [str(CLI), *argv], os.environ,
                             file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        t1 = time.perf_counter()
        result = {
            "rc": os.waitstatus_to_exitcode(status),
            "start": t0, "end": t1, "latency_s": t1 - t0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        if spool:
            os.close(out)
            result["path"] = path
        else:
            result["data"] = os.pread(out, os.fstat(out).st_size, 0)
        return result


def version_stamp(runner):
    result = runner.run(["--version"])
    line = result["data"].decode().strip()
    fields = line.split(" · ")
    if result["rc"] != 0 or len(fields) < 3:
        raise SetupError(f"unexpected holmes_cli --version output: {line!r}")
    build_type = fields[2].split(" [")[0]
    flags = fields[2][len(build_type):]
    if build_type in ("", "Debug") or not re.search(r"-O[1-3sz]|-Ofast", flags):
        raise SetupError(f"refusing to time an unoptimized build: {line}")
    return line


# ---------------------------------------------------------------------------
# Requests, menus and seeded input generation
# ---------------------------------------------------------------------------

class Request:
    def __init__(self, argv, plan_text=None):
        self.argv = argv
        self.command = argv[0]
        # Recorded-digest key: the command line with the fault plan's path
        # replaced by a digest of its content.
        key = list(argv)
        if plan_text is not None:
            i = key.index("--fault-plan") + 1
            key[i] = "plan:" + hashlib.sha256(plan_text.encode()).hexdigest()[:16]
        self.key = " ".join(key)

    @property
    def group(self):
        return int(self.argv[2])


def validate(runner, topology, group, framework="holmes"):
    """A menu entry is valid when `holmes_cli plan` accepts it. Returns the
    resolved topology spec ("4x8:ib+4x8:roce"), or None."""
    result = runner.run(["plan", topology, str(group), "--framework", framework])
    if result["rc"] != 0:
        return None
    first = result["data"].decode().splitlines()[0]
    return first.rsplit(" on ", 1)[1].strip()


def whatif_requests(runner, expected, rng, inputs):
    del rng, inputs
    weights = expected.get("weights", {})
    combos = [(f"{env}:{n}", str(g), "--framework", fw)
              for env in WHATIF_ENVS for n in WHATIF_NODES
              for g in WHATIF_GROUPS for fw in FRAMEWORKS
              if validate(runner, f"{env}:{n}", g, fw) is not None]
    # Strata of similar graph size (task count), so every round carries the
    # same mix of cheap and expensive requests whatever the seed.
    ranked = sorted(combos, key=lambda c: (weights.get(" ".join(c), 0), c))
    strata = []
    for command in WHATIF_COMMANDS:
        flags = [] if command == "simulate" else ["--json"]
        for b in range(0, len(ranked), WHATIF_BIN):
            strata.append([Request([command, *c, *flags])
                           for c in ranked[b:b + WHATIF_BIN]])
    return strata


def lint_requests(runner, expected, rng, inputs):
    del expected, rng, inputs
    return [[Request(["lint", spec, "7", "--framework", fw, "--json"])]
            for spec in LINT_SPECS for fw in LINT_FRAMEWORKS
            if validate(runner, spec, 7, fw) is not None]


def parse_clusters(spec):
    """'4x8:ib+4x8:roce' -> [(nodes, gpus_per_node), ...]"""
    clusters = []
    for part in spec.split("+"):
        m = re.fullmatch(r"(\d+)x(\d+):\w+", part)
        if not m:
            raise SetupError(f"cannot read topology spec {spec!r}")
        clusters.append((int(m.group(1)), int(m.group(2))))
    return clusters


def horizon_s(runner, topology, group):
    """Simulated makespan of the fault-free run."""
    result = runner.run(["explain", topology, str(group), "--json"])
    if result["rc"] != 0:
        raise SetupError(f"explain {topology} {group} failed")
    return json.loads(result["data"])["makespan_s"]


def fault_plan(rng, clusters, horizon):
    """Two NIC-degradation windows (one over a whole cluster, one over a
    node) and one straggler, inside the simulated horizon and clean under
    HV501-HV503."""
    world = sum(n * g for n, g in clusters)
    windows = []
    for whole_cluster in (True, False):
        c = rng.randrange(len(clusters))
        begin = rng.uniform(0.1, 0.5)
        windows.append({
            "cluster": c,
            "node_in_cluster": -1 if whole_cluster else rng.randrange(clusters[c][0]),
            "begin_s": round(horizon * begin, 6),
            "end_s": round(horizon * (begin + rng.uniform(0.1, 0.2)), 6),
            "bandwidth_factor": round(rng.uniform(0.4, 0.7), 3),
        })
    for w in windows:
        assert 0 <= w["begin_s"] < w["end_s"] < horizon
    return {
        "schema": "holmes.fault_plan.v1", "seed": rng.randrange(1, 2**31),
        "nic_degradation": windows,
        "stragglers": [{"rank": rng.randrange(world), "cluster": -1,
                        "node_in_cluster": -1,
                        "slowdown": round(rng.uniform(1.3, 1.7), 3)}],
    }


def with_node_loss(rng, plan, clusters, horizon):
    """The same faults plus the loss, at a seeded time, of the last node of
    the last cluster, with a checkpoint every iteration. The node is fixed so
    whether the survivors can be re-planned does not depend on the seed."""
    return dict(plan, node_failure={
        "at_s": round(horizon * rng.uniform(0.3, 0.7), 6),
        "cluster": len(clusters) - 1, "node_in_cluster": clusters[-1][0] - 1,
    }, checkpoint={"period_iterations": 1, "save_s": round(horizon * 0.01, 6),
                   "restart_s": round(horizon * 0.02, 6)})


def fault_requests(runner, expected, rng, inputs):
    """Per scenario, a check stratum and (see FAULT_SCENARIOS) an inject
    stratum of PLANS_PER_STRATUM seeded plans each; half the inject plans
    also lose a node. A request's cost depends on its plan, so every run
    cycles through several."""
    del expected
    strata = []
    for i, (topology, group, inject) in enumerate(FAULT_SCENARIOS):
        spec = validate(runner, topology, group)
        if spec is None:
            continue
        clusters = parse_clusters(spec)
        horizon = horizon_s(runner, topology, group)
        variants = {"check": [fault_plan(rng, clusters, horizon)
                              for _ in range(PLANS_PER_STRATUM)]}
        if inject:
            plans = [fault_plan(rng, clusters, horizon)
                     for _ in range(PLANS_PER_STRATUM)]
            variants["inject"] = [with_node_loss(rng, plan, clusters, horizon)
                                  if j % 2 else plan for j, plan in enumerate(plans)]
        for kind, plans in variants.items():
            stratum = []
            for j, plan in enumerate(plans):
                text = json.dumps(plan, separators=(",", ":"))
                path = inputs / f"{kind}-{i}-{j}.json"
                path.write_text(text)
                argv = [kind, topology, str(group), "--fault-plan",
                        str(path.relative_to(ROOT))]
                if kind == "check":
                    argv += ["--permutations", str(CHECK_PERMUTATIONS)]
                stratum.append(Request(argv + ["--json"], text))
            strata.append(stratum)
    return strata


WORKLOADS = {
    "paper_whatif": whatif_requests,
    "lint_256": lint_requests,
    "faults_check": fault_requests,
}


def rounds(strata, rng):
    """Endless seeded sequence of rounds; a round takes the next member of
    every stratum, in shuffled order. faults_check alternates check and
    inject within a round."""
    strata = [rng.sample(s, len(s)) for s in strata]
    k = 0
    while True:
        picked = [s[k % len(s)] for s in strata]
        rng.shuffle(picked)
        checks = [r for r in picked if r.command == "check"]
        if checks:
            others = [r for r in picked if r.command != "check"]
            picked = [r for pair in itertools.zip_longest(checks, others)
                      for r in pair if r is not None]
        yield picked
        k += 1


def setup(workload, seed, runner, expected):
    """One full set-up: version stamp, seeded inputs, menu validation and one
    warm-up request per subcommand. Returns (stamp, strata, rng)."""
    stamp = version_stamp(runner)
    rng = random.Random(f"{workload}:{seed}")
    inputs = OUT / "inputs" / workload
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    strata = WORKLOADS[workload](runner, expected, rng, inputs)
    if not strata:
        raise SetupError(f"{workload}: no valid requests")
    warmed = set()
    for stratum in strata:
        if stratum[0].command not in warmed:
            warmed.add(stratum[0].command)
            runner.run(stratum[0].argv)
    return stamp, strata, rng


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def strip_fingerprint(node):
    if isinstance(node, dict):
        return {k: strip_fingerprint(v) for k, v in node.items() if k != "fingerprint"}
    if isinstance(node, list):
        return [strip_fingerprint(v) for v in node]
    return node


def digest(request, data):
    """Digest of a document without its build fingerprint (text outputs are
    taken as they are)."""
    if request.command not in SCHEMAS:
        return hashlib.sha256(data).hexdigest()[:16]
    doc = strip_fingerprint(json.loads(data))
    text = json.dumps(doc, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_output(request, rc, data, known):
    """Returns None when the output is right, else the reason it is not.
    `known` is the request's recorded exit code and digest, if any;
    requests without one must exit 0."""
    want_rc = known["rc"] if known else 0
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    schema = SCHEMAS.get(request.command)
    if schema is None:
        if b"simulated tasks" not in data:
            return "no simulated task count in the report"
    else:
        try:
            doc = json.loads(data)
        except ValueError as e:
            return f"output is not JSON: {e}"
        if doc.get("schema") != schema:
            return f"schema {doc.get('schema')!r}, expected {schema!r}"
        if request.command == "explain":
            total = sum(b["seconds"] for b in doc["buckets"])
            if abs(total - doc["makespan_s"]) > 1e-9 * max(1.0, doc["makespan_s"]):
                return f"explain buckets sum to {total}, makespan {doc['makespan_s']}"
        if request.command == "check" and doc.get("diverged") != 0:
            return f"check reports {doc.get('diverged')} diverged permutations"
        if request.command == "inject" and doc.get("valid") is not True:
            return "inject reports an invalid fault plan"
    if known and known["sha256"] != digest(request, data):
        return "document differs from the recorded digest"
    return None


def check_all(done, expected):
    """Checks every completed request; identical requests within a run must
    produce byte-identical documents."""
    seen = {}
    documents = expected.get("documents", {})
    for request, result in done:
        data = result["data"] if "data" in result else result["path"].read_bytes()
        reason = check_output(request, result["rc"], data, documents.get(request.key))
        raw = hashlib.sha256(data).hexdigest()
        if reason is None and seen.setdefault(request.key, raw) != raw:
            reason = "differs from an identical earlier request in this run"
        result["error"] = reason
    return sum(1 for _, r in done if r["error"] is not None)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def write_stamp(name, stamp, args, done, metrics, extra=None):
    record = {
        "version": stamp, "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "command": ["python3", *sys.argv],
        "metrics": metrics,
        "requests": [{"argv": ["holmes_cli", *req.argv], "rc": res["rc"],
                      "latency_ms": res["latency_s"] * 1e3,
                      "cpu_ms": res["cpu_s"] * 1e3, "maxrss_kb": res["maxrss_kb"],
                      "error": res["error"]} for req, res in done],
    }
    record.update(extra or {})
    path = OUT / name
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def untraced(args, expected):
    build(["holmes_cli"])
    runner = Runner()
    setups = []
    for _ in range(SETUPS_PER_RUN):
        t0 = time.perf_counter()
        stamp, strata, rng = setup(args.workload, args.seed, runner, expected)
        setups.append(time.perf_counter() - t0)

    done = []
    deadline = time.perf_counter() + args.seconds
    for batch in rounds(strata, rng):
        for request in batch:
            done.append((request, runner.run(request.argv, spool=True)))
            if done[-1][1]["end"] >= deadline:
                break
        else:
            continue
        break
    window = done[-1][1]["end"] - done[0][1]["start"]
    failed = check_all(done, expected)
    shutil.rmtree(runner.spool)

    latencies = [r["latency_s"] * 1e3 for _, r in done]
    cents = statistics.quantiles(latencies, n=100, method="inclusive")
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_s": len(done) / window,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": cents[89],
        "cpu_ms_per_request": statistics.fmean(r["cpu_s"] for _, r in done) * 1e3,
        "peak_rss_mb": max(r["maxrss_kb"] for _, r in done) / 1024,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    path = write_stamp(f"{args.workload}-seed{args.seed}.json", stamp, args, done,
                       metrics, {"setup_s": setups})

    n = len(done)
    print(stamp)
    print(f"nproc {len(os.sched_getaffinity(0))} · workload {args.workload} · "
          f"seed {args.seed} · closed loop, 1 client · {n} requests in {window:.2f} s")
    for k, v in values.items():
        note = {"setup_s": f"(median of {SETUPS_PER_RUN} set-ups)",
                "latency_p50_ms": f"(n={n})",
                "latency_p90_ms": f"(n={n}, {n - int(0.9 * n)} beyond)"}.get(k, "")
        print(f"  {k:<20} {v:12.4f} {END_TO_END_UNITS[k]:<4} {note}")
    print(f"  {'error_rate':<20} {failed / n:12.4f}      ({failed} of {n} failed)")
    for req, res in done:
        if res["error"]:
            print(f"  FAILED holmes_cli {' '.join(req.argv)}: {res['error']}")
            break
    print(f"stamp: {path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}


def read_records(path):
    spans, counts = [], []
    for line in path.read_text().splitlines():
        f = line.split("\t")
        if f[0] == "span":
            spans.append({"request": int(f[1]), "id": int(f[2]), "parent": int(f[3]),
                          "replay": f[4] == "1", "start": int(f[5]) / 1e6,
                          "end": int(f[6]) / 1e6, "name": f[7]})
        else:
            counts.append((int(f[1]), f[2], int(f[3])))
    return spans, counts


def union_ms(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        total += max(0.0, b - max(a, end))
        end = max(end, b)
    return total


def layer_metrics(spans, counts, cli_ms, requests):
    """Per-request means of the per-layer metrics, plus a per-span table.
    "bench.*" spans time the replay's own bookkeeping: they are no layer's
    work and are left out of the replay's wall time."""
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        s["self"] = s["dur"]
        s["bench"] = s["name"].startswith("bench.")
    for s in spans:
        if s["parent"] >= 0 and not s["bench"]:
            by_id[s["parent"]]["self"] -= s["dur"]
    roots = {s["request"]: s for s in spans if s["parent"] < 0}
    n = len(roots)

    totals = {metric: sum(s[field] for s in spans if s["name"] == name)
              for name, metric, field in SPAN_METRICS}
    totals["core.simulate_calls"] = sum(1 for s in spans if s["name"] == "core.simulate")
    for name in COUNT_METRICS:
        totals[name] = sum(v for _, k, v in counts if k == name)

    covered = replay_ms = overhead = 0.0
    for rid, root in roots.items():
        inner = [s for s in spans if s["request"] == rid and s["parent"] >= 0]
        wall = root["dur"] - union_ms((s["start"], s["end"]) for s in inner if s["bench"])
        covered += union_ms((s["start"], s["end"]) for s in inner if not s["bench"])
        replay_ms += wall
        # The calls the CLI itself makes: the replay minus the re-run
        # child layers.
        rerun = union_ms((s["start"], s["end"]) for s in inner if s["replay"])
        overhead += cli_ms[rid] - (root["dur"] - rerun)
    totals["cli.overhead_ms"] = overhead
    values = {k: v / n for k, v in totals.items()}
    values["trace.coverage"] = covered / replay_ms

    table = {}
    for s in spans:
        if s["parent"] < 0 or s["bench"]:
            continue
        row = table.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["dur"]
        row[2] += max(0.0, s["self"])
    lines = [f"{'layer':<24}{'calls/req':>10}{'ms/call':>10}{'ms/req':>10}"
             f"{'self ms/req':>12}{'self share':>11}"]
    for name, (calls, dur, self_ms) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<24}{calls / n:10.2f}{dur / calls:10.3f}{dur / n:10.3f}"
                     f"{self_ms / n:12.3f}{self_ms / replay_ms:11.3f}")
    lines.append(f"trace.coverage {values['trace.coverage']:.4f} over {n} requests, "
                 f"{replay_ms / 1e3:.2f} s of replay")

    g7 = {s["request"] for s in spans if s["parent"] < 0
          and requests[s["request"]].group == 7}
    per_call = {}
    for name in ("sim.execute", "sim.execute_permuted", "sim.execute_faulted"):
        d = [s["dur"] for s in spans if s["name"] == name and s["request"] in g7]
        if d:
            per_call[name] = statistics.fmean(d)
    if per_call:
        lines.append("group-7 requests, executor ms/call: " + ", ".join(
            f"{k} {v:.3f}" for k, v in per_call.items()))
    return values, lines


def perfetto(spans, requests):
    """Chrome trace-event JSON (opens in Perfetto): calls the CLI makes on
    one track, re-run child layers on a second."""
    events = [{"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
               "args": {"name": name}}
              for tid, name in ((1, "holmes_cli calls"), (2, "child layers (re-run)"))]
    for s in spans:
        args = {"span": s["id"], "parent": s["parent"], "request": s["request"]}
        if s["parent"] < 0:
            args["argv"] = " ".join(requests[s["request"]].argv)
        events.append({"name": s["name"], "ph": "X", "pid": 1,
                       "tid": 2 if s["replay"] else 1,
                       "ts": s["start"] * 1e3, "dur": s["dur"] * 1e3, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def traced(args, expected):
    build(["holmes_cli", "holmes_replay"])
    runner = Runner()
    stamp, strata, rng = setup(args.workload, args.seed, runner, expected)
    requests = []
    lines = []
    budget = args.seconds * REPLAY_SHARE
    for r, batch in enumerate(rounds(strata, rng)):
        for request in batch:
            lines.append(f"{len(requests)}\t{r}\t{' '.join(request.argv)}")
            requests.append(request)
        if len(requests) >= 1000:  # far more than any budget replays
            break
    work = OUT / "replay"
    shutil.rmtree(work, ignore_errors=True)
    (work / "docs").mkdir(parents=True)
    (work / "requests.tsv").write_text("\n".join(lines) + "\n")
    proc = subprocess.run([str(REPLAY), str(work / "requests.tsv"),
                           str(work / "spans.tsv"), str(work / "docs"), str(budget)],
                          cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise SetupError("holmes_replay failed: " + proc.stderr.decode().strip())
    spans, counts = read_records(work / "spans.tsv")
    replayed = sorted({s["request"] for s in spans if s["parent"] < 0})

    done = [(requests[rid], runner.run(requests[rid].argv)) for rid in replayed]
    failed = check_all(done, expected)
    for rid, (request, result) in zip(replayed, done):
        doc = (work / "docs" / f"{rid}.out").read_bytes()
        if result["error"] is None and doc and digest(request, doc) != digest(request, result["data"]):
            result["error"] = "in-process replay document differs from holmes_cli's"
            failed += 1
    cli_ms = {rid: res["latency_s"] * 1e3 for rid, (_, res) in zip(replayed, done)}
    values, table = layer_metrics(spans, counts, cli_ms, requests)

    units = {k: ("ms" if k.endswith("_ms") else "fraction" if k == "trace.coverage"
                 else "bytes" if k == "obs.json_bytes" else "count") for k in values}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in sorted(values)}
    base = f"{args.workload}-seed{args.seed}"
    (OUT / f"{base}.trace.json").write_text(json.dumps(perfetto(spans, requests)))
    (OUT / f"{base}.layers.txt").write_text("\n".join(table) + "\n")
    path = write_stamp(f"{base}-traced.json", stamp, args, done, metrics)

    print(stamp)
    print(f"nproc {len(os.sched_getaffinity(0))} · workload {args.workload} · "
          f"seed {args.seed} · {len(replayed)} requests replayed in-process")
    print("\n".join(table))
    for k in sorted(values):
        print(f"  {k:<26} {values[k]:14.4f} {units[k]}")
    for req, res in done:
        if res["error"]:
            print(f"  FAILED holmes_cli {' '.join(req.argv)}: {res['error']}")
            break
    print(f"trace: {(OUT / (base + '.trace.json')).relative_to(ROOT)} · "
          f"stamp: {path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": len(done), "failed": failed,
            "metrics": metrics}


def record():
    """Rewrites expected.json: the exit code and digest of every menu request
    of paper_whatif and lint_256 and of the default seed's faults_check
    requests, plus each what-if combo's task count (the stratum weight)."""
    build(["holmes_cli"])
    runner = Runner()
    documents, weights = {}, {}
    for workload in WORKLOADS:
        _, strata, _ = setup(workload, DEFAULT_SEED, runner, {})
        for request in (r for s in strata for r in s):
            result = runner.run(request.argv)
            known = {"rc": result["rc"], "sha256": digest(request, result["data"])}
            reason = check_output(request, result["rc"], result["data"], known)
            if reason is not None:
                raise SetupError(f"{' '.join(request.argv)}: {reason}")
            documents[request.key] = known
            if request.command == "simulate":
                m = re.search(rb"simulated tasks (\d+)", result["data"])
                weights[" ".join(request.argv[1:5])] = int(m.group(1))
    EXPECTED.write_text(json.dumps({"default_seed": DEFAULT_SEED, "weights": weights,
                                    "documents": documents}, indent=0,
                                   sort_keys=True) + "\n")
    print(f"recorded {len(documents)} documents into {EXPECTED.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        result = (traced if args.trace else untraced)(args, expected)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
