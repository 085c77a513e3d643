"""One layered benchmark for the XFlux engine, driven from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload docs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each invocation

1. clears every ``REPRO_*`` variable, so the engine runs as shipped
   (fusion, sharing, projection, sanitizer and telemetry off);
2. times set-up: several fresh interpreters, each importing ``repro``
   and compiling the workload's queries until ready for the first event
   (``setup_s`` is their median, half taken before the run, half after);
3. runs the workload in a fresh interpreter of its own session
   (``measure.py``) under a deadline, then kills and reaps the whole
   session, whatever state it is in;
4. checks every answer against an oracle, outside the timed region:
   ``baselines.dom_eval`` on the same document, and for the ticker the
   DOM oracle over ``apply_updates`` of the stream prefix;
5. prints one line per metric (``name value unit``), a ``host`` line,
   and as the last line the result object
   ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: a timed run whose passes alternate untraced
and traced (spans around the benchmark's own calls into each layer),
plus a counting run that reads ``stats()``, the ``metrics=True``
recorders and ``tracemalloc``.  Workload parameters, rationales and the
known defects each workload is sized to expose are in
``workloads.json``; ``BENCHMARK.json`` at the root lists the workloads
and metrics the benchmark contract carries.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEASURE = os.path.join(HERE, "measure.py")

#: Every run, set-up and checks included, ends within this many seconds.
BUDGET_S = 170.0
#: Seconds kept back from the children's deadlines for oracle checks.
CHECK_RESERVE_S = 20.0
#: Set-up probes per run, half before and half after the timed run, so
#: the median spans the run's changes in machine load.
SETUP_PROBES = 10
MIN_PASSES = 3

UNITS = {
    "setup_s": "s", "throughput_mb_s": "MB/s", "peak_rss_mb": "MB",
    "update_latency_p50_ms": "ms", "update_latency_p99_ms": "ms",
    "failed_ratio": "ratio",
    "xmlio.tokenize_s": "s", "xmlio.events_per_s": "1/s",
    "xquery.compile_s": "s",
    "multiplex.feed_ms_p50": "ms", "multiplex.feed_ms_p99": "ms",
    "multiplex.feed_drift": "ratio",
    "wrapper.peak_cells": "count", "wrapper.cells_reclaimed": "count",
    "display.text_s": "s", "display.text_ms_p50": "ms",
    "display.text_ms_p99": "ms", "display.peak_regions": "count",
    "codec.frames": "count", "codec.bytes_shipped": "bytes",
    "codec.encode_s": "s", "codec.decode_s": "s",
    "wal.bytes_on_disk": "bytes", "wal.records": "count",
    "wal.checkpoints": "count",
    "checkpoint.bytes": "bytes", "checkpoint.encode_s": "s",
    "shard.restarts": "count", "shard.calls_skew": "ratio",
    "shard.feed_all_s": "s", "shard.finish_s": "s",
    "shard.single_process_s": "s", "shard.speedup": "ratio",
    "loadgen.lag_ms_max": "ms", "loadgen.backlog_max": "count",
    "trace.overhead_s": "s", "trace.span_coverage": "ratio",
}
PER_QUERY_UNITS = {
    "pipeline.feed_s": "s", "pipeline.calls_per_event": "ratio",
    "wrapper.update_events_per_event": "ratio",
    "wrapper.activations": "count", "wrapper.peak_cells": "count",
}
HEAP_MODULES = ("core.wrapper", "core.regions", "events.model", "total")


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.startswith("heap_mb."):
        return "MB"
    return PER_QUERY_UNITS[name.rsplit(".", 1)[0]]


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no engine sources)."""


# -- processes ---------------------------------------------------------------

def become_subreaper():
    """Adopt orphaned descendants so they can be waited for here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def session_members(sid):
    """Pids of live (non-zombie) processes in session ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def reap_session(sid, grace_s=10.0):
    """SIGKILL every process of session ``sid`` and wait for them all.

    Returns the pids still alive afterwards (empty when the reap worked).
    """
    deadline = time.monotonic() + grace_s
    while True:
        members = session_members(sid)
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        # Collect every exited child, adopted orphans included.
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
        if not members or time.monotonic() > deadline:
            return members
        time.sleep(0.02)


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    return env


def vm_hwm_kb(pid):
    """Peak resident set of a live process, from /proc (0 once gone)."""
    try:
        with open("/proc/{}/status".format(pid)) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def children_of(pid):
    try:
        with open("/proc/{0}/task/{0}/children".format(pid)) as fh:
            return [int(kid) for kid in fh.read().split()]
    except OSError:
        return []


def run_child(job_path, deadline_s, worker_rss=None):
    """Run measure.py on a job under a deadline; kill and reap its session.

    With ``worker_rss`` (a dict) the child's own children -- shard
    workers -- are polled for their peak RSS in KiB, keyed by pid.
    Returns ``(failed, survivors)``: failed when the child passed its
    deadline or exited non-zero, survivors the pids the reap missed.
    """
    proc = subprocess.Popen([sys.executable, MEASURE, job_path],
                            stdout=subprocess.DEVNULL, env=child_env(),
                            cwd=ROOT, start_new_session=True)
    timed_out = False
    end = time.monotonic() + max(deadline_s, 1.0)
    try:
        if worker_rss is None:
            proc.wait(timeout=max(deadline_s, 1.0))
        else:
            while proc.poll() is None:
                if time.monotonic() > end:
                    raise subprocess.TimeoutExpired(proc.args, deadline_s)
                for kid in children_of(proc.pid):
                    worker_rss[kid] = max(worker_rss.get(kid, 0),
                                          vm_hwm_kb(kid))
                time.sleep(0.05)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        survivors = reap_session(proc.pid)
        proc.wait()
    return timed_out or proc.returncode != 0, survivors


def time_setup(job_path, probes):
    """Set-up times reported by ``probes`` fresh interpreters.

    Each probe times itself from the first statement of measure.py to
    ready-for-the-first-event: importing ``repro``, compiling, opening
    the WAL or forking workers.  Interpreter start-up is left out; it
    is the same for every commit and is the noisiest part of a spawn.
    """
    times = []
    for i in range(probes + 1):
        proc = subprocess.Popen([sys.executable, MEASURE, job_path],
                                stdout=subprocess.PIPE, env=child_env(),
                                cwd=ROOT, start_new_session=True)
        try:
            line = proc.stdout.readline().split()
            proc.wait(timeout=30)
        finally:
            reap_session(proc.pid)
            proc.stdout.close()
            proc.wait()
        if len(line) != 2 or line[0] != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed (exit {})"
                               .format(proc.returncode))
        if i:   # the first probe only warms the bytecode cache
            times.append(float(line[1]))
    return times


# -- host ----------------------------------------------------------------------

def host_metadata():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            commit = subprocess.run(git + ["rev-parse", "HEAD"], env=env,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
            status = subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                env=env, capture_output=True, text=True, timeout=10)
            dirty = bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"nproc": usable, "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "git_commit": commit,
            "git_dirty": dirty}


# -- jobs ----------------------------------------------------------------------

def load_params():
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)


def make_job(workload, params, seed, seconds, work_dir):
    """The JSON job a child runs: query texts and parameters, no inputs."""
    p = params[workload]
    job = {"workload": workload, "seed": seed, "seconds": seconds,
           "work_dir": work_dir, "min_passes": MIN_PASSES}
    if workload == "ticker":
        from repro.data.stock import SYMBOLS
        names = list(p["queries"])
        symbols = list(SYMBOLS)
        symbols += ["S{:02d}".format(i)
                    for i in range(p["symbols"] - len(symbols))]
        n_updates = max(1, int(round(p["rate_per_s"] * seconds)))
        job.update(query_names=names,
                   query_texts=[p["queries"][n] for n in names],
                   symbols=symbols, n_updates=n_updates,
                   name_update_fraction=p["name_update_fraction"],
                   rate_per_s=p["rate_per_s"],
                   sample_at=sorted({max(1, n_updates * k // p["sample_points"])
                                     for k in range(1, p["sample_points"] + 1)}),
                   deadline_s=seconds + 60)
        return job
    from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET
    names = list(p["queries"])
    job.update(query_names=names,
               query_texts=[PAPER_QUERIES[n] for n in names],
               datasets={n: QUERY_DATASET[n] for n in names},
               xmark_scale=p.get("xmark_scale"),
               dblp_scale=p.get("dblp_scale"),
               deadline_s=p.get("deadline_s", seconds + 60))
    if workload in ("docs", "durable"):
        job.update(batch_events=p["batch_events"],
                   checkpoint_every=p.get("checkpoint_every"))
    if workload == "fanout":
        # ShardedMultiQueryRun's default batching, stated so the codec
        # layer is timed on the same frames the workers receive.
        job.update(workers=p["workers"], batch_events=4096)
    return job


def write_job(job, mode, name, **extra):
    job = dict(job, mode=mode, **extra)
    job["out"] = os.path.join(job["work_dir"], name + ".out.json")
    path = os.path.join(job["work_dir"], name + ".job.json")
    with open(path, "w") as fh:
        json.dump(job, fh)
    return path, job["out"]


def read_out(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# -- oracles (outside every timed region) ------------------------------------

def dom_answers(job):
    import measure
    from repro.baselines.dom_eval import evaluate_to_xml
    from repro.xmlio import parse
    from repro.xquery.parser import parse as parse_query
    trees = {k: parse(v) for k, v in measure.document(job).items()}
    return {n: evaluate_to_xml(parse_query(t), trees[job["datasets"][n]])
            for n, t in zip(job["query_names"], job["query_texts"])}


def ticker_oracle(job, sample_keys):
    """Per sample point: the DOM answers over the eagerly updated prefix."""
    import measure
    from repro import apply_updates
    from repro.baselines.dom_eval import evaluate_to_xml
    from repro.xmlio import parse, write_events
    from repro.xquery.parser import parse as parse_query
    snapshot, updates, tail = measure.ticker_stream(job)
    asts = [parse_query(t) for t in job["query_texts"]]
    out = {}
    for key in sample_keys:
        k = len(updates) if key == "end" else int(key)
        prefix = snapshot + [e for u in updates[:k] for e in u] + tail
        root = parse("<stream>{}</stream>".format(
            write_events(apply_updates(prefix))))
        out[key] = [evaluate_to_xml(a, root) for a in asts]
    return out


# -- statistics ------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def med(values):
    return statistics.median(values) if values else 0.0


# -- workloads ---------------------------------------------------------------

class Outcome:
    """What one invocation measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append("wrong answer: " + what)

    def fail_all(self, n, why):
        self.attempted += n
        self.failed += n
        self.notes.append(why)


def check_passes(job, out, outcome, oracle):
    """docs/durable: every answer of every pass against the oracle."""
    names = job["query_names"]
    for n, rec in enumerate(out["passes"]):
        queries = rec["queries"]
        if job["workload"] == "docs":
            for name in names:
                outcome.check(queries[name]["answer"] == oracle[name],
                              "pass {} {}".format(n, name))
        else:
            for name in names:
                outcome.check(queries["statuses"][name] == "ok"
                              and queries["answers"][name] == oracle[name],
                              "pass {} {}".format(n, name))


def pass_times(out, traced, key="e2e", name=None):
    vals = []
    for rec in out["passes"]:
        if rec["traced"] != traced:
            continue
        q = rec["queries"]
        vals.append(q[name][key] if name is not None else q[key])
    return vals


def run_batch(workload, job, outcome, trace, started):
    """docs / durable: the timed (and for trace, counting) children."""
    names = job["query_names"]
    remaining = BUDGET_S - (time.monotonic() - started) - CHECK_RESERVE_S
    deadline = min(job["deadline_s"], remaining)
    if trace:
        deadline = min(deadline, remaining * 0.6)
    path, out_path = write_job(job, "timed", "timed", spans=bool(trace))
    failed_run, survivors = run_child(path, deadline)
    if survivors:
        outcome.notes.append("unreaped pids: {}".format(survivors))
    out = read_out(out_path)
    if failed_run or out is None:
        outcome.fail_all(len(names) * MIN_PASSES,
                         "run failed or passed its {:.0f} s deadline"
                         .format(deadline))
        return
    check_passes(job, out, outcome, dom_answers(job))
    mb = {k: v / 1e6 for k, v in out["doc_bytes"].items()}
    if not trace:
        if workload == "docs":
            rates = [mb[job["datasets"][n]] / med(pass_times(out, False,
                                                             name=n))
                     for n in names]
            outcome.metrics["throughput_mb_s"] = geomean(rates)
        else:
            outcome.metrics["throughput_mb_s"] = \
                sum(mb.values()) / med(pass_times(out, False))
        outcome.metrics["peak_rss_mb"] = out["peak_rss_mb"]
        return
    remaining = BUDGET_S - (time.monotonic() - started) - CHECK_RESERVE_S
    path, counts_path = write_job(job, "counts", "counts")
    failed_counts, survivors = run_child(path, remaining)
    counts = read_out(counts_path)
    if failed_counts or counts is None:
        outcome.fail_all(1, "counting run failed or passed its deadline")
        counts = {}
    outcome.metrics.update(layer_metrics(workload, job, out, counts,
                                         outcome.notes))


def layer_metrics(workload, job, out, counts, notes):
    m = {}
    names = job["query_names"]
    if workload == "docs":
        span = {key: {n: med(pass_times(out, True, key, n)) for n in names}
                for key in ("tokenize", "feed", "text", "compile", "e2e")}
        untraced = {n: med(pass_times(out, False, name=n)) for n in names}
        events = sum(out["passes"][1]["queries"][n]["events"] for n in names)
        tokenize = sum(span["tokenize"].values())
        m["xmlio.tokenize_s"] = tokenize
        m["xmlio.events_per_s"] = events / tokenize
        m["xquery.compile_s"] = sum(span["compile"].values())
        m["display.text_s"] = sum(span["text"].values())
        for n in names:
            m["pipeline.feed_s." + n] = span["feed"][n]
        covered = {n: sum(span[k][n] for k in ("tokenize", "feed", "text"))
                   for n in names}
        m["trace.overhead_s"] = (sum(span["e2e"].values())
                                 - sum(untraced.values()))
        m["trace.span_coverage"] = (sum(covered.values())
                                    / sum(untraced.values()))
        worst = max(names, key=lambda n: abs(covered[n] - untraced[n]))
        notes.append("largest span residual {}: spans {:.4g} s, untraced "
                     "{:.4g} s, traced minus untraced {:.4g} s".format(
                         worst, covered[worst], untraced[worst],
                         span["e2e"][worst] - untraced[worst]))
    else:
        span = {key: med(pass_times(out, True, key))
                for key in ("tokenize", "run_durable", "text", "compile",
                            "e2e", "events")}
        untraced = med(pass_times(out, False))
        m["xmlio.tokenize_s"] = span["tokenize"]
        m["xmlio.events_per_s"] = span["events"] / span["tokenize"]
        m["xquery.compile_s"] = span["compile"]
        m["display.text_s"] = span["text"]
        # The standing sets share one multiplexed pass, so each query's
        # pipeline time comes from its recorder's drain-batch histogram.
        for n, c in counts.get("per_query", {}).items():
            m["pipeline.feed_s." + n] = c["drain_s"]
        m["trace.overhead_s"] = span["e2e"] - untraced
        m["trace.span_coverage"] = (span["tokenize"] + span["run_durable"]
                                    + span["text"]) / untraced
    m.update(count_metrics(counts))
    if "codec_frames" in counts:
        m.update({"codec.frames": counts["codec_frames"],
                  "codec.bytes_shipped": counts["codec_bytes"],
                  "codec.encode_s": counts["codec_encode_s"],
                  "codec.decode_s": counts["codec_decode_s"]})
    return m


def count_metrics(counts):
    """Metrics read from the program's own counters and tracemalloc."""
    m = {}
    per_query = counts.get("per_query", {})
    for n, c in per_query.items():
        m["pipeline.calls_per_event." + n] = c["calls_per_event"]
        m["wrapper.update_events_per_event." + n] = \
            c["update_events_per_event"]
        m["wrapper.activations." + n] = c["activations"]
        m["wrapper.peak_cells." + n] = c["peak_cells"]
    if per_query:
        m["display.peak_regions"] = max(c["peak_regions"]
                                        for c in per_query.values())
    for module in HEAP_MODULES:
        if module in counts.get("heap_mb", {}):
            m["heap_mb." + module] = counts["heap_mb"][module]
    if "wal_records" in counts:
        m.update({"wal.bytes_on_disk": counts["wal_bytes_on_disk"],
                  "wal.records": counts["wal_records"],
                  "wal.checkpoints": counts["wal_checkpoints"]})
    if "checkpoint_bytes" in counts:
        m["checkpoint.bytes"] = counts["checkpoint_bytes"]
        m["checkpoint.encode_s"] = counts["checkpoint_encode_s"]
    return m


def run_ticker(job, outcome, trace, started):
    n_queries = len(job["query_names"])
    samples = len(job["sample_at"]) + 1
    remaining = BUDGET_S - (time.monotonic() - started) - CHECK_RESERVE_S
    deadline = min(job["deadline_s"], remaining * (0.6 if trace else 1.0))
    path, out_path = write_job(job, "timed", "timed")
    failed_run, survivors = run_child(path, deadline)
    if survivors:
        outcome.notes.append("unreaped pids: {}".format(survivors))
    out = read_out(out_path)
    if failed_run or out is None:
        outcome.fail_all(n_queries * samples,
                         "run failed or passed its {:.0f} s deadline"
                         .format(deadline))
        return
    oracle = ticker_oracle(job, list(out["samples"]))
    for key, shown in out["samples"].items():
        for i, name in enumerate(job["query_names"]):
            outcome.check(shown[i] == oracle[key][i],
                          "after {} updates, {}".format(key, name))
    if not trace:
        lat = out["latency_s"]
        outcome.metrics["update_latency_p50_ms"] = percentile(lat, 50) * 1e3
        outcome.metrics["update_latency_p99_ms"] = percentile(lat, 99) * 1e3
        outcome.metrics["peak_rss_mb"] = out["peak_rss_mb"]
        return
    feed = out["feed_s"]
    tenth = max(1, len(feed) // 10)
    m = outcome.metrics
    m["multiplex.feed_ms_p50"] = percentile(feed, 50) * 1e3
    m["multiplex.feed_ms_p99"] = percentile(feed, 99) * 1e3
    m["multiplex.feed_drift"] = med(feed[-tenth:]) / med(feed[:tenth])
    m["display.text_ms_p50"] = percentile(out["text_s"], 50) * 1e3
    m["display.text_ms_p99"] = percentile(out["text_s"], 99) * 1e3
    m["loadgen.lag_ms_max"] = max(out["lag_s"]) * 1e3
    m["loadgen.backlog_max"] = max(out["backlog"])
    remaining = BUDGET_S - (time.monotonic() - started) - CHECK_RESERVE_S
    path, counts_path = write_job(job, "counts", "counts")
    failed_counts, _ = run_child(path, remaining)
    counts = read_out(counts_path)
    if failed_counts or counts is None:
        outcome.fail_all(1, "counting run failed or passed its deadline")
        return
    per_query = counts.pop("per_query")
    m["wrapper.peak_cells"] = sum(c["peak_cells"] for c in per_query.values())
    m["wrapper.cells_reclaimed"] = sum(c["cells_reclaimed"]
                                       for c in per_query.values())
    m["display.peak_regions"] = max(c["peak_regions"]
                                    for c in per_query.values())
    m.update(count_metrics(counts))


def run_fanout(job, outcome, trace, started):
    n_queries = len(job["query_names"])
    remaining = BUDGET_S - (time.monotonic() - started) - CHECK_RESERVE_S
    deadline = min(job["deadline_s"], remaining)
    path, out_path = write_job(job, "timed", "timed", spans=bool(trace))
    worker_rss = {}
    failed_run, survivors = run_child(path, deadline, worker_rss)
    if survivors:
        outcome.notes.append("unreaped pids: {}".format(survivors))
    out = read_out(out_path) or {}
    if trace and "tokenize_s" in out:
        outcome.metrics["xmlio.tokenize_s"] = out["tokenize_s"]
        outcome.metrics["xmlio.events_per_s"] = \
            out["events"] / out["tokenize_s"]
    if failed_run or not out.get("finished"):
        outcome.fail_all(n_queries, "run failed or passed its {:.0f} s "
                         "deadline (see workloads.json fanout defects)"
                         .format(deadline))
        return
    from repro import MultiQueryRun
    import measure
    oracle = dom_answers(job)
    single = (out["single_answers"] if "single_answers" in out else
              MultiQueryRun(job["query_texts"]).run_xml(
                  measure.document(job)["X"]).texts())
    for i, name in enumerate(job["query_names"]):
        outcome.check(out["statuses"][i] == "ok"
                      and out["answers"][i] == oracle[name]
                      and out["answers"][i] == single[i], name)
    m = outcome.metrics
    if not trace:
        m["throughput_mb_s"] = out["doc_bytes"] / 1e6 / out["e2e_s"]
        m["peak_rss_mb"] = (out["peak_rss_mb"]
                            + sum(worker_rss.values()) / 1024.0)
        return
    per_shard = [sum(out["calls"][i] for i in shard)
                 for shard in out["shards"]]
    m.update({"shard.feed_all_s": out["feed_all_s"],
              "shard.finish_s": out["finish_s"],
              "codec.frames": out["frames"],
              "codec.bytes_shipped": out["bytes_shipped"],
              "codec.encode_s": out["codec_encode_s"],
              "codec.decode_s": out["codec_decode_s"],
              "shard.restarts": out["restarts"],
              "shard.calls_skew": max(per_shard) / statistics.mean(per_shard)
              if len(per_shard) > 1 else 1.0,
              "shard.single_process_s": out["single_process_s"],
              "shard.speedup": out["single_process_s"] / out["e2e_s"]})
    m.update(count_metrics(out))


# -- entry -------------------------------------------------------------------

def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace, params, spec):
    started = time.monotonic()
    work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    outcome = Outcome()
    try:
        job = make_job(workload, params, seed, seconds, work_dir)
        if not trace:
            setup_job, _ = write_job(job, "setup", "setup")
            setup_times = time_setup(setup_job, SETUP_PROBES)
        if workload in ("docs", "durable"):
            run_batch(workload, job, outcome, trace, started)
        elif workload == "ticker":
            run_ticker(job, outcome, trace, started)
        else:
            run_fanout(job, outcome, trace, started)
        if not trace:
            setup_times += time_setup(setup_job, SETUP_PROBES)
            outcome.metrics["setup_s"] = statistics.median(setup_times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    listed = {w["name"] for w in spec["workloads"]}
    if workload in listed:
        # The contract's workloads report exactly its metric lists; a
        # per-layer metric of a layer this workload does not run reads 0.
        key = "per_layer" if trace else "end_to_end"
        names = [m["name"] for m in spec[key]]
        outcome.metrics = {n: outcome.metrics.get(n, 0) for n in names}
    return outcome


def report(workload, seed, seconds, trace, outcome, host):
    print("host " + json.dumps(host, sort_keys=True))
    print("workload {} seed {} seconds {} trace {}".format(
        workload, seed, seconds, trace))
    for note in outcome.notes:
        print("note " + note)
    print("failed_ratio {:.6g} ratio ({} of {})".format(
        outcome.failed / outcome.attempted, outcome.failed,
        outcome.attempted))
    for name in sorted(outcome.metrics):
        print("{} {:.6g} {}".format(name, outcome.metrics[name],
                                    unit_of(name)))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)}
                    for n, v in sorted(outcome.metrics.items())},
    }
    print(json.dumps(result), flush=True)


def main(argv=None):
    params = load_params()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(params) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SetupError("no engine sources at {}".format(
            os.path.join(ROOT, "src", "repro")))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = contract()
    # A terminated run unwinds through run_child's reap like a timeout.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    become_subreaper()
    host = host_metadata()
    workloads = sorted(params) if args.workload == "all" else [args.workload]
    for workload in workloads:
        outcome = run_workload(workload, args.seed, args.seconds, args.trace,
                               params, spec)
        report(workload, args.seed, args.seconds, args.trace, outcome, host)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        sys.stderr.write("perfbench: {}\n".format(exc))
        sys.exit(2)
