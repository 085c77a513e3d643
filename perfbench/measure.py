"""The measured process: one workload in a fresh interpreter.

``run.py`` writes a job file and starts ``python3 perfbench/measure.py
<job.json>`` in a session of its own.  Only the standard library and
``repro`` (from ``src/``) are imported here, so the process holds the
engine and its inputs and nothing of the benchmark's oracles.

Modes (``job["mode"]``):

* ``setup``  -- import ``repro``, compile the workload's queries (and
  open the WAL / fork the workers where the workload has them), then
  print ``ready <seconds since this file started>`` and exit.
* ``timed``  -- run the workload for ``job["seconds"]`` and record the
  answers and wall times.  With ``job["spans"]`` set, untraced passes
  alternate with passes that also time each call into a layer's public
  function, so the two can be compared pass by pass.
* ``counts`` -- one pass with the program's own counters switched on
  (``metrics=True`` recorders, ``stats()``), one under ``tracemalloc``,
  and the benchmark's own timed calls into the codec, ``scan_wal`` and
  ``checkpoint()``; the passes themselves are not timed.

The result is a JSON file at ``job["out"]``, rewritten after every
phase so that a run killed at its deadline still leaves what it did.
"""

import time

#: Set-up is timed from here: after interpreter start-up, which no change
#: to this repository can move, and before anything else is imported.
STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

clock = time.perf_counter


def peak_rss_mb():
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def save(job, result):
    tmp = job["out"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["out"])


def fresh_dir(job, name):
    path = os.path.join(job["work_dir"], name)
    shutil.rmtree(path, ignore_errors=True)
    return path


# -- set-up ------------------------------------------------------------------

def setup(job):
    """Everything a user pays before the first event, then ``ready``."""
    workload = job["workload"]
    queries = job["query_texts"]
    if workload == "docs":
        from repro import XFlux
        for text in queries:
            XFlux(text).compile()
    elif workload == "durable":
        from repro import MultiQueryRun
        # run_durable is the public way to open the WAL: with no events
        # it writes the manifest and the empty-prefix checkpoint, which
        # is the set-up a durable run pays before its first frame.
        for dataset, group in groups(job):
            MultiQueryRun([t for _, t in group]).run_durable(
                [], fresh_dir(job, "wal-setup-" + dataset))
    elif workload == "ticker":
        from repro import MultiQueryRun
        MultiQueryRun(queries, mutable_source=True)
    elif workload == "fanout":
        from repro.parallel.shard import ShardedMultiQueryRun
        run = ShardedMultiQueryRun(queries, workers=job["workers"],
                                   durable_dir=fresh_dir(job, "wal"))
        ready()
        run.abort()
        return
    ready()


def ready():
    sys.stdout.write("ready {!r}\n".format(time.perf_counter() - STARTED))
    sys.stdout.flush()


# -- inputs (generated from the seed; never timed) ---------------------------

def document(job):
    from repro.data.dblp import DBLPGenerator
    from repro.data.xmark import XMarkGenerator
    docs = {}
    if job.get("xmark_scale"):
        docs["X"] = XMarkGenerator(scale=job["xmark_scale"],
                                   seed=job["seed"]).text()
    if job.get("dblp_scale"):
        docs["D"] = DBLPGenerator(scale=job["dblp_scale"],
                                  seed=job["seed"]).text()
    return docs


def ticker_stream(job):
    """(snapshot, updates, tail) of the seeded StockTicker stream."""
    from repro.data.stock import StockTicker
    from repro.events.model import Kind
    events = StockTicker(symbols=job["symbols"],
                         n_updates=job["n_updates"],
                         name_update_fraction=job["name_update_fraction"],
                         mutable_names=True, seed=job["seed"]).events()
    first = next(i for i, e in enumerate(events)
                 if e.kind == Kind.START_REPLACE)
    updates = []
    for e in events[first:-2]:
        if e.kind == Kind.START_REPLACE:
            updates.append([])
        updates[-1].append(e)
    return events[:first], updates, events[-2:]


# -- docs --------------------------------------------------------------------

def docs_pass(names, texts, datasets, docs, spans):
    """One pass over the nine queries; returns per-query records."""
    from repro import QueryRun, XFlux
    from repro.xmlio.tokenizer import tokenize
    out = {}
    for name, query in zip(names, texts):
        doc = docs[datasets[name]]
        t0 = clock()
        plan = XFlux(query).compile()
        t1 = clock()
        run = QueryRun(plan)
        if spans:
            a = clock()
            events = tokenize(doc, stream_id=plan.source_id,
                              emit_oids=plan.needs_oids)
            b = clock()
            run.feed_all(events)
            run.finish()
            c = clock()
            answer = run.text()
            d = clock()
            out[name] = {"e2e": d - a, "tokenize": b - a, "feed": c - b,
                         "text": d - c, "compile": t1 - t0,
                         "events": len(events), "answer": answer}
        else:
            a = clock()
            events = tokenize(doc, stream_id=plan.source_id,
                              emit_oids=plan.needs_oids)
            run.feed_all(events)
            run.finish()
            answer = run.text()
            out[name] = {"e2e": clock() - a, "answer": answer}
    return out


def groups(job):
    """The workload's queries as (dataset, [(name, text), ...]), by dataset."""
    out = {}
    for name, text in zip(job["query_names"], job["query_texts"]):
        out.setdefault(job["datasets"][name], []).append((name, text))
    return sorted(out.items())


def durable_pass(job, docs, spans, tag):
    """One pass: each dataset's standing set, journaled to a fresh WAL."""
    from repro import MultiQueryRun
    from repro.xmlio.tokenizer import tokenize
    opts = {"batch_events": job["batch_events"],
            "checkpoint_every": job["checkpoint_every"]}
    rec = {"e2e": 0.0, "answers": {}, "statuses": {}}
    if spans:
        rec.update(tokenize=0.0, run_durable=0.0, text=0.0, compile=0.0,
                   events=0)
    for dataset, queries in groups(job):
        names = [n for n, _ in queries]
        t0 = clock()
        mq = MultiQueryRun([t for _, t in queries])
        t1 = clock()
        wal_dir = fresh_dir(job, "wal-{}-{}".format(tag, dataset))
        doc = docs[dataset]
        if spans:
            a = clock()
            events = list(tokenize(doc, stream_id=mq.source_id,
                                   emit_oids=mq.needs_oids))
            b = clock()
            mq.run_durable(events, wal_dir, **opts)
            c = clock()
            answers = mq.texts()
            d = clock()
            rec["e2e"] += d - a
            rec["tokenize"] += b - a
            rec["run_durable"] += c - b
            rec["text"] += d - c
            rec["compile"] += t1 - t0
            rec["events"] += len(events)
        else:
            a = clock()
            mq.run_xml(doc, durable=wal_dir, **opts)
            answers = mq.texts()
            rec["e2e"] += clock() - a
        rec["answers"].update(zip(names, answers))
        rec["statuses"].update(zip(names, mq.statuses()))
        shutil.rmtree(wal_dir, ignore_errors=True)
    return rec


def timed(job):
    """Repeat passes until ``seconds`` is spent (at least ``min_passes``)."""
    workload = job["workload"]
    if workload == "ticker":
        return ticker_timed(job)
    if workload == "fanout":
        return fanout_timed(job)
    docs = document(job)
    names = job["query_names"]
    texts = job["query_texts"]
    spans = bool(job.get("spans"))
    result = {"passes": [], "doc_bytes": {k: len(v.encode("utf-8"))
                                          for k, v in docs.items()}}
    # One untimed pass first: the first pass in a fresh process runs
    # ~10% slower while allocator arenas and caches fill.  The peak RSS
    # is read after it -- one whole pass, as a user running the workload
    # once sees it; later passes add fragmentation that grows with the
    # number of passes that fit in the run, not with the workload.
    if workload == "docs":
        docs_pass(names, texts, job["datasets"], docs, False)
    else:
        durable_pass(job, docs, False, "warm")
    result["peak_rss_mb"] = peak_rss_mb()
    deadline = clock() + job["seconds"]
    n = 0
    while n < job["min_passes"] or clock() < deadline:
        # With spans on, untraced and traced passes alternate, so each
        # pair shares the machine's state and their difference is the
        # tracing overhead.
        traced = spans and n % 2 == 1
        if workload == "docs":
            rec = docs_pass(names, texts, job["datasets"], docs, traced)
        else:
            rec = durable_pass(job, docs, traced, n)
        result["passes"].append({"traced": traced, "queries": rec})
        n += 1
    save(job, result)


# -- ticker ------------------------------------------------------------------

def ticker_timed(job):
    """Open loop: update i is due at start + i / rate, late or not."""
    from repro import MultiQueryRun
    snapshot, updates, tail = ticker_stream(job)
    mq = MultiQueryRun(job["query_texts"], mutable_source=True)
    feed = mq.feed
    texts = mq.texts
    for e in snapshot:
        feed(e)
    texts()
    rate = float(job["rate_per_s"])
    points = set(job["sample_at"])
    samples = {}
    latency, feed_s, text_s, lag, backlog = [], [], [], [], []
    sleep = time.sleep
    start = clock() + 0.05
    for i, update in enumerate(updates):
        due = start + i / rate
        now = clock()
        if now < due:
            sleep(due - now)
        a = clock()
        for e in update:
            feed(e)
        b = clock()
        shown = texts()
        c = clock()
        latency.append(c - due)
        feed_s.append(b - a)
        text_s.append(c - b)
        lag.append(a - due)
        backlog.append(int((a - start) * rate) - i)
        if i + 1 in points:
            samples[str(i + 1)] = shown
    for e in tail:
        feed(e)
    mq.finish()
    samples["end"] = mq.texts()
    result = {"latency_s": latency, "feed_s": feed_s, "text_s": text_s,
              "lag_s": lag, "backlog": backlog, "samples": samples,
              "peak_rss_mb": peak_rss_mb()}
    save(job, result)


# -- fanout ------------------------------------------------------------------

def fanout_timed(job):
    from repro.parallel.shard import ShardedMultiQueryRun
    from repro.xmlio.tokenizer import tokenize
    doc = document(job)["X"]
    result = {"doc_bytes": len(doc.encode("utf-8")), "finished": False}
    save(job, result)
    run = ShardedMultiQueryRun(job["query_texts"], workers=job["workers"],
                               durable_dir=fresh_dir(job, "wal"))
    spans = bool(job.get("spans"))
    a = clock()
    if spans:
        events = tokenize(doc, stream_id=run.source_id,
                          emit_oids=run.needs_oids)
        result["tokenize_s"] = clock() - a
        result["events"] = len(events)
        save(job, result)
        b = clock()
        run.feed_all(events)
        result["feed_all_s"] = clock() - b
        save(job, result)
        c = clock()
        run.finish()
        result["finish_s"] = clock() - c
    else:
        run.run_xml(doc)
    answers = run.texts()
    result["e2e_s"] = clock() - a
    stats = run.stats()
    result.update(finished=True, answers=answers,
                  statuses=run.statuses(), frames=stats["frames"],
                  bytes_shipped=stats["bytes_shipped"],
                  restarts=stats["fault_tolerance"]["restarts"],
                  shards=stats["shards"],
                  calls=[q["transformer_calls"] if q else 0
                         for q in stats["per_query"]],
                  peak_rss_mb=peak_rss_mb())
    save(job, result)
    if spans:
        from repro import MultiQueryRun
        a = clock()
        single = MultiQueryRun(job["query_texts"]).run_xml(doc)
        result["single_process_s"] = clock() - a
        result["single_answers"] = single.texts()
        result.update(codec_layer([events], job["batch_events"]))
        result.update(wal_layer([os.path.join(job["work_dir"], "wal")]))
        save(job, result)


# -- counts: the program's own counters and tracemalloc ----------------------

def stage_counts(recorder_dict, stats, source_events):
    """Per-query layer counts from one run's recorder and stats()."""
    updates = 0
    for stage in recorder_dict["stages"]:
        out = stage["events_out"]
        updates += out.get("bracket", 0) + out.get("control", 0)
    return {"calls_per_event": stats["transformer_calls"] / source_events,
            "update_events_per_event": updates / source_events,
            "activations": recorder_dict["activations_total"],
            "peak_cells": recorder_dict["peak_cells_total"],
            "cells_reclaimed": recorder_dict["cells_reclaimed_total"],
            "peak_regions": stats["display"]["peak_regions"],
            "drain_s": recorder_dict["histograms"]["drain_batch"]["sum"]
            / 1e9}


def heap_by_module(snapshot):
    """tracemalloc bytes grouped by the allocating repro module."""
    src = os.path.join(ROOT, "src") + os.sep
    out = {"total": 0}
    for stat in snapshot.statistics("filename"):
        name = stat.traceback[0].filename
        out["total"] += stat.size
        if name.startswith(src):
            module = name[len(src):-3].replace(os.sep, ".")
            if module.startswith("repro."):
                module = module[len("repro."):]
            out[module] = out.get(module, 0) + stat.size
    return {k: v / 1e6 for k, v in out.items()}


def max_heap(heaps):
    merged = {}
    for heap in heaps:
        for k, v in heap.items():
            merged[k] = max(merged.get(k, 0.0), v)
    return merged


def codec_layer(streams, batch):
    """Time the codec on these event streams cut into ``batch`` frames."""
    import io
    from repro.events import codec
    frames, encode_s, decode_s = 0, 0.0, 0.0
    shipped = 0
    for events in streams:
        a = clock()
        encoded = [codec.encode_checked_frame(events[i:i + batch],
                                              i // batch + 1)
                   for i in range(0, len(events), batch)]
        b = clock()
        decoded = 0
        for frame in encoded:
            _seq, payload, _next = codec.read_frame_ex(io.BytesIO(frame))
            decoded += len(codec.decode_batch(payload))
        c = clock()
        if decoded != len(events):
            raise RuntimeError("codec round trip lost events: {} of {}"
                               .format(decoded, len(events)))
        frames += len(encoded)
        shipped += sum(len(f) for f in encoded)
        encode_s += b - a
        decode_s += c - b
    return {"codec_frames": frames, "codec_bytes": shipped,
            "codec_encode_s": encode_s, "codec_decode_s": decode_s}


def checkpoint_layer(runs):
    """Snapshot each live run with its public checkpoint(): bytes, time."""
    size, spent = 0, 0.0
    for run in runs:
        a = clock()
        size += len(run.checkpoint())
        spent += clock() - a
    return {"checkpoint_bytes": size, "checkpoint_encode_s": spent}


def wal_layer(wal_dirs):
    """What the logs hold at the end of the run, read with scan_wal."""
    from repro.fault.wal import scan_wal
    size = records = checkpoints = 0
    for wal_dir in wal_dirs:
        size += sum(os.path.getsize(os.path.join(wal_dir, f))
                    for f in os.listdir(wal_dir))
        state = scan_wal(wal_dir, repair=False)
        records += state.records
        checkpoints += len(state.checkpoints)
    return {"wal_bytes_on_disk": size, "wal_records": records,
            "wal_checkpoints": checkpoints}


def counts(job):
    import tracemalloc
    from repro import MultiQueryRun, QueryRun, XFlux
    from repro.xmlio.tokenizer import tokenize
    workload = job["workload"]
    result = {}
    if workload in ("docs", "durable"):
        docs = document(job)
        result.update(codec_layer([tokenize(docs[k]) for k in sorted(docs)],
                                  job["batch_events"]))
    if workload == "docs":
        per_query, heaps, runs = {}, [], []
        for name, query in zip(job["query_names"], job["query_texts"]):
            doc = docs[job["datasets"][name]]
            plan = XFlux(query).compile()
            events = tokenize(doc, stream_id=plan.source_id,
                              emit_oids=plan.needs_oids)
            run = QueryRun(plan, metrics=True)
            run.feed_all(events)
            run.finish()
            per_query[name] = stage_counts(run.metrics(), run.stats(),
                                           len(events))
            del run, events
            tracemalloc.start()
            plan = XFlux(query).compile()
            run = QueryRun(plan)
            run.feed_all(tokenize(doc, stream_id=plan.source_id,
                                  emit_oids=plan.needs_oids))
            run.finish()
            run.text()
            heaps.append(heap_by_module(tracemalloc.take_snapshot()))
            tracemalloc.stop()
            runs.append(run)
        result.update(per_query=per_query, heap_mb=max_heap(heaps))
        result.update(checkpoint_layer(runs))
    elif workload == "durable":
        opts = {"batch_events": job["batch_events"],
                "checkpoint_every": job["checkpoint_every"]}
        per_query = {}
        for dataset, group in groups(job):
            mq = MultiQueryRun([t for _, t in group], metrics=True)
            events = list(tokenize(docs[dataset], stream_id=mq.source_id,
                                   emit_oids=mq.needs_oids))
            mq.run_durable(events, fresh_dir(job, "wal-counts"), **opts)
            for i, (name, _) in enumerate(group):
                run = mq.query_run(i)
                per_query[name] = stage_counts(run.metrics(), run.stats(),
                                               len(events))
            del mq, events
        tracemalloc.start()
        runs = []
        for dataset, group in groups(job):
            mq = MultiQueryRun([t for _, t in group])
            mq.run_xml(docs[dataset], durable=fresh_dir(
                job, "wal-heap-" + dataset), **opts)
            mq.texts()
            runs.append((dataset, mq))
        heap = heap_by_module(tracemalloc.take_snapshot())
        tracemalloc.stop()
        result.update(per_query=per_query, heap_mb=heap)
        result.update(checkpoint_layer(mq for _, mq in runs))
        result.update(wal_layer([os.path.join(job["work_dir"],
                                              "wal-heap-" + dataset)
                                 for dataset, _ in runs]))
    elif workload == "ticker":
        snapshot, updates, tail = ticker_stream(job)
        stream = snapshot + [e for u in updates for e in u] + tail
        mq = MultiQueryRun(job["query_texts"], mutable_source=True,
                           metrics=True)
        for e in stream:
            mq.feed(e)
        mq.finish()
        per_query = {}
        for i, name in enumerate(job["query_names"]):
            run = mq.query_run(i)
            per_query[name] = stage_counts(run.metrics(), run.stats(),
                                           len(stream))
        del mq
        # The timed run's shape, polled after every update; the heap is
        # read with the stream still open, as the last update leaves it.
        tracemalloc.start()
        mq = MultiQueryRun(job["query_texts"], mutable_source=True)
        for e in snapshot:
            mq.feed(e)
        for update in updates:
            for e in update:
                mq.feed(e)
            mq.texts()
        heap = heap_by_module(tracemalloc.take_snapshot())
        tracemalloc.stop()
        result.update(per_query=per_query, heap_mb=heap)
        result.update(checkpoint_layer([mq]))
    save(job, result)


def main():
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    mode = job["mode"]
    if mode == "setup":
        setup(job)
    elif mode == "timed":
        timed(job)
    elif mode == "counts":
        counts(job)
    else:
        raise SystemExit("unknown mode {!r}".format(mode))


if __name__ == "__main__":
    main()
