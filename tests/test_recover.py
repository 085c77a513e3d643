"""Crash-point exhaustiveness: SIGKILL the engine mid-run, recover
from the write-ahead log, and require byte-identity with a run that
never crashed.

Children fork, lead their own process group, and kill themselves from
inside ``WriteAheadLog.log_frame`` (``crash_after_frames``) — the frame
is durable, the dispatch never happens, exactly the torn moment the
write-ahead invariant is designed for.  The parent requires each child
to have died at its crash point within a short bound, reaps the group,
recovers with the original input re-supplied, and diffs.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET
from repro.bench.memory import STOCK_QUERY
from repro.data import DBLPGenerator, XMarkGenerator
from repro.data.stock import StockTicker
from repro.fault.inject import FaultPlan
from repro.fault.recover import recover
from repro.fault.wal import R_CKPT, iter_wal_records, scan_wal
from repro.xquery.engine import MultiQueryRun

_CTX = multiprocessing.get_context("fork")
BATCH = 64
CKPT_EVERY = 3
#: Seconds a crash child gets to reach its crash point and die.
CRASH_JOIN_S = 30
#: Seconds an orphaned shard worker gets to notice its parent is gone.
WORKER_EXIT_S = 5


# ---------------------------------------------------------------- children

def _crash_multiquery(wal_dir, queries, text, crash_after,
                      mutable=False, fault=None):
    os.setpgrp()
    plan = FaultPlan.parse(fault) if fault else None
    mq = MultiQueryRun(queries, mutable_source=mutable, fault_plan=plan)
    mq.run_xml(text, durable=wal_dir, batch_events=BATCH,
               checkpoint_every=CKPT_EVERY, checkpoint_cost_factor=0.0,
               crash_after_frames=crash_after)


def _crash_ticker(wal_dir, crash_after):
    os.setpgrp()
    events = StockTicker(n_updates=400).events()
    mq = MultiQueryRun([STOCK_QUERY], mutable_source=True)
    mq.run_durable(events, wal_dir, batch_events=BATCH,
                   checkpoint_every=CKPT_EVERY,
                   checkpoint_cost_factor=0.0,
                   crash_after_frames=crash_after)


def _crash_sharded(wal_dir, queries, text, crash_after):
    os.setpgrp()
    from repro.parallel import ShardedMultiQueryRun
    smq = ShardedMultiQueryRun(
        queries, workers=3, batch_events=BATCH,
        checkpoint_interval=CKPT_EVERY, durable_dir=wal_dir,
        durable_opts={"crash_after_frames": crash_after})
    smq.run_xml(text)


def _kill_sharded_parent(conn, queries, text):
    """Start a 2-worker sharded run, report its worker pids, die."""
    os.setpgrp()
    from repro.parallel import ShardedMultiQueryRun
    from repro.xmlio.tokenizer import tokenize
    smq = ShardedMultiQueryRun(queries, workers=2, batch_events=BATCH)
    events = tokenize(text, stream_id=smq.source_id,
                      emit_oids=smq.needs_oids)
    smq.feed_all(itertools.islice(events, 4 * BATCH))
    conn.send([shard.process.pid for shard in smq._shards])
    conn.close()
    os.kill(os.getpid(), signal.SIGKILL)


def _reap_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (OSError, ProcessLookupError):
        pass
    proc.join(CRASH_JOIN_S)


def _crash(target, *args):
    """Fork, require the self-SIGKILL within a short bound, reap.

    The exit code is read before the process group is killed, so only
    the child's own crash point can produce the asserted ``-SIGKILL``.
    """
    proc = _CTX.Process(target=target, args=args)
    proc.start()
    try:
        proc.join(CRASH_JOIN_S)
        exitcode = proc.exitcode
    finally:
        _reap_group(proc)
    assert exitcode == -signal.SIGKILL, \
        "child did not die at its crash point within {} s (exit {})" \
        .format(CRASH_JOIN_S, exitcode)


def _running(pid):
    """Is ``pid`` alive?  A zombie awaiting its reaper has exited."""
    try:
        with open("/proc/{}/stat".format(pid)) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def xmark_text():
    return XMarkGenerator(scale=0.02, seed=7,
                          albania_fraction=0.25).text()


@pytest.fixture(scope="module")
def dblp_text():
    return DBLPGenerator(scale=0.02, seed=7, smith_fraction=0.15).text()


def _clean(queries, text, mutable=False):
    mq = MultiQueryRun(queries, mutable_source=mutable)
    mq.run_xml(text)
    return mq.texts(), mq.statuses()


@pytest.fixture(scope="module")
def q3_profile(xmark_text, tmp_path_factory):
    """One uninterrupted durable Q3 run: reference texts plus the exact
    frame/checkpoint layout every crash point is chosen from."""
    wal_dir = str(tmp_path_factory.mktemp("q3-ref") / "wal")
    queries = [PAPER_QUERIES["Q3"]]
    mq = MultiQueryRun(queries)
    mq.run_xml(xmark_text, durable=wal_dir, batch_events=BATCH,
               checkpoint_every=CKPT_EVERY, checkpoint_cost_factor=0.0)
    state = scan_wal(wal_dir)
    ckpt_seqs = sorted({r.seq for r in iter_wal_records(wal_dir)
                        if r.rtype == R_CKPT})
    return {
        "queries": queries,
        "texts": mq.texts(),
        "statuses": mq.statuses(),
        "total_frames": state.last_frame,
        "ckpt_seqs": ckpt_seqs,
    }


def _boundary_crash_points(profile):
    """Every checkpoint boundary: the frame whose logging precedes the
    checkpoint, and the first frame after it — plus the stream's first
    and last frames."""
    total = profile["total_frames"]
    points = {1, total}
    for seq in profile["ckpt_seqs"]:
        if seq >= 1:
            points.add(seq)
        if seq + 1 <= total:
            points.add(seq + 1)
    return sorted(points)


# ------------------------------------------------------------------- tests

def test_q3_profile_has_multiple_checkpoints(q3_profile):
    # The exhaustive sweep below is only meaningful if the run actually
    # interleaves several checkpoint envelopes with the frames.
    assert q3_profile["total_frames"] >= 10
    assert len([s for s in q3_profile["ckpt_seqs"] if s > 0]) >= 3


def test_sigkill_at_every_checkpoint_boundary(q3_profile, xmark_text,
                                              tmp_path):
    points = _boundary_crash_points(q3_profile)
    for crash_after in points:
        wal_dir = str(tmp_path / "wal-{}".format(crash_after))
        _crash(_crash_multiquery, wal_dir, q3_profile["queries"],
               xmark_text, crash_after)
        result = recover(wal_dir, text=xmark_text)
        assert result.complete
        assert result.texts == q3_profile["texts"], \
            "crash at frame {} changed Q3's answer".format(crash_after)
        assert result.statuses == q3_profile["statuses"]
        # The restored checkpoint never post-dates the crash point.
        floor = result.checkpoint_seqs.get(None, 0)
        assert 0 <= floor <= crash_after
        assert result.bundle is not None


def test_ticker_update_stream_recovers(tmp_path):
    events = StockTicker(n_updates=400).events()
    clean = MultiQueryRun([STOCK_QUERY], mutable_source=True)
    clean.feed_all(events)
    clean.finish()
    total_frames = -(-len(events) // BATCH)
    for crash_after in (2, total_frames // 2, total_frames - 1):
        wal_dir = str(tmp_path / "wal-{}".format(crash_after))
        _crash(_crash_ticker, wal_dir, crash_after)
        result = recover(wal_dir, events=events)
        assert result.complete
        assert result.texts == clean.texts(), \
            "crash at frame {} changed the ticker answer".format(
                crash_after)


@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_each_paper_query_survives_one_crash(name, xmark_text,
                                             dblp_text, tmp_path):
    text = dblp_text if QUERY_DATASET[name] == "D" else xmark_text
    queries = [PAPER_QUERIES[name]]
    clean_texts, clean_statuses = _clean(queries, text)
    wal_dir = str(tmp_path / "wal")
    _crash(_crash_multiquery, wal_dir, queries, text, 5)
    result = recover(wal_dir, text=text)
    assert result.texts == clean_texts, name
    assert result.statuses == clean_statuses, name


def test_sharded_run_recovers_from_parent_wal(xmark_text, tmp_path):
    names = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"]
    queries = [PAPER_QUERIES[n] for n in names]
    clean_texts, clean_statuses = _clean(queries, xmark_text)
    wal_dir = str(tmp_path / "wal")
    _crash(_crash_sharded, wal_dir, queries, xmark_text, 6)
    result = recover(wal_dir, text=xmark_text)
    assert result.kind == "sharded"
    assert result.texts == clean_texts
    assert result.statuses == clean_statuses


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs /proc to watch orphaned workers")
def test_workers_exit_when_the_sharded_parent_is_killed(xmark_text):
    recv, send = _CTX.Pipe(duplex=False)
    queries = [PAPER_QUERIES[n] for n in ("Q1", "Q2", "Q3")]
    proc = _CTX.Process(target=_kill_sharded_parent,
                        args=(send, queries, xmark_text))
    proc.start()
    send.close()
    try:
        assert recv.poll(CRASH_JOIN_S), "sharded parent never started"
        pids = recv.recv()
        proc.join(CRASH_JOIN_S)
        assert proc.exitcode == -signal.SIGKILL
        deadline = time.monotonic() + WORKER_EXIT_S
        while (any(_running(pid) for pid in pids)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        alive = [pid for pid in pids if _running(pid)]
        assert not alive, "workers outlived their parent: {}".format(
            alive)
    finally:
        recv.close()
        _reap_group(proc)


def test_quarantine_in_checkpoint_survives_recovery(xmark_text,
                                                    tmp_path):
    # The fault fires at event 25 — inside the first frame, so every
    # checkpoint after it carries the quarantined state.  Restoring the
    # checkpoint alone must keep the poison pinned, original report and
    # all.
    queries = [PAPER_QUERIES["Q1"], PAPER_QUERIES["Q3"]]
    wal_dir = str(tmp_path / "wal")
    _crash(_crash_multiquery, wal_dir, queries, xmark_text, 8,
           False, "raise:query=0,stage=0,at=25")
    result = recover(wal_dir, text=xmark_text)
    assert result.statuses[0] == "quarantined"
    assert result.texts[0] is None
    assert result.error_reports[0].get("error_type") == "InjectedFault"
    # The healthy co-resident query is unaffected.
    clean_texts, _ = _clean([PAPER_QUERIES["Q3"]], xmark_text)
    assert result.texts[1] == clean_texts[0]


def test_quarantine_in_replayed_suffix_survives_recovery(xmark_text,
                                                         tmp_path):
    # The fault fires at event 400 — past the newest checkpoint the
    # crash leaves behind (frame 6 of 8 at cadence 3), so it lives only
    # in the replayed suffix.  The fault plan is part of the pickled
    # engine state, so deterministic replay re-fires it; either way the
    # poison must stay pinned after recovery.
    queries = [PAPER_QUERIES["Q1"], PAPER_QUERIES["Q3"]]
    wal_dir = str(tmp_path / "wal")
    _crash(_crash_multiquery, wal_dir, queries, xmark_text, 8,
           False, "raise:query=0,stage=0,at=400")
    result = recover(wal_dir, text=xmark_text)
    assert result.statuses[0] == "quarantined"
    assert result.texts[0] is None
    assert result.error_reports[0].get("error_type") == "InjectedFault"
    # The healthy co-resident query is unaffected.
    clean_texts, _ = _clean([PAPER_QUERIES["Q3"]], xmark_text)
    assert result.texts[1] == clean_texts[0]


def test_status_record_wins_when_replay_cannot_reproduce(xmark_text,
                                                         tmp_path):
    # A quarantine caused by something environmental (OOM kill, a
    # one-off I/O error) leaves no trace in the replayable state — only
    # the STATUS record proves it happened.  Simulate one by appending
    # a STATUS record to an otherwise-clean completed log: recovery's
    # replay finds the query healthy, but the log must win.
    import json

    from repro.events import codec
    from repro.fault.wal import R_STATUS, list_segments
    queries = [PAPER_QUERIES["Q1"], PAPER_QUERIES["Q3"]]
    wal_dir = str(tmp_path / "wal")
    mq = MultiQueryRun(queries)
    mq.run_xml(xmark_text, durable=wal_dir, batch_events=BATCH,
               checkpoint_every=CKPT_EVERY, checkpoint_cost_factor=0.0)
    last_frame = scan_wal(wal_dir).last_frame
    note = {"query": 0, "error_type": "EnvironmentalFault",
            "message": "worker killed"}
    body = json.dumps(note, sort_keys=True).encode("utf-8")
    with open(list_segments(wal_dir)[-1], "ab") as fh:
        fh.write(codec.frame_checked(bytes([R_STATUS]) + body,
                                     last_frame))
    result = recover(wal_dir, text=xmark_text)
    assert result.statuses[0] == "quarantined"
    assert result.texts[0] is None
    report = result.error_reports[0]
    assert report.get("recovered_from_log") is True
    assert report.get("error_type") == "EnvironmentalFault"
    assert result.statuses[1] == "ok"


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_random_crash_offsets_never_change_the_answer(
        seed, q3_profile, xmark_text, tmp_path_factory):
    total = q3_profile["total_frames"]
    crash_after = 1 + (seed * 2654435761) % total
    wal_dir = str(tmp_path_factory.mktemp("rand") / "wal")
    _crash(_crash_multiquery, wal_dir, q3_profile["queries"],
           xmark_text, crash_after)
    result = recover(wal_dir, text=xmark_text)
    assert result.texts == q3_profile["texts"]
    assert result.statuses == q3_profile["statuses"]


def test_recovery_without_input_restores_logged_prefix(q3_profile,
                                                       xmark_text,
                                                       tmp_path):
    # No text= re-supplied: recovery restores exactly the logged
    # position and reports the run incomplete rather than guessing.
    wal_dir = str(tmp_path / "wal")
    crash_after = q3_profile["total_frames"] // 2
    _crash(_crash_multiquery, wal_dir, q3_profile["queries"],
           xmark_text, crash_after)
    result = recover(wal_dir)
    assert not result.complete
    assert result.events_resumed == 0
    assert result.frames_replayed + result.checkpoint_seqs.get(None, 0) \
        == crash_after
