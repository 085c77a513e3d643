"""Consumer-demand pruning (repro.core.demand).

The contract: a plan compiled with its demand installed (the default
``XFlux.compile()``) shows answers *byte-identical* to the unpruned
reference ``compile(optimize=False)`` — the pruning may only change how
many copies of an event the copying stages (``//``, tees, the backward
join) emit, never what any stage reads.  Checked for Q1-Q9 and edge
shapes on every executor path: interpreted and fused, sanitized,
multiplexed with prefix sharing on and off, sharded, checkpointed
mid-stream and recovered from a crashed durable run.

Lazy ``//`` levels ride the same matrix: shapes whose content-only
output lets the step drop whole matches, rooted shapes that must drop
nothing, activation of a deferring step in the middle of an item, and
checkpoints taken while levels are held.

Also here: the O(1) display peak counters against the region-tree walk,
and the wrapper's freeze-time pruning of its nesting maps against an
unpruned twin.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
from io import StringIO

import pytest

from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET
from repro.cli import main as cli_main
from repro.core import display as display_mod
from repro.core.demand import (SHELLS, WHOLE_ITEMS, Demand,
                               DemandMatcher, derive_demand)
from repro.core.transformer import Context, StateTransformer
from repro.core.wrapper import UpdateWrapper
from repro.data import DBLPGenerator, XMarkGenerator
from repro.data.stock import StockTicker
from repro import parse_xml
from repro.events.model import (SE, SS, Event, cdata, end_mutable, freeze,
                                start_mutable)
from repro.fault.recover import recover
from repro.operators import AncestorJoin, DescendantStep, Tee
from repro.parallel import ShardedMultiQueryRun
from repro.xmlio.tokenizer import tokenize
from repro.xquery.engine import MultiQueryRun, QueryRun, XFlux

from tests.conftest import AUCTION_XML, RECURSIVE_XML

#: Edge shapes beyond the paper queries (dataset handle "X": XMark).
#: Positional predicates and ``[. = "x"]`` are outside the parser's
#: subset; the where-clause ``$l = "..."`` is the same context-item
#: comparison (a condition reading whole items).
EDGE_QUERIES = {
    "cmp": 'X//item[quantity > 3]/location',
    "self_cmp": ('for $l in X//location where $l = "Albania" '
                 'return $l'),
    "desc_cond": 'X//regions[europe//location = "Albania"]//quantity',
    "star_star": 'X//*//*',
    "count_star_star": 'count(X//*//*)',
    "count_star": 'count(X//*)',
    "sum": 'sum(X//item/quantity)',
    "text": 'X//item/location/text()',
    "parent": 'X//location/..',
    "count_parent": 'count(X//quantity/..)',
    "ancestor": 'X//quantity/ancestor::*',
    "ancestor_tag": 'count(X//location/ancestor::europe)',
    "flwor_literal": ('for $i in X//item where $i/location = "Albania" '
                      'order by $i/quantity '
                      'return ("q:", $i/quantity/text(), "\\n")'),
    "flwor_const": ('for $i in X//item where $i/payment = "Cash" '
                    'return "hit"'),
    # Lazy levels: content-only output drops the matches holding
    # nothing read (every match, for the never-true condition)...
    "star_child": 'X//*/quantity',
    "star_never": 'X//*[zzz]/quantity',
    "star_star_child": 'X//*//*/quantity',
    # ...while rooted consumers observe every match.
    "count_star_cond": 'count(X//*[location="Albania"])',
    "flwor_star_literal": 'for $x in X//* return "lit"',
    "flwor_star_construct": 'for $x in X//* return <m>{ $x/quantity }</m>',
    # Backward-axis candidates gated on the incoming result's tag: an
    # unknown tag (every element may hold a result) and whole candidates
    # read by the display (nothing defers).
    "count_star_parent": 'count(X//*[location="Albania"]/..)',
    "item_parent": 'X//item[location="Albania"]/..',
}

#: Recursive documents exercise nested matches (``//*`` in ``//*``).
RECURSIVE_QUERIES = {
    "part_star": 'R//part//*',
    "part_part": 'R//part//part',
    "count_part": 'count(R//*//part)',
    "part_text": 'R//part/text()',
    "part_anc": 'R//part/ancestor::part',
    "part_cond": 'R//part[x = "1"]/w',
    "levels_q3": 'R//*[location="Albania"]/quantity',
    # Nested incoming results (a part inside a part) and Q6's shape.
    "part_parent": 'R//part/..',
    "count_part_anc": 'count(R//part/ancestor::part)',
    "q6_part": 'count(R//part[x="1"]/ancestor::*//w)',
}

#: Matches nested inside subtrees an enclosing match skips, with the
#: condition child *after* the skipped one: every open level skips at
#: once, and each skip must end exactly where its own subtree does.
NESTED_XML = ("<part><y><part><y><z>t</z></y><x>1</x><w>a</w></part>"
              "<w>q</w></y><x>1</x><w>b</w></part>"
              "<part><x>2</x><w>c</w></part>")

#: Q3's shape over levels that hold only nested matches (b, g), hold
#: their own read children only after nested matches (a, d), hold
#: nothing read at all (f, h), or hold a read child only deep inside a
#: skipped subtree (i).
LEVELS_XML = ("<a><b><c><location>Albania</location><quantity>1</quantity>"
              "</c></b><location>Albania</location><d><e>"
              "<location>Albania</location><quantity>3</quantity></e>"
              "<quantity>2</quantity></d><quantity>4</quantity></a>"
              "<f><g><h>x</h><c><location>Albania</location></c></g></f>"
              "<i><j><k><quantity>5</quantity></k></j></i>")

ALL_QUERIES = dict(PAPER_QUERIES, **EDGE_QUERIES, **RECURSIVE_QUERIES)


def _dataset(name):
    if name in RECURSIVE_QUERIES:
        return "R"
    return QUERY_DATASET.get(name, "X")


@pytest.fixture(scope="module")
def docs():
    return {
        1: {"X": XMarkGenerator(scale=0.02, seed=1).text(),
            "D": DBLPGenerator(scale=0.02, seed=1).text(),
            "R": RECURSIVE_XML},
        7: {"X": XMarkGenerator(scale=0.02, seed=7,
                                albania_fraction=0.25).text(),
            "D": DBLPGenerator(scale=0.02, seed=7,
                               smith_fraction=0.15).text(),
            "R": "<r>" + RECURSIVE_XML * 3 + NESTED_XML + LEVELS_XML
                 + "</r>"},
    }


def _events(text, plan):
    return tokenize(text, stream_id=plan.source_id,
                    emit_oids=plan.needs_oids)


def _run(query, text, optimize=None, **kwargs):
    plan = XFlux(query).compile(optimize=optimize)
    run = QueryRun(plan, **kwargs)
    run.feed_all(_events(text, plan))
    return run.finish()


@pytest.fixture(scope="module")
def reference(docs):
    """The unpruned, interpreted, unsanitized answer of every query."""
    return {(name, seed): _run(query, docs[seed][_dataset(name)],
                               optimize=False, fuse=False,
                               sanitize=False).text()
            for name, query in ALL_QUERIES.items() for seed in docs}


# -- the differential matrix -----------------------------------------------

@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
@pytest.mark.parametrize("fuse", [False, True], ids=["interp", "fused"])
def test_pruned_matches_reference(name, seed, fuse, docs, reference):
    run = _run(ALL_QUERIES[name], docs[seed][_dataset(name)], fuse=fuse,
               sanitize=False)
    assert run.plan.demand is not None
    assert run.text() == reference[(name, seed)]


@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
def test_pruned_matches_reference_sanitized(name, docs, reference):
    # The boundary checkers see every stage's pruned output: each must
    # still be a valid update stream on its own.
    run = _run(ALL_QUERIES[name], docs[7][_dataset(name)], sanitize=True)
    assert run.text() == reference[(name, 7)]


@pytest.mark.parametrize("name", ["Q3", "Q4", "Q6", "Q7", "Q9",
                                  "star_star", "part_star", "part_anc",
                                  "count_star_parent", "item_parent",
                                  "part_parent", "count_part_anc",
                                  "q6_part"])
def test_pruned_matches_reference_always_active(name, docs, reference):
    # Every wrapper pays full region bookkeeping from the first event,
    # so the demand cursors ride through per-region state copies.
    run = _run(ALL_QUERIES[name], docs[1][_dataset(name)],
               always_active=True)
    assert run.text() == reference[(name, 1)]


def _dataset_groups():
    groups = {}
    for name in sorted(ALL_QUERIES):
        groups.setdefault(_dataset(name), []).append(name)
    return sorted(groups.items())


@pytest.mark.parametrize("share", [False, True], ids=["solo", "shared"])
def test_multiquery_matches_reference(share, docs, reference):
    for dataset, names in _dataset_groups():
        mq = MultiQueryRun([ALL_QUERIES[n] for n in names],
                           share_prefixes=share)
        mq.run_xml(docs[1][dataset])
        assert mq.texts() == [reference[(n, 1)] for n in names], dataset
        assert mq.statuses() == ["ok"] * len(names)


def test_shared_prefix_gets_union_demand():
    mq = MultiQueryRun([PAPER_QUERIES[n] for n in ("Q1", "Q2", "Q3",
                                                   "Q4", "Q7")],
                       share_prefixes=True, sanitize=False,
                       metrics=False, flight=False)
    assert mq.groups
    for group in mq.groups:
        copiers = [w.t for w in group.pipeline.wrappers
                   if isinstance(w.t, (DescendantStep, Tee))]
        assert copiers
        # The prefix delivers the union of what its members read: some
        # copy is cut, none is cut below a member's own demand (the
        # answers above hold that part).
        assert any(_prunes(t) for t in copiers)


def _prunes(stage):
    """Does a copying stage drop anything from its outputs?"""
    if isinstance(stage, Tee):
        return stage._pass is not None or stage._copy is not None
    return (stage._dm is not None or not stage._inner
            or not stage._text)


def test_sharded_matches_reference(docs, reference):
    names = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "star_star",
             "parent", "flwor_literal", "star_child", "star_never",
             "count_star_cond", "count_star_parent", "item_parent"]
    smq = ShardedMultiQueryRun([ALL_QUERIES[n] for n in names],
                               workers=2)
    smq.run_xml(docs[7]["X"])
    assert smq.texts() == [reference[(n, 7)] for n in names]


@pytest.mark.parametrize("name", ["Q1", "Q3", "Q4", "Q6", "Q7", "Q9",
                                  "star_star", "ancestor", "part_star",
                                  "count_star_parent", "part_parent"])
@pytest.mark.parametrize("fuse", [False, True], ids=["interp", "fused"])
def test_checkpoint_mid_stream(name, fuse, docs, reference):
    text = docs[1][_dataset(name)]
    query = ALL_QUERIES[name]
    plan = XFlux(query).compile()
    events = list(_events(text, plan))
    cuts = [len(events) // 3, (2 * len(events)) // 3]
    run = QueryRun(plan, fuse=fuse)
    fed = 0
    for cut in cuts:
        run.feed_all(events[fed:cut])
        fed = cut
        blob = run.checkpoint()
        # Restore into a fresh compile: the demand cursors and the
        # per-level filter state must come back with the pipeline.
        run = QueryRun(XFlux(query).compile(), fuse=fuse).restore(blob)
    run.feed_all(events[fed:])
    run.finish()
    assert run.text() == reference[(name, 1)]


_CTX = multiprocessing.get_context("fork")


def _crash_durable(wal_dir, queries, text, crash_after):
    os.setpgrp()
    MultiQueryRun(queries).run_xml(
        text, durable=wal_dir, batch_events=64, checkpoint_every=3,
        checkpoint_cost_factor=0.0, crash_after_frames=crash_after)


@pytest.mark.parametrize("dataset", ["X", "D"])
def test_durable_recovery_matches_reference(dataset, docs, reference,
                                            tmp_path):
    names = [n for n in sorted(ALL_QUERIES) if _dataset(n) == dataset]
    text = docs[7][dataset]
    wal_dir = str(tmp_path / "wal")
    proc = _CTX.Process(target=_crash_durable,
                        args=(wal_dir, [ALL_QUERIES[n] for n in names],
                              text, 7))
    proc.start()
    proc.join(60)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (OSError, ProcessLookupError):
        pass
    assert proc.exitcode == -signal.SIGKILL
    result = recover(wal_dir, text=text)
    assert result.frames_replayed > 0
    assert result.texts == [reference[(n, 7)] for n in names]


# -- the derivation ----------------------------------------------------------

def _stage_demands(query):
    return derive_demand(XFlux(query).compile()).to_dict()["stages"]


def test_q3_demand_pinned():
    # The predicate takes its consumer's bit: /quantity reads the
    # matches only through their children, so //* defers its levels.
    assert _stage_demands(PAPER_QUERIES["Q3"]) == [
        {"reads": {"0": "content-only: shell, .//*/location=whole, "
                        ".//*/quantity=whole"},
         "emits": {"1000": "content-only: shell, ./location=whole, "
                           "./quantity=whole"}},
        {"reads": {"1000": "content-only: shell, ./location=whole, "
                           "./quantity=whole"},
         "emits": {"1001": "content-only: shell, ./quantity=whole"}},
        {"reads": {"1001": "content-only: shell, ./quantity=whole"},
         "emits": {"1006": "rooted: whole"}},
    ]


def test_q4_demand_pinned():
    assert _stage_demands(PAPER_QUERIES["Q4"]) == [
        # The clone keeps shells only: the parent join reads the item
        # children of each candidate (the incoming results are items),
        # count() reads candidate shells.
        {"reads": {"0": "content-only: shell, .//*/item=shell, "
                        ".//item/location=whole"},
         "emits": {"0": "content-only: shell, .//item/location=whole",
                   "1006": "content-only: shell, .//*/item=shell"}},
        {"reads": {"0": "content-only: shell, .//item/location=whole"},
         "emits": {"1000": "rooted: shell, ./location=whole"}},
        {"reads": {"1000": "rooted: shell, ./location=whole"},
         "emits": {"1001": "rooted: shell"}},
        # Candidates are read content-only although count() is rooted:
        # one without an item child is never shown, so //* defers.
        {"reads": {"1006": "content-only: shell, .//*/item=shell"},
         "emits": {"1007": "content-only: shell, ./item=shell"}},
        {"reads": {"1001": "rooted: shell",
                   "1007": "content-only: shell, ./item=shell"},
         "emits": {"1008": "rooted: shell"}},
        {"reads": {"1008": "rooted: shell"},
         "emits": {"1009": "rooted: whole"}},
    ]


def test_lazy_stages_pinned():
    # Matches are rooted under count(), FLWOR for and the backward
    # join's incoming side (Q4-Q7, Q9); Q1, Q2, Q3 and Q8 read theirs
    # only through children, and the join reads its candidates (stage 3
    # of Q4-Q6) only through the elements a result may close as.
    lazy = {name: XFlux(query).compile().demand.lazy
            for name, query in PAPER_QUERIES.items()}
    assert lazy == {"Q1": (0, 1), "Q2": (0,), "Q3": (0,), "Q4": (3,),
                    "Q5": (3,), "Q6": (3,), "Q7": (), "Q8": (0,),
                    "Q9": ()}
    for name in ("count_star_cond", "flwor_star_literal",
                 "flwor_star_construct"):
        assert XFlux(ALL_QUERIES[name]).compile().demand.lazy == ()
    assert XFlux(ALL_QUERIES["star_star_child"]).compile().demand.lazy \
        == (0, 1)


@pytest.mark.parametrize("name", ["Q7", "Q9"])
def test_unread_tee_branch_is_not_emitted(name, docs):
    plan = XFlux(PAPER_QUERIES[name]).compile()
    tees = [s for s in plan.stages if isinstance(s, Tee)]
    # The last tee of the loop variable feeds nothing after it.
    assert plan.demand.outputs[plan.stages.index(tees[-1])][
        tees[-1].input_ids[0]].empty
    text = docs[1][QUERY_DATASET[name]]
    pruned = _run(PAPER_QUERIES[name], text)
    full = _run(PAPER_QUERIES[name], text, optimize=False)
    assert pruned.text() == full.text()
    assert pruned.display.events_seen < full.display.events_seen


@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_mutable_source_plans_are_universal(name):
    plan = XFlux(PAPER_QUERIES[name], mutable_source=True).compile()
    assert plan.demand.universal
    assert "mutable" in plan.demand.reason
    assert plan.demand.lazy == ()
    for stage in plan.stages:
        if isinstance(stage, (DescendantStep, AncestorJoin, Tee)):
            assert not _prunes(stage), stage
        if isinstance(stage, DescendantStep):
            assert not stage._lazy, stage


def test_unoptimized_plan_is_the_unpruned_reference():
    plan = XFlux(PAPER_QUERIES["Q4"]).compile(optimize=False)
    assert plan.demand is None
    assert not any(_prunes(s) for s in plan.stages
                   if isinstance(s, (DescendantStep, AncestorJoin, Tee)))


@pytest.mark.parametrize("name", ["Q3", "Q4"])
def test_calls_per_event_fall(name, docs):
    text = docs[1]["X"]
    pruned = _run(PAPER_QUERIES[name], text, fuse=False, sanitize=False)
    full = _run(PAPER_QUERIES[name], text, optimize=False, fuse=False,
                sanitize=False)
    assert pruned.text() == full.text()
    assert (pruned.stats()["transformer_calls"]
            < 0.5 * full.stats()["transformer_calls"])


#: Transformer calls and display events of each paper query over the
#: seed-1 documents (824 XMark / 1382 DBLP source events), interpreted.
#: Q3 drops the ``//*`` matches holding no location or quantity child
#: (5677 calls and 2372 display events with every match emitted).  Q4
#: and Q6 drop the backward-axis candidates that cannot hold an item
#: result (7834 calls / 14 display events and 17592 / 11 when every
#: candidate is emitted); Q5's candidates are europe elements, each with
#: item descendants, so its counts are those of eager levels.  Q7 and
#: Q9 route their concatenations' region traffic past the Concat stages
#: (3964 and 24901 calls when Concat tracked every region).
CALLS_PINNED = {
    "Q1": (1049, 35), "Q2": (1633, 248), "Q3": (1337, 202),
    "Q4": (2666, 8), "Q5": (2679, 11), "Q6": (14274, 11),
    "Q7": (3642, 667), "Q8": (3362, 612), "Q9": (18951, 3835),
}


@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_calls_and_display_events_pinned(name, docs):
    run = _run(PAPER_QUERIES[name], docs[1][QUERY_DATASET[name]],
               fuse=False, sanitize=False)
    assert (run.stats()["transformer_calls"],
            run.display.events_seen) == CALLS_PINNED[name]


def _join_candidates(query, text):
    """Run ``query`` interpreted; return (its answer, the tags of the
    candidates its backward join opened, the join)."""
    plan = XFlux(query).compile()
    join = next(s for s in plan.stages if isinstance(s, AncestorJoin))
    opened = []
    process = join.process

    def counting(e):
        if (e.kind == SE and join.depth == 0
                and join.current_input_root == join.clone_id):
            opened.append(e.tag)
        return process(e)
    join.process = counting
    run = QueryRun(plan, fuse=False, sanitize=False)
    run.feed_all(_events(text, plan))
    run.finish()
    return run.text(), opened, join


def test_q4_join_sees_one_candidate_per_item_parent(docs, reference):
    text = docs[1]["X"]
    answer, opened, join = _join_candidates(PAPER_QUERIES["Q4"], text)
    assert answer == reference[("Q4", 1)]
    # Exactly the elements with an item child reach the join, each
    # once; every other candidate never leaves the //* step.
    elements = parse_xml(text).descendants()
    parents = [el.tag for el in elements if el.child_elements("item")]
    assert sorted(opened) == sorted(parents)
    assert 0 < len(opened) < len(elements) // 10
    # Every incoming item closed at its region's top level.
    assert join.incoming_depth == {}


def test_unknown_incoming_tag_keeps_every_parent_candidate(docs,
                                                           reference):
    # //* results may be any element, so every candidate with a child
    # element reaches the join.
    text = docs[1]["X"]
    answer, opened, _ = _join_candidates(EDGE_QUERIES["count_star_parent"],
                                         text)
    assert answer == reference[("count_star_parent", 1)]
    assert sorted(opened) == sorted(
        el.tag for el in parse_xml(text).descendants()
        if el.child_elements())


def test_never_true_condition_emits_no_match(docs):
    text = docs[1]["X"]
    lazy = _run(ALL_QUERIES["star_never"], text, fuse=False,
                sanitize=False)
    full = _run(ALL_QUERIES["star_never"], text, optimize=False,
                fuse=False, sanitize=False)
    assert lazy.text() == full.text() == ""
    # No match holds a zzz or quantity child read through the filter,
    # so the predicate sees no region and the display no item.
    assert lazy.display.events_seen < full.display.events_seen
    step = lazy.pipeline.wrappers[0].t
    assert step.held == () and step.levels == ()


def _lazy_steps(mq):
    return [w.t._lazy for g in mq.groups for w in g.pipeline.wrappers
            if isinstance(w.t, DescendantStep)]


def test_shared_prefix_with_rooted_member_keeps_every_match(docs,
                                                           reference):
    # count() observes every //* match, so the prefix serving it and Q3
    # must not drop matches Q3 alone would.
    names = ["Q3", "count_star_cond"]
    mq = MultiQueryRun([ALL_QUERIES[n] for n in names],
                       share_prefixes=True, sanitize=False,
                       metrics=False, flight=False)
    assert _lazy_steps(mq) == [False]
    mq.run_xml(docs[1]["X"])
    assert mq.texts() == [reference[(n, 1)] for n in names]
    # Two content-only members: the shared prefix defers.
    names = ["Q3", "star_child"]
    mq = MultiQueryRun([ALL_QUERIES[n] for n in names],
                       share_prefixes=True, sanitize=False,
                       metrics=False, flight=False)
    assert _lazy_steps(mq) == [True]
    mq.run_xml(docs[1]["X"])
    assert mq.texts() == [reference[(n, 1)] for n in names]


TICKER_QUERIES = ['stream()//quote[name="IBM"]/price',
                  'stream()//quote[price > 100]/name']


@pytest.mark.parametrize("query", TICKER_QUERIES)
@pytest.mark.parametrize("mode", ["interp", "fused", "sanitized"])
def test_lazy_step_activates_mid_item(query, mode):
    # An immutable-source plan fed a live update stream: //quote defers
    # while its wrapper is dormant, and the first name region activates
    # it with the enclosing quote's level still held.  The flush must
    # emit that level before the region, or the quote's shell lands in
    # the region's bracket.
    events = StockTicker(n_updates=150, name_update_fraction=0.2,
                         mutable_names=True, seed=3).events()
    plan = XFlux(query).compile()
    assert plan.demand.lazy == (0,)
    run = QueryRun(plan, fuse=mode == "fused",
                   sanitize=mode == "sanitized")
    wrapper = run.pipeline.wrappers[0]
    step = wrapper.t
    held_at_activation = None
    for e in events:
        before = step.held if wrapper.dormant else None
        run.feed(e)
        if held_at_activation is None and not wrapper.dormant:
            held_at_activation = before
    run.finish()
    assert held_at_activation, "activation found no level held"
    assert not step._lazy
    ref = QueryRun(XFlux(query).compile(optimize=False), fuse=False,
                   sanitize=False)
    ref.feed_all(events)
    ref.finish()
    assert run.text() == ref.text()


@pytest.mark.parametrize("fuse", [False, True], ids=["interp", "fused"])
def test_checkpoint_while_levels_are_held(fuse, docs, reference):
    query = ALL_QUERIES["levels_q3"]
    plan = XFlux(query).compile()
    events = list(_events(docs[7]["R"], plan))
    run = QueryRun(plan, fuse=fuse)
    restored = 0
    for i, e in enumerate(events):
        run.feed(e)
        held = run.pipeline.wrappers[0].t.held
        if not held or i % 4:
            continue
        blob = run.checkpoint()
        run = QueryRun(XFlux(query).compile(), fuse=fuse).restore(blob)
        step = run.pipeline.wrappers[0].t
        assert step._lazy and step.held == held
        restored += 1
    run.finish()
    assert restored >= 3
    assert run.text() == reference[("levels_q3", 7)]


class TestLattice:
    def test_union_and_top(self):
        a = Demand([(((("child", "a"),)), "whole")])
        assert (a | WHOLE_ITEMS).whole
        assert (a | Demand()) == a
        assert Demand().empty

    def test_normalization(self):
        d = Demand([((("child", "a"),), "shell"),
                    ((("child", "a"), ("child", "b")), "whole"),
                    ((("child", "a"), ("child", "b"), ("child", "c")),
                     "text"),
                    ((), "shell")])
        assert d.describe() == "rooted: shell, ./a/b=whole"

    def test_rooted_bit(self):
        below = WHOLE_ITEMS.below(("child", "a"))
        assert not below.rooted
        assert below.describe() == "content-only: shell, ./a=whole"
        # A union is rooted if either side is; the unread stream is
        # never rooted, so it stays the identity.
        assert (below | SHELLS).rooted and (SHELLS | below).rooted
        assert not (below | below.below(("child", "b"))).rooted
        assert not Demand().rooted and (below | Demand()) == below
        assert below != below.rooted_as(True)
        assert Demand().describe() == "none"
        # A content-only stream read whole is still content-only...
        whole_below = Demand([((), "whole")], rooted=False)
        assert whole_below.whole and not whole_below.rooted
        # ...until a rooted consumer joins it.
        assert (whole_below | WHOLE_ITEMS).rooted

    def test_matcher_verdicts(self):
        m = DemandMatcher(Demand([((("child", "a"),), "whole"),
                                  ((("descendant", "b"),), "text")]))
        root = m.initial
        assert m.step(root, "a") == 1          # KEEP: whole subtree
        assert m.step(root, "z") > 1           # spine: //b may follow
        b = m.step(root, "b")
        assert m.text[b] and not m.text[root]
        shells = DemandMatcher(SHELLS)
        assert shells.step(shells.initial, "x") == 0   # SKIP


# -- observability -------------------------------------------------------------

def test_analyze_text_prints_q3_demand():
    out, err = StringIO(), StringIO()
    assert cli_main(["analyze", "Q3"], out=out, err=err) == 0
    lines = [ln.strip() for ln in out.getvalue().splitlines()
             if ln.strip().startswith(("demand:", "lazy:"))]
    assert lines == [
        "demand: reads [0] content-only: shell, .//*/location=whole, "
        ".//*/quantity=whole; emits [1000] content-only: shell, "
        "./location=whole, ./quantity=whole",
        "lazy: a match is emitted once it holds an event its consumer "
        "reads (until an update arrives)",
        "demand: reads [1000] content-only: shell, ./location=whole, "
        "./quantity=whole; emits [1001] content-only: shell, "
        "./quantity=whole",
        "demand: reads [1001] content-only: shell, ./quantity=whole; "
        "emits [1006] rooted: whole",
    ]


def test_analyze_json_prints_q3_demand():
    out, err = StringIO(), StringIO()
    assert cli_main(["analyze", "Q3", "--json"], out=out, err=err) == 0
    payload = json.loads(out.getvalue())
    assert payload["demand"] == {"universal": False, "lazy": [0]}
    assert [s["demand"] for s in payload["stages"]] == \
        _stage_demands(PAPER_QUERIES["Q3"])
    assert [s["lazy"] for s in payload["stages"]] == [True, False, False]


def test_analyze_reports_universal_demand_for_mutable_sources():
    out, err = StringIO(), StringIO()
    assert cli_main(["analyze", "stream()//quote/price",
                     "--mutable-source"], out=out, err=err) == 0
    assert "demand: universal (mutable update source" in out.getvalue()


def test_compile_does_not_import_the_analysis_package():
    code = ("import sys; from repro import XFlux; "
            "[XFlux(q).compile() for q in {!r}]; "
            "bad = sorted(m for m in sys.modules "
            "if m.startswith('repro.analysis')); "
            "print(bad); sys.exit(1 if bad else 0)"
            .format(list(PAPER_QUERIES.values())))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("REPRO_SANITIZE", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- display peaks: O(1) counters against the tree walk ----------------------

class _CheckedDisplay(display_mod.Display):
    """A display asserting the live totals equal the walk after each event."""

    checked = 0

    def process(self, e):
        super().process(e)
        walk = self.tree.stats()
        assert (self.tree.n_regions, self.tree.n_events) == \
            (walk["regions"], walk["events"]), e
        _CheckedDisplay.checked += 1


class _WalkDisplay(display_mod.Display):
    """The pre-counter peak sampler: walk the region tree."""

    def _sample_peaks(self):
        stats = self.tree.stats()
        self.peak_regions = max(self.peak_regions, stats["regions"])
        self.peak_events = max(self.peak_events, stats["events"])


def _run_with_display(display_cls, query, events, mutable=False):
    # Interpreted: the fused driver binds the sink it was built with.
    run = XFlux(query, mutable_source=mutable).start(fuse=False)
    display = display_cls(run.plan.result_id)
    run.pipeline.sink = run.display = display
    for e in events:
        run.feed(e)
    run.finish()
    return display


@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
def test_region_counters_match_walk(name):
    text = RECURSIVE_XML if _dataset(name) == "R" else AUCTION_XML
    plan = XFlux(ALL_QUERIES[name]).compile()
    _CheckedDisplay.checked = 0
    _run_with_display(_CheckedDisplay, ALL_QUERIES[name],
                      _events(text, plan))
    assert _CheckedDisplay.checked > 0


@pytest.mark.parametrize("query", [
    'stream()//quote[name="IBM"]/price',
    'count(stream()//quote[name="IBM"])',
    'sum(stream()//quote/price)',
])
def test_region_counters_match_walk_under_updates(query):
    events = StockTicker(n_updates=150, name_update_fraction=0.2,
                         mutable_names=True, seed=3).events()
    _run_with_display(_CheckedDisplay, query, events, mutable=True)


@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_peaks_equal_walk_sampling(name, docs):
    text = docs[1][QUERY_DATASET[name]]
    plan = XFlux(PAPER_QUERIES[name]).compile()
    events = list(_events(text, plan))
    fast = _run_with_display(display_mod.Display, PAPER_QUERIES[name],
                             events)
    walk = _run_with_display(_WalkDisplay, PAPER_QUERIES[name], events)
    assert (fast.peak_regions, fast.peak_events) == \
        (walk.peak_regions, walk.peak_events)


# -- wrapper nesting maps: pruned on freeze, answers unchanged -----------------

@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_wrapper_maps_hold_live_regions_only(name, docs):
    run = _run(PAPER_QUERIES[name], docs[1][QUERY_DATASET[name]])
    for w in run.pipeline.wrappers:
        assert set(w._parent) <= w._regions, w
        assert set(w._chain_cache) <= w._regions, w
        assert set(w._children) <= w._regions, w


def _ticker_runs(n_updates, prune=True):
    events = StockTicker(n_updates=n_updates, name_update_fraction=0.1,
                         mutable_names=True, seed=5).events()
    mq = MultiQueryRun(['stream()//quote[name="IBM"]/price',
                        'count(stream()//quote[name="IBM"])'],
                       mutable_source=True)
    if not prune:
        for run in mq.runs:
            for w in run.pipeline.wrappers:
                w._unlink_parent = _keep_links
    return mq, events


def _keep_links(uid):
    """The pre-pruning freeze: nesting links are never dropped."""


def _map_sizes(mq):
    return sum(len(w._parent) + len(w._chain_cache)
               for run in mq.runs for w in run.pipeline.wrappers)


def test_wrapper_maps_do_not_grow_with_stream_length():
    sizes = []
    for n in (200, 800):
        mq, events = _ticker_runs(n)
        for e in events[:-2]:       # stream still open, as a ticker is
            mq.feed(e)
        live = sum(len(w._regions) for run in mq.runs
                   for w in run.pipeline.wrappers)
        assert _map_sizes(mq) <= 2 * live
        sizes.append(_map_sizes(mq))
    unpruned, events = _ticker_runs(800, prune=False)
    for e in events[:-2]:
        unpruned.feed(e)
    assert sizes[1] < _map_sizes(unpruned)


def test_wrapper_map_pruning_keeps_live_answers():
    pruned, events = _ticker_runs(300)
    full, _ = _ticker_runs(300, prune=False)
    for i, e in enumerate(events):
        pruned.feed(e)
        full.feed(e)
        if i % 97:
            continue
        for rp, rf in zip(pruned.runs, full.runs):
            for wp, wf in zip(rp.pipeline.wrappers, rf.pipeline.wrappers):
                assert wp._regions == wf._regions
                for r in wp._regions:
                    assert wp._region_chain(r) == wf._region_chain(r)
                    assert wp._hidden_anchor(r) == wf._hidden_anchor(r)
                    assert wp._nearest_open(r) == wf._nearest_open(r)
    pruned.finish()
    full.finish()
    assert pruned.texts() == full.texts()


class _ChainProbe(StateTransformer):
    """Records the region chain the wrapper hands each data event."""

    def __init__(self, ctx):
        super().__init__(ctx, (0,), 1)
        self.seen = []

    def process(self, e):
        self.seen.append((e.id, tuple(self.current_region_chain)))
        return [e.relabel(1)]


def test_region_chain_survives_frozen_ancestor():
    # Region 11 nests in 10; 10 freezes before any data reaches 11, and
    # 12 then opens inside 11.  The chains must list 10 exactly as if
    # the nesting links had never been pruned.
    ctx = Context()
    probe = _ChainProbe(ctx)
    w = UpdateWrapper(probe, always_active=True)
    for e in [Event(SS, 0), start_mutable(0, 10), start_mutable(10, 11),
              end_mutable(10, 11), end_mutable(0, 10), freeze(10),
              start_mutable(11, 12), cdata(12, "x"), cdata(11, "y"),
              end_mutable(11, 12)]:
        w.dispatch(e)
    assert [s for s in probe.seen if s[0] != 0] == \
        [(12, (12, 11, 10)), (11, (11, 10))]
    assert 10 not in w._parent and 10 not in w._chain_cache
