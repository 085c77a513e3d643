"""Tests for the generic update wrapper ``W`` (paper Section IV/V)."""

import pytest

from repro.core import Collector, Context, Display, Pipeline
from repro.core.wrapper import LIVE, UpdatePolicy, UpdateWrapper
from repro.events import loads
from repro.operators import ChildStep, CountItems, Tee


def run_count(ctx, src, input_id=0):
    out_id = ctx.ids.reserve(900)
    disp = Display(out_id)
    pipe = Pipeline(ctx, [CountItems(ctx, input_id, out_id)], disp)
    pipe.run(loads(src))
    return disp, pipe


class TestStateCopies:
    def test_count_sees_replacement_delta(self, ctx):
        # Replace one element by two: the count must go 1 -> 2.
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) '
               'sR(1,2) sE(2,"b") eE(2,"b") sE(2,"c") eE(2,"c") eR(1,2) '
               'eS(0)')
        disp, _ = run_count(ctx, src)
        assert disp.text() == "2"

    def test_count_sees_empty_replacement(self, ctx):
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) '
               'sE(0,"k") eE(0,"k") sR(1,2) eR(1,2) eS(0)')
        disp, _ = run_count(ctx, src)
        assert disp.text() == "1"

    def test_insert_after_adds(self, ctx):
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) '
               'sA(1,2) sE(2,"b") eE(2,"b") eA(1,2) eS(0)')
        disp, _ = run_count(ctx, src)
        assert disp.text() == "2"

    def test_hide_subtracts_show_restores(self, ctx):
        base = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) '
                'sM(0,2) sE(2,"b") eE(2,"b") eM(0,2) {} eS(0)')
        disp, _ = run_count(ctx, base.format("hide(1)"))
        assert disp.text() == "1"
        ctx2 = Context()
        disp, _ = run_count(ctx2, base.format("hide(1) show(1)"))
        assert disp.text() == "2"

    def test_cascaded_replacement_counts_latest(self, ctx):
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) '
               'sR(1,2) eR(1,2) '
               'sR(2,3) sE(3,"x") eE(3,"x") sE(3,"y") eE(3,"y") eR(2,3) '
               'eS(0)')
        disp, _ = run_count(ctx, src)
        assert disp.text() == "2"


class TestMutabilityAnalysis:
    def test_freeze_drops_wrapper_state(self, ctx):
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) freeze(1) eS(0)')
        disp, pipe = run_count(ctx, src)
        w = pipe.wrappers[0]
        assert w.live_regions() == 0
        assert disp.text() == "1"

    def test_frozen_region_updates_ignored(self, ctx):
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) freeze(1) '
               'sR(1,2) sE(2,"b") eE(2,"b") sE(2,"c") eE(2,"c") eR(1,2) '
               'eS(0)')
        disp, _ = run_count(ctx, src)
        assert disp.text() == "1"

    def test_ignored_stream_processed_as_plain_content(self, ctx):
        # The consumer opted out of updates for this stream: the mutable
        # region's content counts, later updates are void (Section V).
        ctx.fix.ignored_streams.add(1)
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) '
               'sR(1,2) sE(2,"b") eE(2,"b") sE(2,"c") eE(2,"c") eR(1,2) '
               'eS(0)')
        disp, pipe = run_count(ctx, src)
        assert disp.text() == "1"
        assert pipe.wrappers[0].live_regions() == 0

    def test_peak_state_counting(self, ctx):
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) '
               'sM(0,2) sE(2,"b") eE(2,"b") eM(0,2) eS(0)')
        _, pipe = run_count(ctx, src)
        assert pipe.wrappers[0].peak_states >= 3  # live + two regions


class TestPolicies:
    def test_tee_duplicates_brackets_with_fresh_ids(self, ctx):
        copy_id = ctx.ids.reserve(40)
        col = Collector()
        pipe = Pipeline(ctx, [Tee(ctx, 0, copy_id)], col)
        pipe.run(loads('sS(0) sM(0,1) cD(1,"x") eM(0,1) eS(0)'))
        starts = [e for e in col.events if e.abbrev == "sM"]
        assert len(starts) == 2
        assert starts[0].sub == 1          # original preserved
        assert starts[1].sub != 1          # copy renumbered
        assert starts[1].id == copy_id
        # Copied content carries the copy region's number.
        texts = [(e.id, e.text) for e in col.events if e.text]
        assert (1, "x") in texts
        assert (starts[1].sub, "x") in texts

    def test_translate_renumbers_brackets(self, ctx):
        out_id = ctx.ids.reserve(41)
        col = Collector()
        pipe = Pipeline(ctx, [ChildStep(ctx, 0, out_id, "b")], col)
        pipe.run(loads(
            'sS(0) sE(0,"r") sM(0,1) sE(1,"b") cD(1,"x") eE(1,"b") '
            'eM(0,1) eE(0,"r") eS(0)'))
        starts = [e for e in col.events if e.abbrev == "sM"]
        assert len(starts) == 1
        assert starts[0].id == out_id
        assert starts[0].sub != 1

    def test_consume_emits_no_brackets(self, ctx):
        out_id = ctx.ids.reserve(42)
        col = Collector()
        pipe = Pipeline(ctx, [CountItems(ctx, 0, out_id)], col)
        pipe.run(loads('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) eS(0)'))
        # Only the counter's own output region appears, not the input's.
        starts = [e for e in col.events if e.abbrev == "sM"]
        assert len(starts) == 1
        assert starts[0].id == out_id


class TestAdjustLaws:
    """The paper's three adjust properties, on the count transformer."""

    def _make(self, ctx):
        return CountItems(ctx, 0, ctx.ids.reserve(43))

    def test_identity_law(self, ctx):
        # adjust(s1, s2, s2) == s1
        t = self._make(ctx)
        s1, s2 = (5, 0), (9, 0)
        assert t.adjust(s1, s2, s2) == s1

    def test_replacement_law(self, ctx):
        # adjust(s1, s1, s2) == s2
        t = self._make(ctx)
        s1, s2 = (5, 0), (9, 0)
        assert t.adjust(s1, s1, s2) == s2

    def test_commutation_law(self, ctx):
        # adjust(f*(v, s1), s2, s3) == f*(v, adjust(s1, s2, s3))
        from repro.core.transformer import run_sequence
        v = loads('sE(0,"a") eE(0,"a") sE(0,"b") eE(0,"b")')

        def f_star(state):
            t = self._make(Context())
            t.set_state(state)
            run_sequence(t, v)
            return t.get_state()

        t = self._make(ctx)
        s1, s2, s3 = (4, 0), (1, 0), (7, 0)
        assert t.adjust(f_star(s1), s2, s3) == f_star(t.adjust(s1, s2, s3))


class TestForeignUpdates:
    """An update on streams a stage does not track leaves it dormant."""

    def test_foreign_updates_pass_and_keep_the_wrapper_dormant(self, ctx):
        w = UpdateWrapper(ChildStep(ctx, 5, 6, "a"))
        foreign = loads('sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) hide(1) '
                        'show(1) sB(1,2) eB(1,2) freeze(1)')
        ctx.fix.declare_mutable(1)
        for e in foreign:
            assert w.dispatch(e) == [e]
        assert w.dormant and w.calls == len(foreign)
        # freeze keeps its one global effect, as an active wrapper's.
        assert ctx.fix.is_fixed(1)
        # The stage's own update still activates it.
        w.dispatch(loads("sM(5,7)")[0])
        assert not w.dormant

    def test_always_active_wrapper_awaits_its_own_update(self, ctx):
        step = ChildStep(ctx, 5, 6, "a")
        w = UpdateWrapper(step, always_active=True)
        held = []
        step.on_activate = lambda: held.append(True) or []
        for e in loads("sM(0,1) eM(0,1) freeze(1)"):
            assert w.dispatch(e) == [e]
        assert held == []
        w.dispatch(loads("sM(5,7)")[0])
        assert held == [True]

    @pytest.mark.parametrize("sanitize", [True, False])
    def test_lazy_candidates_stay_dormant_without_routing(self, sanitize):
        # The backward join's candidate //* sits behind the predicate,
        # whose item regions reach it unrouted under the sanitizer.  They
        # are foreign to it: it stays dormant and keeps deferring.
        from repro.operators import DescendantStep
        from repro.xquery.engine import QueryRun, XFlux
        from repro.xmlio import tokenize
        from tests.conftest import AUCTION_XML
        plan = XFlux('count(X//item[location="Albania"]/..)').compile()
        run = QueryRun(plan, fuse=False, sanitize=sanitize)
        run.feed_all(tokenize(AUCTION_XML, emit_oids=True))
        run.finish()
        assert run.text() == "2"
        wrapper = run.pipeline.wrappers[3]
        assert isinstance(wrapper.t, DescendantStep) and wrapper.t._lazy
        assert wrapper.dormant
        assert not run.pipeline.wrappers[4].dormant   # the join's own
