"""Tests for backward axes via clone + OID join (paper Section VI-E)."""

import pytest

from repro import XFlux, parse_xml
from repro.baselines.dom_eval import evaluate_to_xml
from repro.core import Display, Pipeline
from repro.data import XMarkGenerator
from repro.operators import (AncestorJoin, ChildStep, CompareLiteral,
                             CountItems, DescendantStep, InlinePipeline,
                             Predicate, StringValue, Tee)
from repro.xmlio import tokenize
from repro.xquery.parser import parse as parse_query


def build_pipeline(ctx, cand_tag, direct, pred_tag, pred_value,
                   count=True):
    ids = ctx.ids
    clone, s_item = ids.fresh(), ids.fresh()
    c_in, c1, c2, c_out = (ids.fresh() for _ in range(4))
    s_pred, s_cand, s_anc = ids.fresh(), ids.fresh(), ids.fresh()
    cond = InlinePipeline([
        ChildStep(ctx, c_in, c1, pred_tag),
        StringValue(ctx, c1, c2),
        CompareLiteral(ctx, c2, c_out, "=", pred_value),
    ], c_in, c_out)
    stages = [
        Tee(ctx, 0, clone),
        DescendantStep(ctx, 0, s_item, "item"),
        Predicate(ctx, s_item, s_pred, cond, assume_fixed=True),
        DescendantStep(ctx, clone, s_cand, cand_tag),
        AncestorJoin(ctx, s_cand, s_pred, s_anc, direct_only=direct),
    ]
    out = s_anc
    if count:
        s_cnt = ids.fresh()
        stages.append(CountItems(ctx, s_anc, s_cnt))
        out = s_cnt
    return stages, out


DOC = """<site><regions><europe>
<item><location>Albania</location><q>5</q></item>
<item><location>France</location><q>7</q></item>
</europe><asia>
<item><location>Albania</location><q>9</q></item>
</asia></regions></site>"""


def run(ctx, cand_tag, direct, count=True, doc=DOC, value="Albania"):
    stages, out = build_pipeline(ctx, cand_tag, direct, "location", value,
                                 count=count)
    disp = Display(out)
    Pipeline(ctx, stages, disp).run(tokenize(doc, emit_oids=True))
    return disp


class TestAncestor:
    def test_tagged_ancestor(self, ctx):
        assert run(ctx, "europe", False).text() == "1"

    def test_wildcard_ancestor_counts_each_once(self, ctx):
        # regions, europe, asia — each counted once despite two Albania
        # items sharing ancestors.
        assert run(ctx, None, False).text() == "3"

    def test_ancestor_excludes_self(self, ctx):
        # item matches //* as a candidate but is not its own ancestor.
        doc = ("<site><regions><europe>"
               "<item><location>Albania</location></item>"
               "</europe></regions></site>")
        assert run(ctx, None, False, doc=doc).text() == "2"

    def test_ancestor_output_is_candidate_subtree(self, ctx):
        disp = run(ctx, "europe", False, count=False)
        text = disp.text()
        assert text.startswith("<europe>")
        assert "France" in text  # the whole subtree, not just matches

    def test_no_matching_items_no_ancestors(self, ctx):
        assert run(ctx, "europe", False, value="Mars").text() == "0"

    def test_candidates_in_postorder(self, ctx):
        disp = run(ctx, None, False, count=False)
        text = disp.text()
        # europe (inner) before regions (outer), per //* postorder.
        assert text.index("<europe>") < text.index("<regions>")


class TestParent:
    def test_direct_parents_only(self, ctx):
        assert run(ctx, None, True).text() == "2"  # europe + asia

    def test_parent_of_nested_results(self, ctx):
        doc = ("<r><box><item><location>Albania</location></item>"
               "<item><location>Albania</location></item></box></r>")
        assert run(ctx, None, True, doc=doc).text() == "1"  # one box


class TestHiddenIncoming:
    def test_hidden_items_do_not_match(self, ctx):
        # France is filtered by the predicate; its enclosing europe only
        # qualifies through the Albania item.
        doc = ("<site><regions>"
               "<europe><item><location>France</location></item></europe>"
               "<asia><item><location>Albania</location></item></asia>"
               "</regions></site>")
        assert run(ctx, None, True, doc=doc).text() == "1"  # asia only


class TestNestedIncoming:
    """Results nested in results: each inner match must still register.

    A ``//part`` match inside another arrives in an insert-before region
    of its own while the enclosing match's copy is still open, so the
    join counts incoming depth per region (checked against the DOM
    oracle, pruned and unpruned).
    """

    @pytest.mark.parametrize("optimize", [None, False],
                             ids=["pruned", "reference"])
    @pytest.mark.parametrize("query", [
        "X//part/..",
        "count(X//part/ancestor::part)",
        "X//part/ancestor::part",
        "count(X//part/ancestor::*)",
    ])
    def test_recursive_document(self, query, optimize, recursive_xml):
        assert (_engine(query, recursive_xml, optimize)
                == _oracle(query, recursive_xml))

    def test_recursive_parent_lists_every_part_parent(self, recursive_xml):
        assert _engine("X//part/..", recursive_xml, None) == (
            "<part>b<part>c</part></part>"
            "<part>a<part>b<part>c</part></part></part>"
            "<widget><part>e</part></widget>")

    @pytest.mark.parametrize("optimize", [None, False],
                             ids=["pruned", "reference"])
    def test_xmark_nested_listitems(self, optimize):
        text = XMarkGenerator(scale=0.05, seed=3).text()
        query = "count(X//listitem[text]/ancestor::parlist)"
        answer = _engine(query, text, optimize)
        assert answer == _oracle(query, text) == "151"


def _engine(query, text, optimize):
    from repro.xquery.engine import QueryRun
    plan = XFlux(query).compile(optimize=optimize)
    run = QueryRun(plan)
    run.feed_all(tokenize(text, stream_id=plan.source_id,
                          emit_oids=plan.needs_oids))
    run.finish()
    return run.text()


def _oracle(query, text):
    return evaluate_to_xml(parse_query(query), parse_xml(text))
