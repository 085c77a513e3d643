"""Static plan analyzer: fix-map prediction, lints, CLI subcommand.

The central claim: the analyzer's *static* fix map — computed from the
transformers' declared facts alone, without running any events — must
match the runtime :class:`~repro.core.transformer.MutabilityRegistry`
after a complete run over the paper's benchmark datasets.
"""

import io

import pytest

from repro import tokenize
from repro.analysis import (analyze_plan, analyze_query, render_report,
                            verify_against_runtime)
from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET
from repro.cli import main
from repro.data import DBLPGenerator, XMarkGenerator
from repro.xquery.engine import QueryRun, XFlux


@pytest.fixture(scope="module")
def xmark_text():
    return XMarkGenerator(scale=0.03, seed=13,
                          albania_fraction=0.2).text()


@pytest.fixture(scope="module")
def dblp_text():
    return DBLPGenerator(scale=0.02, seed=13, smith_fraction=0.15).text()


def doc_for(name, xmark_text, dblp_text):
    return dblp_text if QUERY_DATASET[name] == "D" else xmark_text


def run_plan(plan, text):
    run = QueryRun(plan)
    run.feed_all(tokenize(text, stream_id=plan.source_id,
                          emit_oids=plan.needs_oids))
    return run.finish()


class TestFixMapPrediction:
    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_static_fix_map_matches_runtime(self, name, xmark_text,
                                            dblp_text):
        plan = XFlux(PAPER_QUERIES[name]).compile()
        report = analyze_plan(plan)
        run_plan(plan, doc_for(name, xmark_text, dblp_text))
        assert verify_against_runtime(plan, report) == []
        # The partition itself, not only the verifier's verdict:
        leftover = set(plan.ctx.fix._not_fixed)
        static_left = {i for i in leftover if i < plan.first_runtime_id}
        assert static_left == set(report.persistent_static)
        dyn_left = {i for i in leftover if i >= plan.first_runtime_id}
        if report.dynamic_persistent:
            assert dyn_left
        else:
            assert not dyn_left

    def test_q7_concat_regions_stay_mutable(self):
        report = analyze_query(PAPER_QUERIES["Q7"])
        # The two Concat-owned regions (sequence halves) are never
        # frozen: their numbers are compile-time constants.
        assert len(report.persistent_static) == 2
        assert report.dynamic_persistent  # translated per-tuple copies

    def test_q9_sort_tracks_concat_chain(self):
        report = analyze_query(PAPER_QUERIES["Q9"])
        # Three Concats x two regions each reach the blocking sort.
        assert len(report.persistent_static) == 6
        assert not report.dynamic_persistent

    @pytest.mark.parametrize("name", ["Q7", "Q9"])
    def test_concat_tracks_no_bracket_family(self, name, xmark_text,
                                             dblp_text):
        # Concat passes region traffic through unchanged: no family is
        # tracked there, and at run time its wrapper holds no region and
        # never leaves the dormant path.
        report = analyze_query(PAPER_QUERIES[name])
        concats = [sr for sr in report.stages if sr.name == "Concat"]
        assert concats and all(sr.updates_arrive for sr in concats)
        assert all(sr.tracked == [] for sr in concats)
        text = render_report(report)
        assert "Concat" in text and "wrapper 0 families tracked" in text
        plan = XFlux(PAPER_QUERIES[name]).compile()
        run = run_plan(plan, doc_for(name, xmark_text, dblp_text))
        wrappers = [w for w in run.pipeline.wrappers
                    if type(w.t).__name__ == "Concat"]
        assert all(w.dormant and not w.tracked.keys() - w.input_ids
                   and w.peak_states == 1 for w in wrappers)

    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q5",
                                      "Q6", "Q8"])
    def test_single_path_queries_free_everything(self, name):
        report = analyze_query(PAPER_QUERIES[name])
        assert not report.persistent_static
        assert not report.dynamic_persistent


class TestLints:
    def test_dormant_fast_path_guaranteed(self):
        report = analyze_query(PAPER_QUERIES["Q1"])
        assert any("dormant fast path is guaranteed" in lint
                   for lint in report.lints)
        assert report.stages[0].dormant

    def test_mutable_source_wakes_first_stage(self):
        report = analyze_query('stream()//quote[name="IBM"]/price',
                               mutable_source=True)
        assert not report.stages[0].dormant
        assert not any("dormant fast path is guaranteed" in lint
                       for lint in report.lints)

    def test_persistent_region_lint_on_q7(self):
        report = analyze_query(PAPER_QUERIES["Q7"])
        assert any("stay open to updates" in lint
                   for lint in report.lints)

    def test_blocking_stage_reported(self):
        report = analyze_query(PAPER_QUERIES["Q9"])
        assert any(sr.facts.get("paper_blocking")
                   for sr in report.stages)
        assert "blocking" in render_report(report)


class TestRender:
    def test_render_lists_every_stage(self):
        report = analyze_query(PAPER_QUERIES["Q3"])
        text = render_report(report)
        for i in range(len(report.stages)):
            assert "[{}]".format(i) in text
        assert "static fix map" in text

    def test_render_names_persistent_regions(self):
        report = analyze_query(PAPER_QUERIES["Q7"])
        text = render_report(report)
        for rid in report.persistent_static:
            assert str(rid) in text


class TestAnalyzeCli:
    def test_analyze_query_name(self):
        out, err = io.StringIO(), io.StringIO()
        assert main(["analyze", "Q1"], out=out, err=err) == 0
        assert "static fix map" in out.getvalue()

    def test_analyze_query_text(self):
        out, err = io.StringIO(), io.StringIO()
        assert main(["analyze", "count(X//item)"], out=out, err=err) == 0
        assert "CountItems" in out.getvalue()

    def test_analyze_with_input_cross_check(self, tmp_path, xmark_text):
        doc = tmp_path / "xmark.xml"
        doc.write_text(xmark_text)
        out, err = io.StringIO(), io.StringIO()
        code = main(["analyze", "Q7", "--input", str(doc), "--sanitize"],
                    out=out, err=err)
        assert code == 0, err.getvalue()
        assert "agrees with the static analysis" in out.getvalue()

    def test_analyze_rejects_bad_query(self):
        out, err = io.StringIO(), io.StringIO()
        assert main(["analyze", "X//"], out=out, err=err) == 2
        assert "error" in err.getvalue()

    def test_analyze_requires_query(self):
        out, err = io.StringIO(), io.StringIO()
        assert main(["analyze"], out=out, err=err) == 2
