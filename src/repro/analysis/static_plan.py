"""Static plan analysis: precompute Section V's fix map without running.

Every :class:`~repro.core.transformer.StateTransformer` declares compile-
time facts about itself (:meth:`~repro.core.transformer.StateTransformer.
static_facts`): whether a conventional evaluator would block on it, the
Koch-style memory class of its state, and — crucially — the *bracket
families* it originates: which update brackets it emits, targeting what,
with what freeze discipline and cardinality.

:func:`analyze_plan` pushes those families through the compiled stage
list the same way the runtime pushes the brackets themselves:

* a stage *tracks* an arriving family when the family's target chain
  reaches one of the stage's input streams (computed to a fixed point,
  because bracket chains such as nested concatenations are declared out
  of nesting order);
* a tracked family's substream id is *declared* in the mutability map —
  exactly mirroring ``UpdateWrapper._on_update_start``, which calls
  ``fix.declare_mutable`` / ``fix.inherit`` for tracked targets only;
* the stage's update policy then decides how the family continues:
  TRANSPARENT/RAW forward it, TRANSLATE replaces it by a fresh
  dynamically-numbered family (declared at the translating stage, frozen
  exactly when its source freezes), TEE does both, CONSUME/SHARED end it;
* a stage that passes region traffic through (``passes_regions``, e.g.
  concatenation) tracks no family at all: each crosses it as foreign.

The result is a :class:`PlanReport`: a per-stage memory estimate, the
statically predicted fix map — which region numbers remain in
``ctx.fix`` after a complete run — and a lint list (dormant-fast-path
guarantees, dead stages, unbounded-state warnings).
:func:`verify_against_runtime` compares the prediction against the live
``MutabilityRegistry`` of a finished run, using
``Plan.first_runtime_id`` to separate compile-time ids from
runtime-allocated ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Union

from ..core.demand import derive_demand
from ..core.transformer import StateTransformer
from ..core.wrapper import UpdatePolicy
from ..xquery.compiler import Plan

#: ``per`` cardinalities that describe content-covering regions — the
#: ones a slaved ("derived") output region follows the freezes of.
_REGION_PERS = frozenset(("item", "tuple", "match", "nested"))

_STATE_RANK = {"constant": 0, "per-region": 1, "buffering": 2,
               "unbounded": 3}


class BracketFamily:
    """One statically-known family of update brackets in flight.

    A family stands for *all* runtime instances of one bracket spec: the
    per-tuple regions of a concatenation are one family with
    ``per="tuple"``.  ``sub`` is the concrete region number for specs
    that reuse a compile-time id, or ``None`` for ids allocated while
    events flow.  ``target`` is a stream number, or the family whose
    (dynamic) sub this family nests into.
    """

    def __init__(self, origin: int, kind: str,
                 target: Union[int, "BracketFamily"], sub: Optional[int],
                 freeze: str, per: str,
                 translated_from: Optional["BracketFamily"] = None,
                 synthetic: bool = False) -> None:
        self.origin = origin          # stage index; -1 = the source
        self.kind = kind              # "sM" | "sR" | "sB" | "sA"
        self.target = target
        self.sub = sub
        self.freeze = freeze          # "always" | "never" | "conditional"
        self.per = per
        self.translated_from = translated_from
        self.synthetic = synthetic
        #: Stage indices whose wrapper enters ``sub`` into the fix map.
        self.declared_at: List[int] = []

    @property
    def declared(self) -> bool:
        return bool(self.declared_at)

    def describe(self) -> str:
        sub = "dynamic" if self.sub is None else str(self.sub)
        tgt = (self.target if not isinstance(self.target, BracketFamily)
               else "region of [{}]".format(self.target.origin))
        src = ("" if self.translated_from is None
               else ", translated from [{}]".format(
                   self.translated_from.origin))
        return "{} per {} (target {}, sub {}, freeze {}{})".format(
            self.kind, self.per, tgt, sub, self.freeze, src)

    def __repr__(self) -> str:
        return "BracketFamily({})".format(self.describe())


class StageReport:
    """Analysis results for one pipeline stage."""

    def __init__(self, index: int, transformer: StateTransformer,
                 facts: dict) -> None:
        self.index = index
        self.transformer = transformer
        self.facts = facts
        self.updates_arrive = False     # any family crosses the input
        self.tracked: List[BracketFamily] = []
        self.declared: List[BracketFamily] = []
        self.policies: Dict[int, str] = {}  # id(family) -> policy name
        self.own: List[BracketFamily] = []
        self.translated: List[BracketFamily] = []
        self.lints: List[str] = []

    @property
    def name(self) -> str:
        return type(self.transformer).__name__

    @property
    def dormant(self) -> bool:
        """No update event can ever reach this stage."""
        return not self.updates_arrive

    @property
    def effective_state(self) -> str:
        """Stage memory class including the wrapper's region copies."""
        base = self.facts.get("state_class", "constant")
        if self.tracked and _STATE_RANK.get(base, 0) < 1:
            return "per-region"
        return base


class PlanReport:
    """The full static analysis of one compiled plan."""

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self.stages: List[StageReport] = []
        self.families: List[BracketFamily] = []
        #: Compile-time region numbers predicted to remain in the fix map
        #: after a complete run (declared somewhere, never frozen).
        self.persistent_static: List[int] = []
        #: Compile-time region numbers that *may* remain (freeze depends
        #: on runtime data; only possible for mutable-source plans).
        self.conditional_static: List[int] = []
        #: Declared families with runtime-allocated subs that are never
        #: frozen: each instance leaves one runtime id in the fix map.
        self.dynamic_persistent: List[BracketFamily] = []
        #: Same, but with data-dependent freezes.
        self.dynamic_conditional: List[BracketFamily] = []
        self.lints: List[str] = []
        #: The consumer demand on every stream (:mod:`repro.core.demand`):
        #: the plan's installed one, else derived here.
        self.demand = (plan.demand if plan.demand is not None
                       else derive_demand(plan))

    def stage(self, index: int) -> StageReport:
        return self.stages[index]

    def render(self) -> str:
        return render_report(self)


def _spec_families(index: int, t: StateTransformer, facts: dict,
                   derived_freeze: str) -> List[BracketFamily]:
    """Instantiate a stage's declared bracket specs as families."""
    fams: List[BracketFamily] = []
    for spec in facts.get("brackets", ()):
        target: Union[int, BracketFamily] = spec["target"]
        if target == "dynamic":
            # A spec may nest inside an earlier spec of the same stage.
            target = fams[spec["parent"]]
        sub = spec["sub"]
        freeze = spec["freeze"]
        if freeze == "derived":
            freeze = derived_freeze
        fams.append(BracketFamily(
            index, spec["kind"], target,
            None if sub == "dynamic" else sub, freeze, spec["per"]))
    return fams


def _combine_freeze(region_sources: Sequence[BracketFamily],
                    mutable_source: bool) -> str:
    """Resolve a ``derived`` freeze: slaved to the covering regions.

    An output region slaved to its input regions seals exactly when they
    all seal; with no revocable input regions at all, the decision is
    final the moment the region closes (immutable source), or unknowable
    statically (mutable source).
    """
    sources = [f for f in region_sources if f.per in _REGION_PERS]
    if not sources:
        return "conditional" if mutable_source else "always"
    freezes = {f.freeze for f in sources}
    if "never" in freezes:
        return "never"
    if "conditional" in freezes:
        return "conditional"
    return "always"


def _chain_walk(fam: BracketFamily,
                sub_owner: Dict[int, BracketFamily]) -> int:
    """Follow a family's target chain up to a concrete stream number."""
    target = fam.target
    seen: Set[int] = set()
    while True:
        if isinstance(target, BracketFamily):
            if id(target) in seen:
                return -1
            seen.add(id(target))
            target = target.target
            continue
        owner = sub_owner.get(target)
        if owner is None or id(owner) in seen:
            return target
        seen.add(id(owner))
        target = owner.target


def _parent_family(fam: BracketFamily,
                   sub_owner: Dict[int, BracketFamily]
                   ) -> Optional[BracketFamily]:
    if isinstance(fam.target, BracketFamily):
        return fam.target
    return sub_owner.get(fam.target)


def analyze_plan(plan: Plan) -> PlanReport:
    """Statically derive the fix map and per-stage report for ``plan``."""
    report = PlanReport(plan)
    in_flight: List[BracketFamily] = []
    if plan.mutable_source:
        src = BracketFamily(-1, "sM", plan.source_id, None,
                            "conditional", "item", synthetic=True)
        src.declared_at.append(-1)  # source brackets are declared on
        #                             arrival at whichever stage tracks
        #                             the source stream
        in_flight.append(src)
        report.families.append(src)

    for index, t in enumerate(plan.stages):
        facts = t.static_facts()
        sr = StageReport(index, t, facts)
        report.stages.append(sr)
        sr.updates_arrive = bool(in_flight)

        sub_owner: Dict[int, BracketFamily] = {
            f.sub: f for f in in_flight if f.sub is not None}

        # -- fixed-point tracking: mirror _on_update_start's track test.
        # The family list is in (origin stage, spec) order, which need
        # not match bracket nesting order, so iterate until stable.
        tracked_ids: Set[int] = set(t.input_ids)
        tracked: Set[int] = set()        # id(family)
        # A stage passing region traffic through tracks nothing: every
        # family crosses it as foreign traffic (UpdateWrapper never
        # activates it).
        changed = not t.passes_regions
        while changed:
            changed = False
            for f in in_flight:
                if id(f) in tracked:
                    continue
                target = f.target
                hit = (id(target) in tracked
                       if isinstance(target, BracketFamily)
                       else target in tracked_ids)
                if not hit:
                    continue
                tracked.add(id(f))
                sr.tracked.append(f)
                changed = True
                # Fix-map entry: sM subs are declared unconditionally;
                # sR/sB/sA inherit — their sub is mutable only when the
                # enclosing region is itself in the map.
                if f.kind == "sM":
                    declared = True
                else:
                    parent = _parent_family(f, sub_owner)
                    declared = parent is not None and parent.declared
                if declared:
                    f.declared_at.append(index)
                    sr.declared.append(f)
                    if f.sub is not None:
                        tracked_ids.add(f.sub)

        # -- the stage's own bracket families (freeze resolved now: a
        # "derived" seal follows the regions declared at this stage).
        derived = _combine_freeze(sr.declared, plan.mutable_source)
        sr.own = _spec_families(index, t, facts, derived)
        report.families.extend(sr.own)

        # -- continuation: policy decides how tracked families travel.
        translation: Dict[int, BracketFamily] = {}

        def translate(f: BracketFamily) -> BracketFamily:
            parent = _parent_family(f, sub_owner)
            target: Union[int, BracketFamily] = t.output_id
            if parent is not None and id(parent) in translation:
                target = translation[id(parent)]
            g = BracketFamily(index, f.kind, target, None, f.freeze,
                              f.per, translated_from=f)
            # The translating wrapper itself declares j_out
            # (fix.declare_mutable / fix.inherit at bracket emission).
            if f.kind == "sM" or (parent is None or parent.declared):
                g.declared_at.append(index)
            translation[id(f)] = g
            return g

        # Translate parents before children so nesting is preserved.
        def chain_depth(f: BracketFamily) -> int:
            depth = 0
            parent = _parent_family(f, sub_owner)
            seen: Set[int] = set()
            while parent is not None and id(parent) not in seen:
                seen.add(id(parent))
                depth += 1
                parent = _parent_family(parent, sub_owner)
            return depth

        for f in sorted((f for f in in_flight if id(f) in tracked),
                        key=chain_depth):
            policy = t.update_policy(_chain_walk(f, sub_owner))
            sr.policies[id(f)] = policy.name
            if policy in (UpdatePolicy.TRANSLATE, UpdatePolicy.TEE):
                g = translate(f)
                sr.translated.append(g)
                report.families.append(g)

        out: List[BracketFamily] = []
        for f in in_flight:
            if id(f) not in tracked:
                out.append(f)           # foreign traffic passes through
                continue
            policy = sr.policies[id(f)]
            if policy in ("TRANSPARENT", "RAW"):
                out.append(f)
            elif policy == "TEE":
                out.append(f)
                out.append(translation[id(f)])
            elif policy == "TRANSLATE":
                out.append(translation[id(f)])
            # CONSUME / SHARED: the family ends here.
        out.extend(sr.own)
        in_flight = out

    _collect_fix_map(report)
    _collect_lints(report, in_flight)
    return report


def _collect_fix_map(report: PlanReport) -> None:
    first_runtime = report.plan.first_runtime_id
    static_never: Set[int] = set()
    static_cond: Set[int] = set()
    for f in report.families:
        if not f.declared or f.origin < 0:
            continue
        if f.sub is not None and f.sub < first_runtime:
            if f.freeze == "never":
                static_never.add(f.sub)
            elif f.freeze == "conditional":
                static_cond.add(f.sub)
        elif f.sub is None:
            if f.freeze == "never":
                report.dynamic_persistent.append(f)
            elif f.freeze == "conditional":
                report.dynamic_conditional.append(f)
    report.persistent_static = sorted(static_never)
    report.conditional_static = sorted(static_cond - static_never)


def _collect_lints(report: PlanReport,
                   final_flight: List[BracketFamily]) -> None:
    plan = report.plan
    stages = plan.stages
    consumed: Set[int] = {plan.result_id}
    for t in stages:
        consumed.update(t.input_ids)

    for sr in report.stages:
        t = sr.transformer
        if t.output_id not in consumed:
            sr.lints.append(
                "stage [{}] {} is a no-op for this plan: its output "
                "stream {} is never consumed".format(
                    sr.index, sr.name, t.output_id))
        if sr.dormant:
            sr.lints.append(
                "updates can never reach stage [{}] {} — the dormant "
                "fast path is guaranteed".format(sr.index, sr.name))
        elif not sr.tracked:
            sr.lints.append(
                "stage [{}] {} forwards all update traffic untouched "
                "(wrapper holds no region state)".format(
                    sr.index, sr.name))
        if sr.facts.get("state_class") == "unbounded":
            sr.lints.append(
                "stage [{}] {} keeps unbounded state: {}".format(
                    sr.index, sr.name,
                    sr.facts.get("notes", "grows with the stream")))
        report.lints.extend(sr.lints)

    if report.persistent_static:
        report.lints.append(
            "regions {} stay open to updates for the whole run "
            "(never frozen); their consumers retain per-region state "
            "indefinitely".format(report.persistent_static))
    undeclared = [f for f in final_flight
                  if not f.declared and not f.synthetic]
    if undeclared:
        report.lints.append(
            "{} bracket famil{} reach the display without any stage "
            "tracking them (terminal regions, absent from the fix "
            "map)".format(len(undeclared),
                          "y" if len(undeclared) == 1 else "ies"))


def verify_against_runtime(plan: Plan,
                           report: Optional[PlanReport] = None
                           ) -> List[str]:
    """Compare the static fix-map prediction with a finished run.

    Call after feeding a complete stream through a pipeline built from
    ``plan``.  Returns a list of disagreement descriptions (empty when
    the prediction matches).  For immutable-source plans the comparison
    is exact; for mutable sources, conditionally-frozen regions are
    allowed on either side.
    """
    if report is None:
        report = analyze_plan(plan)
    leftover = set(plan.ctx.fix._not_fixed)
    first_runtime = plan.first_runtime_id
    static_left = {i for i in leftover if i < first_runtime}
    dyn_left = {i for i in leftover if i >= first_runtime}
    predicted = set(report.persistent_static)
    conditional = set(report.conditional_static)
    problems: List[str] = []

    unexpected = static_left - predicted - conditional
    if unexpected:
        problems.append(
            "runtime fix map holds compile-time ids the analyzer did "
            "not predict: {}".format(sorted(unexpected)))
    missing = predicted - static_left
    if missing and not plan.mutable_source:
        problems.append(
            "analyzer predicted never-frozen compile-time ids that the "
            "runtime froze or never declared: {}".format(sorted(missing)))
    may_have_dynamic = bool(report.dynamic_persistent
                            or report.dynamic_conditional
                            or plan.mutable_source)
    if dyn_left and not may_have_dynamic:
        problems.append(
            "runtime fix map holds {} runtime-allocated ids but the "
            "analyzer predicted none".format(len(dyn_left)))
    if (not dyn_left and report.dynamic_persistent
            and not plan.mutable_source):
        problems.append(
            "analyzer predicted persistent runtime-id regions ({}) but "
            "the runtime fix map holds none".format(
                [f.describe() for f in report.dynamic_persistent]))
    return problems


def render_report(report: PlanReport) -> str:
    """Human-readable per-stage report, fix-map prediction, and lints."""
    plan = report.plan
    lines = [
        "plan: {} stages, source stream {} -> result {}, {} source; "
        "runtime ids start at {}".format(
            len(plan.stages), plan.source_id, plan.result_id,
            "mutable" if plan.mutable_source else "immutable",
            plan.first_runtime_id)]
    for sr in report.stages:
        lines.append("[{}] {!r}".format(sr.index, sr.transformer))
        wrapper = ("dormant" if sr.dormant else
                   "{} famil{} tracked".format(
                       len(sr.tracked),
                       "y" if len(sr.tracked) == 1 else "ies"))
        blocking = (", blocking without updates"
                    if sr.facts.get("paper_blocking") else "")
        lines.append("    memory: {} (wrapper {}){}".format(
            sr.effective_state, wrapper, blocking))
        for f in sr.tracked:
            lines.append("    tracks: {} from [{}] via {}{}".format(
                f.describe(), f.origin, sr.policies[id(f)],
                "" if f in sr.declared or f.declared else
                " (not declared)"))
        for f in sr.own:
            lines.append("    emits: {}".format(f.describe()))
        notes = sr.facts.get("notes")
        if notes:
            lines.append("    note: {}".format(notes))
        lines.append("    demand: {}".format(_demand_line(report, sr.index)))
        if sr.index in report.demand.lazy:
            lines.append("    lazy: a match is emitted once it holds an "
                         "event its consumer reads (until an update arrives)")
    if report.demand.universal:
        lines.append("demand: universal ({})".format(report.demand.reason))
    lines.append("static fix map after a complete run:")
    lines.append("  never-frozen compile-time regions: {}".format(
        ", ".join(map(str, report.persistent_static)) or "none"))
    if report.conditional_static:
        lines.append("  conditionally-frozen compile-time regions: {}"
                     .format(", ".join(map(str,
                                           report.conditional_static))))
    if report.dynamic_persistent:
        lines.append("  never-frozen runtime-id regions:")
        for f in report.dynamic_persistent:
            lines.append("    - {} (stage [{}])".format(f.describe(),
                                                        f.origin))
    else:
        lines.append("  never-frozen runtime-id regions: none")
    if report.dynamic_conditional:
        lines.append("  conditionally-frozen runtime-id regions: {}"
                     .format(len(report.dynamic_conditional)))
    if report.lints:
        lines.append("lints:")
        for lint in report.lints:
            lines.append("  - {}".format(lint))
    return "\n".join(lines)


def _demand_line(report: PlanReport, index: int) -> str:
    """``reads [i] ...; emits [o] ...`` for one stage."""
    demand = report.demand

    def side(streams: dict) -> str:
        return ", ".join("[{}] {}".format(sid, d.describe())
                         for sid, d in sorted(streams.items()))

    return "reads {}; emits {}".format(side(demand.inputs[index]),
                                       side(demand.outputs[index]))


def _family_to_dict(f: BracketFamily) -> dict:
    target = (f.target if not isinstance(f.target, BracketFamily)
              else {"region_of_stage": f.target.origin})
    return {
        "origin": f.origin,
        "kind": f.kind,
        "target": target,
        "sub": f.sub,
        "freeze": f.freeze,
        "per": f.per,
        "translated_from": (None if f.translated_from is None
                            else f.translated_from.origin),
        "declared_at": list(f.declared_at),
        "synthetic": f.synthetic,
    }


def report_to_dict(report: PlanReport) -> dict:
    """The machine-readable form of :func:`render_report`.

    Stage naming reuses the telemetry layer's
    :class:`~repro.obs.recorder.StageIdentity` labels, so ``analyze
    --json`` output joins against metrics / trace JSON on ``label``.
    """
    from ..obs.recorder import stage_identities
    plan = report.plan
    idents = stage_identities(plan.stages)
    demand = report.demand.to_dict()
    demand_stages = demand.pop("stages")
    stages = []
    for sr, ident in zip(report.stages, idents):
        stages.append({
            "index": sr.index,
            "label": ident.label,
            "transformer": repr(sr.transformer),
            "memory": sr.effective_state,
            "dormant": sr.dormant,
            "blocking": bool(sr.facts.get("paper_blocking")),
            "tracked": [dict(_family_to_dict(f),
                             policy=sr.policies[id(f)])
                        for f in sr.tracked],
            "emits": [_family_to_dict(f) for f in sr.own],
            "notes": sr.facts.get("notes"),
            "lints": list(sr.lints),
            "demand": demand_stages[sr.index],
            "lazy": sr.index in report.demand.lazy,
        })
    return {
        "plan": {
            "stages": len(plan.stages),
            "source_id": plan.source_id,
            "result_id": plan.result_id,
            "mutable_source": plan.mutable_source,
            "first_runtime_id": plan.first_runtime_id,
        },
        "stages": stages,
        "fix_map": {
            "persistent_static": list(report.persistent_static),
            "conditional_static": list(report.conditional_static),
            "dynamic_persistent": [_family_to_dict(f)
                                   for f in report.dynamic_persistent],
            "dynamic_conditional": [_family_to_dict(f)
                                    for f in
                                    report.dynamic_conditional],
        },
        "lints": list(report.lints),
        "demand": demand,
    }


def analyze_query(query: str, mutable_source: bool = False) -> PlanReport:
    """Compile ``query`` and analyze the resulting plan."""
    from ..xquery.engine import XFlux
    return analyze_plan(XFlux(query,
                              mutable_source=mutable_source).compile())
