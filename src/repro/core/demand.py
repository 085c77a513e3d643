"""Consumer demand: which part of each stream's items a plan reads.

The bufferless ``//*`` of Section VI-C emits every event once per
enclosing match, tees duplicate whole streams, and the backward-axis join
re-emits whole candidate subtrees — yet the stages downstream of those
copies usually read a small slice of each item (a predicate reads
``/location``, ``count()`` reads only item boundaries).  Koch et al.
(*Schema-based Scheduling of Event Processors and Buffer Minimization*,
PAPERS.md) only emit what a query can observe; the tokenizer projection
(:mod:`repro.analysis.projection`) applies that idea forward, at the
source.  This module applies it backward, at every point where the engine
copies an event, with no schema required.

**The lattice.**  A :class:`Demand` describes, relative to each *item*
(top-level element) of a stream, what some consumer reads, in the same
``(axis, tag)`` path vocabulary as the projection analyzer.  It is a set
of entries ``(path, mode)``:

* ``mode == "shell"`` — the element at ``path`` is read as its
  boundaries only (``sE``/``eE``);
* ``mode == "text"`` — boundaries plus the character data directly
  inside it;
* ``mode == "whole"`` — the whole subtree.

Every element on a proper prefix of an entry path (a *spine* element) is
kept as a shell, and the item's own boundaries are always kept.  The
empty set means the stream is not read at all; the entry ``((), whole)``
means whole items — the top of the lattice, and the universal fallback.
Union is set union.

A demand also carries a **rooted** bit.  Items are *rooted* when some
consumer observes each item itself — the display, ``count``/``sum``,
FLWOR ``for``, the backward join's incoming results, any stage declaring
nothing — and *content-only* when consumers read them only through what
lies below, as child and descendant steps do.  A filter and plumbing
take their consumer's bit, a stage may declare its input rooted
(``"rooted": True`` in its demand fact), and a union is rooted if either
side is.  The backward join reads its candidates content-only even when
its own output is rooted: a candidate holding no element the incoming
result could close as is hidden at its close, so it is gated on the
result's tag (:func:`_join_demand`).

**The pass.**  :func:`derive_demand` walks a compiled plan backward from
the display (which reads its result stream whole), using each stage's
``static_facts()`` as its transfer function: the optional ``"demand"``
fact when a stage declares one, else its ``"projection"`` fact
(``step`` prefixes the output demand with the step, ``plumbing`` passes
it through, anything else reads whole items).  A plan over a mutable
source gets the universal demand everywhere: updates can re-parent
regions, so no path argument is sound (the same rule as
``derive_projection``).

**The runtime.**  :func:`apply_demand` hands each copying stage
(``DescendantStep``, ``Tee``, ``AncestorJoin``) the demand on its
output(s); the stage compiles it into a :class:`DemandMatcher` and emits
a per-item copy of an event only when a cursor over that matcher keeps
it.  Tees and the join never filter update events, so their brackets —
and with them region ids and the fix map — are those of the unpruned
plan; only element content inside items shrinks.  A descendant step
whose output is content-only (:func:`defers`) goes further: until the
first update event reaches the stage, each match holds back its bracket
and opening tag until it keeps something, and a match that keeps
nothing emits nothing at all, brackets included (see
:mod:`repro.operators.descendant`).  A consumer that reads items only
through their content cannot tell such a match from no match.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..events.model import EE, SE

#: Path-step axes (shared with :mod:`repro.analysis.projection`).
CHILD = "child"
DESCENDANT = "descendant"

#: A path step: (axis, tag); ``tag is None`` means any element.
Step = Tuple[str, Optional[str]]
#: A path: steps from (but excluding) an anchor element.
Path = Tuple[Step, ...]

#: Demand entry modes, weakest first.
SHELL = "shell"
TEXT = "text"
WHOLE = "whole"

#: Matcher verdict states; spine states are the ids from 2 up.
SKIP = 0   # drop this element's whole subtree
KEEP = 1   # keep this element's whole subtree

#: Matcher shapes whose verdict depends on the event kind alone, so the
#: copying stages need no cursor at all.
ITEM_SHELLS = "item-shells"        # nothing inside an item is read
ELEMENT_SHELLS = "element-shells"  # every element's boundaries, no text


def format_path(path: Path) -> str:
    """Render a path XPath-style (``/site//item``)."""
    if not path:
        return "/"
    return "".join(("/" if axis == CHILD else "//") + (tag or "*")
                   for axis, tag in path)


class Demand:
    """What consumers read of each item of one stream (see module doc)."""

    __slots__ = ("entries", "whole", "rooted")

    def __init__(self, entries: Iterable[Tuple[Path, str]] = (),
                 rooted: bool = True) -> None:
        self.entries: FrozenSet[Tuple[Path, str]] = _normalize(entries)
        #: Whole items are read (the universal demand: no pruning).
        self.whole = ((), WHOLE) in self.entries
        #: Some consumer observes each item itself (False: items are read
        #: only through what lies below them).  An unread stream is never
        #: rooted, so :data:`NOTHING` is the identity of the union.
        self.rooted = bool(rooted and self.entries)

    @property
    def empty(self) -> bool:
        """No consumer reads the stream."""
        return not self.entries

    def __or__(self, other: "Demand") -> "Demand":
        if other.empty:
            return self
        if self.empty:
            return other
        rooted = self.rooted or other.rooted
        if self.whole and self.rooted == rooted:
            return self
        if other.whole and other.rooted == rooted:
            return other
        return Demand(self.entries | other.entries, rooted)

    def rooted_as(self, rooted: bool) -> "Demand":
        """The same entries with the given rooted bit."""
        if self.rooted == bool(rooted and self.entries):
            return self
        return Demand(self.entries, rooted)

    def below(self, step: Step) -> "Demand":
        """The input demand of a navigation step whose output reads this.

        Each output item is the step's target element, so the input item
        must keep that element's shell plus everything read inside it.
        The step observes its input items only through those targets, so
        the result is content-only whatever this demand's bit.
        """
        if self.empty:
            return self
        return Demand([((step,), SHELL)]
                      + [((step,) + path, mode)
                         for path, mode in self.entries], rooted=False)

    def describe(self) -> str:
        """``none``, or the rooted bit then ``whole`` or the item shell
        plus the entries read (``rooted: shell, ./a=whole``)."""
        if self.empty:
            return "none"
        bit = "rooted: " if self.rooted else "content-only: "
        if self.whole:
            return bit + "whole"
        parts = ["shell"]
        for path, mode in sorted(self.entries,
                                 key=lambda pm: (len(pm[0]),
                                                 format_path(pm[0]), pm[1])):
            if path == () and mode == SHELL:
                continue
            parts.append("{}={}".format(
                "." + format_path(path) if path else ".", mode))
        return bit + ", ".join(parts)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Demand) and self.entries == other.entries
                and self.rooted == other.rooted)

    def __hash__(self) -> int:
        return hash((self.entries, self.rooted))

    def __repr__(self) -> str:
        return "Demand({})".format(self.describe())


_RANK = {SHELL: 0, TEXT: 1, WHOLE: 2}


def _normalize(entries: Iterable[Tuple[Path, str]]
               ) -> FrozenSet[Tuple[Path, str]]:
    """The least entry set with the same meaning.

    Per path only the strongest mode counts; a shell entry on the spine
    of a longer path, and any entry inside a whole subtree, is implied;
    the item's own shell is implied by any other entry.
    """
    entries = frozenset(entries)
    if len(entries) < 2:
        return entries
    best: Dict[Path, str] = {}
    for path, mode in entries:
        if path not in best or _RANK[mode] > _RANK[best[path]]:
            best[path] = mode
    if best.get(()) == WHOLE:
        return frozenset({((), WHOLE)})
    kept = set()
    for path, mode in best.items():
        implied = False
        for other, omode in best.items():
            if len(other) < len(path) and path[:len(other)] == other \
                    and omode == WHOLE:
                implied = True       # inside a whole subtree
                break
            if (mode == SHELL and len(other) > len(path)
                    and other[:len(path)] == path):
                implied = True       # on the spine of a longer path
                break
        if not implied:
            kept.add((path, mode))
    if len(kept) > 1:
        kept.discard(((), SHELL))
    return frozenset(kept)


NOTHING = Demand()
WHOLE_ITEMS = Demand([((), WHOLE)])
SHELLS = Demand([((), SHELL)])
TEXTS = Demand([((), TEXT)])


class DemandMatcher:
    """A per-item filter automaton for one :class:`Demand`.

    States are small ints: :data:`SKIP`, :data:`KEEP`, and interned spine
    states (sets of pending path positions, like the projection matcher's
    NFA) from 2 up.  ``initial`` is the item root's state; ``trans[s]``
    caches ``tag -> next state`` and ``text[s]`` says whether character
    data directly inside an element in state ``s`` is kept.  Immutable
    apart from its caches, so one matcher is shared by every cursor and
    pickles with the stage that owns it.

    Cursor protocol (see :func:`advance`): a cursor is ``(state, depth,
    parent)``; a spine element pushes one, a skipped or kept subtree is
    one cursor whose ``depth`` says where it ends, so nested events
    inside it cost no push at all.

    ``shape`` names the two demands whose verdict depends on the event
    kind alone (:data:`ITEM_SHELLS`, :data:`ELEMENT_SHELLS`); stages
    filter those without cursors.  None for every other demand.
    """

    def __init__(self, demand: Demand) -> None:
        self.demand = demand
        self.shape: Optional[str] = None
        if demand.entries == SHELLS.entries:
            self.shape = ITEM_SHELLS
        elif (all(mode == SHELL for _, mode in demand.entries)
              and any(path and path[0][0] == DESCENDANT
                      for path, _ in demand.entries)):
            # Shells only, and a leading descendant step keeps every
            # element at every depth on some path's spine.
            self.shape = ELEMENT_SHELLS
        self._paths: Tuple[Tuple[Path, str], ...] = tuple(sorted(
            ((path, mode) for path, mode in demand.entries if path),
            key=lambda pm: ([(a, t or "") for a, t in pm[0]], pm[1])))
        self._ids: Dict[tuple, int] = {}
        self._sets: List[Optional[FrozenSet[Tuple[int, int]]]] = \
            [None, None]
        self.trans: List[Dict[str, int]] = [{}, {}]
        self.text: List[bool] = [False, True]
        root_text = any(path == () and mode == TEXT
                        for path, mode in demand.entries)
        self.initial = self._intern(
            frozenset((pi, 0) for pi in range(len(self._paths))),
            root_text)

    def _intern(self, positions: FrozenSet[Tuple[int, int]],
                text: bool) -> int:
        key = (positions, text)
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self._sets)
            self._sets.append(positions)
            self.trans.append({})
            self.text.append(text)
        return sid

    def step(self, sid: int, tag: str) -> int:
        """The state of a ``tag`` child of an element in state ``sid``."""
        nxt = self.trans[sid].get(tag)
        if nxt is None:
            nxt = self.trans[sid][tag] = self._compute(sid, tag)
        return nxt

    def _compute(self, sid: int, tag: str) -> int:
        pending = set()
        hit = False
        text = False
        paths = self._paths
        for pi, si in self._sets[sid] or ():
            path, mode = paths[pi]
            axis, want = path[si]
            if axis == DESCENDANT:
                pending.add((pi, si))      # descendant steps self-loop
            if want is None or want == tag:
                if si + 1 == len(path):
                    if mode == WHOLE:
                        return KEEP
                    hit = True
                    text = text or mode == TEXT
                else:
                    pending.add((pi, si + 1))
        if not pending and not hit:
            return SKIP
        return self._intern(frozenset(pending), text)

    def __repr__(self) -> str:
        return "DemandMatcher({})".format(self.demand.describe())


def matcher_for(demand: Optional[Demand]) -> Optional[DemandMatcher]:
    """The output filter of a copying stage (None: emit everything).

    An unread output still keeps item shells: the copying stages emit
    their update brackets regardless, and shells keep every item's
    boundaries where the brackets expect them.
    """
    if demand is None or demand.whole:
        return None
    return DemandMatcher(SHELLS if demand.empty else demand)


def defers(demand: Optional[Demand]) -> bool:
    """May a ``//`` step with this output demand hold matches back?

    True when the output is pruned and content-only: a match that keeps
    nothing its consumers read is unobservable, so it need not be
    emitted at all (see :class:`~repro.operators.DescendantStep`).
    """
    return (demand is not None and not demand.whole
            and not demand.rooted)


def advance(m: DemandMatcher, cur: tuple, kind: int, tag: Optional[str],
            depth: int) -> Tuple[bool, tuple]:
    """Feed one sE/eE/cD strictly inside an item to a cursor.

    ``depth`` is the element depth *outside* the event: before an sE's
    increment, after an eE's decrement.  Returns ``(keep, cursor)``.
    """
    s = cur[0]
    if kind == SE:
        if s > KEEP:
            ns = m.trans[s].get(tag)
            if ns is None:
                ns = m.step(s, tag)
            return ns != SKIP, (ns, depth, cur)
        return s == KEEP, cur
    if kind == EE:
        keep = s != SKIP
        if cur[1] == depth:
            cur = cur[2]
        return keep, cur
    return m.text[s], cur


# -- the backward pass -----------------------------------------------------

class PlanDemand:
    """The derived demand of one plan.

    ``outputs[i]`` maps each stream stage ``i`` emits to the demand
    downstream stages (and the display) place on it at that position;
    ``inputs[i]`` maps each stream stage ``i`` reads to the demand the
    stage itself places on it.  ``universal`` plans prune nothing;
    ``reason`` says why.  ``lazy`` lists the descendant steps whose
    content-only output lets them defer levels (:func:`defers`).
    """

    def __init__(self, outputs: List[Dict[int, Demand]],
                 inputs: List[Dict[int, Demand]],
                 sources: Dict[int, Demand],
                 universal: bool = False,
                 reason: Optional[str] = None,
                 lazy: Tuple[int, ...] = ()) -> None:
        self.outputs = outputs
        self.inputs = inputs
        self.lazy = lazy
        #: What the plan reads of every stream it does not produce
        #: itself (the source, or a shared prefix's output streams).
        self.sources = sources
        self.universal = universal
        self.reason = reason

    def to_dict(self) -> dict:
        out: dict = {"universal": self.universal}
        if self.reason:
            out["reason"] = self.reason
        out["lazy"] = list(self.lazy)
        out["stages"] = [
            {"reads": {str(k): d.describe() for k, d in ins.items()},
             "emits": {str(k): d.describe() for k, d in outs.items()}}
            for ins, outs in zip(self.inputs, self.outputs)]
        return out


def _spec(stage) -> dict:
    facts = stage.static_facts()
    spec = facts.get("demand")
    if spec is None:
        spec = facts.get("projection") or {"kind": "content"}
    return spec


def _backward(stages, sinks: Dict[int, Demand]) -> Tuple[
        Dict[int, Demand], List[Dict[int, Demand]],
        List[Dict[int, Demand]], Tuple[int, ...]]:
    """Walk ``stages`` sink-first.

    Returns (source-side demand, outs, ins, the indices of the
    descendant steps that defer levels).

    ``sinks`` is what the pipeline's sink reads (the display: the result
    stream, whole).  ``demand[s]`` is what the stages after the current
    position and the sink read of stream ``s``.  A stage's input demand
    is unioned into what later stages read of the same stream, which is
    exact for consuming stages and for tees (their pass-through is read
    downstream) and conservative otherwise.
    """
    demand: Dict[int, Demand] = dict(sinks)
    outs: List[Dict[int, Demand]] = [{} for _ in stages]
    ins: List[Dict[int, Demand]] = [{} for _ in stages]
    lazy: List[int] = []
    specs = [_spec(stage) for stage in stages]
    producers = {stage.output_id: idx for idx, stage in enumerate(stages)}
    for idx in range(len(stages) - 1, -1, -1):
        stage = stages[idx]
        spec = specs[idx]
        kind = spec.get("kind")
        d_out = demand.get(stage.output_id, NOTHING)
        if kind == "tee":
            src = stage.input_ids[0]
            d_pass = demand.get(src, NOTHING)
            outs[idx] = {src: d_pass, stage.output_id: d_out}
            ins[idx] = {src: d_pass | d_out}
        elif kind == "join":
            outs[idx] = {stage.output_id: d_out}
            ins[idx] = _join_demand(
                spec, d_out,
                _item_tag(stages, specs, producers, spec["incoming"]))
        else:
            outs[idx] = {stage.output_id: d_out}
            ins[idx] = _input_demand(stage, spec, kind, d_out)
            if spec.get("rooted"):
                ins[idx] = {i: d.rooted_as(True)
                            for i, d in ins[idx].items()}
            if (kind == "step" and spec.get("axis") == DESCENDANT
                    and defers(d_out)):
                lazy.append(idx)
        for sid, d in ins[idx].items():
            demand[sid] = demand.get(sid, NOTHING) | d
    return demand, outs, ins, tuple(reversed(lazy))


def _input_demand(stage, spec: dict, kind: Optional[str],
                  d_out: Demand) -> Dict[int, Demand]:
    """One stage's transfer function: output demand -> input demands."""
    inputs = stage.input_ids
    if d_out.empty:
        return {i: NOTHING for i in inputs}
    if kind == "step" and spec.get("axis") in (CHILD, DESCENDANT):
        d = d_out.below((spec["axis"], spec.get("tag")))
        return {i: d for i in inputs}
    if kind == "plumbing":
        return {i: d_out for i in inputs}   # the consumer's bit, too
    if kind == "shell":
        return {i: SHELLS for i in inputs}
    if kind == "text":
        return {i: TEXTS for i in inputs}
    if kind == "filter":
        # An item the filter passes is observed as its consumer observes
        # it, so the filter takes its consumer's rooted bit.
        d = d_out | SHELLS
        for cond in getattr(stage, "conditions", ()):
            d = d | condition_demand(cond)
        d = d.rooted_as(d_out.rooted)
        return {i: d for i in inputs}
    # "content", "opaque", or anything undeclared: whole items.
    return {i: WHOLE_ITEMS for i in inputs}


def _join_demand(spec: dict, d_out: Demand,
                 tag: Optional[str]) -> Dict[int, Demand]:
    """The backward join's input demands, gated on the result tag.

    The join reads the end tags of its incoming items and, inside each
    candidate, the boundaries of the elements an incoming item may close
    as: ``tag`` children for ``..``, ``tag`` descendants for
    ``ancestor::`` (any element when ``tag`` is None).  Those, plus what
    the join's consumers read, are content-only: on an immutable source a
    candidate's ``outcome`` rises only when an incoming item closes inside
    it, and a candidate left at zero is hidden and frozen at its close, so
    one holding no such element is never shown.  The candidate ``//``
    therefore defers (:func:`defers`) and drops it, brackets included —
    unless the consumers read whole candidates, which nothing defers.
    """
    if d_out.empty:
        return {spec["candidates"]: NOTHING, spec["incoming"]: NOTHING}
    axis = CHILD if spec.get("direct") else DESCENDANT
    gate = Demand([(((axis, tag),), SHELL)])
    return {spec["candidates"]: (d_out | gate).rooted_as(False),
            spec["incoming"]: SHELLS}


def _item_tag(stages, specs: List[dict], producers: Dict[int, int],
              sid: int) -> Optional[str]:
    """The element tag every item of stream ``sid`` carries (None: any).

    Walks back through filters and tees to the navigation step producing
    the stream; anything else (the source, a shared prefix's stream, a
    join, a constructor) leaves the tag unknown.  Each stage is visited
    at most once.
    """
    while True:
        idx = producers.get(sid)
        if idx is None:
            return None
        spec = specs[idx]
        kind = spec.get("kind")
        if kind == "step" and spec.get("axis") in (CHILD, DESCENDANT):
            return spec.get("tag")
        if kind not in ("filter", "tee"):
            return None
        sid = stages[idx].input_ids[0]


def condition_demand(cond) -> Demand:
    """What a predicate's inline condition reads of each item.

    The condition chain (``cond.stages`` from ``cond.input_id`` to the
    flag stream ``cond.output_id``) is itself a small plan: run the same
    backward pass over it with the flag stream read whole.
    """
    stages = getattr(cond, "stages", None)
    if not stages:
        return WHOLE_ITEMS
    demand = _backward(stages, {cond.output_id: WHOLE_ITEMS})[0]
    return demand.get(cond.input_id, WHOLE_ITEMS)


def derive_demand(plan, sinks: Optional[Dict[int, Demand]] = None
                  ) -> PlanDemand:
    """Derive the demand on every stream of a compiled plan.

    ``sinks`` overrides what the plan's sink reads (default: the display
    reads the result stream whole); a shared prefix pipeline passes the
    union of its member plans' ``sources`` here.
    """
    if sinks is None:
        sinks = {plan.result_id: WHOLE_ITEMS}
    if plan.mutable_source:
        return PlanDemand(
            [{s.output_id: WHOLE_ITEMS} for s in plan.stages],
            [{i: WHOLE_ITEMS for i in s.input_ids} for s in plan.stages],
            {plan.source_id: WHOLE_ITEMS},
            universal=True,
            reason="mutable update source: sM/sR/sB/sA brackets can "
                   "re-parent regions, so no static path argument is "
                   "sound")
    demand, outs, ins, lazy = _backward(plan.stages, sinks)
    produced = {s.output_id for s in plan.stages}
    sources = {sid: d for sid, d in demand.items()
               if sid not in produced}
    return PlanDemand(outs, ins, sources, lazy=lazy)


def apply_demand(plan, sinks: Optional[Dict[int, Demand]] = None
                 ) -> PlanDemand:
    """Derive the plan's demand and install it on its copying stages.

    Every stage exposing ``prune_to(demands)`` receives the demand on its
    output streams (stream id -> :class:`Demand`); stages without the
    hook are untouched.  Universal plans install nothing.  Returns the
    derivation (also kept as ``plan.demand``).
    """
    pd = derive_demand(plan, sinks)
    plan.demand = pd
    if not pd.universal:
        for stage, outs in zip(plan.stages, pd.outputs):
            prune_to = getattr(stage, "prune_to", None)
            if prune_to is not None:
                prune_to(outs)
    return pd
