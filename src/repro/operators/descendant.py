"""Descendant steps ``//*`` and ``//tag`` (paper Section VI-C).

``//*`` over recursive data is unbounded when implemented by buffering:
each inner element must be emitted *before* its enclosing element completes
(the paper generates subelements in postorder).  The update-stream trick
makes it bufferless: every event at nesting level ``d`` is emitted once per
enclosing selected element at the moment it is received, and each nested
match is bracketed by an insert-before update that retroactively moves its
copy ahead of the enclosing copy.

Outermost (level-1) matches are emitted *plain*, preceded by an empty
mutable **anchor region**: should a nested match occur, its insert-before
targets the anchor, landing just before the outer copy.  For non-recursive
``//tag`` no nested match ever occurs, so apart from the (tiny, immediately
frozen) anchors the step degenerates to a plain filter — the paper's
"as efficient as /tag" — and composes transparently with FLWOR machinery.

State: the depth counter and one substream id per open nesting level; no
event is ever buffered.  Generated regions are frozen as soon as they
close (Section V), so downstream stages and the display drop their state
immediately; the pooled region ids are re-declared by later siblings.

**Consumer demand.**  With a :class:`~repro.core.demand.Demand` installed
(:meth:`DescendantStep.prune_to`), each level keeps a demand cursor over
its match's subtree and a copy is emitted into a level only when that
level's consumer reads the event (e.g. only ``/location`` and
``/quantity`` under each ``//*`` match of Q3).  The cursors are part of
the wrapper-managed state.  While every open level is inside a skipped
subtree, ``quiet`` holds the depth where that ends, so the common
single-level ``//tag`` case drops the subtree with one flag test per
event.  Two demands need no cursor: shells only (``count()``) copies
nothing into enclosing levels, and every element's shell (a backward
join's candidates) copies no character data.

**Lazy levels.**  When the output is *content-only* (its consumers read
each match only through what lies below it, as a child step does; see
:func:`repro.core.demand.defers`), a match that keeps nothing is
unobservable.  Each level then opens *held*: its anchor or ``sB``
bracket and its opening ``sE`` (the shell) wait until its cursor first
keeps an event.  That event first emits the brackets of the enclosing
levels still held (a nested insert-before needs its target) but not
their shells, then the level's own bracket and shell.  A level that
closes with nothing kept emits nothing at all; one whose bracket went
out for a nested match closes it without a shell.  Positions survive
the delay: a level's shell and copies are the only events labelled with
its copy id, nested regions are placed by their insert-before target
(fixed when the level opened), and the level-1 anchor still precedes
its plain copy.  The step holds one event per open level, never
content.  Deferral only runs until the first update event reaches the
stage; then :meth:`DescendantStep.on_activate` emits every held level
and later levels open eagerly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..events.model import (CD, EE, ES, ET, SE, SS, ST, Event,
                            end_insert_before, end_mutable, freeze,
                            start_insert_before, start_mutable)
from ..core.demand import (ELEMENT_SHELLS, ITEM_SHELLS, KEEP, defers,
                           matcher_for)
from ..core.transformer import Context, State, StateTransformer

_STRUCTURAL = (SS, ES, ST, ET)


class DescendantStep(StateTransformer):
    """``//*`` (``tag=None``) or ``//tag``: proper descendants, postorder.

    The input is a forest stream; for each top-level element the step
    selects every proper descendant (or every descendant with the given
    tag; a match nested in another match counts from its own level).
    Matching the paper, nested results come out in postorder.
    """

    inert = True
    #: Copy element boundaries / character data into the enclosing
    #: levels (off when the output's consumer never reads them).
    _inner = True
    _text = True
    #: Demand matcher driving per-level cursors (general demands only).
    _dm = None
    #: Defer levels (content-only output, no update reached the stage).
    _lazy = False
    #: Held shells, parallel to ``levels`` (see :meth:`prune_to`).
    held: tuple = ()

    def __init__(self, ctx: Context, input_id: int, output_id: int,
                 tag: Optional[str], freeze_regions: bool = True) -> None:
        super().__init__(ctx, (input_id,), output_id)
        self.tag = tag
        self.freeze_regions = freeze_regions
        self.depth = 0
        #: Open selected levels: (copy_id, region_id) — copy_id labels the
        #: level's copy events (output_id when plain), region_id is the
        #: anchor/bracket that nested inserts target.  Ids are freshly
        #: allocated per match (the paper's "new id"): pooled ids would
        #: collide when several update regions are processed concurrently.
        self.levels: Tuple[Tuple[int, int], ...] = ()

    def static_facts(self) -> dict:
        facts = super().static_facts()
        freeze_mode = "always" if self.freeze_regions else "never"
        facts.update(
            state_class="constant",
            generates_updates=(("sM", "sB", "freeze")
                               if self.freeze_regions else ("sM", "sB")),
            brackets=(
                {"kind": "sM", "target": self.output_id, "sub": "dynamic",
                 "freeze": freeze_mode, "per": "match"},
                {"kind": "sB", "target": "dynamic", "sub": "dynamic",
                 "freeze": freeze_mode, "per": "nested", "parent": 0},
            ),
            notes="O(nesting depth) open-level stack; anchors frozen at "
                  "subtree close" if self.freeze_regions else
                  "O(nesting depth) open-level stack",
        )
        facts["projection"] = {"kind": "step", "axis": "descendant",
                               "tag": self.tag}
        return facts

    def type_facts(self) -> dict:
        return {"kind": "step", "axis": "descendant", "tag": self.tag}

    def prune_to(self, demands: dict) -> None:
        """Emit per-level copies only where the output's consumer reads."""
        d = demands.get(self.output_id)
        m = matcher_for(d)
        if m is None:
            return
        lazy = defers(d)
        if m.shape == ITEM_SHELLS and not lazy:
            self._inner = self._text = False
        elif m.shape == ELEMENT_SHELLS and not lazy:
            self._text = False
        else:
            self._dm = m
            self._lazy = lazy
            #: One demand cursor per open level (parallel to ``levels``).
            self.cursors: tuple = ()
            #: While every open level skips: the depth at which the first
            #: skip ends (0: some level may keep the next event).
            self.quiet = 0
            #: Parallel to ``levels`` while some level is held: the held
            #: opening sE of each level whose shell is not out yet (None
            #: once it is); ``()`` when no level is held.
            self.held = ()
            #: While some level is held: how many outermost levels have
            #: their anchor / sB bracket out.
            self.bracketed = 0

    def get_state(self) -> State:
        if self._dm is None:
            return (self.depth, self.levels)
        if self.held:
            return (self.depth, self.levels, self.cursors, self.quiet,
                    self.held, self.bracketed)
        # Nothing held (always, once deferral ended): no extra cells.
        return (self.depth, self.levels, self.cursors, self.quiet)

    def set_state(self, state: State) -> None:
        if self._dm is None:
            self.depth, self.levels = state
        elif len(state) == 4:
            self.depth, self.levels, self.cursors, self.quiet = state
            self.held = ()
        else:
            (self.depth, self.levels, self.cursors, self.quiet,
             self.held, self.bracketed) = state

    def on_activate(self) -> List[Event]:
        """The first update reaches the stage: stop deferring.

        Every held level is emitted now, outermost first, before the
        wrapper handles that update; levels opened later open eagerly.
        A shell emitted while the wrapper replays region content would
        be relabelled into that region's bracket.
        """
        self._lazy = False
        out: List[Event] = []
        for i, shell in enumerate(self.held):
            if shell is not None:
                self._show(i, out)
        return out

    def process(self, e: Event) -> List[Event]:
        if self._dm is not None:
            return self._process_demand(e)
        # Kind tests ordered by frequency (sE/eE/cD dominate); per-level
        # copies go through Event.relabel, the slot-copying fast path.
        kind = e.kind
        if kind == SE:
            levels = self.levels
            out: List[Event] = \
                [e.relabel(cid) for cid, _ in levels] \
                if levels and self._inner else []
            if self.depth >= 1 and (self.tag is None or e.tag == self.tag):
                if not levels:
                    anchor = self.ctx.fresh_id()
                    out.extend((start_mutable(self.output_id, anchor),
                                end_mutable(self.output_id, anchor),
                                e.relabel(self.output_id)))
                    self.levels = ((self.output_id, anchor),)
                else:
                    nid = self.ctx.fresh_id()
                    out.extend((start_insert_before(self.levels[-1][1], nid),
                                e.relabel(nid)))
                    self.levels = self.levels + ((nid, nid),)
            self.depth += 1
            return out
        if kind == EE:
            self.depth -= 1
            levels = self.levels
            if not levels:
                return []
            out = []
            if self._closes_top(e):
                copy_id, region_id = levels[-1]
                self.levels = levels = levels[:-1]
                out.append(e.relabel(copy_id))
                if levels:
                    out.append(end_insert_before(levels[-1][1], copy_id))
                    if self.freeze_regions:
                        out.append(freeze(copy_id))
                elif self.freeze_regions:
                    out.append(freeze(region_id))  # seal the anchor
            if levels and self._inner:
                out.extend(e.relabel(cid) for cid, _ in reversed(levels))
            return out
        if kind == CD:
            levels = self.levels
            return [e.relabel(cid) for cid, _ in levels] \
                if levels and self._text else []
        return [e.relabel(self.output_id)]  # sS/eS/sT/eT

    def _process_demand(self, e: Event) -> List[Event]:
        """:meth:`process` with each level's copies cut to its demand.

        Same brackets, anchors and match structure as the unpruned path;
        only the per-level copies of events *inside* a match that its
        consumer does not read are left out.  A deferring step opens
        each level held (see the module doc) and emits it through
        :meth:`_show` when its cursor first keeps an event.
        """
        kind = e.kind
        quiet = self.quiet
        if quiet:
            # Every open level is inside a skipped subtree ending at
            # depth ``quiet``: nothing is copied until it closes or a
            # nested match opens a level of its own.
            if kind == CD:
                return []
            if kind == SE:
                if self.tag is not None and e.tag != self.tag:
                    self.depth += 1
                    return []
            elif kind == EE:
                if self.depth - 1 > quiet:
                    self.depth -= 1
                    return []
        if kind == SE:
            d = self.depth
            levels = self.levels
            m = self._dm
            out: List[Event] = []
            # ``quiet`` is recomputed on the way: the deepest skip start
            # while every level skips, 0 as soon as one does not.
            quiet = 0
            if levels:
                cursors = self.cursors
                held = self.held
                pushed = None      # copy-on-write: only pushes change it
                for i in range(len(levels)):
                    c = cursors[i]
                    s = c[0]
                    if s > KEEP:
                        ns = m.trans[s].get(e.tag)
                        if ns is None:
                            ns = m.step(s, e.tag)
                        if pushed is None:
                            pushed = list(cursors)
                        pushed[i] = (ns, d, c)
                        if ns:
                            if held and held[i] is not None:
                                self._show(i, out)
                                held = self.held
                            out.append(e.relabel(levels[i][0]))
                            quiet = -1
                        elif quiet >= 0:
                            quiet = d
                    elif s:
                        # A KEEP cursor was pushed by a kept sE, which
                        # already emitted a held level.
                        out.append(e.relabel(levels[i][0]))
                        quiet = -1
                    elif quiet >= 0 and c[1] > quiet:
                        quiet = c[1]
                if pushed is not None:
                    self.cursors = tuple(pushed)
            if d >= 1 and (self.tag is None or e.tag == self.tag):
                if not levels:
                    level = (self.output_id, self.ctx.fresh_id())
                else:
                    nid = self.ctx.fresh_id()
                    level = (nid, nid)
                if self._lazy:
                    held = self.held
                    if not held:
                        held = (None,) * len(levels)
                        self.bracketed = len(levels)
                    self.held = held + (e,)
                elif not levels:
                    out.extend((start_mutable(self.output_id, level[1]),
                                end_mutable(self.output_id, level[1]),
                                e.relabel(self.output_id)))
                else:
                    out.extend((start_insert_before(levels[-1][1], nid),
                                e.relabel(nid)))
                self.levels = levels + (level,)
                self.cursors = self.cursors + ((m.initial, d, None),)
                quiet = 0
            self.depth = d + 1
            self.quiet = quiet if quiet > 0 else 0
            return out
        if kind == EE:
            d = self.depth = self.depth - 1
            levels = self.levels
            if not levels:
                return []
            out = []
            cursors = self.cursors
            if self._closes_top(e):
                copy_id, region_id = levels[-1]
                top = len(levels) - 1
                self.levels = levels = levels[:-1]
                cursors = cursors[:-1]
                shell = None
                bracketed = True
                held = self.held
                if held:
                    shell = held[top]
                    bracketed = top < self.bracketed
                    if bracketed:
                        self.bracketed = top
                    held = held[:-1]
                    self.held = held if any(
                        h is not None for h in held) else ()
                if shell is None:
                    out.append(e.relabel(copy_id))
                # No bracket out: neither the level nor a nested one
                # kept anything, so the match leaves no trace.
                if bracketed:
                    if levels:
                        out.append(end_insert_before(levels[-1][1],
                                                     copy_id))
                        if self.freeze_regions:
                            out.append(freeze(copy_id))
                    elif self.freeze_regions:
                        out.append(freeze(region_id))  # seal the anchor
            quiet = 0
            if levels:
                # An eE is kept only where its sE was, so no held level
                # can keep one.
                popped = None      # copy-on-write: only pops change it
                for i in range(len(levels) - 1, -1, -1):
                    c = cursors[i]
                    if c[0]:
                        out.append(e.relabel(levels[i][0]))
                    if c[1] == d:
                        if popped is None:
                            popped = list(cursors)
                        c = popped[i] = c[2]
                    if c[0]:
                        quiet = -1
                    elif quiet >= 0 and c[1] > quiet:
                        quiet = c[1]
                if popped is not None:
                    cursors = tuple(popped)
            self.cursors = cursors
            self.quiet = quiet if quiet > 0 else 0
            return out
        if kind == CD:
            levels = self.levels
            if not levels:
                return []
            text = self._dm.text
            if self.held:
                out = []
                for i, c in enumerate(self.cursors):
                    if text[c[0]]:
                        held = self.held
                        if held and held[i] is not None:
                            self._show(i, out)
                        out.append(e.relabel(levels[i][0]))
                return out
            return [e.relabel(cid) for (cid, _), c in
                    zip(levels, self.cursors) if text[c[0]]]
        return [e.relabel(self.output_id)]  # sS/eS/sT/eT

    def _show(self, i: int, out: List[Event]) -> None:
        """Emit held level ``i``: the enclosing brackets still held, its
        own bracket, then its shell (enclosing shells stay held)."""
        levels = self.levels
        b = self.bracketed
        while b <= i:
            if b:
                out.append(start_insert_before(levels[b - 1][1],
                                               levels[b][0]))
            else:
                anchor = levels[0][1]
                out.extend((start_mutable(self.output_id, anchor),
                            end_mutable(self.output_id, anchor)))
            b += 1
        self.bracketed = b
        held = list(self.held)
        out.append(held[i].relabel(levels[i][0]))
        held[i] = None
        self.held = tuple(held) if any(
            h is not None for h in held) else ()

    def _closes_top(self, e: Event) -> bool:
        """Does this eE close the innermost open selected level?

        Elements nest LIFO; a closing tag that passes the tag test at depth
        >= 1 necessarily closes the element that opened the top level (any
        deeper matches have already closed), mirroring the sE test.  For
        ``//*`` the level count equals the depth, which double-checks it.
        """
        if self.depth < 1:
            return False
        if self.tag is not None:
            return e.tag == self.tag
        return len(self.levels) == self.depth

    def __repr__(self) -> str:
        return "DescendantStep(//{}: {} -> {})".format(
            self.tag if self.tag is not None else "*",
            self.input_ids[0], self.output_id)

