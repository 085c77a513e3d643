"""Stream duplication (tee / clone).

Backward axes require the stream source to be cloned "immediately after it
is generated" (paper Section VI-E): each event is repeated under a second
substream number, preserving node identities (OIDs), so a later join can
recognize the same node in both branches.  The same operator implements
the duplication a compiler needs whenever one sequence feeds two sub-
expressions (a predicate's condition input, FLWOR key extraction, ...).

Cloning buffers nothing: the copy is emitted immediately after the
original.  Update brackets are forwarded on the original stream *and*
re-emitted (with fresh region numbers) on the copy — the TEE policy of the
generic wrapper.

With a consumer demand installed (:meth:`Tee.prune_to`), each branch is
cut to what its own consumers read: the copy feeding a backward axis's
``//*`` keeps element shells only, and a pass-through no later stage
reads keeps nothing but its stream and tuple boundaries.
"""

from __future__ import annotations

from typing import List

from ..events.model import CD, EE, ES, SE, SS, Event
from ..core.demand import ELEMENT_SHELLS, advance, matcher_for
from ..core.transformer import Context, State, StateTransformer
from ..core.wrapper import UpdatePolicy

#: Branch filter meaning "nobody reads this branch".
_UNREAD = False


class Tee(StateTransformer):
    """Duplicate ``input_id``: pass it through and emit a copy stream."""

    inert = True
    #: Branch filters (None: emit everything; ``_UNREAD``: emit only
    #: stream and tuple boundaries; else a DemandMatcher).
    _pass = None
    _copy = None

    def __init__(self, ctx: Context, input_id: int, copy_id: int) -> None:
        # output_id is the copy; the original keeps its own number.
        super().__init__(ctx, (input_id,), copy_id)
        self.copy_id = copy_id

    def prune_to(self, demands: dict) -> None:
        """Cut each branch to the demand of the stages that read it."""
        branches = []
        for sid in (self.input_ids[0], self.copy_id):
            d = demands.get(sid)
            branches.append(_UNREAD if d is not None and d.empty
                            else matcher_for(d))
        self._pass, self._copy = branches
        if self._pass is not None or self._copy is not None:
            #: Element depth within the current item and one demand
            #: cursor per filtered branch (None between items).
            self.depth = 0
            self.cursors = (None, None)

    def get_state(self) -> State:
        if self._pass is None and self._copy is None:
            return ()
        return (self.depth, self.cursors)

    def set_state(self, state: State) -> None:
        if state:
            self.depth, self.cursors = state

    def update_policy(self, stream_id: int) -> UpdatePolicy:
        return UpdatePolicy.TEE

    def static_facts(self) -> dict:
        facts = super().static_facts()
        facts.update(notes="brackets re-emitted with fresh region numbers "
                           "on the copy (TEE policy)")
        facts["projection"] = {"kind": "plumbing"}
        facts["demand"] = {"kind": "tee"}
        return facts

    def type_facts(self) -> dict:
        return {"kind": "copy"}

    def process(self, e: Event) -> List[Event]:
        if self._pass is None and self._copy is None:
            return [e, e.relabel(self.copy_id)]
        kind = e.kind
        if kind > CD or kind < SE:
            # Boundaries: sS/eS always; sT/eT only on a read branch.
            out = []
            if self._pass is not _UNREAD or kind in (SS, ES):
                out.append(e)
            if self._copy is not _UNREAD or kind in (SS, ES):
                out.append(e.relabel(self.copy_id))
            return out
        d = self.depth
        if kind == SE:
            self.depth = d + 1
        elif kind == EE:
            d = self.depth = d - 1
        pcur, ccur = self.cursors
        keep_pass, pcur = _branch(self._pass, pcur, kind, e.tag, d)
        keep_copy, ccur = _branch(self._copy, ccur, kind, e.tag, d)
        self.cursors = (pcur, ccur)
        if keep_pass:
            return [e, e.relabel(self.copy_id)] if keep_copy else [e]
        return [e.relabel(self.copy_id)] if keep_copy else []


def _branch(m, cur, kind, tag, d: int) -> tuple:
    """One branch's ``(keep, cursor)`` for an sE/eE/cD of the input.

    ``d`` is the element depth outside the event (see
    :func:`~repro.core.demand.advance`); depth 0 is between items.
    """
    if m is None:
        return True, cur
    if m is _UNREAD:
        return False, cur
    if d == 0:
        # A bare top-level cD item, or the item's own boundaries: open
        # or close its cursor.
        if kind == CD:
            return True, cur
        return True, ((m.initial, 0, None)
                      if kind == SE and m.shape is None else None)
    shape = m.shape
    if shape is None:
        return advance(m, cur, kind, tag, d)
    return shape == ELEMENT_SHELLS and kind != CD, cur
