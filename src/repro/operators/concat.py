"""Sequence concatenation via insert-before updates (paper Section VI-A).

``(e1, e2)`` must emit all of ``e1``'s result before ``e2``'s, per tuple —
blocking and unbounded when buffered (the worst case is the entire left
sequence arriving after the right one).  The update-stream version is
stateless: each right tuple is wrapped in a mutable region, and an
insert-before update anchored at that region collects the left events,
retroactively moving them ahead no matter the arrival order.

Both inputs are TRANSPARENT: content keeps its original stream numbers
(they are routed into the regions by id), so concatenations chain — the
compiler builds ``(a, b, c)`` right-associatively as ``(a, (b, c))``,
which makes every bracket open before content that must land inside it.

The operator never looks inside an update region of its inputs: their
brackets, content and hide/show/freeze all leave exactly as they came.
It declares that (``passes_regions``), so its wrapper tracks no region —
no per-region state copies, order stamps or parent links for regions it
would forward unchanged anyway — and the routing driver skips the stage
for their events.  Only the inputs' own stream, tuple and top-level
events reach :meth:`Concat.process`.
"""

from __future__ import annotations

from typing import List

from ..events.model import (ET, SE, ST, Event, end_insert_before,
                            end_mutable, end_tuple, start_insert_before,
                            start_mutable, start_tuple)
from ..core.transformer import Context, State, StateTransformer
from ..core.wrapper import UpdatePolicy


class Concat(StateTransformer):
    """Binary tuple-aligned concatenation of two substreams."""

    inert = True
    passes_regions = True

    def __init__(self, ctx: Context, left_id: int, right_id: int,
                 output_id: int) -> None:
        super().__init__(ctx, (left_id, right_id), output_id)
        self.left_id = left_id
        self.right_id = right_id

    def update_policy(self, stream_id: int) -> UpdatePolicy:
        return UpdatePolicy.TRANSPARENT

    def static_facts(self) -> dict:
        facts = super().static_facts()
        facts.update(
            paper_blocking=True,
            generates_updates=("sM", "sB"),
            brackets=(
                {"kind": "sM", "target": self.output_id,
                 "sub": self.right_id, "freeze": "never", "per": "tuple"},
                {"kind": "sB", "target": self.right_id,
                 "sub": self.left_id, "freeze": "never", "per": "tuple"},
            ),
            notes="stateless; reuses the input stream numbers as region "
                  "numbers, one region pair per tuple, never frozen",
        )
        facts["projection"] = {"kind": "plumbing"}
        return facts

    def type_facts(self) -> dict:
        return {"kind": "union"}

    def process(self, e: Event) -> List[Event]:
        # Only the inputs' own events arrive here (region content passes
        # by): markers of the left input are dropped (F1), those of the
        # right one open or close the output's (F2).
        kind = e.kind
        if kind < SE:
            if e.id == self.left_id:
                return []
            out, right = self.output_id, self.right_id
            if kind == ST:
                # Wrap the right tuple in a mutable region and open an
                # insert-before update that will hold the left content.
                return [start_tuple(out), start_mutable(out, right),
                        start_insert_before(right, self.left_id)]
            if kind == ET:
                return [end_insert_before(right, self.left_id),
                        end_mutable(out, right), end_tuple(out)]
            return [Event(kind, out)]  # sS / eS
        # Content keeps its stream number; the display routes it into the
        # open region with that id.
        return [e]
