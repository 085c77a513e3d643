"""The query result display: the end of every pipeline.

The display is the one component the paper exempts from the generic
wrapper: it has explicit code for every event kind, applying updates to
the displayed text — removing, inserting, and replacing portions of the
answer as retroactive updates arrive.  Here the displayed document is a
:class:`~repro.core.regions.RegionTree`; snapshots can be taken at any time
(the continuous display the introduction describes), and the final snapshot
is the query answer.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..events.model import Event
from ..xmlio.writer import write_events
from .regions import RegionTree


class Display:
    """Materializes the result stream, supporting continuous snapshots.

    Args:
        result_id: stream number of the query's final output.
        on_change: optional callback invoked with (event, display) after
            every consumed event — used by examples to show the display
            evolving (books moving, counters being replaced, ...).
        track_snapshots: when True, record a text snapshot after every
            event that changed the rendering (memory-heavy; for tests
            and small demos only).
    """

    def __init__(self, result_id: int,
                 on_change: Optional[Callable[[Event, "Display"],
                                              None]] = None,
                 track_snapshots: bool = False) -> None:
        self.result_id = result_id
        self.tree = RegionTree(result_ids=[result_id])
        self.on_change = on_change
        self.track_snapshots = track_snapshots
        self.snapshots: List[str] = []
        self.events_seen = 0
        self.peak_regions = 0
        self.peak_events = 0
        self._text_cache: Optional[str] = None

    def process(self, e: Event) -> None:
        self.events_seen += 1
        self.tree.process(e)
        self._text_cache = None
        if self.track_snapshots:
            text = self.text()
            if not self.snapshots or self.snapshots[-1] != text:
                self.snapshots.append(text)
        if self.on_change is not None:
            self.on_change(e, self)
        if self.events_seen % 256 == 0:
            self._sample_peaks()

    def finish(self) -> None:
        self._sample_peaks()

    def _sample_peaks(self) -> None:
        tree = self.tree
        if tree.n_regions > self.peak_regions:
            self.peak_regions = tree.n_regions
        if tree.n_events > self.peak_events:
            self.peak_events = tree.n_events

    # -- snapshots -------------------------------------------------------------

    def events(self) -> List[Event]:
        """The plain event sequence currently displayed."""
        return self.tree.flatten()

    def text(self) -> str:
        """The currently displayed answer as XML/text.

        Cached between events: continuous-mode consumers poll ``text()``
        after every fed event, and most events do not reach the display —
        only :meth:`process` invalidates, so idle polls cost a attribute
        check instead of a full flatten + render.
        """
        if self._text_cache is None:
            self._text_cache = write_events(self.events())
        return self._text_cache

    def stats(self) -> dict:
        s = self.tree.stats()
        s["peak_regions"] = max(self.peak_regions, s["regions"])
        s["peak_events"] = max(self.peak_events, s["events"])
        return s

    def __repr__(self) -> str:
        return "Display(result_id={}, {} events seen)".format(
            self.result_id, self.events_seen)
