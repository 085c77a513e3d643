"""Update-application semantics: the region tree.

Section III of the paper defines update streams operationally ("after the
updates are applied, the result is equivalent to ...").  This module makes
that semantics executable.  A :class:`RegionTree` consumes a global event
stream one event at a time and maintains the *materialized* document as a
tree of regions:

* a **region** is a container introduced by ``sU(i, j) .. eU(i, j)``
  (mutable/replace/insert-before/insert-after) or by the start of a stream;
* content events with number ``j`` are appended to the open region ``j``;
* ``sR(i, j)`` replaces the content of the latest region numbered ``i`` with
  the new region ``j`` (region ``i`` keeps its place, so later inserts that
  target ``i`` still anchor correctly — the paper's "w" example);
* ``sB``/``sA`` splice the new region just before/after the target region;
* ``hide``/``show`` toggle a region's visibility;
* ``freeze`` closes a region: a hidden frozen region is discarded outright,
  a visible one is dissolved into its parent (Section V's irrevocable,
  buffer-free decision).

An update id may be reused; only the latest region with that id is active
(``registry`` is latest-wins).  Updates that target unknown or frozen ids
are ignored, which also ignores their bracketed content.

Region content is a doubly-linked chain of *runs* (consecutive plain
events) and child regions, so appends and region-anchored splices are O(1).

The same machinery serves three roles: the engine's result display, the
eager oracle ``apply_updates`` used by tests, and the memory accounting
(live regions / buffered events) reported by the benchmark harness.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from ..events.model import (CD, EA, EB, EE, EM, ER, ES, ET, FREEZE, HIDE, SA,
                            SB, SE, SHOW, SM, SR, SS, ST, Event)


class _Link:
    """A node of the intrusive doubly-linked content chain."""

    __slots__ = ("prev", "next")

    def __init__(self) -> None:
        self.prev: Optional["_Link"] = None
        self.next: Optional["_Link"] = None


class Run(_Link):
    """A maximal run of consecutive plain events inside one region."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Event] = []


class Region(_Link):
    """A container in the region tree (stream root or update region)."""

    __slots__ = ("id", "hidden", "frozen", "head", "tail")

    def __init__(self, id: int) -> None:
        super().__init__()
        self.id = id
        self.hidden = False
        self.frozen = False
        self.head = _Link()
        self.tail = _Link()
        self.head.next = self.tail
        self.tail.prev = self.head

    # -- chain editing ------------------------------------------------------

    def append_event(self, e: Event) -> None:
        last = self.tail.prev
        if isinstance(last, Run):
            last.events.append(e)
        else:
            run = Run()
            run.events.append(e)
            _insert_before(self.tail, run)

    def append_child(self, child: "Region") -> None:
        _insert_before(self.tail, child)

    def clear_content(self) -> List["Region"]:
        """Detach all content; return the child regions that were dropped."""
        dropped: List[Region] = []
        node = self.head.next
        while node is not self.tail:
            if isinstance(node, Region):
                dropped.append(node)
                dropped.extend(node.all_subregions())
            node = node.next
        self.head.next = self.tail
        self.tail.prev = self.head
        return dropped

    def all_subregions(self) -> List["Region"]:
        """Every region strictly inside this one."""
        out: List[Region] = []
        node = self.head.next
        while node is not self.tail:
            if isinstance(node, Region):
                out.append(node)
                out.extend(node.all_subregions())
            node = node.next
        return out

    def iter_events(self) -> Iterator[Event]:
        """Flatten visible content into the event sequence it denotes."""
        node = self.head.next
        while node is not self.tail:
            if isinstance(node, Run):
                yield from node.events
            elif isinstance(node, Region):
                if not node.hidden:
                    yield from node.iter_events()
            node = node.next

    def dissolve(self) -> None:
        """Splice this region's content into its place in the parent chain.

        After dissolving, the region object itself is unlinked; its content
        chain takes its position.  O(1).
        """
        first = self.head.next
        last = self.tail.prev
        if first is self.tail:
            _unlink(self)
            return
        prev, nxt = self.prev, self.next
        assert prev is not None and nxt is not None
        prev.next = first
        first.prev = prev
        nxt.prev = last
        last.next = nxt
        self.prev = self.next = None

    def counts(self) -> Dict[str, int]:
        """(regions, events) contained in this region, recursively."""
        regions = 0
        events = 0
        node = self.head.next
        while node is not self.tail:
            if isinstance(node, Run):
                events += len(node.events)
            elif isinstance(node, Region):
                regions += 1
                sub = node.counts()
                regions += sub["regions"]
                events += sub["events"]
            node = node.next
        return {"regions": regions, "events": events}

    def __repr__(self) -> str:
        return "Region(id={}, hidden={}, frozen={})".format(
            self.id, self.hidden, self.frozen)


def _insert_before(anchor: _Link, node: _Link) -> None:
    prev = anchor.prev
    assert prev is not None
    prev.next = node
    node.prev = prev
    node.next = anchor
    anchor.prev = node


def _insert_after(anchor: _Link, node: _Link) -> None:
    nxt = anchor.next
    assert nxt is not None
    nxt.prev = node
    node.next = nxt
    node.prev = anchor
    anchor.next = node


def _unlink(node: _Link) -> None:
    prev, nxt = node.prev, node.next
    if prev is not None:
        prev.next = nxt
    if nxt is not None:
        nxt.prev = prev
    node.prev = node.next = None


class RegionTree:
    """Materializes an update stream into its denoted document.

    Args:
        result_ids: stream numbers whose content is materialized.  When
            None, every stream opened with sS (plus tuple streams appearing
            via bare sT) is tracked — the mode used by the eager oracle.
        keep_tuples: keep sT/eT markers in flattened output (default they
            are erased, as the display prints tuple contents only).
    """

    def __init__(self, result_ids: Optional[Sequence[int]] = None,
                 keep_tuples: bool = False) -> None:
        self._track_all = result_ids is None
        self._wanted = set(result_ids or ())
        self.keep_tuples = keep_tuples
        self.roots: Dict[int, Region] = {}
        self.root_order: List[int] = []
        self.registry: Dict[int, Region] = {}
        self.open: Dict[int, Region] = {}
        self.ignored_updates = 0
        #: Live totals of what :meth:`stats` walks the tree for (regions
        #: attached under a root, roots included; buffered events),
        #: maintained on every append, open, clear, discard and dissolve
        #: so the display can sample its peaks in O(1).
        self.n_regions = 0
        self.n_events = 0
        for rid in self._wanted:
            self._open_root(rid)

    # -- event intake --------------------------------------------------------

    def _open_root(self, rid: int) -> Region:
        self.n_regions += 1
        root = Region(rid)
        self.roots[rid] = root
        self.root_order.append(rid)
        self.registry[rid] = root
        self.open[rid] = root
        return root

    def process(self, e: Event) -> None:
        """Consume one event, updating the materialized document."""
        kind = e.kind
        if kind == SS:
            if e.id not in self.roots and (self._track_all
                                           or e.id in self._wanted):
                self._open_root(e.id)
            return
        if kind == ES:
            return
        if kind in (SE, EE, CD):
            region = self.open.get(e.id)
            if region is not None:
                region.append_event(e)
                self.n_events += 1
            return
        if kind in (ST, ET):
            region = self.open.get(e.id)
            if region is None and self._track_all and kind == ST:
                # A tuple stream created on the fly (e.g. concatenation
                # output) has no sS; auto-track it in oracle mode.
                region = self._open_root(e.id)
            if region is not None and self.keep_tuples:
                region.append_event(e)
                self.n_events += 1
            return
        if kind == SM:
            target = self.open.get(e.id)
            if target is None:
                self.ignored_updates += 1
                return
            region = Region(e.sub)  # type: ignore[arg-type]
            target.append_child(region)
            self.n_regions += 1
            self.registry[e.sub] = region  # type: ignore[index]
            self.open[e.sub] = region  # type: ignore[index]
            return
        if kind in (SR, SB, SA):
            target = self.registry.get(e.id)
            if target is None or target.frozen:
                self.ignored_updates += 1
                return
            region = Region(e.sub)  # type: ignore[arg-type]
            self.n_regions += 1
            if kind == SR:
                self._clear(target)
                target.append_child(region)
            elif kind == SB:
                _insert_before(target, region)
            else:
                _insert_after(target, region)
            self.registry[e.sub] = region  # type: ignore[index]
            self.open[e.sub] = region  # type: ignore[index]
            return
        if kind in (EM, ER, EB, EA):
            self.open.pop(e.sub, None)
            return
        if kind == HIDE:
            region = self.registry.get(e.id)
            if region is not None and not region.frozen:
                region.hidden = True
            return
        if kind == SHOW:
            region = self.registry.get(e.id)
            if region is not None and not region.frozen:
                region.hidden = False
            return
        if kind == FREEZE:
            self._freeze(e.id)
            return

    def process_all(self, events: Sequence[Event]) -> None:
        for e in events:
            self.process(e)

    # -- freezing / pruning ---------------------------------------------------

    def _freeze(self, rid: int) -> None:
        region = self.registry.get(rid)
        if region is None or region.frozen:
            return
        region.frozen = True
        if rid in self.roots:
            return  # stream roots are never dissolved
        del self.registry[rid]
        self.open.pop(rid, None)
        self.n_regions -= 1
        if region.hidden:
            self._clear(region)
            _unlink(region)
        else:
            # Frozen subregions inside keep their registry entries only if
            # still reachable; dissolving preserves flattened output.
            region.dissolve()

    def _clear(self, region: Region) -> None:
        """Drop a region's content, keeping the live totals exact."""
        gone = region.counts()
        self.n_regions -= gone["regions"]
        self.n_events -= gone["events"]
        for dropped in region.clear_content():
            self._purge(dropped)

    def _purge(self, region: Region) -> None:
        """Remove a discarded region from the registries."""
        if self.registry.get(region.id) is region:
            del self.registry[region.id]
        if self.open.get(region.id) is region:
            del self.open[region.id]

    # -- output ----------------------------------------------------------------

    def flatten(self, relabel: bool = True) -> List[Event]:
        """The plain event sequence the update stream denotes.

        Events are relabeled to their root stream's number (the paper's
        worked example: applying the updates yields cD(0, ...) events).
        """
        out: List[Event] = []
        for rid in self.root_order:
            root = self.roots[rid]
            if root.hidden:
                continue
            for e in root.iter_events():
                if not self.keep_tuples and e.kind in (ST, ET):
                    continue
                out.append(e.relabel(rid) if relabel and e.id != rid else e)
        return out

    def stats(self) -> Dict[str, int]:
        """Buffering metrics: live regions and buffered events.

        Walks the whole tree — the reference the live ``n_regions`` /
        ``n_events`` totals are tested against.
        """
        regions = 0
        events = 0
        for root in self.roots.values():
            c = root.counts()
            regions += 1 + c["regions"]
            events += c["events"]
        return {"regions": regions, "events": events,
                "registry": len(self.registry), "open": len(self.open)}


def apply_updates(events: Sequence[Event],
                  result_ids: Optional[Sequence[int]] = None,
                  keep_tuples: bool = False) -> List[Event]:
    """Eagerly apply every update in ``events``; return the plain stream.

    This is the oracle for the paper's lazy-propagation machinery: the
    final display of any pipeline must equal ``apply_updates`` of its
    output stream.
    """
    tree = RegionTree(result_ids=result_ids, keep_tuples=keep_tuples)
    tree.process_all(events)
    return tree.flatten()
