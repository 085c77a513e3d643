"""Multi-query common-prefix sharing (paper Section I, serving scenario).

The nine benchmark queries mostly walk the same leading axes over the
same document: five of them open with ``//item``, four of those filter
it with ``[location="Albania"]``, and both DBLP queries open with
``//inproceedings``.  The PR-2 multiplexer still evaluates each of
those identical leading chains once *per query*.  This module factors
them out:

1. each unique query's AST is decomposed into a *chain* — the leading
   Step/Filter spine over the source — plus the wrapper expressions
   around it (aggregates, element constructors, FLWOR clauses);
2. the chains' shareable prefixes (leading forward links only) are
   interned into a trie; every trie node crossed by two or more queries
   is *materialized*;
3. all materialized nodes compile into ONE shared prefix pipeline over
   one shared :class:`~repro.core.transformer.Context` — nested nodes
   chain off their parent's output stream, sibling consumers of a
   stream are fed through explicit :class:`~repro.operators.Tee` copies
   (step operators consume their input);
4. each shared query's *suffix* (remaining links plus wrappers) is
   rebuilt over an :class:`~repro.xquery.ast.Prebound` leaf carrying
   its attachment node's output stream and compiled into its own
   member pipeline.

At run time a :class:`SharedGroup` feeds each input batch through the
prefix pipeline once, collects the complete output stream, and hands
every member pipeline the slice of it that member can observe.  The
cut is exactly a stage boundary of the monolithic plan: everything a
member's suffix stages would have seen in an independent run arrives
in the same order (the prefix driver's depth-first LIFO propagation is
the same one the monolithic pipeline uses), so results are
byte-identical by construction — ``tests/test_fusion.py`` holds this
differentially.

Ordering of the backward-axis clone: queries with one parent/ancestor
step need a verbatim copy of the source for their candidate branch.
The shared clone :class:`~repro.operators.Tee` is the *first* prefix
stage; because Tee emits the original first and the driver is
depth-first, the clone copy of an input event reaches the collector
only after the event's entire per-branch cascade — reproducing the
monolithic layout where the clone branch's stages sit after every
main-branch stage ("an incoming element's events always reach the
join before their clone copies").

Exclusions keep the equivalence argument simple: queries with more
than one backward step (the single clone stream can be consumed only
once), ``ignore_updates`` queries (their stripper would strip the
prefix-*generated* update brackets, which carry real content), and
whole executors running under sanitize / always-active / telemetry
(those observers are defined over per-query stage boundaries).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.demand import NOTHING, Demand, apply_demand
from ..core.pipeline import Pipeline
from ..core.transformer import Context
from ..core.wrapper import _FIRST_UPDATE
from ..events.model import FREEZE
from ..operators import Tee
from ..xquery import ast
from ..xquery.compiler import Compiler, Plan

_FREEZE = int(FREEZE)

#: Input events per prefix pass.  The prefix's output stream (roughly
#: 3x the input: the clone copy, the relabeled chain streams, the
#: region brackets) is materialized per chunk, so the chunk size bounds
#: the working set — one huge batch would thrash the cache that the
#: monolithic pipelines keep warm by never materializing intermediates.
CHUNK_EVENTS = 4096

__all__ = [
    "QueryChain",
    "SharedGroup",
    "build_shared_groups",
    "describe_sharing",
    "extract_chain",
]


# -- chain extraction ---------------------------------------------------------


class QueryChain:
    """A query decomposed around its leading path chain.

    Attributes:
        wrappers: expression nodes around the chain, outermost first
            (FunCall aggregates, ElementCtor, the FLWOR whose binding
            sequence the chain is).
        links: the Step/Filter spine, source side first.
        shareable: how many leading links are shareable (the run of
            forward steps and filters before the first backward step).
    """

    def __init__(self, wrappers: List[ast.Expr], links: List[ast.Expr],
                 shareable: int) -> None:
        self.wrappers = wrappers
        self.links = links
        self.shareable = shareable

    def suffix_expr(self, depth: int, stream_id: int) -> ast.Expr:
        """Rebuild the query with links[:depth] replaced by a Prebound.

        Remaining links are re-folded over the Prebound leaf and the
        wrapper spine is re-wrapped outside-in.  Only fresh nodes are
        allocated on the rebuilt spine — condition/where/return
        subtrees are shared by reference (the compiler never mutates
        the AST, so sharing is safe; parse_cached relies on the same
        property).
        """
        node: ast.Expr = ast.Prebound(stream_id)
        for link in self.links[depth:]:
            if isinstance(link, ast.Step):
                node = ast.Step(node, link.axis, link.tag)
            else:
                node = ast.Filter(node, link.cond)
        for w in reversed(self.wrappers):
            if isinstance(w, ast.FunCall):
                node = ast.FunCall(w.name, [node], w.literal)
            elif isinstance(w, ast.ElementCtor):
                node = ast.ElementCtor(w.tag, [node])
            else:  # FLWOR: the chain was its binding sequence
                node = ast.FLWOR(w.var, node, w.where, w.order_key,
                                 w.descending, w.ret, w.lets)
        return node


def extract_chain(expr: ast.Expr) -> Optional[QueryChain]:
    """Decompose ``expr``; None when no Source-rooted chain exists."""
    wrappers: List[ast.Expr] = []
    cur = expr
    while True:
        if isinstance(cur, ast.FunCall) and len(cur.args) == 1:
            wrappers.append(cur)
            cur = cur.args[0]
        elif isinstance(cur, ast.ElementCtor) and len(cur.content) == 1:
            wrappers.append(cur)
            cur = cur.content[0]
        elif isinstance(cur, ast.FLWOR):
            wrappers.append(cur)
            cur = cur.seq
            break  # below the binding sequence there is no wrapper
        else:
            break
    rev: List[ast.Expr] = []
    while isinstance(cur, (ast.Step, ast.Filter)):
        rev.append(cur)
        cur = cur.base
    if not isinstance(cur, ast.Source):
        return None
    links = list(reversed(rev))
    shareable = 0
    for link in links:
        if isinstance(link, ast.Step) and link.axis in (ast.PARENT,
                                                        ast.ANCESTOR):
            break
        if isinstance(link, ast.Filter) and ast.uses_backward_axes(
                link.cond):
            break
        shareable += 1
    return QueryChain(wrappers, links, shareable)


def _backward_count(expr: ast.Expr) -> int:
    return sum(1 for n in expr.walk()
               if isinstance(n, ast.Step)
               and n.axis in (ast.PARENT, ast.ANCESTOR))


def _link_key(link: ast.Expr) -> tuple:
    if isinstance(link, ast.Step):
        return ("step", link.axis, link.tag)
    return ("filter", repr(link.cond))


def _fold_link(link: ast.Expr, stream_id: int) -> ast.Expr:
    """The link applied to an already-materialized stream."""
    base = ast.Prebound(stream_id)
    if isinstance(link, ast.Step):
        return ast.Step(base, link.axis, link.tag)
    return ast.Filter(base, link.cond)


def _format_link(link: ast.Expr) -> str:
    if isinstance(link, ast.Step):
        if link.axis == ast.CHILD:
            return "/" + (link.tag or "*")
        if link.axis == ast.DESCENDANT:
            return "//" + (link.tag or "*")
        if link.axis == ast.TEXT:
            return "/text()"
    return "[{!r}]".format(link.cond)


# -- the prefix trie ----------------------------------------------------------


class PrefixNode:
    """One interned prefix: the link chain from the root to here."""

    def __init__(self, link: Optional[ast.Expr],
                 parent: Optional["PrefixNode"], depth: int) -> None:
        self.link = link
        self.parent = parent
        self.depth = depth
        self.children: Dict[tuple, "PrefixNode"] = {}
        self.queries: List[int] = []   # indices passing through
        self.members: List[int] = []   # indices attached here
        self.stream: Optional[int] = None  # output stream, once compiled

    @property
    def materialized(self) -> bool:
        """Evaluated once in the shared pipeline (crossed by >= 2)."""
        return self.depth >= 1 and len(self.queries) >= 2

    def path(self) -> str:
        parts: List[str] = []
        node: Optional["PrefixNode"] = self
        while node is not None and node.link is not None:
            parts.append(_format_link(node.link))
            node = node.parent
        return "".join(reversed(parts))


def _build_trie(chains: Dict[int, QueryChain]) -> PrefixNode:
    root = PrefixNode(None, None, 0)
    for i in sorted(chains):
        ch = chains[i]
        node = root
        for link in ch.links[:ch.shareable]:
            key = _link_key(link)
            child = node.children.get(key)
            if child is None:
                child = PrefixNode(link, node, node.depth + 1)
                node.children[key] = child
            child.queries.append(i)
            node = child
    return root


def _assign_members(root: PrefixNode,
                    chains: Dict[int, QueryChain]) -> Dict[int,
                                                           PrefixNode]:
    """Attach each query at its deepest materialized prefix node."""
    attach: Dict[int, PrefixNode] = {}
    for i in sorted(chains):
        ch = chains[i]
        node = root
        for link in ch.links[:ch.shareable]:
            nxt = node.children.get(_link_key(link))
            if nxt is None or not nxt.materialized:
                break
            node = nxt
        if node is not root:
            attach[i] = node
            node.members.append(i)
    return attach


# -- shared group compilation -------------------------------------------------


class _FeedClass:
    """Members with identical input-stream sets share one feed slice."""

    __slots__ = ("keep_ids", "slots")

    def __init__(self, keep_ids: frozenset, slots: List[int]) -> None:
        self.keep_ids = keep_ids
        self.slots = slots

    def __getstate__(self) -> Tuple[frozenset, List[int]]:
        return (self.keep_ids, self.slots)

    def __setstate__(self, state: Tuple[frozenset, List[int]]) -> None:
        self.keep_ids, self.slots = state


class RoutingSink:
    """Prefix sink that routes output straight into per-class feeds.

    A member observes the data events of its static input streams (the
    attachment node's output, plus the shared clone for backward-axis
    members).  Region streams are attributed dynamically: a start
    bracket ``sX(id=p, sub=r)`` says region ``r``'s content rides on
    parent stream ``p``, so ``r`` inherits ``p``'s consumer classes the
    moment the bracket appears (nested regions chain the same way).
    Update-control events route by the same keys the pipeline router
    uses — parent id for starts, ``sub`` for ends, id for freezes — and
    anything unattributable falls back to every class while a bracket
    is open (sinks ignore foreign streams, so over-delivery is safe;
    under-delivery never happens because content is always introduced
    by a bracket on an already-routed stream).  Everything else —
    chiefly the full-document clone stream for members that never
    consume it, and sibling-branch region content — is dropped here,
    before any member pipeline pays per-event dispatch for it.
    Routing as the events exit the last prefix stage avoids
    materializing the combined output stream at all.

    Adopted region entries stay in the routing table for the group's
    lifetime (content may trail the region's freeze); the table grows
    by one small entry per region, mirroring the context fix-map.
    """

    def __init__(self, route: Dict[int, tuple], n_classes: int) -> None:
        #: stream id -> class positions observing it (static streams
        #: plus dynamically adopted region streams).
        self.route = route
        self.feeds: List[list] = [[] for _ in range(n_classes)]
        #: Open update-bracket depth; persists across chunks and
        #: batches (a bracket may span a batch cut).  Only consulted
        #: for the unattributable fallback.
        self.depth = 0
        self.events_out = 0

    def process(self, e) -> None:
        self.events_out += 1
        kind = e.kind
        route = self.route
        feeds = self.feeds
        if kind < _FIRST_UPDATE:
            hit = route.get(e.id)
            if hit is not None:
                for ci in hit:
                    feeds[ci].append(e)
            elif self.depth:
                for f in feeds:
                    f.append(e)
            return
        if kind < _FREEZE:
            if kind & 1:    # sM/sR/sB/sA: region e.sub rides on e.id
                self.depth += 1
                hit = route.get(e.id)
                if hit is not None and e.sub is not None:
                    route[e.sub] = hit
            else:           # eM/eR/eB/eA: routed downstream by e.sub
                self.depth -= 1
                hit = route.get(e.sub)
        else:               # freeze / hide / fix: routed by e.id
            hit = route.get(e.id)
        if hit is None:
            for f in feeds:
                f.append(e)
        else:
            for ci in hit:
                feeds[ci].append(e)

    def clear(self) -> None:
        for f in self.feeds:
            del f[:]


class SharedGroup:
    """One shared prefix pipeline plus the member runs it feeds.

    The group owns quarantine granularity (ISSUE acceptance): a member
    pipeline failure detaches exactly that member; a *prefix* failure
    detaches every member, because all of them consume its output.
    """

    def __init__(self, pipeline: Pipeline, sink: RoutingSink,
                 members: List[tuple], classes: List[_FeedClass],
                 clone_id: Optional[int], prefixes: List[str]) -> None:
        self.pipeline = pipeline
        self.sink = sink
        self.members = members  # [(run index, QueryRun)], index order
        self.member_indices = [i for i, _ in members]
        self.classes = classes
        self.clone_id = clone_id
        self.prefixes = prefixes  # materialized prefix paths (describe)
        self._class_of = {s: ci for ci, cls in enumerate(classes)
                          for s in cls.slots}
        self.live = set(self.member_indices)
        self.dead = False
        #: Optional group-level projection mask (the union of member
        #: *full-plan* projections — suffix plans must not be projected
        #: individually, their paths are relative to the prefix).
        self.mask = None
        self.events_fed = 0

    # -- feeding --------------------------------------------------------------

    def _fail_all(self, exc: BaseException) -> List[tuple]:
        self.dead = True
        failed = sorted(self.live)
        self.live.clear()
        return [(i, exc) for i in failed]

    def feed_batch(self, events, quarantine: bool = True) -> List[tuple]:
        """One input batch through prefix then members.

        Returns the newly failed members as ``[(run index, exc), ...]``
        (empty on the happy path).  With ``quarantine=False`` the first
        exception propagates instead.
        """
        if self.dead or not self.live:
            return []
        if self.mask is not None:
            events = self.mask.filter(events)
        if not isinstance(events, (list, tuple)):
            events = list(events)
        failures: List[tuple] = []
        sink = self.sink
        class_of = self._class_of
        for lo in range(0, len(events), CHUNK_EVENTS):
            chunk = events[lo:lo + CHUNK_EVENTS]
            self.events_fed += len(chunk)
            sink.clear()
            try:
                self.pipeline.feed_batch(chunk)
            except Exception as exc:
                if not quarantine:
                    raise
                return failures + self._fail_all(exc)
            feeds = sink.feeds
            for i, run in self.members:
                if i not in self.live:
                    continue
                try:
                    run.pipeline.feed_batch(feeds[class_of[i]])
                except Exception as exc:
                    if not quarantine:
                        raise
                    self.live.discard(i)
                    failures.append((i, exc))
            if not self.live:
                break
        return failures

    def finish(self, quarantine: bool = True) -> List[tuple]:
        """Flush the prefix, feed the tail to members, flush members."""
        if self.dead or not self.live:
            return []
        sink = self.sink
        sink.clear()
        try:
            self.pipeline.finish()
        except Exception as exc:
            if not quarantine:
                raise
            return self._fail_all(exc)
        feeds = sink.feeds
        failures: List[tuple] = []
        class_of = self._class_of
        for i, run in self.members:
            if i not in self.live:
                continue
            try:
                run.pipeline.feed_batch(feeds[class_of[i]])
                run.finish()
            except Exception as exc:
                if not quarantine:
                    raise
                self.live.discard(i)
                failures.append((i, exc))
        return failures

    # -- accounting -----------------------------------------------------------

    def stats(self) -> dict:
        return {
            "members": list(self.member_indices),
            "prefixes": list(self.prefixes),
            "prefix_stages": len(self.pipeline.wrappers),
            "prefix_calls": self.pipeline.total_calls(),
            "events_fed": self.events_fed,
            "events_out": self.sink.events_out,
            "dead": self.dead,
        }

    def __repr__(self) -> str:
        return "SharedGroup({} members, {} prefix stages)".format(
            len(self.members), len(self.pipeline.wrappers))


def build_shared_groups(engines: Sequence[tuple], make_run,
                        fuse: bool = False) -> List[SharedGroup]:
    """Plan, compile, and wire the shared groups of one executor.

    Args:
        engines: ``(run index, XFlux)`` pairs — the executor's unique
            query slots, in slot order.
        make_run: ``make_run(plan, engine) -> QueryRun`` factory
            carrying the executor's flags; member plans are compiled
            here (against the shared group context) and handed to it.
        fuse: also fuse the prefix pipeline's stage runs (the member
            pipelines are fused by the factory when the executor asks).

    Slots that end up in no group are left for the caller to compile
    independently.
    """
    chains: Dict[int, QueryChain] = {}
    engine_map = dict(engines)
    buckets: Dict[bool, List[int]] = {}
    for slot, eng in engines:
        if eng.ignore_updates:
            continue
        ch = extract_chain(eng.ast)
        if ch is None or ch.shareable == 0:
            continue
        if _backward_count(eng.ast) > 1:
            continue
        chains[slot] = ch
        buckets.setdefault(bool(eng.mutable_source), []).append(slot)
    groups: List[SharedGroup] = []
    for mutable in sorted(buckets):
        slots = buckets[mutable]
        sub = {s: chains[s] for s in slots}
        root = _build_trie(sub)
        attach = _assign_members(root, sub)
        if not attach:
            continue
        groups.append(_compile_group(root, attach, sub, mutable,
                                     engine_map, make_run, fuse))
    return groups


def _compile_group(root: PrefixNode, attach: Dict[int, PrefixNode],
                   chains: Dict[int, QueryChain], mutable: bool,
                   engine_map: dict, make_run,
                   fuse: bool) -> SharedGroup:
    ctx = Context()
    ctx.ids.reserve(0)
    shared_slots = sorted(attach)
    cloned = {s for s in shared_slots
              if _backward_count(engine_map[s].ast) == 1}
    stages: List = []
    clone_id: Optional[int] = None
    if cloned:
        # First stage: the shared source clone for backward members.
        # Depth-first propagation then lands each event's clone copy in
        # the collector only after the event's full per-branch cascade,
        # matching the monolithic clone-branch-last layout.
        clone_id = ctx.fresh_id()
        stages.append(Tee(ctx, 0, clone_id))
    prefixes: List[str] = []

    last_stream = [0]

    def emit(node: PrefixNode, input_id: int) -> None:
        compiler = Compiler(ctx=ctx, source_id=0, mutable_source=mutable)
        node.stream = compiler._compile(_fold_link(node.link, input_id),
                                        per_tuple=False)
        last_stream[0] = node.stream
        stages.extend(compiler.stages)
        prefixes.append(node.path())
        kids = [c for c in node.children.values() if c.materialized]
        for pos, kid in enumerate(kids):
            # Step operators consume their input, so every consumer but
            # one needs its own Tee copy; the last child may take the
            # stream itself only when no member reads it from the
            # collector.
            if pos == len(kids) - 1 and not node.members:
                kid_input = node.stream
            else:
                kid_input = ctx.fresh_id()
                stages.append(Tee(ctx, node.stream, kid_input))
            emit(kid, kid_input)

    mat_roots = [c for c in root.children.values() if c.materialized]
    for pos, child in enumerate(mat_roots):
        if pos == len(mat_roots) - 1:
            child_input = 0
        else:
            child_input = ctx.fresh_id()
            stages.append(Tee(ctx, 0, child_input))
        emit(child, child_input)

    members: List[tuple] = []
    class_map: Dict[frozenset, _FeedClass] = {}
    classes: List[_FeedClass] = []
    #: What the members read of the prefix's output streams: the union
    #: of their consumer demands is what the prefix must deliver.
    reads: Dict[int, Demand] = {}
    for s in shared_slots:
        node = attach[s]
        clone = clone_id if s in cloned else None
        # Members share the group's id allocator (ids stay unique across
        # the prefix and every member) but keep a fix map of their own:
        # the prefix runs a whole chunk ahead of its members, so a shared
        # map would already hold the prefix's later freezes when a member
        # reaches the hide/show that precede them in its own stream.
        # Each member's map evolves exactly as its events reach it, as in
        # a standalone pipeline.
        member_ctx = Context(ids=ctx.ids)
        compiler = Compiler(ctx=member_ctx, source_id=0,
                            mutable_source=mutable, clone_source=clone)
        plan = compiler.compile(
            chains[s].suffix_expr(node.depth, node.stream))
        for sid, d in apply_demand(plan).sources.items():
            reads[sid] = reads.get(sid, NOTHING) | d
        members.append((s, make_run(plan, engine_map[s])))
        keep = frozenset({node.stream} if clone is None
                         else {node.stream, clone})
        cls = class_map.get(keep)
        if cls is None:
            cls = class_map[keep] = _FeedClass(keep, [])
            classes.append(cls)
        cls.slots.append(s)

    route: Dict[int, List[int]] = {}
    for ci, cls in enumerate(classes):
        for sid in cls.keep_ids:
            route.setdefault(sid, []).append(ci)
    sink = RoutingSink({sid: tuple(cis) for sid, cis in route.items()},
                       len(classes))
    prefix_plan = Plan(stages, 0, last_stream[0], ctx, bool(cloned),
                       mutable_source=mutable)
    apply_demand(prefix_plan, sinks=reads)
    fusion = None
    if fuse:
        from .fusion import fusion_partition
        # The prefix's own source really is the raw input, so the
        # analyzer's dormancy facts apply as-is: for an immutable
        # source the leading clone Tee / descendant scan keep the
        # dormant fast path (the stages that see the generated
        # brackets are classified by the analyzer).  Member suffix
        # plans can NOT do this — their nominal source stream is fed
        # the prefix output, brackets included, which is why make_run
        # passes fusion_assume_updates=True for them.
        fusion = fusion_partition(prefix_plan, assume_updates=mutable)
    pipeline = Pipeline(ctx, stages, sink, fusion=fusion)

    return SharedGroup(pipeline, sink, members, classes, clone_id,
                       prefixes)


# -- introspection (repro analyze --fusion) -----------------------------------


def describe_sharing(named_queries: Sequence[tuple],
                     mutable_source: bool = False) -> dict:
    """The joint shared-prefix trie of a query batch, as plain data.

    Args:
        named_queries: ``(name, query text or AST)`` pairs.

    Returns a dict mirroring the analyzer's ``report_to_dict`` shape:
    a ``prefixes`` list (one entry per trie node, with the queries
    crossing it and whether it is evaluated once), plus per-query
    attachment info.
    """
    from ..xquery.parser import parse_cached
    names = [n for n, _ in named_queries]
    chains: Dict[int, QueryChain] = {}
    excluded: Dict[str, str] = {}
    for i, (name, q) in enumerate(named_queries):
        expr = parse_cached(q) if isinstance(q, str) else q
        ch = extract_chain(expr)
        if ch is None or ch.shareable == 0:
            excluded[name] = "no shareable leading chain"
            continue
        if _backward_count(expr) > 1:
            excluded[name] = "more than one backward step"
            continue
        chains[i] = ch
    root = _build_trie(chains)
    attach = _assign_members(root, chains)
    prefix_rows: List[dict] = []

    def walk(node: PrefixNode) -> None:
        if node.link is not None:
            prefix_rows.append({
                "prefix": node.path(),
                "depth": node.depth,
                "queries": [names[i] for i in node.queries],
                "count": len(node.queries),
                "shared": node.materialized,
            })
        for child in node.children.values():
            walk(child)

    walk(root)
    return {
        "queries": len(named_queries),
        "eligible": len(chains),
        "shared": len(attach),
        "prefixes": prefix_rows,
        "attachments": {
            names[i]: attach[i].path() for i in sorted(attach)},
        "excluded": excluded,
    }
