"""repro: a reproduction of "Efficient Processing of XML Update Streams".

This package implements the XFlux streaming XQuery engine described in
Leonidas Fegaras' ICDE 2008 paper, from the event model up: tokenized XML
update streams, state-transformer pipelines with a generic update-handling
wrapper (state adjustment, Section IV), mutability analysis (Section V),
and the unblocked operators of Section VI (concatenation, general
predicates, descendant-or-self, sorting, backward axes, aggregation).

Quick start::

    from repro import XFlux
    result = XFlux('X//book[author="Smith"]/title').run_xml(xml_text)
    print(result.text())
"""

from ._lazy import lazy_exports
from .core import (Collector, Context, Display,
                   MutabilityRegistry, Pipeline, RegionTree,
                   StateTransformer, UpdateWrapper, apply_updates)
from .events import Event, IdGenerator, Kind
from .xmlio import XMLTokenizer, tokenize, write_events
from .xquery import (CompileError, MultiQueryRun, Plan, QueryRun, XFlux,
                     XQuerySyntaxError)
from .xquery import parse as parse_query

__version__ = "1.0.0"

__all__ = [
    "XFlux", "QueryRun", "MultiQueryRun", "Plan", "parse_query",
    "XQuerySyntaxError", "CompileError",
    "Event", "Kind", "IdGenerator",
    "tokenize", "XMLTokenizer", "parse_xml", "write_events",
    "Pipeline", "Display", "Context", "StateTransformer", "UpdateWrapper",
    "MutabilityRegistry", "RegionTree", "apply_updates", "Collector",
    "EventMultiplexer",
    "__version__",
]

#: Exported names whose modules load on first use (not needed to compile
#: or run a single query): ``public name -> (module, attribute)``.
__getattr__ = lazy_exports(globals(), {
    "EventMultiplexer": (".core.multiplex", "EventMultiplexer"),
    "parse_xml": (".xmlio.dom", "parse")})
