"""Core framework: state transformers, update wrapper, regions, display."""

from .._lazy import lazy_exports
from .display import Display
from .pipeline import (Collector, Filter, Pipeline, SinkFilter,
                       build_filter_chain, run_stages)
from .regions import Region, RegionTree, apply_updates
from .transformer import (Context, Drop, Identity, MutabilityRegistry,
                          Relabel, StateTransformer, run_sequence)
from .wrapper import LIVE, UpdateWrapper

__all__ = [
    "StateTransformer", "Context", "MutabilityRegistry",
    "Identity", "Relabel", "Drop", "run_sequence",
    "UpdateWrapper", "LIVE",
    "Pipeline", "Filter", "SinkFilter", "build_filter_chain", "Collector",
    "run_stages",
    "Region", "RegionTree", "apply_updates",
    "Display",
    "EventMultiplexer", "NestingGuard",
]

#: Exported names whose modules load on first use: the multi-query
#: executor is not needed to compile or run a single query, and set-up
#: time (import + compile) is part of every run.
__getattr__ = lazy_exports(globals(), {
    "EventMultiplexer": (".multiplex", "EventMultiplexer"),
    "NestingGuard": (".multiplex", "NestingGuard")})
