"""XML substrate: from-scratch tokenizer, writer, and mini-DOM."""

from .._lazy import lazy_exports
from .tokenizer import (ResourceLimitError, XMLSyntaxError, XMLTokenizer,
                        iter_tokenize, tokenize)
from .writer import escape_text, write_events

__all__ = [
    "XMLTokenizer", "XMLSyntaxError", "ResourceLimitError",
    "tokenize", "iter_tokenize",
    "write_events", "escape_text",
    "Node", "Element", "Text", "parse", "forest_from_events",
    "forest_to_xml",
]

#: The mini-DOM loads on first use (the streaming engine never needs it).
__getattr__ = lazy_exports(globals(), {
    name: (".dom", name) for name in ("Node", "Element", "Text", "parse",
                                      "forest_from_events",
                                      "forest_to_xml")})
