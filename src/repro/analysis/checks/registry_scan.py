"""Lexical filter for pipeline-spec string literals.

RA004 validates spec literals with the runtime parser
(:meth:`repro.pipeline.PipelineSpec.parse`) against the live registry;
this module only decides which strings are worth parsing.
"""

from __future__ import annotations

import re

__all__ = ["spec_shaped"]

_SEGMENT_RE = re.compile(r"[A-Za-z_]\w*(?::[^+@\s]*)?")
_SHAPE_RE = re.compile(rf"{_SEGMENT_RE.pattern}(?:\+{_SEGMENT_RE.pattern})*(?:@{_SEGMENT_RE.pattern})?")


def spec_shaped(text: str) -> bool:
    """Whether ``text`` could lexically be a pipeline spec with at least
    one ``+``/``@`` join (single bare words are too ambiguous to lint)."""
    return ("+" in text or "@" in text) and _SHAPE_RE.fullmatch(text) is not None
