"""Built-in lint rules, one module per concern.

``default_rules()`` is the canonical rule set run by ``repro lint``; the
engine takes any sequence of :class:`repro.devtools.lint.Rule` instances, so
tests (and future PRs) can run subsets or add project rules without touching
the engine.
"""

from __future__ import annotations

from typing import List

from repro.devtools.lint import Rule
from repro.devtools.rules.hygiene import (
    BareExceptRule,
    MutableDefaultRule,
    UnclosedResourceRule,
)
from repro.devtools.rules.locks import GuardedByRule
from repro.devtools.rules.metrics import MetricsHygieneRule
from repro.devtools.rules.wire import WireProtocolRule

__all__ = [
    "default_rules",
    "GuardedByRule",
    "WireProtocolRule",
    "MetricsHygieneRule",
    "BareExceptRule",
    "MutableDefaultRule",
    "UnclosedResourceRule",
]


def default_rules() -> List[Rule]:
    """Fresh instances of every built-in rule (rules keep per-run state)."""
    return [
        GuardedByRule(),
        WireProtocolRule(),
        MetricsHygieneRule(),
        BareExceptRule(),
        MutableDefaultRule(),
        UnclosedResourceRule(),
    ]
