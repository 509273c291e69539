"""Golden-fixture tests per lint rule, the plugin API, baselines and dogfood.

Each ``*_bad`` fixture pins the exact findings a rule must produce and each
``*_good`` fixture pins the escapes it must honor; the dogfood test then runs
the real rule set over ``src/`` and asserts the tree the CI gate protects is
actually clean.
"""

import ast
from pathlib import Path

import pytest

from repro.devtools import (
    Rule,
    apply_baseline,
    lint_paths,
    load_baseline,
    write_baseline,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def _rule_ids(findings):
    return sorted(f.rule for f in findings)


# -- lock-guard ------------------------------------------------------------------
def test_lock_guard_flags_unlocked_access():
    findings = lint_paths([FIXTURES / "locks_bad.py"])
    assert _rule_ids(findings) == ["lock-guard"] * 3
    assert all("self._items" in f.message for f in findings)
    assert all("guarded by 'self._lock'" in f.message for f in findings)
    # Three distinct access sites: plain method, after-with, closure.
    assert len({f.line for f in findings}) == 3


def test_lock_guard_honors_with_holds_and_unlocked():
    assert lint_paths([FIXTURES / "locks_good.py"]) == []


def test_lock_guard_inherits_declarations_from_project_bases():
    # The base declares the guarded field in one module, the subclass touches
    # it unlocked in another: one finding, reported against the subclass.
    findings = lint_paths([FIXTURES / "locks_inherit"])
    assert [(f.rule, Path(f.path).name) for f in findings] == [("lock-guard", "sub.py")]
    assert "'self._connections' is guarded by 'self._lock'" in findings[0].message
    # Linted alone, the subclass has no declaration in sight.
    assert lint_paths([FIXTURES / "locks_inherit" / "sub.py"]) == []


# -- wire-protocol ---------------------------------------------------------------
def test_wire_rule_reports_all_three_sides():
    findings = lint_paths([FIXTURES / "wire_bad"])
    assert _rule_ids(findings) == ["wire-protocol"] * 9
    messages = "\n".join(f.message for f in findings)
    # dispatch coverage, both directions
    assert "'fetch' is declared in WIRE_OPS but BadDaemon._dispatch" in messages
    assert "'stats' is declared in WIRE_OPS but BadDaemon._dispatch" in messages
    assert "handles op 'extra' which is not declared" in messages
    # client coverage, both directions
    assert 'no client builds a {"op": "fetch"}' in messages
    assert 'no client builds a {"op": "stats"}' in messages
    assert "'rogue' is not declared in WIRE_OPS" in messages
    # error registration
    assert "raises UnknownBoom, which is not registered" in messages
    # gateway status coverage: both registration styles are cross-checked
    assert "'KeyError' is registered for typed wire transport" in messages
    assert "'Overloaded' is registered for typed wire transport" in messages
    assert messages.count("no STATUS_BY_ERROR_TYPE entry") == 2


def test_wire_rule_silent_on_covered_protocol():
    assert lint_paths([FIXTURES / "wire_good"]) == []


def test_wire_rule_silent_without_wire_ops():
    # A project that declares no op vocabulary is out of the rule's scope.
    assert lint_paths([FIXTURES / "hygiene_good.py"]) == []


# -- metrics-hygiene -------------------------------------------------------------
def test_metrics_rule_flags_naming_conflicts_and_labels():
    findings = lint_paths([FIXTURES / "metrics_bad.py"])
    assert _rule_ids(findings) == ["metrics-hygiene"] * 5
    messages = "\n".join(f.message for f in findings)
    assert "counter 'repro_reads' must end in '_total'" in messages
    assert "'Bad_Name' does not match repro_" in messages
    assert "'repro_mixed_total' registered as gauge" in messages
    assert "'repro_dup_total' registered twice in this module" in messages
    assert "labels(code, verb)" in messages


def test_metrics_rule_silent_on_hygienic_module():
    assert lint_paths([FIXTURES / "metrics_good.py"]) == []


# -- hygiene rules ---------------------------------------------------------------
def test_hygiene_rules_flag_each_shape():
    findings = lint_paths([FIXTURES / "hygiene_bad.py"])
    assert _rule_ids(findings) == [
        "bare-except",
        "mutable-default",
        "mutable-default",
        "unclosed-resource",
        "unclosed-resource",
    ]


def test_hygiene_rules_honor_escapes_and_ignore():
    # Includes an unclosed open() carrying # repro: ignore[unclosed-resource].
    assert lint_paths([FIXTURES / "hygiene_good.py"]) == []


# -- engine behavior -------------------------------------------------------------
def test_unparsable_file_becomes_parse_error_finding(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n", "utf-8")
    findings = lint_paths([target])
    assert [f.rule for f in findings] == ["parse-error"]
    assert "cannot parse" in findings[0].message


def test_custom_rule_plugs_into_the_engine(tmp_path):
    class NoPrintRule(Rule):
        id = "no-print"
        help = "print() is not a logging strategy"
        node_types = (ast.Call,)

        def visit(self, node, ctx):
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                ctx.report(node, "use logging instead of print()")

    target = tmp_path / "mod.py"
    target.write_text("print('hi')\nprint('bye')  # repro: ignore[no-print]\n", "utf-8")
    findings = lint_paths([target], rules=[NoPrintRule()])
    # The second call is suppressed by the ignore directive the engine applies
    # uniformly to every rule, built-in or plugin.
    assert [(f.rule, f.line) for f in findings] == [("no-print", 1)]


def test_findings_are_sorted_and_addressable():
    findings = lint_paths([FIXTURES / "hygiene_bad.py"])
    keys = [(f.path, f.line, f.col) for f in findings]
    assert keys == sorted(keys)
    rendered = str(findings[0])
    assert findings[0].path in rendered and findings[0].rule in rendered


# -- baseline --------------------------------------------------------------------
def test_baseline_roundtrip_grandfathers_exact_counts(tmp_path):
    findings = lint_paths([FIXTURES / "hygiene_bad.py"])
    assert findings
    path = tmp_path / "lint-baseline.json"
    write_baseline(findings, path)
    budget = load_baseline(path)

    new, grandfathered = apply_baseline(findings, budget)
    assert new == [] and grandfathered == len(findings)

    # One occurrence beyond the per-fingerprint budget is new again.
    new, grandfathered = apply_baseline(findings + [findings[0]], budget)
    assert len(new) == 1 and grandfathered == len(findings)
    assert new[0].fingerprint == findings[0].fingerprint


def test_baseline_fingerprints_survive_line_churn():
    findings = lint_paths([FIXTURES / "hygiene_bad.py"])
    moved = [type(f)(f.path, f.line + 40, f.col, f.rule, f.message) for f in findings]
    budget = {f.fingerprint: 1 for f in findings}
    new, grandfathered = apply_baseline(moved, budget)
    assert new == [] and grandfathered == len(findings)


def test_baseline_missing_file_is_empty_and_corrupt_raises(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == {}
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{}", "utf-8")
    with pytest.raises(ValueError):
        load_baseline(corrupt)


# -- dogfood ---------------------------------------------------------------------
def test_src_tree_is_lint_clean():
    """The CI gate's invariant: zero findings over src/ with an empty baseline."""
    findings = lint_paths([REPO_SRC])
    assert findings == [], "\n".join(str(f) for f in findings)
