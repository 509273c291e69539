"""Lock-discipline rule: ``# repro: guarded-by(_lock)`` declarations, enforced.

An attribute assignment annotated ``# repro: guarded-by(_lock)`` declares that
``self.<attr>`` may only be touched while ``self._lock`` is held.  The rule
then walks every method of the class tracking which locks are held —
``with self._lock:`` blocks acquire, nested ``def``/``lambda`` bodies *reset*
the held set (closures run later, on other threads) — and reports any guarded
access outside the lock.  Declarations are inherited: a field a base class
declares guarded is checked in every subclass in the project too (bases
resolve by class name, a class of the same module first), which is why the
checking happens once all modules are parsed.

Escapes, because real concurrent code has deliberate exceptions:

- ``__init__``/``__new__`` are exempt (the object is not shared yet);
- ``# repro: holds(_lock)`` on a ``def`` line asserts the *caller* holds the
  lock (the ``_locked`` suffix convention, made explicit);
- ``# repro: unlocked`` on an access line waives the rule once — for
  double-checked fast paths and benign racy reads, with the reason after
  ``--`` kept for the human reader.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.devtools.lint import Context, ModuleInfo, Rule

__all__ = ["GuardedByRule"]


def _directive_in_range(
    module: ModuleInfo, lo: int, hi: int, name: str
) -> Optional[str]:
    """The directive's argument if ``name`` appears on any line in [lo, hi]."""
    for line in range(lo, hi + 1):
        found = module.directive(line, name)
        if found is not None:
            return found[1] or ""
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class GuardedByRule(Rule):
    id = "lock-guard"
    help = (
        "attributes declared '# repro: guarded-by(LOCK)' may only be accessed "
        "inside 'with self.LOCK'"
    )
    node_types = (ast.ClassDef,)

    def __init__(self) -> None:
        #: class name -> every (module, class) of that name in the project
        self._classes: Dict[str, List[Tuple[ModuleInfo, ast.ClassDef]]] = {}

    def visit(self, node: ast.AST, ctx: Context) -> None:
        assert isinstance(node, ast.ClassDef) and ctx.module is not None
        self._classes.setdefault(node.name, []).append((ctx.module, node))

    def finish_project(self, ctx: Context) -> None:
        for candidates in self._classes.values():
            for module, cls in candidates:
                guarded = self._guarded_with_bases(cls, module, set())
                if not guarded:
                    continue
                for stmt in cls.body:
                    if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if stmt.name in ("__init__", "__new__"):
                        continue  # the object is not visible to other threads yet
                    held = self._held_at_entry(stmt, module)
                    self._check(stmt, held, guarded, module, ctx)

    # -- declaration collection ------------------------------------------------
    def _guarded_with_bases(
        self, cls: ast.ClassDef, module: ModuleInfo, seen: Set[int]
    ) -> Dict[str, str]:
        """``cls``'s own declarations over those of its project-local bases."""
        seen.add(id(cls))
        guarded: Dict[str, str] = {}
        for base in cls.bases:
            name = getattr(base, "id", None) or getattr(base, "attr", None)
            candidates = self._classes.get(name, [])
            local = [c for c in candidates if c[0] is module]
            for base_module, base_cls in local or candidates:
                if id(base_cls) not in seen:
                    guarded.update(self._guarded_with_bases(base_cls, base_module, seen))
        guarded.update(self._collect_guarded(cls, module))
        return guarded

    def _collect_guarded(
        self, cls: ast.ClassDef, module: ModuleInfo
    ) -> Dict[str, str]:
        """attr name -> lock attr name, from guarded-by directives in ``cls``."""
        guarded: Dict[str, str] = {}
        stack = [s for s in cls.body]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.ClassDef):
                continue  # nested classes declare (and are checked) separately
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                lock = _directive_in_range(
                    module, node.lineno, node.end_lineno or node.lineno, "guarded-by"
                )
                if lock:
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            guarded[attr] = lock
            stack.extend(ast.iter_child_nodes(node))
        return guarded

    def _held_at_entry(
        self, func: ast.AST, module: ModuleInfo
    ) -> FrozenSet[str]:
        """Locks the caller promises to hold (``# repro: holds(LOCK)``)."""
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        body_start = func.body[0].lineno if func.body else func.lineno
        arg = _directive_in_range(module, func.lineno, body_start - 1, "holds")
        if not arg:
            return frozenset()
        return frozenset(part.strip() for part in arg.split(",") if part.strip())

    # -- access checking -------------------------------------------------------
    def _check(
        self,
        node: ast.AST,
        held: FrozenSet[str],
        guarded: Dict[str, str],
        module: ModuleInfo,
        ctx: Context,
    ) -> None:
        if isinstance(node, ast.ClassDef):
            return  # checked as a class of its own
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def is a closure: it runs later, possibly on another
            # thread, so the enclosing with-block's locks do not apply.
            inner = self._held_at_entry(node, module)
            for dec in node.decorator_list:
                self._check(dec, held, guarded, module, ctx)
            for stmt in node.body:
                self._check(stmt, inner, guarded, module, ctx)
            return
        if isinstance(node, ast.Lambda):
            self._check(node.body, frozenset(), guarded, module, ctx)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: Set[str] = set()
            for item in node.items:
                self._check(item.context_expr, held, guarded, module, ctx)
                attr = _self_attr(item.context_expr)
                if attr is not None:
                    acquired.add(attr)
            inside = held | acquired
            for stmt in node.body:
                self._check(stmt, frozenset(inside), guarded, module, ctx)
            return
        attr = _self_attr(node)
        if attr is not None and attr in guarded:
            lock = guarded[attr]
            if lock not in held:
                line = getattr(node, "lineno", 1)
                if module.directive(line, "unlocked") is None:
                    ctx.report(
                        node,
                        f"'self.{attr}' is guarded by 'self.{lock}' but accessed "
                        f"without holding it (add 'with self.{lock}', a "
                        f"'# repro: holds({lock})' contract, or '# repro: unlocked')",
                        module=module,
                    )
            # still recurse: self.a.b chains
        for child in ast.iter_child_nodes(node):
            self._check(child, held, guarded, module, ctx)
