"""API-hygiene rules: small, single-module checks with near-zero false positives.

- ``bare-except``: ``except:`` swallows ``KeyboardInterrupt``/``SystemExit``
  and hides daemon shutdown bugs; catch ``Exception`` (and say why).
- ``mutable-default``: ``def f(x=[])`` / ``={}`` / ``=set()`` — the default is
  shared across calls.
- ``unclosed-resource``: ``open``/``mmap.mmap``/``socket.socket``/
  ``socket.create_connection`` results that provably leak.  Deliberately
  conservative: a resource assigned to ``self.<attr>`` (ownership moved to
  the object), returned, passed to any call, ``.close()``d anywhere in the
  same function, or created inside a ``with`` item never reports — only the
  bind-and-forget shape does.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.devtools.lint import Context, Rule

__all__ = [
    "BareExceptRule",
    "MutableDefaultRule",
    "UnclosedResourceRule",
]


class BareExceptRule(Rule):
    id = "bare-except"
    help = "'except:' also catches KeyboardInterrupt/SystemExit; name the type"
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: Context) -> None:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            ctx.report(
                node,
                "bare 'except:' catches KeyboardInterrupt and SystemExit; "
                "use 'except Exception:' (or narrower)",
            )


class MutableDefaultRule(Rule):
    id = "mutable-default"
    help = "mutable default arguments are shared across calls"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}

    def visit(self, node: ast.AST, ctx: Context) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                       ast.DictComp, ast.SetComp))
            if (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in self._MUTABLE_CALLS
            ):
                bad = True
            if bad:
                name = getattr(node, "name", "<lambda>")
                ctx.report(
                    default,
                    f"mutable default argument in '{name}' is shared across "
                    f"calls; default to None and create inside",
                )


class UnclosedResourceRule(Rule):
    id = "unclosed-resource"
    help = "open/mmap/socket results must reach a with, a close, or a new owner"

    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: Context) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        acquisitions: Dict[str, List[ast.Assign]] = {}
        closed: Set[str] = set()
        escaped: Set[str] = set()

        for sub in self._walk_shallow(node):
            if isinstance(sub, ast.Assign) and self._creates_resource(sub.value):
                for target in sub.targets:
                    # A Name target is tracked; self._fh = open(...) moves
                    # ownership to the object, whose close story is its own.
                    if isinstance(target, ast.Name):
                        acquisitions.setdefault(target.id, []).append(sub)
            elif isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Name):
                # `self._listener = listener` (or any alias) moves ownership.
                escaped.add(sub.value.id)
            elif isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("close", "shutdown", "detach")
                    and isinstance(func.value, ast.Name)
                ):
                    closed.add(func.value.id)
                # A resource passed to any call transfers ownership (wrapped
                # in a file object, registered for cleanup, handed to a
                # reader): out of this rule's scope.
                for arg in [*sub.args, *(kw.value for kw in sub.keywords)]:
                    if isinstance(arg, ast.Name):
                        escaped.add(arg.id)
            elif isinstance(sub, ast.Return) and isinstance(sub.value, ast.Name):
                escaped.add(sub.value.id)
            elif isinstance(sub, (ast.Tuple, ast.List, ast.Dict)):
                # A resource stored into any container escapes to that
                # container's owner.
                for elt in ast.walk(sub):
                    if isinstance(elt, ast.Name):
                        escaped.add(elt.id)

        for name, assigns in acquisitions.items():
            if name in closed or name in escaped:
                continue
            for assign in assigns:
                ctx.report(
                    assign,
                    f"'{name}' holds an open resource that is never closed in "
                    f"'{node.name}': use 'with', close in 'finally', or hand "
                    f"it to an owner",
                )

    @staticmethod
    def _walk_shallow(func: ast.AST):
        """Walk a function body without descending into nested defs/lambdas
        (they are visited as their own functions) or nested classes."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    _RESOURCE_CALLS = {
        ("open",),
        ("mmap", "mmap"),
        ("socket", "socket"),
        ("socket", "create_connection"),
    }

    def _creates_resource(self, node: Optional[ast.AST]) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return (func.id,) in self._RESOURCE_CALLS
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return (func.value.id, func.attr) in self._RESOURCE_CALLS
        return False
