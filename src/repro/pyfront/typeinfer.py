"""Usage-based kind inference for the real-Python frontend.

The IR models exactly two kinds of value: int scalars and arrays of
ints.  A real Python function gets to play only if every name it touches
fits one of those: parameters and locals used in arithmetic, compares,
``range()`` arguments, or subscript *indices* are ``int``; names that
are subscripted, iterated over, or passed to ``len()`` are ``list``.
A name used both ways (or a list that is *assigned*, i.e. created
locally) is a kind conflict -- the function degrades with ``PYF404``
instead of guessing.

The inference is deliberately syntactic: read from the one walk of the
def (:func:`walk_def`), no dataflow.  That matches the frontend's
contract -- it must never be *wrong silently*; when in doubt it reports
a conflict and the function degrades.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

INT = "int"
LIST = "list"

__all__ = ["INT", "LIST", "Kinds", "all_args", "walk", "walk_def"]

#: nodes that own an annotation (``annotation`` or ``returns``)
_ANNOTATED = (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)
#: the node types kind evidence is read from
_EVIDENCE = frozenset((ast.Name, ast.Subscript, ast.Call, ast.For) + _ANNOTATED)


@dataclass
class Kinds:
    """The inferred kind of every name a function touches."""

    #: name -> ``"int"`` | ``"list"`` (conflicted names stay ``"list"``)
    kinds: Dict[str, str] = field(default_factory=dict)
    #: ``(name, why-int, why-list)`` for every name used both ways
    conflicts: List[Tuple[str, str, str]] = field(default_factory=list)
    #: every name written anywhere (Store context, incl. for-targets)
    assigned: Set[str] = field(default_factory=set)

    def kind_of(self, name: str) -> str:
        return self.kinds.get(name, INT)

    def is_list(self, name: str) -> bool:
        return self.kinds.get(name) == LIST


def walk(root: ast.AST) -> List[ast.AST]:
    """``list(ast.walk(root))``, with the list as the queue: no deque and
    no generator per node."""
    nodes = [root]
    for node in nodes:
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, ast.AST):
                nodes.append(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        nodes.append(item)
    return nodes


def walk_def(node: ast.FunctionDef) -> Tuple[List[ast.AST], Kinds]:
    """The def's :func:`walk` (shared with validation) and the kind of
    every name, read from its evidence nodes in walk order.

    Annotations are not uses: ``xs: List[int]`` says nothing the body does
    not, so their subtrees are skipped.  The walk is breadth-first, so the
    first reason recorded per name is the shallowest one.
    """
    int_uses: Dict[str, str] = {}
    list_uses: Dict[str, str] = {}
    assigned: Set[str] = set()
    # Name nodes claimed by a list-position or call-callee pattern; they
    # are not int uses.  The walk is breadth-first, so a parent claims its
    # children (and an annotation's owner skips it) before they come up
    claimed: Set[int] = set()
    skipped: Set[int] = set()

    def list_use(name_node: ast.Name, why: str) -> None:
        list_uses.setdefault(name_node.id, why)
        claimed.add(id(name_node))

    nodes = walk(node)
    for child in nodes:
        if type(child) not in _EVIDENCE or id(child) in skipped:
            continue
        if isinstance(child, ast.Name):
            if isinstance(child.ctx, ast.Store):
                assigned.add(child.id)
                if id(child) not in claimed:
                    int_uses.setdefault(child.id, "assigned")
            elif id(child) not in claimed:
                int_uses.setdefault(child.id, "used as an integer")
        elif isinstance(child, ast.Subscript) and isinstance(child.value, ast.Name):
            list_use(child.value, "subscripted")
        elif isinstance(child, ast.Call):
            if isinstance(child.func, ast.Name):
                claimed.add(id(child.func))  # callee, not a value use
                if (
                    child.func.id == "len"
                    and len(child.args) == 1
                    and isinstance(child.args[0], ast.Name)
                ):
                    list_use(child.args[0], "passed to len()")
        elif isinstance(child, ast.For) and isinstance(child.iter, ast.Name):
            list_use(child.iter, "iterated over")
        elif isinstance(child, _ANNOTATED):
            annotation = getattr(child, "annotation", None) or getattr(
                child, "returns", None
            )
            if annotation is not None:
                skipped.update(map(id, walk(annotation)))

    kinds: Dict[str, str] = {}
    conflicts: List[Tuple[str, str, str]] = []
    for name in sorted(set(int_uses) | set(list_uses)):
        if name in list_uses:
            kinds[name] = LIST
            if name in int_uses:
                conflicts.append((name, int_uses[name], list_uses[name]))
        else:
            kinds[name] = INT
    for arg in all_args(node):
        kinds.setdefault(arg.arg, INT)
    return nodes, Kinds(kinds=kinds, conflicts=conflicts, assigned=assigned)


def all_args(node: ast.FunctionDef) -> List[ast.arg]:
    """The positional parameters of a def, in signature order."""
    args = node.args
    return list(getattr(args, "posonlyargs", ())) + list(args.args)
