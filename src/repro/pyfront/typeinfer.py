"""Usage-based kind inference for the real-Python frontend.

The IR models exactly two kinds of value: int scalars and arrays of
ints.  A real Python function gets to play only if every name it touches
fits one of those: parameters and locals used in arithmetic, compares,
``range()`` arguments, or subscript *indices* are ``int``; names that
are subscripted, iterated over, or passed to ``len()`` are ``list``.
A name used both ways (or a list that is *assigned*, i.e. created
locally) is a kind conflict -- the function degrades with ``PYF404``
instead of guessing.

The inference is deliberately syntactic: read as the one walk of the def
(:func:`walk_def`) pops each node, no dataflow.  That matches the
frontend's contract -- it must never be *wrong silently*; when in doubt
it reports a conflict and the function degrades.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

INT = "int"
LIST = "list"

__all__ = ["CHILD_FIELDS", "INT", "LIST", "Kinds", "all_args", "walk", "walk_def"]

#: nodes that own an annotation (``annotation`` or ``returns``)
_ANNOTATED = (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)
#: the node types kind evidence is read from, apart from ``Name``
_EVIDENCE = frozenset((ast.Subscript, ast.Call, ast.For) + _ANNOTATED)


def _node_types(kind: type = ast.AST) -> List[type]:
    """``kind`` and every node class derived from it."""
    return [kind] + [t for sub in kind.__subclasses__() for t in _node_types(sub)]


#: fields never walked: the ``ctx``/``op``/``ops`` leaf singletons, which
#: name nothing, and fields that only hold identifier or comment strings
_LEAVES = ("ctx", "op", "ops", "id", "attr", "arg", "type_comment")
#: per node type (every one ``ast.parse`` builds exists at import), the
#: fields that may hold child nodes
CHILD_FIELDS = {
    kind: tuple(f for f in kind._fields if f not in _LEAVES) for kind in _node_types()
}


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
    """``list(ast.walk(root))`` without the ``ctx``/``op``/``ops`` leaf
    singletons, in the same order, with the list as the queue."""
    nodes = [root]
    for node in nodes:
        for name in CHILD_FIELDS[type(node)]:
            value = getattr(node, name, None)
            if isinstance(value, ast.AST):
                nodes.append(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        nodes.append(item)
    return nodes


def walk_def(node: ast.FunctionDef) -> Tuple[Kinds, List[ast.Name], List[ast.For]]:
    """The kind of every name of a def, and its ``Name`` nodes and its
    ``for <name> in ...`` loops in walk order (for the loop-variable check).

    One breadth-first walk in :func:`walk` order reads the evidence of each
    node as it pops it, so the first reason recorded per name is the
    shallowest one.  Annotations are not uses: ``xs: List[int]`` says
    nothing the body does not, so their subtrees give no evidence.
    """
    int_uses: Dict[str, str] = {}
    list_uses: Dict[str, str] = {}
    assigned: Set[str] = set()
    # Name nodes claimed by a list-position or call-callee pattern; they
    # are not int uses.  A parent is popped before its children, so it
    # claims them (and an annotation's owner skips it) before they come up
    claimed: Set[int] = set()
    skipped: Set[int] = set()
    names: List[ast.Name] = []
    loops: List[ast.For] = []

    def list_use(name_node: ast.Name, why: str) -> None:
        list_uses.setdefault(name_node.id, why)
        claimed.add(id(name_node))

    Name, Store, Constant, AST = ast.Name, ast.Store, ast.Constant, ast.AST  # read per node
    queue: List[ast.AST] = [node]
    for child in queue:
        kind = type(child)
        if kind is Name:
            names.append(child)
            if id(child) in skipped:
                continue
            if type(child.ctx) is Store:
                assigned.add(child.id)
                if id(child) not in claimed:
                    int_uses.setdefault(child.id, "assigned")
            elif id(child) not in claimed:
                int_uses.setdefault(child.id, "used as an integer")
            continue
        if kind is Constant:  # like a Name, it has no child nodes
            continue
        if kind in _EVIDENCE and id(child) not in skipped:
            if kind is ast.Subscript and type(child.value) is Name:
                list_use(child.value, "subscripted")
            elif kind is ast.Call:
                if type(child.func) is Name:
                    claimed.add(id(child.func))  # callee, not a value use
                    if (
                        child.func.id == "len"
                        and len(child.args) == 1
                        and type(child.args[0]) is Name
                    ):
                        list_use(child.args[0], "passed to len()")
            elif kind is ast.For:
                if type(child.target) is Name:
                    loops.append(child)
                if type(child.iter) is Name:
                    list_use(child.iter, "iterated over")
            elif kind in _ANNOTATED:
                annotation = getattr(child, "annotation", None) or getattr(
                    child, "returns", None
                )
                if annotation is not None:
                    skipped.update(map(id, walk(annotation)))
        for name in CHILD_FIELDS[kind]:
            value = getattr(child, name, None)
            if type(value) is list:
                for item in value:
                    if isinstance(item, AST):
                        queue.append(item)
            elif isinstance(value, AST):
                queue.append(value)

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
    return Kinds(kinds=kinds, conflicts=conflicts, assigned=assigned), names, loops


def all_args(node: ast.FunctionDef) -> List[ast.arg]:
    """The positional parameters of a def, in signature order."""
    args = node.args
    return list(getattr(args, "posonlyargs", ())) + list(args.args)
