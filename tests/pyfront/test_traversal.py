"""The front end's own traversals equal the generic ``ast`` ones.

``typeinfer.walk`` must yield exactly ``list(ast.walk(root))`` minus the
``ctx``/``op``/``ops`` leaf singletons (same nodes by identity, same
breadth-first order: the first reason a PYF404 message names and which
PYF405 record comes first depend on it).  The fused ``walk_def`` must
infer what the two-pass version it replaced inferred (kinds, conflicts
with their reasons, assigned names) and hand the loop-variable check the
same ``Name`` and ``For`` nodes in the same order.  The statement-only
``_function_defs`` must find exactly the defs the old recursive search
over every node found.

Runs under pytest and, without it, as a script on any installed Python::

    PYTHONPATH=src python3 -m tests.pyfront.test_traversal
"""

import ast
import re
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.pyfront.lower import _function_defs
from repro.pyfront.typeinfer import INT, LIST, Kinds, all_args, walk, walk_def

ROOT = Path(__file__).resolve().parents[2]

#: the trees whose defs the walker is checked on
WALK_ROOTS = ("perfbench/data", "tests/pyfront/corpus", "src/repro")


def _old_function_defs(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    """The recursive search over every child node that discovery replaced."""
    found: List[Tuple[str, ast.AST]] = []

    def search(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child))
                search(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                search(child, prefix + child.name + ".")
            else:
                search(child, prefix)

    search(tree, "")
    found.sort(key=lambda item: item[1].lineno)
    return found


#: the leaf singletons ``walk`` leaves out
_LEAVES = (ast.expr_context, ast.operator, ast.unaryop, ast.boolop, ast.cmpop)

_ANNOTATED = (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)
_EVIDENCE = frozenset((ast.Name, ast.Subscript, ast.Call, ast.For) + _ANNOTATED)


def _old_walk_def(node: ast.FunctionDef) -> Tuple[List[ast.AST], Kinds]:
    """The two-pass kind inference the fused ``walk_def`` replaced: the
    def's ``ast.walk`` list, then a pass over its evidence nodes."""
    int_uses: Dict[str, str] = {}
    list_uses: Dict[str, str] = {}
    assigned: Set[str] = set()
    claimed: Set[int] = set()
    skipped: Set[int] = set()

    def list_use(name_node: ast.Name, why: str) -> None:
        list_uses.setdefault(name_node.id, why)
        claimed.add(id(name_node))

    nodes = list(ast.walk(node))
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
                claimed.add(id(child.func))
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
                skipped.update(map(id, ast.walk(annotation)))

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


def _python_files(*roots: str) -> List[Path]:
    out: List[Path] = []
    for root in roots:
        for path in sorted((ROOT / root).rglob("*.py")):
            parts = path.relative_to(ROOT).parts
            if not any(part.startswith(".") or part == "__pycache__" for part in parts):
                out.append(path)
    return out


def _parse(path: Path):
    """The module's tree, or None if this Python cannot parse it."""
    try:
        return ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError:
        return None


def _same_nodes(got: List[ast.AST], want: List[ast.AST]) -> bool:
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


SYNTHETIC = '''\
import contextlib

def top(n):
    def inner(m):
        class Local:
            def method(self):
                def deepest():
                    return 0
                return deepest
        return Local
    return inner

class Outer:
    def method(self):
        class InDef:
            def nested(self):
                return 1
        return InDef

    class Inner:
        @staticmethod
        def decorated():
            return 2

        async def coroutine(self):
            async with ctx() as c:
                def in_async_with():
                    return c
            async for item in items():
                def in_async_for():
                    return item
            else:
                def in_async_for_else():
                    return 3

if flag:
    def in_if():
        return 1
elif other:
    def in_elif():
        return 2
else:
    def in_else():
        return 3

for i in range(3):
    def in_for():
        return i
else:
    def in_for_else():
        return 4

while flag:
    def in_while():
        return 5
else:
    def in_while_else():
        return 6

try:
    def in_try():
        return 7
except ValueError:
    def in_except():
        return 8
else:
    def in_try_else():
        return 9
finally:
    def in_finally():
        return 10

with contextlib.suppress(Exception):
    def in_with():
        return 11

@decorator
@other.decorator(1)
def decorated_top():
    return (lambda: 0)()

async def async_top():
    def in_async_def():
        return 12
'''

#: ``match`` needs Python 3.10, ``except*`` 3.11
MATCH = '''
match command:
    case [x]:
        def in_case():
            return x
    case _:
        def in_default_case():
            return 0
'''

EXCEPT_STAR = '''
try:
    pass
except* ValueError:
    def in_except_star():
        return 13
'''


def synthetic_source() -> str:
    source = SYNTHETIC
    if sys.version_info >= (3, 10):
        source += MATCH
    if sys.version_info >= (3, 11):
        source += EXCEPT_STAR
    return source


def check_walk() -> int:
    """Every def under ``WALK_ROOTS``; returns how many were compared."""
    defs = 0
    for path in _python_files(*WALK_ROOTS):
        tree = _parse(path)
        if tree is None:
            continue
        for qualname, node in _function_defs(tree):
            where = f"{path}:{qualname}"
            nodes, want = _old_walk_def(node)
            leaves = [n for n in nodes if not isinstance(n, _LEAVES)]
            assert _same_nodes(walk(node), leaves), where
            kinds, names, loops = walk_def(node)
            assert kinds == want, where
            assert list(kinds.kinds) == list(want.kinds), where
            assert _same_nodes(names, [n for n in nodes if type(n) is ast.Name]), where
            assert _same_nodes(
                loops,
                [n for n in nodes if type(n) is ast.For and type(n.target) is ast.Name],
            ), where
            defs += 1
    assert defs > 1000
    return defs


def check_files() -> Tuple[int, int]:
    """Every ``.py`` file of the repository: (compared, unparseable here)."""
    files = skipped = 0
    for path in _python_files("."):
        tree = _parse(path)
        if tree is None:
            skipped += 1
            continue
        assert _function_defs(tree) == _old_function_defs(tree), str(path)
        files += 1
    assert files > 100
    return files, skipped


def check_synthetic() -> int:
    """Defs under every statement kind; returns how many were found."""
    source = synthetic_source()
    tree = ast.parse(source)
    found = _function_defs(tree)
    assert found == _old_function_defs(tree)
    assert sorted(name.rsplit(".", 1)[-1] for name, _ in found) == sorted(
        re.findall(r"def (\w+)", source)
    )
    qualnames = {name for name, _ in found}
    assert "top.inner.Local.method.deepest" in qualnames
    assert "Outer.Inner.coroutine.in_async_for_else" in qualnames
    leaves = [n for n in ast.walk(tree) if not isinstance(n, _LEAVES)]
    assert _same_nodes(walk(tree), leaves)
    return len(found)


def test_walks_match_the_references_on_every_def():
    check_walk()


def test_function_defs_match_the_recursive_search_on_every_file():
    check_files()


def test_function_defs_match_on_every_statement_kind():
    check_synthetic()


def main() -> int:
    version = ".".join(map(str, sys.version_info[:3]))
    defs = check_walk()
    files, skipped = check_files()
    synthetic = check_synthetic()
    print(
        f"python {version}: walk == ast.walk and walk_def == the two-pass "
        f"inference on {defs} defs; "
        f"_function_defs == recursive search on {files} files "
        f"({skipped} not parseable by this Python) and on the synthetic "
        f"module ({synthetic} defs)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
