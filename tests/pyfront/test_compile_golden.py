"""Pinned ``compile_module`` output and the single-walk compile contract.

``python -m tests.pyfront.test_compile_golden`` prints the golden
digests; with ``--repository`` it prints one digest per ``.py`` file of
the repository instead (``make pyfront-digests``).

The golden hashes cover everything a compiled function carries: params,
the def's own source text, every degradation record in order, and the
printed IR, so a change to how ``compile_function`` walks a def cannot
move its output unnoticed.  A pinned file this interpreter's ``ast``
cannot parse (newer syntax on an older Python) must come back as one
PYF406 record instead.
"""

import ast
import hashlib
import json
import sys
import textwrap
from pathlib import Path

import pytest

from repro.ir.printer import print_function
from repro.obs.runlog import source_fingerprint
from repro.pyfront.driver import _skip_record
from repro.pyfront import lower, typeinfer
from repro.pyfront.lower import compile_function, compile_module

CORPUS = Path(__file__).parent / "corpus"
DATA = Path(__file__).resolve().parents[2] / "perfbench" / "data"

#: sha256 of ``render(compile_module(text, origin=name))`` per corpus file
GOLDEN = {
    "degrade.py": "0c54be3642c87d9c56f368fe5988f2acb39bd7bb4688cb23f8f36c8edcf6020f",
    "kernels.py": "117efcaf65c8cb4301d7ab87105dc9293ec83ae1cc522e3f66d64cb1c8be8103",
    "numeric.py": "bc95c0b434e716998ad40bdaafaf81feaf983fc2053c516c9ed03a130394503d",
    "search.py": "104ea6031376bbd98675869a5c58ed5c7eba194513b6ad017802e8c3635c5a40",
}

#: sha256 of ``render(compile_module(text, origin=name), facts=True)`` per
#: pinned ``perfbench/data`` file (real stdlib modules plus the corpus)
DATA_GOLDEN = {
    "corpus/degrade.py": "cf55a89e08e5a1baa3c85fd66e64032e1523573582b0c8b3e73ef0dcf41ccc11",
    "corpus/kernels.py": "b408059cc8794095b5c7a7d17bc1ba4a312f36d16b16feef4552fd65c58adaa8",
    "corpus/numeric.py": "38283429c5e5d3ce071a15bd96539d730a8dfc5c6966db764112c8786b90571b",
    "corpus/search.py": "ac3c773ce653093b6734f4f97b79d49ee9941a7ac170dfc7d0d7e0f162abe8ba",
    "stdlib/abc.py": "e922defa917cb5272680b0c45819fac6e3104d2fac1612fadc634159c941f117",
    "stdlib/ast.py": "15d54013460d41000cda8d49bbf43db1c63f654e4996f8dd68b9176d5fe46793",
    "stdlib/base64.py": "5f0b36fcd10a3d09d1e93d0f6bda3789143fc9c439529becc5a9b97c4bf2b9ee",
    "stdlib/bisect.py": "34b799a1fcd9735e3c504c622c51784d5c485eadeca4116e234510a2776b0316",
    "stdlib/calendar.py": "44b28e52faae29cd80bf05170dc829d8a9cbdd930d6881741174ccfa361fc295",
    "stdlib/codecs.py": "5558131490a188980fd8236a61ed0f4246e20427f2ca09f0cbd0f3a75612c200",
    "stdlib/collections.py": "8357a8029bf33d28e567e911a56eb2f5b71dea6786c10549ba9f10367c008c9b",
    "stdlib/colorsys.py": "a40fdb0ba633e189a1339077829922f97135743ce840c3f972bf13200a9e98aa",
    "stdlib/configparser.py": "3dd4e2592537ff6851d80dbc06d986b26a5dba49c7e67429c5fad96bcf9ddedd",
    "stdlib/contextlib.py": "02c8ec33a7492a156be3e8617cb1be3241d19649c5b3f7ea5933897c4b855993",
    "stdlib/copy.py": "2bb324866cc0f583e646b6f1acac9b8878024b4163fb54aa7978395d49f7d63e",
    "stdlib/csv.py": "83c276c7db81d647ebe9189f1cf58c5e7a84f97e08163570ad1b40d8e46a059c",
    "stdlib/dataclasses.py": "cbd8aa0143a4e1e8b6449dea131731ee0d8de13058aabf2d6876f4cdb3491db7",
    "stdlib/difflib.py": "ab1fd04163718666f9c59246890c2e75f0aefc5d5950efecf4fdc255418b5488",
    "stdlib/dis.py": "309f70dd0cabc4544e3e18ede6e78933e4c1dee2d23ac312a755fe490f686d3a",
    "stdlib/email_utils.py": "254f087324e5bfe8b95edccc1a267ed19f89e86d5ae29f59d71edf341109ea5c",
    "stdlib/filecmp.py": "8c5d5c8d21c64d5fca6b6b2adf414e55cba34fc29f60a82cf1987bafe083b9e7",
    "stdlib/fileinput.py": "398960932859c9efd7e93aa551d35ae2e5bb9906c079442ee816af6dab616071",
    "stdlib/fnmatch.py": "46825e21f2c4ab55ea17f457ab8b38a246506e2400f1f2427dc8ad0784d8860d",
    "stdlib/fractions.py": "464e9e4a2274d988f50d24b5331b27489a00d3198b65ef17b1cdd6b8593086d5",
    "stdlib/functools.py": "e86e3e7427a1a3de8d9e14088e88b19a0d3a9cf7059764ffcea5536f6421902a",
    "stdlib/genericpath.py": "a73ffe347f0991be181762dfa1599e386d36dce1df73d7bb762db52fa9fd637e",
    "stdlib/getopt.py": "ef9d4e6eb03210354b8731ec755cb11dd43c32ccb4ffc0b5ac01ba5e9f85593c",
    "stdlib/gettext.py": "6635aa7b7dfa14b95f297a98917ec9d0e18b615c665aa9b2e0acf5759be6aa16",
    "stdlib/glob.py": "072027a2cd4bec8363564b489d44a590598deec4698232b949dbe562f860ef32",
    "stdlib/graphlib.py": "e55c5e185eaa3b755c09ce28a5908eecbed5ea4d195bb9f80b6bb94a8415bd75",
    "stdlib/heapq.py": "29e6833ab1b7d0303c21a9c0eaf62430acc3a1c0cb0a5f58c1572c944fd9e358",
    "stdlib/hmac.py": "c896685a645f7937b4c9814c4cbdc4da151d8837a48af4a2be08a427009aa9fc",
    "stdlib/html_parser.py": "2211c959fbfdb5a6a0824b6096a4101318a93ade46a3627903488401ebfb9f5c",
    "stdlib/ipaddress.py": "6bcdc69b8282966bd91c43493b2aa0ec906b6eef5cfb8d91f0a4df72c30c8cf3",
    "stdlib/linecache.py": "bcb7ca849120197d1ad08fdcb701adeb8a358cb1e487413e543fb233c21741ee",
    "stdlib/mimetypes.py": "cf0858ef5f1c7ee1309b1fb469c8383562f202fe56e258a59ec5039d64738749",
    "stdlib/netrc.py": "4d71d896c2d2ff85b746143e27dd9d15d482006bcb93eee39dca5a87bd130d30",
    "stdlib/ntpath.py": "23753e5bda20594cb383bc57474deebcb278aab274819aef5bbabf07aea79e6c",
    "stdlib/numbers.py": "9e96c87a56f81faec354b1af1e29c3c7f28bd193653242dc1bfea3b4759c26b9",
    "stdlib/operator.py": "b839068911b2994794978a267ce7736ec1e5c9cd120549db086f8d310b6db097",
    "stdlib/plistlib.py": "72f8fa1fecc6a8ec8306472c0308bad92307479ae40b7e00dbe6f456c4c64cc7",
    "stdlib/posixpath.py": "aa34dffde62141e0832ad480c26ea9d1108b48baa154012d0c8d06f1622d6ffd",
    "stdlib/pprint.py": "4980f7a0533d1e322a2165fb038162bf30fba7ceb48ffd56c78bacca38820d2d",
    "stdlib/queue.py": "182b1ad3a959e893c100830125956b0088e70c5769c61efdef73df10d72435d0",
    "stdlib/quopri.py": "8986a92f14ed9f554f03a61923b6c0c0c14911e652fe852c38159cba973975b5",
    "stdlib/random.py": "a127b2d85e813bf0cfccb0ad009350dea3a78e1cce40ab64cf008ec161daec30",
    "stdlib/reprlib.py": "691ddee07a7e20689502a2289e62d42de06980da7a5b60804c75000c069bd103",
    "stdlib/sched.py": "bdadee302d3c2f54613bc4584a85d91cda0657acf966d0d09c6ff740cc7afe0a",
    "stdlib/shlex.py": "7da9ae0e9eccaa6a1532acbe4f7a81df85eb46fe29af6b16001922b152e6cd31",
    "stdlib/shutil.py": "fbf1f3b6034013d680df1d0ce685fd01683211902ac5e2e9be671d482b2a2c25",
    "stdlib/stat.py": "441580f879b76a394d464d2e173c716acf995770a393762febd76a1194bb0858",
    "stdlib/statistics.py": "c8926f9654ea0e6626994b3af7b7eb755e977fce89f44484e4dac4d41ca5afd9",
    "stdlib/string.py": "8362fef77df6a64f41b160827be8de39267dbdddf9359ed99fe743c34f28c777",
    "stdlib/tempfile.py": "8f9d741081c14667baf36ae9871697ed632e67856ce8667c2c727c40c0299e3a",
    "stdlib/textwrap.py": "2c4d4a851315331ed0a9ce1c5c4cebef29e3aac4630b6fed31b844ad08c4a18d",
    "stdlib/tokenize.py": "cf41f826b04c4a29923b92e10f875ab1e34bbc3e69e2b7b76316873e26defd9e",
    "stdlib/traceback.py": "0cc4435d92a9de24c1e32431209b243d90eefa0e8e64eb947beb4b7503644132",
    "stdlib/types.py": "22aa31db6eb065fc310ee1f616223fb12c709cf53ae812cb318cd3ffbd1eac4a",
    "stdlib/urllib_parse.py": "5ffad8debe5513833624701f1263206b3e7e7e512a5957e5f4b9d276651af187",
    "stdlib/uuid.py": "d5da7c705939fad734833bc4e9588c94dd43ca96ef817418f2503fb98e17d840",
    "stdlib/warnings.py": "4e063a68517a15c56efdd4e10c813ec36d99699f2a1221231c3d17b92ab7382c",
    "stdlib/weakref.py": "391a63b98244f953b2041f66872ec57233e384e048d1cd985a0d8ffce3f1efad",
}


def render(module, facts: bool = False) -> str:
    """One line per field of every function; ``facts`` adds the arrays,
    extents and assumptions, which the printed IR does not show."""
    lines = []
    for cf in module.functions:
        lines.append(f"def {cf.qualname} {cf.origin} {cf.lineno}")
        lines.append("params " + json.dumps(cf.params))
        lines.append("source " + json.dumps(cf.source))
        for d in cf.degradations:
            lines.append(
                "record "
                + json.dumps([d.phase, d.code, d.diag_code, d.scope, d.action, d.message])
            )
        ir = None if cf.function is None else print_function(cf.function)
        lines.append("ir " + json.dumps(ir))
        if facts and cf.function is not None:
            fn = cf.function
            lines.append(
                "facts " + json.dumps([fn.arrays, fn.array_extents, fn.assumptions])
            )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_corpus_output_is_pinned(name):
    text = (CORPUS / name).read_text(encoding="utf-8")
    rendered = render(compile_module(text, origin=name))
    assert hashlib.sha256(rendered.encode("utf-8")).hexdigest() == GOLDEN[name]


def test_golden_covers_the_whole_corpus():
    assert sorted(p.name for p in CORPUS.glob("*.py")) == sorted(GOLDEN)


def _data_files():
    return sorted(p.relative_to(DATA).as_posix() for p in DATA.rglob("*.py"))


def data_digest(name: str) -> str:
    text = (DATA / name).read_text(encoding="utf-8")
    rendered = render(compile_module(text, origin=name), facts=True)
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def parses(source: str) -> bool:
    """Whether this interpreter's ``ast.parse`` builds ``source``."""
    try:
        ast.parse(source)
    except (SyntaxError, RecursionError):
        return False
    return True


@pytest.mark.parametrize("name", sorted(DATA_GOLDEN))
def test_data_output_is_pinned(name):
    text = (DATA / name).read_text(encoding="utf-8")
    if parses(text):
        assert data_digest(name) == DATA_GOLDEN[name]
        return
    module = compile_module(text, origin=name)
    assert module.error is not None and module.error.diag_code == "PYF406"
    assert not module.functions


def test_data_golden_covers_every_pinned_input():
    assert _data_files() == sorted(DATA_GOLDEN)


LOOP_REUSE = textwrap.dedent(
    """
    def reuse(n, m):
        total = 0
        for i in range(n):
            total += i
        for i in range(m):
            i = i + 1
            for j in range(i):
                total += j
        for j in range(3):
            for j in range(2):
                total += j
        k = i + j
        for i in range(2):
            total += i
        while total > k:
            total -= i
        return total + j
    """
)


def test_loop_variable_records_are_pinned_in_order():
    (cf,) = compile_module(LOOP_REUSE, origin="reuse.py").functions
    assert not cf.ok
    # loops in walk order: the four top-level loops (lines 4, 6, 10, 14),
    # then the nested ones (8, 11); the first loop's variable is read
    # after it at line 13, which is the one record the def carries (the
    # read of i at line 15 is shielded by the body of the later
    # same-named loop)
    assert [(d.diag_code, d.code, d.message) for d in cf.degradations] == [
        (
            "PYF405",
            "loop-variable-read-after-loop",
            "loop variable 'i' is read after its loop (line 13); its "
            "post-loop value differs from CPython's",
        )
    ]


def _def_node(source: str) -> ast.FunctionDef:
    return ast.parse(textwrap.dedent(source)).body[0]


METHODS = (
    "class Box:\r\n"
    "    def total(self, n):  # a method\r\n"
    '        note = f"{n!r} in {\'box\'}"\r\n'
    '        doc = """\r\n'
    "flush left\r\n"
    '"""\r\n'
    "        return n  # trailing comment\r\n"
    "\r\n"
    "    async def fetch(self):\r\n"
    "        pass\r\n"
)


def test_source_is_the_defs_own_text():
    (cf,) = compile_module(LOOP_REUSE, origin="reuse.py").functions
    assert cf.source == LOOP_REUSE.strip()
    # a method loses the def's indentation (a flush-left string line
    # keeps its own), line ends become \n, the f-string keeps its
    # quotes, and the text ends where the body does
    total, fetch = compile_module(METHODS, origin="box.py").functions
    assert total.source == (
        "def total(self, n):  # a method\n"
        '    note = f"{n!r} in {\'box\'}"\n'
        '    doc = """\n'
        "flush left\n"
        '"""\n'
        "    return n"
    )
    namespace = {}
    exec(total.source, namespace)
    assert namespace["total"](None, 7) == 7
    assert fetch.source == "async def fetch(self):\n    pass"


def test_compile_function_alone_has_no_module_text():
    assert compile_function(_def_node(LOOP_REUSE), "reuse", "reuse.py").source is None


def test_skip_record_fingerprint_is_unchanged():
    text = (CORPUS / "degrade.py").read_text(encoding="utf-8")
    table = {cf.qualname: cf for cf in compile_module(text, origin="degrade.py").functions}
    cf = table["reads_loop_var"]
    assert not cf.ok
    record = _skip_record(cf)
    assert record["fingerprint"] == source_fingerprint(cf.source) == "cf331237352e127c"


def _count_walks(monkeypatch) -> list:
    """Record the root of every walk ``compile_module`` makes; fail on
    any use of ``ast.walk``."""
    roots = []

    def counting(real):
        def wrapper(root):
            roots.append(root)
            return real(root)

        return wrapper

    def no_generic_walk(root):
        raise AssertionError("compile used ast.walk")

    monkeypatch.setattr(typeinfer, "walk", counting(typeinfer.walk))
    monkeypatch.setattr(lower, "walk", counting(lower.walk))
    monkeypatch.setattr(lower, "walk_def", counting(lower.walk_def))
    monkeypatch.setattr(ast, "walk", no_generic_walk)
    return roots


def test_compile_walks_each_def_at_most_once(monkeypatch):
    roots = _count_walks(monkeypatch)
    compile_function(_def_node(LOOP_REUSE), "reuse", "reuse.py")
    assert len(roots) > 1  # the loop-variable check walks loop subtrees
    defs = lower._function_defs(ast.parse((DATA / "stdlib" / "textwrap.py").read_text()))
    roots.clear()
    for qualname, node in defs:
        compile_function(node, qualname, "textwrap.py")
    walks = [sum(1 for root in roots if root is node) for _, node in defs]
    assert max(walks) == 1 and walks.count(1) > len(defs) // 2


HEADER_REJECTED = textwrap.dedent(
    """
    @cache
    def decorated(n):
        return n

    @cache
    def decorated_and_starred(n, *args):
        return n

    def starred(n, xs, *args):
        return xs[n]

    def keyword_only(n, *, m):
        return n + m

    def double_starred(n, **options):
        return n

    async def coroutine(n):
        return n
    """
)


def test_header_rejected_defs_are_never_walked(monkeypatch):
    roots = _count_walks(monkeypatch)
    module = compile_module(HEADER_REJECTED, origin="header.py")
    assert roots == []
    assert [(cf.qualname, cf.params, [d.code for d in cf.degradations])
            for cf in module.functions] == [
        ("decorated", [], ["decorated-function"]),
        ("decorated_and_starred", [], ["decorated-function"]),
        ("starred", [], ["unsupported-signature"]),
        ("keyword_only", [], ["unsupported-signature"]),
        ("double_starred", [], ["unsupported-signature"]),
        ("coroutine", [], ["async-function"]),
    ]


def test_kind_conflict_names_the_shallowest_reason_first():
    # xs is stored four levels deep in the first and third statements and
    # read three levels deep in the second: the breadth-first walk meets
    # the read first, so the int reason is "used as an integer"; a
    # depth-first walk in either direction would say "assigned"
    (cf,) = compile_module(
        textwrap.dedent(
            """
            def f(xs, n):
                if n > 0:
                    if n > 1:
                        xs = n
                total = xs + 1
                if n > 2:
                    if n > 3:
                        xs = n
                return len(xs) + total
            """
        ),
        origin="first_reason.py",
    ).functions
    assert [d.message for d in cf.degradations if d.diag_code == "PYF404"] == [
        "'xs' is used as an integer and passed to len(); names must be "
        "either int scalars or list-of-int parameters"
    ]


def test_annotations_are_not_kind_evidence():
    module = compile_module(
        textwrap.dedent(
            """
            from typing import List, Optional

            def f(xs: List[int], n: Optional[int]) -> int:
                total: int = 0
                for i in range(n):
                    total += xs[i]
                return total
            """
        ),
        origin="annotated.py",
    )
    (cf,) = module.functions
    assert not [d for d in cf.degradations if d.diag_code == "PYF404"]
    assert cf.ok
    assert cf.params == [("xs", "list"), ("n", "int")]


def repository_modules():
    """(path, ``compile_module`` output) for every ``.py`` file of the
    repository (``perfbench/data`` and the corpus included), paths
    relative to its root."""
    root = DATA.parents[1]
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        if any(part.startswith(".") or part == "__pycache__" for part in name.split("/")):
            continue
        yield name, compile_module(path.read_text(encoding="utf-8"), origin=name)


def repository_digests():
    """(path, digest) of ``render(..., facts=True)`` for every ``.py`` file
    of the repository: not a golden, it pins nothing; two checkouts'
    outputs are diffed."""
    for name, module in repository_modules():
        rendered = render(module, facts=True)
        yield name, hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def test_no_repository_def_crashes_the_walk():
    # PYF401 is a warning, so ``repro pylint --fail-on error`` passes a
    # crash of the walk that records and desugars a def; this does not
    crashed = [
        f"{name}:{cf.qualname}: {d.message}"
        for name, module in repository_modules()
        for cf in module.functions
        for d in cf.degradations
        if d.code == "internal-error"
    ]
    assert crashed == []


if __name__ == "__main__" and sys.argv[1:] == ["--repository"]:
    for name, digest in repository_digests():
        print(f"{digest}  {name}")
elif __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(GOLDEN):
        text = (CORPUS / name).read_text(encoding="utf-8")
        rendered = render(compile_module(text, origin=name))
        print(f'    "{name}": "{hashlib.sha256(rendered.encode("utf-8")).hexdigest()}",')
    print("}")
    print("DATA_GOLDEN = {")
    for name in _data_files():
        print(f'    "{name}": "{data_digest(name)}",')
    print("}")
