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
    "stdlib/abc.py": "6dc183b99a092d5910b72aedf1b63584d556bd2f815668d3cc974862862aea59",
    "stdlib/ast.py": "616004069a4febc9cfdf255fe35d0c85961193352d3152de8b861209fdbcdbaf",
    "stdlib/base64.py": "79ee2529f4ffb4ca5662f6608a2f3c35561c7152cbd364ac9d5e64e926211cd5",
    "stdlib/bisect.py": "d8e9f82e794343e5d5ec71cd49719b5f89836945345af29672e83d9dcb7e97e9",
    "stdlib/calendar.py": "353d5d2b5424e71624a78ab3ad3dd751d78facb971b68a1c6cd2cd966520167c",
    "stdlib/codecs.py": "93c788db4689f3724878bbe685159505508c7faea22795d7d6f1c41ed9646fda",
    "stdlib/collections.py": "17a4dfa7e4aadd30b765da7e17d78c02cb66765d067c06ed03f2ded1b86e0b53",
    "stdlib/colorsys.py": "a40fdb0ba633e189a1339077829922f97135743ce840c3f972bf13200a9e98aa",
    "stdlib/configparser.py": "f02d048cd0b201c43aba85ae645324995a40c4a24ba82e2f6e12c961d931b2f5",
    "stdlib/contextlib.py": "eb1a33693f19ddb5dd39b88e9ec8d007fbc7ceaa09f620d58f09234ed2486973",
    "stdlib/copy.py": "e0fabf3741fbd5d5d356bc122fe972facf586de9938da507af4ccac8352621e7",
    "stdlib/csv.py": "44730f2ffc8777cac0c9a2de56b884cd634f05f69ce0f1b4bf9ce30cce26cb2d",
    "stdlib/dataclasses.py": "67accd7c1edad1394c43bfcbd4d0d96929917dacad2f64c0fac62b1143ffe07d",
    "stdlib/difflib.py": "708c39543f05b1340831bc5aa51005cba223deba81029347d01d9d801dbff2fc",
    "stdlib/dis.py": "f856a298c98087b1acf03307899b6e175e3d11c95a3bed59c625b549aadfb02e",
    "stdlib/email_utils.py": "254f087324e5bfe8b95edccc1a267ed19f89e86d5ae29f59d71edf341109ea5c",
    "stdlib/filecmp.py": "8c5d5c8d21c64d5fca6b6b2adf414e55cba34fc29f60a82cf1987bafe083b9e7",
    "stdlib/fileinput.py": "e4234be8f63be9ced9f66a9aaa29f011784a721fedd017f9225d762bcffbf71b",
    "stdlib/fnmatch.py": "aaea36434c48285b41901adbe40b281e5f06e41165b5dc9315f553ceeb711e30",
    "stdlib/fractions.py": "61b8d07bc4efafc3961b909fb25cd24854c08e080b4a631a14d64659b838d8d0",
    "stdlib/functools.py": "bc564f68180e565dfdbf5b06c93a969cd046c25efd743d6a002cf57d0ee760cd",
    "stdlib/genericpath.py": "43c3fbd8ff094e81fade8977533a8ef02e00319c24408b09d0cfc6a2e99e225a",
    "stdlib/getopt.py": "ef9d4e6eb03210354b8731ec755cb11dd43c32ccb4ffc0b5ac01ba5e9f85593c",
    "stdlib/gettext.py": "fc3a829df05702fa710d850d891b3a28311d4c2d175c78d9d29fdab6decf6bd2",
    "stdlib/glob.py": "9c9f4f9c6a71942651817fc4a6f0848ed165ed32c71e1ce0c10371d14353f5c3",
    "stdlib/graphlib.py": "ddcb1adb6f5616176f01c89ad7ca3d2ded9c65454f8f2fb889143a272691b63f",
    "stdlib/heapq.py": "29e6833ab1b7d0303c21a9c0eaf62430acc3a1c0cb0a5f58c1572c944fd9e358",
    "stdlib/hmac.py": "6ed8cd674198982c87b2db151ed4aadd2a0b34ca6c7fb78c0a9073bc7b616ff1",
    "stdlib/html_parser.py": "1ee766bede87ec5f5b41c18474b9bc0c995b1c0c0622d1184a76dc14362c7e0e",
    "stdlib/ipaddress.py": "3b6129a50b77325e0f1d88c55310749c2312a4864d2ee8c2a83592da241227e6",
    "stdlib/linecache.py": "bcb7ca849120197d1ad08fdcb701adeb8a358cb1e487413e543fb233c21741ee",
    "stdlib/mimetypes.py": "0d3d37d8b48e5b666bcb43c96b3cbb8161a4b972fc0387122ac19c43923b36e5",
    "stdlib/netrc.py": "4d71d896c2d2ff85b746143e27dd9d15d482006bcb93eee39dca5a87bd130d30",
    "stdlib/ntpath.py": "1eb3f0de2e3512b334c2810c26da20da2450ffc7cfd94b2a49ced8d92e97c10c",
    "stdlib/numbers.py": "e94090691dbd0c4bb94ddfe3b177bd956bffc58c5911485cc1ad654f28f04d63",
    "stdlib/operator.py": "7ca6a48b99de067c9e25f2c5cddb28ed9563e33ebcfa6547904b90636150fb97",
    "stdlib/plistlib.py": "2a26b11fc439221de7fa6bb685b9612f08dd40578b59fc68221f266393200f03",
    "stdlib/posixpath.py": "71d02fa472c1b80eaf3c9a6d364d447d3d4b7980b34a96caa7e4800649b5aea8",
    "stdlib/pprint.py": "bba169d52cf1a3a958e4a6dcbef71bf98dd49f0fba6a9940ea4c83a6a4f19175",
    "stdlib/queue.py": "182b1ad3a959e893c100830125956b0088e70c5769c61efdef73df10d72435d0",
    "stdlib/quopri.py": "8986a92f14ed9f554f03a61923b6c0c0c14911e652fe852c38159cba973975b5",
    "stdlib/random.py": "e061473a067e8880da0c6bb7b8248fbcb7b135f30ec73e3a2a7a85c4b45bafe3",
    "stdlib/reprlib.py": "691ddee07a7e20689502a2289e62d42de06980da7a5b60804c75000c069bd103",
    "stdlib/sched.py": "f4c5565e3d02546b231ff9d1ec42669a9ebc7f65142dcd3b3eb52e89c18f40ae",
    "stdlib/shlex.py": "a4e6594f7edea3d02c98654a3a66d5a7392b37333b1ee63c458d7996f5c5e67e",
    "stdlib/shutil.py": "177edfebcbc63b6031aee0e8459eeb97f2d809b9fe530dd31b0385ade11414fa",
    "stdlib/stat.py": "441580f879b76a394d464d2e173c716acf995770a393762febd76a1194bb0858",
    "stdlib/statistics.py": "5a30da3af4f3c16e8477c7a03820753db76bdf900905b1e15ea8abe2195f3510",
    "stdlib/string.py": "8f45b01ce7f6997c0b23b79439e5ee1e9ac614bea45360bff11db6649a786618",
    "stdlib/tempfile.py": "e238ae1d4f465e9dc60e9a7975d46b5171ee8a3e03ebe968c9f5238e165dbadf",
    "stdlib/textwrap.py": "3365a9f748958ccd64fa3b6cbd3cee14edac75abf7f0d87be6cb1338559e24e4",
    "stdlib/tokenize.py": "124b561f78b92703187277f1e298e1c2aa195088a2818c4a17905b4296c771d0",
    "stdlib/traceback.py": "5a20e554fbfae14508fce86a6e77e7f70b047dfda555cb28d15df1743fee0067",
    "stdlib/types.py": "d4a75cf14703355f90a0cc1f059742845f1c8f435a02a1f348d0c175c97781a8",
    "stdlib/urllib_parse.py": "be31df77678712cc6eaec333d2f915e6162b9d5e9952bee64439c4a825fbd2a0",
    "stdlib/uuid.py": "d415b938dddc5093219c2c11d1ca45a4b25bf7b8309519a137952e33d4efe0de",
    "stdlib/warnings.py": "741476b1a60c31bc937ca846eed60b751c47fc6f9b92466217589e07f87aa7bb",
    "stdlib/weakref.py": "30e31bd68c319726e149736b44d43957f1c41c6e840cd13b7035c3d0a3b2a1cf",
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


def test_compile_walks_the_def_once(monkeypatch):
    node = _def_node(LOOP_REUSE)
    roots = []
    real_walk = typeinfer.walk

    def counting_walk(root):
        roots.append(root)
        return real_walk(root)

    def no_generic_walk(root):
        raise AssertionError("compile used ast.walk")

    monkeypatch.setattr(typeinfer, "walk", counting_walk)
    monkeypatch.setattr(lower, "walk", counting_walk)
    monkeypatch.setattr(ast, "walk", no_generic_walk)
    compile_function(node, "reuse", "reuse.py")
    assert sum(1 for root in roots if root is node) == 1
    assert len(roots) > 1  # the loop-variable check walks loop subtrees


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
