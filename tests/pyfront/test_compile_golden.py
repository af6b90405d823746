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
import re
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
    "degrade.py": "0454bb504c66f61066f9b53ca3c5facf1b991894871c8c548b418990cb4929e2",
    "kernels.py": "117efcaf65c8cb4301d7ab87105dc9293ec83ae1cc522e3f66d64cb1c8be8103",
    "numeric.py": "bc95c0b434e716998ad40bdaafaf81feaf983fc2053c516c9ed03a130394503d",
    "search.py": "104ea6031376bbd98675869a5c58ed5c7eba194513b6ad017802e8c3635c5a40",
}

#: sha256 of ``render(compile_module(text, origin=name), facts=True)`` per
#: pinned ``perfbench/data`` file (real stdlib modules plus the corpus)
DATA_GOLDEN = {
    "corpus/degrade.py": "c99734e8f8f062bd8fb95749be118286cbbb5ea279ed0667e5fd84d42582c131",
    "corpus/kernels.py": "b408059cc8794095b5c7a7d17bc1ba4a312f36d16b16feef4552fd65c58adaa8",
    "corpus/numeric.py": "38283429c5e5d3ce071a15bd96539d730a8dfc5c6966db764112c8786b90571b",
    "corpus/search.py": "ac3c773ce653093b6734f4f97b79d49ee9941a7ac170dfc7d0d7e0f162abe8ba",
    "stdlib/abc.py": "406300e1cfffba9416f700a264d7e902e7df11a04f188e5f8510b5058d8e1b5c",
    "stdlib/ast.py": "2bea078d8bae66239ef85df3bc561dbdc2b71099573023a1aafcdc51f52dc56a",
    "stdlib/base64.py": "71844848ffa53f7fecdfd308b5ef5bb7ba3925a0664bf669ed5e3eb948e4a016",
    "stdlib/bisect.py": "730dc9d8c60d54b532b34a8d9efbeff8ba6b7b447cb897a6872f79858e1a3d66",
    "stdlib/calendar.py": "158d1de70764b3cf4e92a6a80b865a0f203ca9f14b01ed5c71c82c6de7754978",
    "stdlib/codecs.py": "94497c0d6510db961bc42ed84273a0bd1fa27ce5b3e260a116c99df3edf8dfba",
    "stdlib/collections.py": "51c753be3410c8fbfd30a315192287957c50b5b0a0739056bf399b2bad9eb76a",
    "stdlib/colorsys.py": "9c7b2506ca6316e213fd4aa43d302e4e236d0be48a68775631d35e6397c3f0b2",
    "stdlib/configparser.py": "837497018d2f26772b998ad5a52ca0eaa890fecd470ca399c52edff7a97a7e9a",
    "stdlib/contextlib.py": "1b4dbaafdc37407593a510810086104c4ac37088b012cf51cfe5781dc421ce97",
    "stdlib/copy.py": "5456c38ece8d5c4e486402ceb2997c1aa18fe6ac83f1249e9116a62ed36ecdcc",
    "stdlib/csv.py": "313ff6d1062afa8bb73397c9421c09e11206adfd067b08be125693b1613764ef",
    "stdlib/dataclasses.py": "d9edc47087f1ab5c75bc99e66e1c1435d3feafe406a2afd099d1ce918861bf55",
    "stdlib/difflib.py": "cbd1f5009a494ad1f9df1c3278da2ba9087dc6a67af5aefec120882b63b1a1c7",
    "stdlib/dis.py": "ba7ae9c4de6b11d50cfb2e559be7490864081ca29efbcce590d28643ca218235",
    "stdlib/email_utils.py": "167156a31387a7ba624de6cd4c42305f9f4fe9f453f15e030a5e4823d1a23502",
    "stdlib/filecmp.py": "0ee3c6ae4d3bf43dbad868fc1002f0193ad9e375ace6ddbe0d71ffcecbb9fbf9",
    "stdlib/fileinput.py": "0d691f34f527fe2f47c5a4d2c9d6ea322a51fb7cfe21498974e2a26eaa785926",
    "stdlib/fnmatch.py": "c48b72825c313a07b3b8ebeebd2130c595e1d1b21cc964535705abe6f698503e",
    "stdlib/fractions.py": "4ba32f13e45e0c627111dd546c414fbab96ca7a71af0b9b2a2df31bb87255847",
    "stdlib/functools.py": "ec2f3530975506d747266ad5a2865e175421d8a83baddd403cac379ce98cef1c",
    "stdlib/genericpath.py": "234a928bfee0d23c0290469b5bfa15e3fc8c6aeb81f1eb0baa24e7198945bae9",
    "stdlib/getopt.py": "2520111b0eb2e3b73cc4dc857f6e966fd04430a99a8ef3c7406ddff92d5d5d21",
    "stdlib/gettext.py": "e69cd0b7afe1475ad0dc77893b795c9a0f04e58a36930c702880ecbb6b9d49e8",
    "stdlib/glob.py": "c7788d997326a8de80acc65202beedc1730036c65212ebfbc0a615ef9ee75a57",
    "stdlib/graphlib.py": "853325563be2b17d777015e2083a29353b1078a41bf8f5d56d11833e249bde6a",
    "stdlib/heapq.py": "3b9df22409c23b1cb69d03795003d78bb5d614d7eb4648adfc85502600a5b1d1",
    "stdlib/hmac.py": "a562560e2c437620ac3c3de12102a8735e5b5bb3fbbcb8f390eda95541d2ed24",
    "stdlib/html_parser.py": "9b2de853377f8a4594a1261239519ff08cee2a4a6d5e8e4e3a191cb38f7bd53e",
    "stdlib/ipaddress.py": "dc864b50b3956f3da7bcb5ae8865c0ea03e2e006a291c8fe3fc889c3d6fc8408",
    "stdlib/linecache.py": "b8ceb7d45406a2d380239751a57c6e84ac59efbc5ef78f574eef8976ab2c2774",
    "stdlib/mimetypes.py": "26f354e0d707c65ea957a5ce437e3fd1a0b995e6a80e37a4e11b775c4250157a",
    "stdlib/netrc.py": "d9894f1a93fced0148dac3b37f061399c5e7da8fb1b4495af93ee2b18907d452",
    "stdlib/ntpath.py": "8d8978215b0f8af64fdf1004530e814969a276a32a48a4fdb63ed0482fa532c5",
    "stdlib/numbers.py": "c6124b447fc10fbff8b7ac2f68c4a54e9b24b2122ce7103071f229e8892b04ef",
    "stdlib/operator.py": "9d7cc29df3976c332e3a0ba06f24b27b4fc461346c30fb89044bca448262c4c3",
    "stdlib/plistlib.py": "cad32b9ce2f2a1318824cb44d7f29aea55b980c2a1ae94060fd7b893cf7ea6cd",
    "stdlib/posixpath.py": "04d98abababf625d2ffff12cbd15bfa982068a614c2fa4a62058a937ff02ddd7",
    "stdlib/pprint.py": "2bd7e31b404cb0cbe71a8efb1e82c93b1cb0cc5dc655b5ff77919cc85c30b662",
    "stdlib/queue.py": "f19d38b79edc929b509f19d8ac9e6ab9b2bba92a908dc43fac1d21ae1cdf43ce",
    "stdlib/quopri.py": "2165fd21274f025dca1fcb1effccbdf098bd3cc317ba4bc668f8b20d2841c99d",
    "stdlib/random.py": "0d8dcf8c5184308cc8a085bdad4a727fc472feca32c3341e6ce9064901ed5c08",
    "stdlib/reprlib.py": "4f13901fd234057f6e36c0d51b5ecacc5a972e22f33655c9b6a205fa61e20026",
    "stdlib/sched.py": "6a91004f911b95cbbe0d684cd623929129fbe005b005767ebae5918ab185d6f6",
    "stdlib/shlex.py": "d503758bc8d04324b366d9b04529aec1bcc7a839619871e764af6153d62ca171",
    "stdlib/shutil.py": "4745812574c8aa76ef50f6d0644de3e12dc7366efce2994b8e432b5597affb8a",
    "stdlib/stat.py": "8377e8b898150dbd0baa0bd3628b7a8f2a6876580317f0f4d57148f8f42d9274",
    "stdlib/statistics.py": "3de26c8f3d75ef33be9b5d21015bc3b557de21cb8e4815ced7cee95c6d1624ec",
    "stdlib/string.py": "13ea5a52309dc31022398aa3718338ad041a2ee50fd6d7d091dc4c995755086b",
    "stdlib/tempfile.py": "ea5d3ee65cd0abc6a568e803bb975dbd072d651378a4153c17c7bdfcd3f6462e",
    "stdlib/textwrap.py": "964f01de12572cd799c118adf8e343cd99ef0d741f0e1d31ef66f2a9aedbae8f",
    "stdlib/tokenize.py": "bcd723c696d015f7b390b9fc3f0efcdc12e40f39ca8ff69d63c7d0591a293a92",
    "stdlib/traceback.py": "97adaa90551f5e1438a3f70c38e86613918de69f098dbe6e698c255f9a118b99",
    "stdlib/types.py": "1b3337203544f748d1a4c37124bce8be07bd4770e903fa9bf6db165f8b8f6eaf",
    "stdlib/urllib_parse.py": "b403bd278190c9ba5f288783265fc9223d97a6fd1157576d3db147a6229fd687",
    "stdlib/uuid.py": "e99bc96771dabc55488ffce1b87767963bffbc26f69e178a6de3b81dbdd3e3b7",
    "stdlib/warnings.py": "c6a60b8b8a12306cf890303ed93dd882bd12c2da0aab73b6b40b5f8e06070534",
    "stdlib/weakref.py": "fb27fe81f9d07f10797eebf7165b774ed72ded572b8d44e1621b331a5128cfbd",
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
    assert {d.diag_code for d in cf.degradations} == {"PYF405"}
    got = []
    for d in cf.degradations:
        var, line = re.search(r"'(\w+)' .*\(line (\d+)\)", d.message).groups()
        got.append((d.code.replace("loop-variable-", ""), var, int(line)))
    # loops in walk order: the four top-level loops (lines 4, 6, 10, 14),
    # then the nested ones (8, 11); the read of i at line 15 is shielded
    # by the body of the later same-named loop, the one at 17 is not
    assert got == [
        ("read-after-loop", "i", 13),
        ("read-after-loop", "i", 17),
        ("reassigned", "i", 7),
        ("read-after-loop", "i", 13),
        ("read-after-loop", "i", 17),
        ("reassigned", "j", 11),
        ("read-after-loop", "j", 13),
        ("read-after-loop", "j", 18),
        ("read-after-loop", "i", 17),
        ("read-after-loop", "j", 13),
        ("read-after-loop", "j", 18),
        ("read-after-loop", "j", 13),
        ("read-after-loop", "j", 18),
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
