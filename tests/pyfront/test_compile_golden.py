"""Pinned ``compile_module`` output and the single-walk compile contract.

``python -m tests.pyfront.test_compile_golden`` prints the golden
digests; with ``--repository`` it prints one digest per ``.py`` file of
the repository instead (``make pyfront-digests``).

The golden hashes cover everything a compiled function carries: params,
re-rendered source, every degradation record in order, and the printed
IR, so a change to how ``compile_function`` walks a def cannot move its
output unnoticed.
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
    "degrade.py": "ab885d9e7e1c29be544923a7afbd592ff0795bab9ba816f3a821fe0f6c912782",
    "kernels.py": "117efcaf65c8cb4301d7ab87105dc9293ec83ae1cc522e3f66d64cb1c8be8103",
    "numeric.py": "bc95c0b434e716998ad40bdaafaf81feaf983fc2053c516c9ed03a130394503d",
    "search.py": "104ea6031376bbd98675869a5c58ed5c7eba194513b6ad017802e8c3635c5a40",
}

#: sha256 of ``render(compile_module(text, origin=name), facts=True)`` per
#: pinned ``perfbench/data`` file (real stdlib modules plus the corpus)
DATA_GOLDEN = {
    "corpus/degrade.py": "c1589c5d4e40120194fa2796658ea558cebab7111f1f620780bf70b5b8dccecc",
    "corpus/kernels.py": "b408059cc8794095b5c7a7d17bc1ba4a312f36d16b16feef4552fd65c58adaa8",
    "corpus/numeric.py": "38283429c5e5d3ce071a15bd96539d730a8dfc5c6966db764112c8786b90571b",
    "corpus/search.py": "ac3c773ce653093b6734f4f97b79d49ee9941a7ac170dfc7d0d7e0f162abe8ba",
    "stdlib/abc.py": "2636c1eb750686ce1f7d57d3324bacce3e6f12b7a1c0a95ff4521b5283b9b82a",
    "stdlib/ast.py": "7f4e138f392feedb9560f1f023a0d79ff6222c5e1d0c1a1f63f54a6502da4425",
    "stdlib/base64.py": "1cfd80c259d8060a0b2f560ea0d84e03748173757a9916478f5351b451113318",
    "stdlib/bisect.py": "6c987e612f6953aec77c42278ffeecf5c5829d87ad9bf4e00ede4436c70e19af",
    "stdlib/calendar.py": "c0ff5594273dc728fe14d810734872879015c7165a3bcf97093f990484d93a30",
    "stdlib/codecs.py": "4bc8de0cebb611621093b456f9d61a1f0e52736b0af165b41aa7dfc410754784",
    "stdlib/collections.py": "820b381335e010812771422f2a3e648d552868d986fe3e37f633df21aaf5f7b7",
    "stdlib/colorsys.py": "bd544c9d4a690f18b072811925f7f9846b1bd35ea05c33da0f48b9f69d2347fc",
    "stdlib/configparser.py": "8660a023103eed100aa76744495113bcf944625b512a5eef312a6896d5fbd7ba",
    "stdlib/contextlib.py": "879813dcbca8b4d0ab745704eeb6166bbd1b0c3266fe8d75487bfd15fea68120",
    "stdlib/copy.py": "87617eb4149450b3c253f06cfe01f41f3a04717ef1cf06f81ad37c661360ec88",
    "stdlib/csv.py": "0869cc5efd721fc3a9cece198a3e563ccb73e249f86925345aba28742ed45178",
    "stdlib/dataclasses.py": "6ef48ff057b98a4eb74e027a277233a54457ae73b51da669b5e2c98734d6b35c",
    "stdlib/difflib.py": "7775b121b6b4b73f717eadf240752a353263e448e5bc68bf54b87750ea837d0c",
    "stdlib/dis.py": "5fdf49e7f798b75871c0e621c06058b0d925520f8c76e9e6a59defa40916ba6f",
    "stdlib/email_utils.py": "f129ef14bc2da4e3145329fd7b72ee1b25cd1f60809dc94a308b1103113ab699",
    "stdlib/filecmp.py": "aad33df47302ed860c170fcb58073e7c48c4f60437868108886883cde8733ed5",
    "stdlib/fileinput.py": "1db073a9a5ec17a3235680c4103a75cc14f819d3bb90d738fb082d87cf3abc97",
    "stdlib/fnmatch.py": "22b7d7f9be4bcb4d979eec19a4b4117a7096d8d6b91a60ade63fe48ebb63c412",
    "stdlib/fractions.py": "9ef42a264a5d2551ab9cd2ae2d39137e7fd4cde1c95c8d3c70ed6a35d47565e6",
    "stdlib/functools.py": "164ea8b1567e799e315e93ccfccc59bd3aff5cd81c6a4108a981ba4a6df84494",
    "stdlib/genericpath.py": "35b27137d3f9d2c88ebdd97fd32965fb0cd1aedf01b65aac5d8cbded55f7ced5",
    "stdlib/getopt.py": "f0e344c9a9541700bc0ffd6b4c8c84da6a7b125be321015759dcd453cac59c9c",
    "stdlib/gettext.py": "215f3990d5b2ff4e398a190f84035d060d7c151ffb1ee47b5c84117f14af3c01",
    "stdlib/glob.py": "2218b0a73a7dde457eba3272be90272d49f2881ff53f445c35d8fd660b24ab24",
    "stdlib/graphlib.py": "39c704577dec97b57e884b3c96fe8ecde19749daa5b6a92fed1c737863b30ee2",
    "stdlib/heapq.py": "292722beedb6d0dbcb1a6524b2877039ffc068b75fe8923d1b33ce879e910802",
    "stdlib/hmac.py": "299ccece5fb0a9c57ff97251977cb64e8054ddab42bd0fcc75315eba92b15b2e",
    "stdlib/html_parser.py": "bc019e877f8af4c31f86cb5affc4bc383750df5e06da0fac2ddfe368853578d0",
    "stdlib/ipaddress.py": "ef42d30f38e9fd4b23fb3726c051fec2a314c3b52bc8a50cc2b07cb4ea910f57",
    "stdlib/linecache.py": "0ea641becb588c3d23db68d23f1661f2ec25e6aa495351c8ac163c3343a750c4",
    "stdlib/mimetypes.py": "88a993d4a69040343db2fa5cd652e7e336fd3f7572e30e281cc4fd64cd19a6f6",
    "stdlib/netrc.py": "f6fd0e2ce0331abe5b94bbff19236c14438636ab6100140953e7bf5a87df7701",
    "stdlib/ntpath.py": "48d77107e311c5d74e6251e2b3f3100392ea0d3071b2bde73d8b846840b1a104",
    "stdlib/numbers.py": "f9b6c5ddbda41d612c027a81ae2ce0f6494948be6a778619bbb64d9a6b6c4e74",
    "stdlib/operator.py": "f592dcc97ce09e1280605907dc663b89714715e60b8340be337d1173f58ac25c",
    "stdlib/plistlib.py": "6d4bca575b307c14ad9e97cc823200fe73ccd79012fcecc228a29bdc1bfb3d0b",
    "stdlib/posixpath.py": "459d32fbf27aec35f57dce4dde41e3c42b662662beed5e2db3178e6ae6a661eb",
    "stdlib/pprint.py": "7f2522e8fc7a33bf10e6e9fef2ee2870c8ce1968d5f2364a14ae517885d100d1",
    "stdlib/queue.py": "049c46364ad0bcef5798b559950138da1a0e5cfe567591e69b9e976cfc354774",
    "stdlib/quopri.py": "3bc38fefb7e6cf89aa913b4f979e6a8cca70125cf7b031081ac5eb0136470157",
    "stdlib/random.py": "83bc85d77110c63d8fbcf8c7ea740c268bf0e2cc2426713c4c809c00b8d32c41",
    "stdlib/reprlib.py": "f6423a16bf55870cfc439b66651a0dbb0faf2c3c0abd750bc8d6db045ab2e091",
    "stdlib/sched.py": "fd0ca9e6689bdf4fe856307924398fea9c900a3c8fd5fd792a33316734cfd8ea",
    "stdlib/shlex.py": "8bf6e07c2f6731509d862906c8c3334c4a2ffbd68dff6158a19a31cc6e07e5b9",
    "stdlib/shutil.py": "bd6fd6bb1e58ab7cd4c7c76c7c8ee9530449d06e9d07dee40943eb1d8c093dd0",
    "stdlib/stat.py": "1a66bc6c8908b89a1aa6bd1227e8a018ab6af7e1bddf097e0de1ef34098ac07d",
    "stdlib/statistics.py": "54f76992aaad806979e918806cd378b6867cc83213c431de7c47d1bcf8d73a3a",
    "stdlib/string.py": "916711cc2efbfb379a0bcd2b0cccc7c672db413e7eed8a6371ee8779f6b479e7",
    "stdlib/tempfile.py": "8ac02924355cbd98d23e2ed8920a36210439d92f9844e2ce21eedef38f7772d4",
    "stdlib/textwrap.py": "2b3ff5e023ec406eb705641f4f2a55c1f814696955610df0745f7644c280b483",
    "stdlib/tokenize.py": "fc382f023030d4b5e3f0af5504ab8275a7ed13e64a87f0b2018b766640a2ef0d",
    "stdlib/traceback.py": "b6127dafec1d938bc063439b1b6cfc16914f6c1b79d6af3461f9e24668397569",
    "stdlib/types.py": "db67fa8096ddc37d2b9f107ef426991a021c687e58252da75f83cbbfbac5f422",
    "stdlib/urllib_parse.py": "1ecb8490d30ee10bd5a31130e13356bd56cf0a239bd695e5f7cb96a804efe8f7",
    "stdlib/uuid.py": "3d33cda196114d75ebb9f9da8edd7af82a9ae0caabbd5b8ce0a0ce3d2b3ab344",
    "stdlib/warnings.py": "3b12aeb43b3670a5099c27420558f9623190731ef7e0c77b0db3de4b5f097313",
    "stdlib/weakref.py": "400b8bf9269e1951d5aa9d4793f03575e03f00ddced72e6976fbcc8dec5b8ceb",
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


@pytest.mark.parametrize("name", sorted(DATA_GOLDEN))
def test_data_output_is_pinned(name):
    assert data_digest(name) == DATA_GOLDEN[name]


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


def test_source_is_exactly_unparse():
    node = _def_node(LOOP_REUSE)
    expected = ast.unparse(node)
    compiled = compile_function(node, "reuse", "reuse.py")
    assert compiled.source == expected
    assert compiled.source == expected  # a second read gives the same text


def test_skip_record_fingerprint_is_unchanged():
    text = (CORPUS / "degrade.py").read_text(encoding="utf-8")
    table = {cf.qualname: cf for cf in compile_module(text, origin="degrade.py").functions}
    cf = table["reads_loop_var"]
    assert not cf.ok
    record = _skip_record(cf)
    assert record["fingerprint"] == source_fingerprint(cf.source) == "71c6f20505c19034"


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


def repository_digests():
    """(path, digest) of ``render(..., facts=True)`` for every ``.py`` file
    of the repository, paths relative to its root: not a golden, it pins
    nothing; two checkouts' outputs are diffed."""
    root = DATA.parents[1]
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        if any(part.startswith(".") or part == "__pycache__" for part in name.split("/")):
            continue
        text = path.read_text(encoding="utf-8")
        rendered = render(compile_module(text, origin=name), facts=True)
        yield name, hashlib.sha256(rendered.encode("utf-8")).hexdigest()


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
