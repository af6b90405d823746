"""Pinned first blocking construct of every def of the Python inputs.

For each def of ``tests/pyfront/corpus`` and ``perfbench/data`` one line:
its qualname and line, then either ``lowered`` or the ``diag_code``,
``code`` and ``message`` of its first record that is not a PYF407 note.
That is the construct a degraded def is reported by, so a change to how
much of a def the walk records cannot move it unnoticed.  One sha256 per
file; ``python -m tests.pyfront.test_first_blocker_golden`` prints them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.pyfront.lower import compile_module
from tests.pyfront.test_compile_golden import parses

ROOT = Path(__file__).resolve().parents[2]

#: the pinned inputs, relative to the repository root
DIRECTORIES = ["tests/pyfront/corpus", "perfbench/data"]

#: sha256 of ``render(compile_module(text, origin=name))`` per input file
GOLDEN = {
    "perfbench/data/corpus/degrade.py": "fcd5cc027d492e0ff599c96d390722e3106c49de9c417621c4f16831107f311f",
    "perfbench/data/corpus/kernels.py": "aefa283570e6421d82bf129b0180a757755a4085a3747fc5f7bea2d9c6ace904",
    "perfbench/data/corpus/numeric.py": "73bf643292e0537639efa520b58b59d96033cc8ee248e9854a415606f7e3600b",
    "perfbench/data/corpus/search.py": "0f71b70bc83c452cfabfc3d1cb122eff3480917584636922886eac0dbf27eab7",
    "perfbench/data/stdlib/abc.py": "729ca6dff40b4d60ece9c9f35ca2e9fc91e9b89f36a34604b08e90fcbb7eb5ba",
    "perfbench/data/stdlib/ast.py": "293be7e34129b217cbccf02c5306c46a501502899b109f7227b65d81299c0550",
    "perfbench/data/stdlib/base64.py": "7d8ec88158b53488eb0dcb66e88d95a60377ce4335a2d363bdb79a165e252e64",
    "perfbench/data/stdlib/bisect.py": "d134c8bb435af0188b102c338f441538e27bbeb5f85ae99c6bb213f2f521c61e",
    "perfbench/data/stdlib/calendar.py": "1dfc30c049df02a430cfff1ee979db5b59119deaeb298786fc4bf8a8009d8c79",
    "perfbench/data/stdlib/codecs.py": "114bbff9e344243d498337d21044fb13a96b8b9163e8173d8da8587e2260e524",
    "perfbench/data/stdlib/collections.py": "33014dcb22de1dc4ba760d3eb5b4b3e60576113216ae095127e77302ee757290",
    "perfbench/data/stdlib/colorsys.py": "ebc3afcb7ff3f02652e1af4e2841671d9f241bf048d76725092462dc908601d8",
    "perfbench/data/stdlib/configparser.py": "14ecde582a3561f57e414fd839c32658509e8f9d1c5e182fbd0a3f1cad34ca38",
    "perfbench/data/stdlib/contextlib.py": "81ce30e7e8d4cfe1c9c853c7d11e2c800507f5c001c5ce25613257b0bfebead7",
    "perfbench/data/stdlib/copy.py": "1717b58d9fed905752d518b99c27ceac23dae3f6bf3057259b2cb4f0a5b2520c",
    "perfbench/data/stdlib/csv.py": "99e531f6fb9df699da2446e1c7048dc7421f229f8f5193ffa8a91c629fc52061",
    "perfbench/data/stdlib/dataclasses.py": "d5bda927b3261eaf6b416b820da27868b9e64e649bd3085dedd04b334926831a",
    "perfbench/data/stdlib/difflib.py": "614776e7ca46ce0b4f6eb7205713fa9af9713c26687e7e53dc31410028c81687",
    "perfbench/data/stdlib/dis.py": "36f403e6858daea811c8952c08483a0f0e8e03d3ea25f27b83e174a02252f257",
    "perfbench/data/stdlib/email_utils.py": "e603d233d1054251cd12d4d2ebc4412c43de484672e6265e82fc12b273f69158",
    "perfbench/data/stdlib/filecmp.py": "7169032b5f720f171762d4647dc18326ee1acbe27aecca3e0b842cc34394f7f3",
    "perfbench/data/stdlib/fileinput.py": "1cb05d8bc6d72b878520e28225742a654f42689263fd53899aaf0ba9dc8aec4f",
    "perfbench/data/stdlib/fnmatch.py": "efb6ff7c28fe6c520198b72d9ad337afc79511ec2b08e56a05820c274fcf65bd",
    "perfbench/data/stdlib/fractions.py": "75180fde7b9803a1b4920cef176cff0ff5ae0eeac6150e00178b2fe6e015cec8",
    "perfbench/data/stdlib/functools.py": "8793a4a70bbbcf2a833071e6d0d6efa9980b05f1dc6ede1c5bcc337b23f06bf2",
    "perfbench/data/stdlib/genericpath.py": "108e17145dfe35f2e37892d4d2fe7c2ec7f4c7b79b50b97bb68bf58e73dabe3c",
    "perfbench/data/stdlib/getopt.py": "235868c52d1d11a18e16d35e96324ec20976b3c7c1fa0983b830aa3df78dffdc",
    "perfbench/data/stdlib/gettext.py": "dd0f2b5245db07b0f9226dcb56791b4425bad88938d63b5b9281bb197469107c",
    "perfbench/data/stdlib/glob.py": "e6e73b5529204a1f95800a7d225b32ae249fb611a95b88b936ddf930253c9d6b",
    "perfbench/data/stdlib/graphlib.py": "688f3614058ded4da164879f45b6068c26e697799e66789950af00f9bacfd86a",
    "perfbench/data/stdlib/heapq.py": "f531fb31a7f7ec77ef8525946bc40f5320f0608b807d1f2c12b011d4776900e8",
    "perfbench/data/stdlib/hmac.py": "4d606e801d0a97e01e05bca66e82ebf71e0018ea4ce43f291ff61cef92bd85e0",
    "perfbench/data/stdlib/html_parser.py": "45dd73e81ae8f066e863e91ca47ee8ddb17b3656f7149de4bf96ec8723375243",
    "perfbench/data/stdlib/ipaddress.py": "66da04cd8ec8e65b3e714efb2d44307a74b4f7d996de8b5e4c76621e5379f53d",
    "perfbench/data/stdlib/linecache.py": "8c219d090f02311c86c9f4e96891e79d9bf01c65a24b88ab704230bd558e3c18",
    "perfbench/data/stdlib/mimetypes.py": "d306cf36524218fbf20c340b91e97cf7fd1af36635ebb64de72c1385a427140b",
    "perfbench/data/stdlib/netrc.py": "4b1a7152c2924cabfc6cca4ae828766b3ef8e040de84f971370c4cc839e156f6",
    "perfbench/data/stdlib/ntpath.py": "3044c18d8ba0e42f271b0c1d81c8a1ffb5ff2b7fd1e2a103130e781d9912f3e4",
    "perfbench/data/stdlib/numbers.py": "48ece927a9f620f18e5cfc81464369eed7f127b81ea5c7e7e02cbcdd2ca74b4c",
    "perfbench/data/stdlib/operator.py": "a9e6fcd6878476277a0e81bd13405301aa2aa9a2330972955b18d37f3dc8c1a7",
    "perfbench/data/stdlib/plistlib.py": "57a9344aa3f704eed703ddfce9ce87f47d99a935ada0edd347b1b9122b8ce251",
    "perfbench/data/stdlib/posixpath.py": "04a5cbb1f25042711c8de858971611ee79ad2d13549c388109f68175f77c98c8",
    "perfbench/data/stdlib/pprint.py": "9c913ed323aa02198e7c609480306b8cf2cf250ee784d04c54d21fc0b716f311",
    "perfbench/data/stdlib/queue.py": "dd4ad122c9764837ff6afc84acca0348827342f380ceaf231c78d683749cefa5",
    "perfbench/data/stdlib/quopri.py": "3246e9071be44a3b2bb37b33e239ca3ba28a21ba5bdaa27f94650bd9014f5ad1",
    "perfbench/data/stdlib/random.py": "be36fd70ca0e6d4fb7e9352abdf40e6863969e34eff7cc8d01cce5f2f34d522f",
    "perfbench/data/stdlib/reprlib.py": "b2dde1e819beeed005e3a6267660527eb1515cf60a22fbaa2e615bdcb869e1af",
    "perfbench/data/stdlib/sched.py": "318926b9ca6d82ae276726f1cb401d073a79a76ee588c764d99c6d9176edd5e8",
    "perfbench/data/stdlib/shlex.py": "2f3bf1c4dea49f172cdcfa0f69b9d5484e1ca077d3cebab92ca2de7d1f06fe33",
    "perfbench/data/stdlib/shutil.py": "369c1e486578cf03759e164d37e587242ca4db9b335f8ab9a312d8ebbb11d81c",
    "perfbench/data/stdlib/stat.py": "c4c7063338aadb30900b970a4ea7c7276f93122a09b8e214155f8ed360fbee21",
    "perfbench/data/stdlib/statistics.py": "abac4d1ab1ac855a1dc6d7d08aa5018fe7cce57ddcfcfe625a6d7e4f172ebbba",
    "perfbench/data/stdlib/string.py": "322f6cfa0e7d17edff2ac2e0cc422c8c6c438f519e455e0b91591fbbd2bf1178",
    "perfbench/data/stdlib/tempfile.py": "f6f10f45d4cb9a33cb51c27d562bbb2649d820b2a623deb7f90d9b3153a651fa",
    "perfbench/data/stdlib/textwrap.py": "ccfea9fb5ffa5a122c4b750612ada763664221d26c1bb697d1a7833d9aee4523",
    "perfbench/data/stdlib/tokenize.py": "9ccdd5bf75013e8e340dde2f25fed6ee73b98ea10df494c4904f9adb40aced70",
    "perfbench/data/stdlib/traceback.py": "bc62d3b8cd05f484dd255e0c07f54d3ba9ce27f39c8befe032a4ee4aac1d2fd1",
    "perfbench/data/stdlib/types.py": "746410373179aa0d38aeee7585e0c0437293d0702ab2f24a1054ba42474baf5b",
    "perfbench/data/stdlib/urllib_parse.py": "3a305950f9f1a05d3eaa144f17cfb51d584ea2102a161b7f4ea54979b5046396",
    "perfbench/data/stdlib/uuid.py": "057c17ecc2893f1f16adbb27df30bccd2af3be0c99f4dc8c922d0cebee8e0db1",
    "perfbench/data/stdlib/warnings.py": "322fd1deaba14bb0ce28ad9a84b938fd4134708712fb8209de66edaad116042b",
    "perfbench/data/stdlib/weakref.py": "e5c170e61f84cab0106dc38fc1d92b9e0c240211f04ebe5f9b7bf1eea7566511",
    "tests/pyfront/corpus/degrade.py": "fcd5cc027d492e0ff599c96d390722e3106c49de9c417621c4f16831107f311f",
    "tests/pyfront/corpus/kernels.py": "aefa283570e6421d82bf129b0180a757755a4085a3747fc5f7bea2d9c6ace904",
    "tests/pyfront/corpus/numeric.py": "73bf643292e0537639efa520b58b59d96033cc8ee248e9854a415606f7e3600b",
    "tests/pyfront/corpus/search.py": "0f71b70bc83c452cfabfc3d1cb122eff3480917584636922886eac0dbf27eab7",
}


def input_files():
    return sorted(
        path.relative_to(ROOT).as_posix()
        for directory in DIRECTORIES
        for path in (ROOT / directory).rglob("*.py")
    )


def first_blocker(cf) -> str:
    """``lowered``, or the first non-PYF407 record as JSON."""
    if cf.ok:
        return "lowered"
    for d in cf.degradations:
        if d.diag_code != "PYF407":
            return json.dumps([d.diag_code, d.code, d.message])
    raise AssertionError(f"{cf.qualname} degraded without a blocking record")


def render(module) -> str:
    lines = [
        f"{cf.qualname} {cf.lineno} {first_blocker(cf)}" for cf in module.functions
    ]
    return "\n".join(lines) + "\n"


def digest(name: str) -> str:
    text = (ROOT / name).read_text(encoding="utf-8")
    rendered = render(compile_module(text, origin=name))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_first_blockers_are_pinned(name):
    text = (ROOT / name).read_text(encoding="utf-8")
    if parses(text):
        assert digest(name) == GOLDEN[name]
        return
    # newer syntax than this interpreter's ``ast`` reads: one PYF406
    module = compile_module(text, origin=name)
    assert module.error is not None and module.error.diag_code == "PYF406"


def test_golden_covers_every_input():
    assert input_files() == sorted(GOLDEN)


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in input_files():
        print(f'    "{name}": "{digest(name)}",')
    print("}")
