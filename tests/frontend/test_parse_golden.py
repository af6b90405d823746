"""Byte-for-byte goldens of the DSL front end.

Each input's token list (or lexer error) and parse tree (or
``FrontendError`` text) is rendered with ``repr`` and pinned by sha256.
The inputs are the benchmark workload generators at several sizes and
seeds, every ``examples/*.loop`` program, a set of hand-written programs
covering every construct, and malformed inputs whose diagnostics must
not change.  Any change to a token position, a tree shape or an error
message shows up as a digest mismatch on the named input.

To re-record after an intended change, run this module as a script and
paste its output over ``GOLDEN``::

    PYTHONPATH=src python tests/frontend/test_parse_golden.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from typing import List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:  # for `benchmarks` when run as a script
    sys.path.insert(0, str(ROOT))

from benchmarks.workloads import (  # noqa: E402
    deep_chain_loop,
    dependence_workload,
    mixed_class_loop,
    straightline_iv_loop,
)
from repro.frontend.lexer import FrontendError, tokenize  # noqa: E402
from repro.frontend.parser import parse_program  # noqa: E402

EXAMPLES_DIR = ROOT / "examples"

VALID = {
    "every-statement": (
        "assume n <= 50\nassume m >= -3\nassume k == 7\nassume p < 9\n"
        "assume q > 0\narray A[10]\narray B[n, 20]\n"
        "x = 1\nA[x] = x + 2\nB[x, x - 1] = A[x]\n"
        "L1: loop\n  x = x + 1\n  if x > n then\n    break\n  endif\n"
        "  continue\nendloop\n"
        "L2: while x < n and not (x == 3) or x != 4 do\n  x = x * 2\nendwhile\n"
        "for i = 1 to n by 2 do\n  y = i\nendfor\n"
        "L4:\nfor j = n downto 1 do\n  y = y - j\nendfor\n"
        "if (x + 1) < n then\n  y = 0\nelse\n  y = 1\nendif\n"
        "return y\n"
    ),
    "expression-operators": (
        "x = a + b - c * d / e % f mod g ** h ** i\n"
        "y = -(a + -b) * --c\n"
        "z = A[i, j + 1] + ((k))\n"
        "return\n"
    ),
    "conditions": (
        "if not not a < b then\n  x = 1\nendif\n"
        "if ((a < b)) and (c >= d or e <= f) then\n  x = 2\nendif\n"
        "if (a) < (b) then\n  x = 3\nendif\n"
        "while (a + b) * 2 >= c or not (d != e) do\n  x = 4\nendwhile\n"
    ),
    "layout": (
        "\n\n# leading comment\n\tx = 1\t# trailing\r\n\r\n"
        "y=x+1#tight\n   \n  z = y   \n# last\n"
    ),
    "no-trailing-newline": "x = 1",
    "comment-at-end": "x = 1 # done",
    "empty": "",
    "only-comments": "# one\n# two\n",
    "unicode-names": "é = 1\nx١ = é + ١٢\n_x9 = x١\n",
    "keywords-as-prefixes": "fortune = 1\nloops = fortune\ndone = loops\nmodx = done\n",
}

ERRORS = {
    "unexpected-char": "x = 1\ny = @",
    "backtick": "x = `",
    "tilde": "a = 1 ~ 2",
    "tab-then-bad": "x =\t$",
    "vertical-tab": "x = 1\x0b",
    "fraction-char": "x = ½",
    "unclosed-for": "for i = 1 to 3 do\n  x = i",
    "unclosed-if": "if a < b then\n  x = 1\n",
    "unclosed-else": "if a < b then\n  x = 1\nelse\n",
    "stray-endfor": "endfor",
    "stray-else": "x = 1\nelse\n",
    "no-comparison": "if x then\n  y = 1\nendif",
    "label-on-assignment": "L1: x = 1",
    "label-on-if": "L1: if a < b then\nendif",
    "two-statements": "x = 1 y = 2",
    "for-missing-to": "for i = 1 do\nendfor",
    "for-missing-name": "for 1 = 1 to 2 do\nendfor",
    "for-missing-do": "for i = 1 to 2\nendfor",
    "while-missing-do": "while a < b\nendwhile",
    "assume-no-relation": "assume n",
    "assume-bad-relation": "assume n != 3",
    "assume-name-bound": "assume n < m",
    "assume-minus-name": "assume n < -m",
    "array-bad-extent": "array A[1 + 2]",
    "array-unclosed": "array A[3",
    "array-no-name": "array [3]",
    "unclosed-paren": "x = (1",
    "missing-rhs": "x = ",
    "missing-rhs-comment": "x = # nothing",
    "missing-rhs-comment-newline": "x = # nothing\ny = 1",
    "return-two": "return 1 2",
    "store-unclosed": "A[1 = 2",
    "store-missing-eq": "A[1] 2",
    "assign-missing-eq": "x 1",
    "keyword-statement": "then",
    "keyword-in-expression": "x = 1 + then",
    "number-statement": "42 = x",
    "break-extra": "loop\n  break 1\nendloop",
    "endloop-extra": "loop\nendloop x",
    "if-missing-then": "if a < b\n  x = 1\nendif",
    "cond-trailing-relation": "if a < b < c then\nendif",
    "not-without-comparison": "if not x then\nendif",
    "deep-missing-endloop": "loop\n  loop\n    x = 1\n  endloop\n",
    "label-then-eof": "L1:",
    "comma-in-expression": "x = a, b",
}


def programs() -> List[Tuple[str, str]]:
    """(id, source) for every pinned input."""
    out: List[Tuple[str, str]] = []
    for size in (1, 2, 16, 100):
        out.append((f"straightline_iv_loop/{size}", straightline_iv_loop(size)))
    for depth in (1, 8, 64, 256):
        out.append((f"deep_chain_loop/{depth}", deep_chain_loop(depth)))
    for seed in (0, 1, 7, 42):
        for size in (1, 10, 60):
            out.append(
                (f"mixed_class_loop/{seed}/{size}", mixed_class_loop(seed, size))
            )
    for kind in ("periodic", "monotonic", "wraparound", "linear"):
        out.append((f"dependence_workload/{kind}", dependence_workload(kind)))
    for path in sorted(EXAMPLES_DIR.glob("*.loop")):
        out.append((f"examples/{path.name}", path.read_text()))
    out.extend((f"valid/{name}", text) for name, text in VALID.items())
    out.extend((f"error/{name}", text) for name, text in ERRORS.items())
    return out


def render(source: str) -> str:
    """The token list and parse tree (or their errors) as one string."""
    try:
        tokens = repr(tokenize(source))
    except FrontendError as error:
        tokens = f"FrontendError {error}"
    try:
        tree = repr(parse_program(source))
    except FrontendError as error:
        tree = f"FrontendError {error}"
    return f"tokens: {tokens}\nast: {tree}\n"


def digest(source: str) -> str:
    return hashlib.sha256(render(source).encode("utf-8")).hexdigest()


GOLDEN = {
    "straightline_iv_loop/1": "a64197f226af8fca349011d98762e3d4bf75611b086374611cd85a9f648e9c05",
    "straightline_iv_loop/2": "16d8e40aaec3ffb397ac36d158f202be46fbec9eda7e81269c152a82684bfe0c",
    "straightline_iv_loop/16": "8a08be42d34a190a04b5a2cc5df839947b83a2b8ddb0023cdc5d7e1d0978a656",
    "straightline_iv_loop/100": "fc1677f66b9f18df4fd3b9a065c9d99100ce05e4a8c0fa43ba5f23c1304f2ef3",
    "deep_chain_loop/1": "ecf06efd1ebe55d335d0fa214d475c16bb9be6408a2a79bf609a7a06bc28695f",
    "deep_chain_loop/8": "77a4d5831b28b8c09a5c04ed60a41789ee3f12c2da448fa6dfdfea56162768b2",
    "deep_chain_loop/64": "f963ce0fbf72ad8b63265c0e05edec6f2bb770f6ed61cb81898b99a6b7785b09",
    "deep_chain_loop/256": "ac7626040490b20a78b45d475e43cddb2e7f9946b0dcdc2d6ac6e23fdac2e917",
    "mixed_class_loop/0/1": "2f0559c0dd3292a7e49ef9b1fc4c52e7804aa5cd7de0165c62a4718e60124639",
    "mixed_class_loop/0/10": "a18cc5f689c5993962b6f7df80421b024d46c6431a83de520c8eb98c7233157f",
    "mixed_class_loop/0/60": "ff0e948a4181638590bc6aedd148ccadd56dcf451c3e3709d6702a4bca5a969e",
    "mixed_class_loop/1/1": "eb03d1ed42b293f6372e2ed3d5762c8202b3804fac706e7ff01a0cee88069eb6",
    "mixed_class_loop/1/10": "c4b56e643a613d5cba66c9514488bcdeb0992ffebe3130efd8de0f64b14da16c",
    "mixed_class_loop/1/60": "044d0a7d62919b840a8fa9017500aca3e88b12dbd6aaf4168458090568c19ec2",
    "mixed_class_loop/7/1": "79cce7f7640f6a02bfabe544ee0c7e3f2f7a3963c1ecfe7e3fb3599a0025db0a",
    "mixed_class_loop/7/10": "9fcaf0315e65e2f6d98ace78d433b7b19c6eaf48caaa8d2850f685c69f74ef1d",
    "mixed_class_loop/7/60": "36a4c3a292ab65c53cd5ef54231f656562147924f02a80795a5e20f8aaf091d5",
    "mixed_class_loop/42/1": "dfed0e998d78597f1453316fa85c62e8bd59d9fa2032b8f3d7df2fcc70409a9e",
    "mixed_class_loop/42/10": "76174e5ebad9df07ba3c61f9599ddeeb24464d741a0dd94ae0b0564199800437",
    "mixed_class_loop/42/60": "4d4e274f0022c40ced2086c1f03bfacb391ae78beffbb183ef95fee9be016915",
    "dependence_workload/periodic": "fa955cf5f86361760b2f7ccc13f84ef2fe1a7c1f3934d70e9a52d6e270e86182",
    "dependence_workload/monotonic": "e8f37986836e92a26480132b869cd22e828b9e1bb9b57413ea95a70328fffa47",
    "dependence_workload/wraparound": "de3e929c2b46ce49822ec2ebd0d2ebbca4ae9573bf4784e92a04e2b9440bde72",
    "dependence_workload/linear": "c55dfa27f08d03284032f763721613a67b5ce3ec7a010e021abf57d0d4b803ae",
    "examples/branchy_counters.loop": "f7d71d842c5f07b3dc6ad86461d1fbc1b32c2e9cdb3bf7ad2b1974595f9a8167",
    "examples/wolfe_figures.loop": "1a11efe550b00e1f76c255d6dec5a06d0d3c2ebe8796dc2057e50c5cb101f118",
    "valid/every-statement": "be5007a028b200fb01ec1337b2f63f35a3d916b00491efc3614c27b451ab717e",
    "valid/expression-operators": "2685a7529ba7774cb48c5206b37fe000dcbf28a5ee5558017ce79f320fca4100",
    "valid/conditions": "1ddb91368a9873fb870b8bf9b2bc769e8b66e478f5661184cdd215c7d8cdfd8b",
    "valid/layout": "e4fe2310b1214da3966446fe24d241d9b0d9889b3089525075c5fc9020bf5eda",
    "valid/no-trailing-newline": "37ef465a6d4dec34568f3be2d31e2ec9160d3e1e8a2d34a1a18fa16a0a1eec25",
    "valid/comment-at-end": "07b47585f37707598a7e70683eddd8a9d2a88ba09a2d0cc14d2b866e14ad92d1",
    "valid/empty": "6ac75390a27955946af9ffded4f4ecdadbe31494cbc51bf84057de2b3e97f17b",
    "valid/only-comments": "18f9e245d284118226f87da6ebad12e615ea1d9f8c2126a85dbc53252491ff8d",
    "valid/unicode-names": "d4572044fada9e039d26d0c2b7a95231777f0338977f00bdb482ddc62ff7877c",
    "valid/keywords-as-prefixes": "560c08b6aa27911d30ee83549169cdb0c7e7191f5aa52f9dd02c99ea97cf09a5",
    "error/unexpected-char": "36d23e5852a18e77c31b4778ee6b954e541cb1ff203c21ca6afc4beafefde80b",
    "error/backtick": "197231cc51aa60eb42229c8b0943f22eb38b309ed89add93ab38fde5a5191d1d",
    "error/tilde": "16ee9e118dcb9bb98e4ed17fcc9b3ac678d76e12decf93e89d6461b0f4171d42",
    "error/tab-then-bad": "df947f663fc02b25fd591135f9aae080d11f89b4146a9447b7a771742155411f",
    "error/vertical-tab": "bd1807d81155ca377718c157b2b017006e99370bcdfbc771de163a8f411c46fe",
    "error/fraction-char": "b48473e04f980c922575a03a50e865dae92c49c73e7cf3120e1ed58ead5a829b",
    "error/unclosed-for": "02de8189d1cd7fb1f409be6ee07424de830d96a28ad0aaa770bcc55be6661ab8",
    "error/unclosed-if": "628a8bfa89e45ba4ffc893de2446dfd510a0fb9e85c162803622b0038dee10da",
    "error/unclosed-else": "942126fc0ab92be93114863cfefd7c97621b4f71e7c918dc341b76e61f2265f4",
    "error/stray-endfor": "386bcf68276de488f1611362cfd109f98049d8f513dc19d6a619bbcb359da87c",
    "error/stray-else": "d3a1a3647a6c377f5d386c8695842dd38d238778ad7ff7eb4f71c075e8a39477",
    "error/no-comparison": "1a4750e355d8fad8efa5b3151a99c78dc891e47a0245024fc0e03439e2d2e783",
    "error/label-on-assignment": "d813698911b3035fa9001b191eaf8b6e8d970aa87aae7c6b0de896363f1e1255",
    "error/label-on-if": "06f7643ab8a9bb7f2a716bad909b6860e121eca6a801300eed4b9850de219104",
    "error/two-statements": "5bdc2df3ec6b59bb9585231e701f6e86e4889be54eb4d2785638ef6a7f073b54",
    "error/for-missing-to": "b8b5adbe83d175b8aef354574ffd4748dcfab71df58c2051c70fec25d8c65c7d",
    "error/for-missing-name": "67c5973564c9540f017233c9c16933118e833f43457ddfa7f27ae2196beeca7b",
    "error/for-missing-do": "916ae45ee316dc55bb6f13946ceee06826b1ec48b5560827871b0c5f576c5eba",
    "error/while-missing-do": "c3d9913a8486caa9a10c6e0fe22d9b1c9e8345ad091572b1f700c5f7b0cf7c93",
    "error/assume-no-relation": "f25e2b4441574c47849fdb35e5a531bf3139df551e4339b6b2ed2d7ed0300af8",
    "error/assume-bad-relation": "93333812178eb38addd7bbdd72b8b4d2b3fd3fb14139f3de74f76bc9fc0204c2",
    "error/assume-name-bound": "f317e5efec21d6242aa2f05a1a1c5f794ad18a05fac10381f03488dd0383e8b5",
    "error/assume-minus-name": "e181861db0a9939531c1e2eddd5b59d8a83293f423900f81e295dd6b2989b1ef",
    "error/array-bad-extent": "4a8e63f10e4adc6719de572d802774442180a01969725840781e6017ca89c3b2",
    "error/array-unclosed": "d33b216dad1dc856ddd7ae851db4b2a5589d7103df534868f60da35230a37d40",
    "error/array-no-name": "22d6f30d9f1eb4dcbb9b38d9e3b10c2744c31bbe1522d3af9ffb676e6f631ad1",
    "error/unclosed-paren": "de50061bd77409bd1328a4961b70f7d302c36bdae6f3a01a8fbe8d2cfa927afe",
    "error/missing-rhs": "1d55b2e285d7cdbcde4ef10e07c48412c7dbfe5cee39ef54b059b99dbec47979",
    "error/missing-rhs-comment": "1d55b2e285d7cdbcde4ef10e07c48412c7dbfe5cee39ef54b059b99dbec47979",
    "error/missing-rhs-comment-newline": "ee69814d6d8848bde980a5218de0d5d0340d9e283365f603820acee098881c94",
    "error/return-two": "7b95898dbac10f2fa6927436ba443e96c6b1cc9b93fc1bce63200a9d240cf17b",
    "error/store-unclosed": "d8a4956e0f8bd290cbcace1aa02c3d06e67a058f8d5f36d26845d8844619ebbe",
    "error/store-missing-eq": "d5d3da2871c6a22e928fef0c6b9c3504e992ca3efb604f1dd7a20df66844ea89",
    "error/assign-missing-eq": "0d90153137056ad1482f305e40f18c4d04ca522f387e5a1ef1c4995938c3e84e",
    "error/keyword-statement": "b39857b5f0f810cc0e35d64de747f76ca85c28c2ad65407f78ced049ffa2d90f",
    "error/keyword-in-expression": "2ff3d015948f9c0f1d00cf71a9255278ec06bc14aa10ce8fc492200e48dd77f7",
    "error/number-statement": "3871a905bb1700d137d56c714ac8898a864e6867128487bbb6408c7527f26caf",
    "error/break-extra": "ea2769fc8a21a90fca4b9ebf1a2651db9752cf3cdae367060a92c96fc50e8575",
    "error/endloop-extra": "829f1a2de542b2afd21022a426023768aa039c9122d7429028672bb4711c32ab",
    "error/if-missing-then": "f146df96f336f1048e8247a96b63609948b523606e0b2c4ed73a22bbfee52a49",
    "error/cond-trailing-relation": "6ba71d342f90fda14f0277b16b00bdfc1c63b775cfbe48c079b401f85bdd1099",
    "error/not-without-comparison": "ed645666dfca191e9266306f2026d8cb9a72f3c5a479e31b943f04773d462e74",
    "error/deep-missing-endloop": "33809ff4bc38b287f8eadcbfd313965dc21fadc7d1ad5ce47af7d1f79e96c7f2",
    "error/label-then-eof": "22a1b6f245ce0613251dbb94d5bca9925c788f0d06ccda0f8a08e3576a1b9563",
    "error/comma-in-expression": "c21751a63d0ae50c83854a17253cad7654c9dd45976e5678aa0fd6083cfe8fa2",
}


PROGRAMS = programs()


@pytest.mark.parametrize("name,source", PROGRAMS, ids=[name for name, _ in PROGRAMS])
def test_parse_matches_golden(name, source):
    assert digest(source) == GOLDEN[name], render(source)[:2000]


def test_every_input_has_a_golden():
    assert sorted(GOLDEN) == sorted(name for name, _ in PROGRAMS)


def test_error_inputs_are_errors():
    for name, source in PROGRAMS:
        if name.startswith("error/"):
            with pytest.raises(FrontendError):
                parse_program(source)
        else:
            parse_program(source)


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, source in programs():
        print(f'    "{name}": "{digest(source)}",')
    print("}")
