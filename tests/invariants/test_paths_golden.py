"""Golden digests of the invariants phase's observable output.

Each case is analyzed with ``ranges=True, invariants=True`` and reduced
to one sha256 over, per loop: the path summary
``(phis, truncated, [(blocks, [(phi, str(update))])])``, the
``InvariantInfo.by_loop`` descriptions, and -- once per program -- the
post-refinement ``RangeInfo.values``.  ``pruned_paths`` is deliberately
left out: it is a statistic, not part of what a path summary says.

The digests pin the symbolic path executor: any change to how paths are
enumerated, executed or truncated that alters a single update map, an
invariant or a refined range shows up here.  A truncated summary keeps
no paths, so its line reads ``truncated`` with an empty path list.  To regenerate after an
intended change, run ``python tests/invariants/test_paths_golden.py``
from the repository root with ``PYTHONPATH=src`` and paste the output.
"""

import glob
import hashlib
import os

import pytest

from benchmarks.workloads import (
    deep_chain_loop,
    mixed_class_loop,
    straightline_iv_loop,
)
from repro.pipeline import analyze
from tests.invariants import test_paths

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

#: the fixtures of tests/invariants/test_paths.py, inline ones restated
PATH_FIXTURES = {
    "two_path": test_paths.TWO_PATH,
    "three_path": test_paths.THREE_PATH,
    "single_path": "s = 0\nL1: for i = 1 to n do\n  s = s + 2\nendfor",
    "nested": (
        "L1: for i = 1 to n do\n  L2: for j = 1 to n do\n"
        "    x = i + j\n  endfor\nendfor"
    ),
    "truncated": test_paths.FIVE_DIAMONDS,
    "polynomial": "p = m\nL1: for i = 1 to n do\n  p = p * p\nendfor",
    "division": "h = n\nL1: for i = 1 to n do\n  h = h / 2\nendfor",
    "invariant_ref": "j = 0\nL1: for i = 1 to n do\n  j = j + m\nendfor",
    "prunable": test_paths.TestPruning.PRUNABLE,
}


def _cases():
    cases = {f"fixture:{name}": src for name, src in PATH_FIXTURES.items()}
    for size in (10, 25, 50, 100):
        for seed in (1, 2, 3):
            cases[f"mixed:{seed}:{size}"] = mixed_class_loop(seed, size)
    cases["deep_chain:40"] = deep_chain_loop(40)
    cases["straightline:20"] = straightline_iv_loop(20)
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.loop"))):
        with open(path) as handle:
            cases[f"example:{os.path.basename(path)}"] = handle.read()
    return cases


CASES = _cases()


def canonical(source):
    """The text the digest is taken over (exposed for debugging)."""
    program = analyze(source, ranges=True, invariants=True)
    info = program.result.invariants
    lines = []
    for header in sorted(info.path_summaries):
        summary = info.path_summaries[header]
        paths = [
            (path.blocks, [(phi, str(expr)) for phi, expr in path.updates])
            for path in summary.paths
        ]
        lines.append(repr((header, summary.phis, summary.truncated, paths)))
        lines.append(
            repr([inv.describe() for inv in info.invariants_of(header)])
        )
    ranges = program.result.ranges
    lines.append(repr(sorted((k, repr(v)) for k, v in ranges.values.items())))
    return "\n".join(lines)


def digest(source):
    return hashlib.sha256(canonical(source).encode()).hexdigest()


GOLDEN = {
    "deep_chain:40": "a7f3c2237719d8ddb855bc463f408fd9299ac54599c9e65fc9e74098a703074b",
    "example:branchy_counters.loop": "4c820f46cfc73eaef56652d23427286ab3c7bbdcb87f0f0609982ccb9cec8d83",
    "example:wolfe_figures.loop": "2c4266c30260e2830769ce06d06c60cc24b2eaf15215a064bc4c4c43282ed243",
    "fixture:division": "b699913079d64a592b0309c6b9c35b9e2278de1270a4f7a854fb0a4ac3e9a4f5",
    "fixture:invariant_ref": "881f4fda12c93a9c37ae97e3d5b32bc0b936410733dcb9205f0e2668d14fc88f",
    "fixture:nested": "5afb59135b2e93d59f5cef5ddef06ccb24fe0a0c300a3039ba6c67e8fd4e5ea1",
    "fixture:polynomial": "93c814c9fe8ab0cc15663b3e9d5d3780860c0ff78f5a1632710358249117d9c3",
    "fixture:prunable": "3f5141e8af039463641de78f4f68120c2f233f146856ed3b3d42134b5acf7c06",
    "fixture:single_path": "86d4a4ed301db85d2c2ac4be2fc6f4c74e94634f0e94d632c890376530b051f1",
    "fixture:three_path": "c998d3ee1c80d2c7dfcaed10c9ceb6584533dd16e42df131de79c91ac92e2d24",
    "fixture:truncated": "3e279cbd3a9ee2b0d6ac147305200629bf75bdba1ad1acafbac10ed525378d66",
    "fixture:two_path": "ab1b2a7e0fdcfa98dfd3e70dbdeb90fd13fe2f3679c8150f62fad82a834a352c",
    "mixed:1:10": "8d56db80d7da8af6e50c66909ccecac95bae2e72c130afdc3d9e031ded0fc104",
    "mixed:1:100": "0117b83d42761afc7fd6ff4df144afd07295d7e6a6323fd97eec425ae0849609",
    "mixed:1:25": "1f83d26505472896b1f0c960d29f4b6a56140e6b8c087073459f2fa52679060d",
    "mixed:1:50": "f84a976d9f148e504f20b3311910f6e367d18b9b722a75eef79dfc9aa2f08df1",
    "mixed:2:10": "717bd0c58801a72cf303cb95230c9d8ad0ab7af7d226a1eba9637d2af24e72a3",
    "mixed:2:100": "860d72f9ebb4adb060b246e21da561ccc296fb48301f32e2243951878ea3c7cf",
    "mixed:2:25": "accea78bd3ea860f5680fddce7b0168b78fe35f07df92beee47b97becfe03d6e",
    "mixed:2:50": "74190e695e64af509a491d37a6d179cfd188d7cb1c40f9c05ee8ee8dd0285cf9",
    "mixed:3:10": "fe2aa70d7e4f6d8db1b213281a614957964d8ac167c35d789ceeaed1bfa05340",
    "mixed:3:100": "d2247efe1fd440b076b8920b8f1bad9a4de08f735832a4607fca9c965e286061",
    "mixed:3:25": "4e70e95df4cddf3aa6ecd323293bd8ed7d24184751ef621e12122e543be15179",
    "mixed:3:50": "d5ac9fdd4b452b2c806c494e19154bd9618868f365779da8eaf0d6f81c41a337",
    "straightline:20": "d74e3764db4e5e60f6fd050dad21b1bdb6765261c3bbedf6a81a64d9de3a00a1",
}


def test_every_case_has_a_golden():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(CASES[case]) == GOLDEN[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{digest(CASES[case])}",')
