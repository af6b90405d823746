"""Golden digests of what ``repro serve`` answers for one analysis.

Each case is analyzed the way the service worker analyzes a request of
the ``serve_editor`` mix (``ranges``, ``invariants`` and ``report`` on,
the service budget's caps without its clocks) and reduced to one sha256
over:

* ``format_report(program)``;
* ``build_record(program)`` without ``ts``, ``phases`` and ``counters``
  (the fields that vary from run to run);
* the ``jsonl_lines`` export of the ``classify.scr`` events, without
  timestamps, sorted: the Tarjan walk visits SCRs (and lists an SCR's
  members) in an order that follows string hashing, so it differs
  between processes while the set of events does not.

The digests pin the served text end to end: a change to how a
classification, a trip count, a dependence verdict or a trace event is
rendered shows up here even when the classifier's own golden
(``test_classify_golden``) stays put.  The committed cases are the first
pass of the perfbench ``dsl_mixed`` and ``dsl_chain`` workloads for seeds
1-3, ``examples/*.loop``, and every lowered function of
``tests/pyfront/corpus/*.py``.

``PYTHONPATH=src python -m tests.core.test_served_golden``, run from the
repository root, prints the digests for seeds 1-10: diff that output
before and after a change to compare the wider set.
"""

import dataclasses
import glob
import hashlib
import json
import os

import pytest

from perfbench.inputs import chain_pass, mixed_pass
from repro.analysis.loopsimplify import simplify_loops
from repro.ir.clone import clone_function
from repro.obs import jsonl_lines, observing
from repro.obs.runlog import build_record, source_lang
from repro.pipeline import analyze, analyze_function
from repro.pyfront.lower import compile_module
from repro.report import format_report
from repro.resilience.budget import SERVICE_BUDGET

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

COMMITTED_SEEDS = (1, 2, 3)
MAIN_SEEDS = tuple(range(1, 11))

#: the worker's default caps; its deadline would make a slow machine
#: change the output, so it is off
BUDGET = dataclasses.replace(SERVICE_BUDGET, request_deadline_s=None)

#: record fields that differ between two runs of the same request
VOLATILE = ("ts", "phases", "counters")


def _python_cases():
    cases = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "pyfront", "corpus", "*.py"))):
        with open(path) as handle:
            text = handle.read()
        base = os.path.basename(path)
        module = compile_module(text, origin=f"corpus/{base}")
        for compiled in module.functions:
            if compiled.ok:
                key = f"py:{base}:{compiled.qualname}"
                assert key not in cases, key
                cases[key] = ("python", compiled)
    return cases


def _cases(seeds):
    cases = {}
    for seed in seeds:
        for program in mixed_pass(seed, 0):
            cases[f"mixed:{seed}:{program.uid}"] = ("dsl", program.source)
        for program in chain_pass(seed, 0):
            cases[f"chain:{seed}:{program.uid}"] = ("dsl", program.source)
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.loop"))):
        with open(path) as handle:
            cases[f"example:{os.path.basename(path)}"] = ("dsl", handle.read())
    cases.update(_python_cases())
    return cases


CASES = _cases(COMMITTED_SEEDS)


def _analyze_dsl(source):
    program = analyze(
        source, optimize=True, strict=False, budget=BUDGET, ranges=True, invariants=True
    )
    return program, build_record(program)


def _analyze_python(compiled):
    named = clone_function(compiled.function)
    try:
        simplify_loops(named)
    except Exception:  # noqa: BLE001 - the worker analyzes the raw shape
        named = clone_function(compiled.function)
    program = analyze_function(
        named,
        source=compiled.source,
        optimize=True,
        budget=BUDGET,
        ranges=True,
        invariants=True,
    )
    return program, build_record(program, origin_label=compiled.origin)


def canonical(case):
    """The text the digest is taken over (exposed for debugging)."""
    kind, subject = case
    with observing() as obs:
        if kind == "dsl":
            program, record = _analyze_dsl(subject)
        else:
            with source_lang("python"):
                program, record = _analyze_python(subject)
        report = format_report(program)
    for key in VOLATILE:
        record.pop(key, None)
    events = []
    for line in jsonl_lines(obs.tracer):
        event = json.loads(line)
        if event["name"] == "classify.scr":
            del event["ts_ns"]
            event["attrs"]["members"].sort()
            events.append(json.dumps(event, sort_keys=True))
    return "\n".join([report, json.dumps(record, sort_keys=True)] + sorted(events))


def digest(case):
    return hashlib.sha256(canonical(case).encode()).hexdigest()


GOLDEN = {
    "chain:1:p0.0": "d00de78ebfba776e44b6391db73fca75e1bc427fc8f2c42ec62d8410333ddb8e",
    "chain:1:p0.1": "0a6c079c076abb20135e77d0cb7367a7531b3f3630939b603323ca1f38df892d",
    "chain:1:p0.10": "1bb048636366437168f477c2497caf8cc3b59110154c63dc76ac50d21d413b04",
    "chain:1:p0.11": "bd0c578de5ef21042d37db6d6ea274fa2da63b3dd321c445a5b1174f8f190689",
    "chain:1:p0.12": "2e0b440ce8117fbdc85c6997956a3c9471d78a93b13060c3543d3309626f5636",
    "chain:1:p0.13": "ef6e4b806d08be40b78cbe69ae98558735dde97306067ee1887ac615b39f4548",
    "chain:1:p0.14": "73312fbfb5758381dc023db02ca5093c2310879f8248863da00ab37d428412c6",
    "chain:1:p0.15": "e56f0092a1c81268182ddde0d1a8331cccacee218b8b36b25afae6f3660f2e86",
    "chain:1:p0.16": "7f06a3a2b273f9156333d1da5974028b0ae50e008a4c5e607951b55e6a574705",
    "chain:1:p0.17": "4e864a530dcd08147089889fa773f43b5d10c2f2da6b2c3bee53c7b745bcf6c7",
    "chain:1:p0.18": "c08f6116458c1f9a3fdbad47b1ebc9110e0eda25ca71ffab3de2f294911701ca",
    "chain:1:p0.19": "3c4d42b888b40534c390ace9958f6b1db50f3b96817578c80078c98915956454",
    "chain:1:p0.2": "7822b978c0104ec308adf579966ac592a6a6dcabff93830b4d3a86224d50c5d9",
    "chain:1:p0.20": "b39b03c91458e500413bb400243ea6fc8da5b4445701e93893c261edbb4d72a7",
    "chain:1:p0.21": "6d3f0e3299f3f108382a01fe57968485f910c9593ceff021bdc835a0f98b5a44",
    "chain:1:p0.22": "e388371577c815651235b9e2fdc5dd989fe6014a70fbfb4a390a0dd6e1b28227",
    "chain:1:p0.23": "0db156f047f523cdb8e7a629ef89eedbab52fdda335c8e350e86a687a6b6bf29",
    "chain:1:p0.24": "2093fabe931d82d9e3a701130d9e5826a98798f04b3a6b1716fadde8940866b8",
    "chain:1:p0.3": "eef7f94855c5ca5d3afcc08464827cc87bab74ed0fb0878427d8d74f64e8ffe1",
    "chain:1:p0.4": "6a19dd313c111f8028dd354941e9361dfdfe7aa64e5614dd5e206ece3758d930",
    "chain:1:p0.5": "9f63ecf860c4621f7e702e0d5bb9614438a3b16b0b5894c2cbeb12c851597179",
    "chain:1:p0.6": "bb6269a8916a6c0aa06d0778eb4e5393ff8ca205a748cc55374a1ab253af75f7",
    "chain:1:p0.7": "290c2d4e39b7ff1ca92f8e0bfe957cebe81e7a2df4f586e2f87f85e01009efdf",
    "chain:1:p0.8": "98ee163fd7e8b71a9b7a1b20dcdb6871611acacfd724a209c018688008ee1aac",
    "chain:1:p0.9": "f565fe7eecdeb7149e592c3dcd8335b433385370ee20060d25421fe639601cca",
    "chain:2:p0.0": "ba5db106a6148b8461211572b33f9af002f6a3b5025686727a13ac2beaf7e61f",
    "chain:2:p0.1": "911c1a140f19e68a2b384d51fc928e9338860237b5d31abe80733d9310f6a7be",
    "chain:2:p0.10": "a1a6c2183ab16edb8b6ffbf1e238a37de8ac62e259c2a8c9e1c49d005f440c05",
    "chain:2:p0.11": "4717177aa9188de2c52f60589f1d7f6528149df34fdef21a09a3173eb965e80b",
    "chain:2:p0.12": "ed13a67c885ba9daab231b4448628ccf820b112e0e37a9285cead6ee472986cc",
    "chain:2:p0.13": "53107be46c238ace241d778cd3c820f80f4e6769e7649ba8b6e2dec2055368e8",
    "chain:2:p0.14": "b863d8a4ab87bf025e0a216553d47c92757162e02f336cc1f447e23d63b5b92c",
    "chain:2:p0.15": "3484bf45cba6df71386103318760e97f25fb16c984fe48a8c0cb0d9913223c60",
    "chain:2:p0.16": "19ced8946557a62a63f60f41b151534fd805330a0f64932be043bcfdd4e9191f",
    "chain:2:p0.17": "eaaf3033f86f2900144e3d7e343410da4d3e126bb111306e3dc767afaea68d75",
    "chain:2:p0.18": "bef1f5902385c21d575f26e2151278b4b2efea4f2b8dbf879bd5b34f765069ae",
    "chain:2:p0.19": "35096adaece33f1ec323f0d910f1146526383d164b25b702c068d22016c822d2",
    "chain:2:p0.2": "f7422b34b7e8b5aa1d53f2ca2c0669d08a3d9c26c28034dbd060d0313efb40bd",
    "chain:2:p0.20": "5bb368274bd8fed55dba5f6deae4900681004475945e2a3226e55275207ca7df",
    "chain:2:p0.21": "270da828ef06c2379da3fbb9a73f30f36fc5b55353bd5969d7f2801bdb1bf52a",
    "chain:2:p0.22": "19e64a1421f6a5c14cda0651fc66b1294f9c3f69e663738ecf745c595e71b88a",
    "chain:2:p0.23": "d7da92c022fc09c2eeaa5dc87b59ad9c518984978ac67cb83c263883765f04af",
    "chain:2:p0.24": "0f179d2302559dd388c0bc2d87e545dde4a7354a0288ffbdf50ece1d449668cd",
    "chain:2:p0.3": "c0b4b3ee6ccaf1c66facf29f6d6ff6ffd5aa48677c400ad1d963febd5b0e5634",
    "chain:2:p0.4": "c4e00bd72e3f4d28ed53a9d19692f4815f7d33bfac301f2ea8feeb81558d5bb2",
    "chain:2:p0.5": "0d5e4eaf8745c4004f402e47a72ff37fa4fa3e9f6c1aaf1ef5819d99470e3171",
    "chain:2:p0.6": "e9b5ecfac09bfc817b9cf7646168b59eb55317889312d251644a49434332d958",
    "chain:2:p0.7": "303933868f2b8942c7673400ac6576ba531e7e945ab669f76beedef799b5beab",
    "chain:2:p0.8": "9e8567af934d0b45fa857ec56dd108b037f5e944047d2539d29299b0a50f0c30",
    "chain:2:p0.9": "c281e3a37cc075324dc120b1b60bfb98cd2d032a48083d669318dcc694cce8a9",
    "chain:3:p0.0": "d338d9c1c2a0289f315102fd6587be62b86dcbad18e16fa412bf13c10476cd80",
    "chain:3:p0.1": "3d148d40566bd01949b74a7d47adcb32fbeb4223823df34c64ab79c531ee7e01",
    "chain:3:p0.10": "2e0eef21a7aea07061161daca75ff645240690250c0315dc1b6dc60d6ac21390",
    "chain:3:p0.11": "13588b9a134b7b4e9ce325024bfd1abd980b9f9e54d90b245fffc9ed4c028cb1",
    "chain:3:p0.12": "9118084cd7da28c3f45377eb9b77054c33f9e503d68575e9cbe0792afda7d093",
    "chain:3:p0.13": "91480cb235cc62c2c271bc95b92f0a494185c66157f45925ce399d59583a3fb8",
    "chain:3:p0.14": "4c90890afe2d9e14152e272f10d014c641f26830b78ac59f7220ee1982b83d6e",
    "chain:3:p0.15": "ae2d86e30c50b1a29ca26304b573221639ede35776f0dc291f3bd87dae701e0b",
    "chain:3:p0.16": "e61f2cf7eced5e865c5fa73b36c72fc1986f90655c284087e11c57ada6266c68",
    "chain:3:p0.17": "8a6b5f2bf2b1c3bd12378d55fc43b5644eb99251f28f3ee2b174500c2a4aec04",
    "chain:3:p0.18": "c7cc14e7fa24c96ddfa4a11b4e77535121e21dc7ef6c16445a61288514aad0e5",
    "chain:3:p0.19": "d0cb2ec7712f508ca750a0107bf9bd8017cfa9e2db02fbea2ecdd465ffb0d4b4",
    "chain:3:p0.2": "b13e215e087dc9cf5af87a888a77e987bdeaf50cb28b2a33ad6123eaaa41e76f",
    "chain:3:p0.20": "e5d1d58feb4140274cf99ce801eb17fe52d04ec631e59b2393e6a12b357a9476",
    "chain:3:p0.21": "7370f683391519be880deaa358babc2dc75983b94644cfa6d9d5215012c1cc81",
    "chain:3:p0.22": "de54709f08d8666a1c19bcdf49831f445f62d7b5b92761165885eda274f3e65e",
    "chain:3:p0.23": "81f08f0edadb12ce1eb939bba37af0cce803ab3c78d6c821f245cd8c04077ab7",
    "chain:3:p0.24": "528048583a80c6456e720c78efdaaae7a15f1b761c15374c8146b4591d8d3304",
    "chain:3:p0.3": "8f5e3d32a1afa28bb8139571ea6946e5ae676fe3af903dac9ca9ba7fe66b422a",
    "chain:3:p0.4": "b8eadaad243639930d9d45619c6e4f143ce6fdd53ff9681aaf82afbe3536a1ae",
    "chain:3:p0.5": "6f303c4b4a422bd982c5811b00b717fc90878c6398980052e8e6913822c5fdb1",
    "chain:3:p0.6": "421813e79ce0b4a1cef0ee20abb8925b4af1ad19b8166daccfc8754a9e894b0f",
    "chain:3:p0.7": "da20b3c0f688e91533c33298089a744e496af1be3179df9a42850a84011bc9f7",
    "chain:3:p0.8": "023b95a64608b5379641884bfa79b6c76fb466d251d49beac29dabf65b4fb5ca",
    "chain:3:p0.9": "b1f60f250a0a1502e8a3505df6ff1374521d1a95c55c48656717f26c9dd3f92e",
    "example:branchy_counters.loop": "4e3162058cdf3be4bff30486e43ae717378d7ca2fa114bc698fcda98567d10ee",
    "example:wolfe_figures.loop": "321331330baa6b5900d581cd1c8edc911cb8ecf074e3a6642da1909e4bbbe559",
    "mixed:1:p0.0": "d141640dd9ed924ecd2a301cdd41dae3c7f94c8d5f9109f93f253c60c4d3ff2f",
    "mixed:1:p0.1": "c29d5aad3a7b1dcd35f9f3564322b29a667958be22168a5e3698e5c5b2148d81",
    "mixed:1:p0.10": "3feb8f51278deaf530794f154f6d01eb6fbe906022240e87e2f81fbff52a82c1",
    "mixed:1:p0.11": "205a0621e8c56cda3377625f84598fdc5e54069ec8f60a710d58f74cd9d1eee8",
    "mixed:1:p0.12": "d5a3095d116ea29adb83dd05a767c9816f87534e472f929d774e374b6b369f46",
    "mixed:1:p0.13": "aa66a668a4138be93afe0ac4be1b934c16f380e3796b1679e965163301d79451",
    "mixed:1:p0.14": "047bbac40dc4f2a7532a38f673cfe9b50d99dfe20adda9d79202a0524464d836",
    "mixed:1:p0.15": "3e4ff43c9dee6441d108e34531eebb7fde581943aa4058bc3f9cb4208f8e985e",
    "mixed:1:p0.16": "a56ca58170ba1a030e80b75cf837bf11756d66d62e3a91e24161203349b4df47",
    "mixed:1:p0.17": "d2c7514877a42413abf7dbde635f8861c8cc95d2e3180dd59fb3407ca9ada21f",
    "mixed:1:p0.18": "cda167fb42c74dcb55d383d5122923917b41ef02c7be7c0554964167c1ee38a8",
    "mixed:1:p0.19": "6fa2bfc48bde28fdf4f6b5e7cb561c9510e6c51d6093190d7f1673bbded79f47",
    "mixed:1:p0.2": "261b71f9c4f8af652c97599c46a58dda43ebb3d55d484dc58924550194d9013e",
    "mixed:1:p0.20": "5075453e3ed3682008b3fb724e20c37c7da7b678414c4cd2c1cfa8b24d4f3614",
    "mixed:1:p0.21": "31bc6b33e2c03d5205197081aa889d7fde97a3f977d48c903f56e18bc2ffd13f",
    "mixed:1:p0.22": "46188561806b842498a5bc986635175302ebe0f78f8a0e8406c3ea64962d3499",
    "mixed:1:p0.23": "dbcc2abfa8b1f1a73b3c9e5659d7576945173ac139b07b606cd28c58c25640ec",
    "mixed:1:p0.24": "8d2bc06bf9d385ec71a2957811cb7c3b3d01af939c161f876dd7ed5c6c5933e9",
    "mixed:1:p0.3": "672eafc308904f43bdeca9755d86e93ed96057fe25c94e73f8a70f7e4f38c0b5",
    "mixed:1:p0.4": "61717a9a96653b041915bbe54615fa26ff7d87da444cc577f2b101cb31a69c0f",
    "mixed:1:p0.5": "c852af66a5f231794e22c75660aa9249f99da3086ea63fa9770b61a9efe38baa",
    "mixed:1:p0.6": "34ac46740572171a4f0e637888e8445370a4fc76c8666e38a9dc5f6c86d3366d",
    "mixed:1:p0.7": "e9bab9bf2049b39dac46c2d9b0fa9650844846dca8c4066717412a7be45f8ed6",
    "mixed:1:p0.8": "0dd4b9dd81164ecbddfbc4c0b58bebdc518637056af3e4e7fe3bd20cfb3601f5",
    "mixed:1:p0.9": "e4d5e986f51d239488719d0c4f4d524e186fb5731eff4419b8a6990076f2bd33",
    "mixed:2:p0.0": "ccd57f13d47a33c6b5c15b458e36889cef2319e4e02cf09285feef6424c570c8",
    "mixed:2:p0.1": "fe27b9393ef152f4fdca9b2c8c8daaa612b3208d5a3099833d41e627889ef8be",
    "mixed:2:p0.10": "1cd767b9607caa1860c56ba6118676cf382f94b820d0b806015c4c8750b7b25b",
    "mixed:2:p0.11": "b19cb8b6f3baab9a282b0207707e725a3d1ee5cc0c75be109bc46d9dbd7ab786",
    "mixed:2:p0.12": "15ed0ffc593b05ca56d8239c7e7461fc1c7ed608fc7f9f42a0fa8384ec3e7c59",
    "mixed:2:p0.13": "1d5b3a8cfa7d95a9099e36f0b87e2047995acd01fb0ea4803907a04c7451020c",
    "mixed:2:p0.14": "79a38d37d51b73952ca4208f999c1fabf2143af03b0498bd0582685e993a2ea2",
    "mixed:2:p0.15": "e1e8a3bfd3022716d2d188043ee5ba14694502e7e7bf3108f7113915d6878c0f",
    "mixed:2:p0.16": "7da6a6bf51756be69253bec9626f1db50936bd757cf589ccf8c0284c786a17b6",
    "mixed:2:p0.17": "1c091ea14ad776899c6f41a1d01cf004cf08aa0a731c8027ddeaed8e48876c7b",
    "mixed:2:p0.18": "0377025ea55d4f82ea9a4b56abbe5627f011c5f8b53b5ac6efae214e1f0c0801",
    "mixed:2:p0.19": "8b37b33612a9e435b0ff2cb0711fdfa463e0c5dd337e7b279824864ffdf4eae4",
    "mixed:2:p0.2": "f5a89d244971373fcc0422a95905ce1f027c6ce51a50568329ffd727b79e258f",
    "mixed:2:p0.20": "d80e351fc2b26ee9162e0acf1f0cc96c52134fbee6722d29ec80573c8618514b",
    "mixed:2:p0.21": "020b3eaaf7b12bd6e4b155192e3dabb3b150d5a3359a75ed0a793fded8162ff1",
    "mixed:2:p0.22": "c974e1f261d70c1414752ad5f84b84bebc98505d4ae273b7dfd0f55b01436546",
    "mixed:2:p0.23": "31927a7c97413498cde9753f4315f981513c458e9b8e1cb959ae1756ad6143da",
    "mixed:2:p0.24": "b1e5ff2369ba47959cc57cec159b436a0b66e17993220dc2c0903d76a558efc4",
    "mixed:2:p0.3": "74914db6f02c7122ceb508159d763a612e4d932aa846e60f5e2dfda44629be04",
    "mixed:2:p0.4": "deefd23b4da08ea677555a87a7eb32ea00aed869fe5ee9b4a0e5c20e8ba9f93f",
    "mixed:2:p0.5": "18e62553f0ae7d0dd33253b52cdc45dea5afbaf8c361eaabcde729150d07ae86",
    "mixed:2:p0.6": "15683a255eea413ef95930d2a8b51e5be1c650469442efed19d0f568b5b18b38",
    "mixed:2:p0.7": "e2e45d9bb80df1929a2d08fb8d8101c5a586b9311da287d6a83919a84c17e2ef",
    "mixed:2:p0.8": "f8b78cbfd8dd5ef06de9fe19b121d33b0b12ae316d7866d1d36b66b36f0c6cb8",
    "mixed:2:p0.9": "d0d8e58c54182c82ef5907481666b865f9ada986ef8ce757f2c001828a478907",
    "mixed:3:p0.0": "a1e7faabaa8d6e6bc075081b1b4ee0588344518eafb1346f6aa76ab3b94fa53a",
    "mixed:3:p0.1": "b7687192bea0e90ae4146b5466c9da6208e60b35de8f4e216842fa6d10bbe3ec",
    "mixed:3:p0.10": "6e30f7dc8db637abaeaa50549f955bff939628b458309d3cb02db3782a1f71a6",
    "mixed:3:p0.11": "13b4902629d75379cba8af99a3d83c93126444fd5af09311691ab20ff42e34a4",
    "mixed:3:p0.12": "4f499004a2254b4a40ebec7a983d82cbcfc2ecd15eff9a7bee10b8d22bfcf357",
    "mixed:3:p0.13": "4322bf3013e2d0f26eb95e47d6a2dc5737c851b2dbca5e40181da59df2c8a519",
    "mixed:3:p0.14": "c143d3bd2adcd5832ddb382e8e566dee8e75fa124f380b2bb440544a82fc8764",
    "mixed:3:p0.15": "1f2575b80b8f0f350db021a39771021f7c48169df02932d96ea9e1d2b85bead9",
    "mixed:3:p0.16": "5cf9c746e7fbe5fde7203a95522931080211ee9bdfbd7ceea913fcf914493b0c",
    "mixed:3:p0.17": "7fb609d66d28640acc0f2894dd28b9a1fca2591aae6a96218d639a63b83c9517",
    "mixed:3:p0.18": "394bc72c1358a1a76bc4fe01656758358441f56a54f51d2c6e6311fab9f1a6f5",
    "mixed:3:p0.19": "e1121e81f049538760c3f2a7909f95e6753f9695238652c79ab544225dfc214b",
    "mixed:3:p0.2": "c025121bc6149fdc1fd22669ba9c336b6caefc262a64ed1a1261ee0316543ff2",
    "mixed:3:p0.20": "fcc7ded919220a4700b550818aaf576210ff513023f425ff9d54937730be6ed5",
    "mixed:3:p0.21": "2a2d266b7fc9823250bd5c6ddbf6847b6d665393a3b1f81bac78688bb16438d1",
    "mixed:3:p0.22": "abb7f49d4dd2940ea9d05e3fc2ad32714ab64b42b76c5a091fdb6956d02e1ef2",
    "mixed:3:p0.23": "4427459dcd2bf5cb9685e67b794840e67a0bfade24af7397860540bed05e78f9",
    "mixed:3:p0.24": "2f70a37195a93d2b57af4d04c0b2b1e55ab4c3d3d61f0c2c1c3b9f55ace0b446",
    "mixed:3:p0.3": "8a03cc187a9eaf08d4bf5ee2c54c6ef5beb3dd268a1f39b96291f731dad5123e",
    "mixed:3:p0.4": "3502d4808d320e9382f9313e5b6701dd76e4f4ba32260fcc6541406b7f1ca394",
    "mixed:3:p0.5": "79d8f6a1811f77d6b83871acc1a2ba7b6751e75efeb86afe8d0e53854dbe3e99",
    "mixed:3:p0.6": "6ce01fb5f182d6f32c4c17a900b25421f23691353c955625471ad4141d034837",
    "mixed:3:p0.7": "d0e1103898d71d42f521896d6d1bddff64e3ada28333acca1971da67a992b563",
    "mixed:3:p0.8": "56fb81c2e2ac11e2602fce7d62009359a1f2593492b5ded9a75902faf702e4af",
    "mixed:3:p0.9": "c2e5bc08ed09bc1b2ef6cba6b792cf17a5340713a6bbb91be7127ef42bf394ef",
    "py:kernels.py:count_positive": "4c4bf3c29a7785d7514304c54e382a81aa79db31de2ddac8d1bdb0cde07290e5",
    "py:kernels.py:dot": "61ff1336f03e24518b885636aa04c14c0ed58e18c11916fc9ba004f343e5b14c",
    "py:kernels.py:prefix_sum": "4ecdeea7ae5f0ed6ddc4533ebf37757d73d33e44d58184e789543fc9b2dde338",
    "py:kernels.py:reverse_copy": "25845867990639ad21690a1f0845608a1918f4043dcd51d46da68e1ea86b7b10",
    "py:kernels.py:saxpy": "73f7f106e6d6ffeb26697a9981d3a2ee399881a89daf99e771a4a9213b647083",
    "py:kernels.py:scale": "1c1444c307c16b3b357efb19cd680281350484c78f4119e39931690b99736dd6",
    "py:kernels.py:sum_of_squares": "bf853941e06ca1346e3fe27baeabf5f470209593b3b703771441403b290f6ae3",
    "py:kernels.py:triangular": "6a077d2f65b0596d63d751a763550b2f487a7f8e1eb6420e234fa1c7c7d4a90e",
    "py:numeric.py:alternating_sum": "d649c61198bf0759edb333286e2d5024672ac2adef16b62ce323ca793363eea7",
    "py:numeric.py:average_step": "0a84571a1ce7c4b55175c1ecb01aee1a3f43a4616e0f664b3128f9f43ab512d7",
    "py:numeric.py:bounded_fill": "7692b15a948068976e2752c06459696062ef547509832a22ddd1665e706c528e",
    "py:numeric.py:digits_sum": "f165a16d678fc44524991816de86cb08b773a3d9f368feedd743f8f5878dca61",
    "py:numeric.py:gcd": "1045710a21cb93724290d4595ae38f0eb3380d45fece2c23a7202d5bdc3bf32f",
    "py:numeric.py:halving_steps": "706aa53b53e353c60fbd633f8cd27f97d8cda1feb411570172e46d948d0594b9",
    "py:numeric.py:horner": "be5d9b2fbaf7dcb4a3f5846512c4230641d6f46ad7bb062be6a682d997bb817d",
    "py:numeric.py:last_element": "6464f2e7a5e18acb929367df011da7cebb4729239b34ad73d673ccec91267382",
    "py:search.py:binary_search": "46c31ba67af3089d160b831f73e0627ba631ca9673bef69d3f08dbdd51a4af24",
    "py:search.py:clamp_all": "de44fff76cebd8f68fd9d3319af6f8f1b49c8071f92f2b13c2074ea5670f0826",
    "py:search.py:count_runs": "7d8632ad17aaba4aa37b2248170d5343bede2309974cc98ba929792d80643a0c",
    "py:search.py:first_gap": "126fa97c7b5fb291c9b906bfefdbd93b1f8206eb8feacf3016420bbb0e09c354",
    "py:search.py:linear_search": "637af9b427a7fdee5d5bbccde81dc5135db93cf112823a4fed1c68e12579066e",
    "py:search.py:weighted_tally": "d679611ab7033f203b3f747431d212b7c4885eb8be23309c6e07330047c0fa12",
}


def test_every_case_has_a_golden():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(CASES[case]) == GOLDEN[case]


if __name__ == "__main__":
    cases = _cases(MAIN_SEEDS)
    for case in sorted(cases):
        print(f'    "{case}": "{digest(cases[case])}",')
