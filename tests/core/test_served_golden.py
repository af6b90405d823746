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
    program = analyze_function(
        compiled.function,
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
    "chain:1:p0.1": "0c80cf5aa2dc5d5d5f34665b028ec91681b20f7123505ff4a77b9581015bf50a",
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
    "chain:2:p0.1": "a82ab134839487c40dd78dea5c9a7a0cb2da36261dca0a79dc4bb2d25a28f2d0",
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
    "chain:2:p0.23": "ff2d17f48b70dc3c3d4f2478df5ef40079a172b35a1cf89f820d8be539b7b0eb",
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
    "mixed:1:p0.0": "75de3d3c5d738ef300f014a67b3a152d93fd3b6150696bb0c65be685a07ef561",
    "mixed:1:p0.1": "908631c6169b31d5b524405542ef1f16d03584e280393f4445cf3a53b4102a00",
    "mixed:1:p0.10": "5a8c3f32e1e6bf6432e4acc23fdd9629062a85c6e24ecc2b6ce3b8750cfdc0a0",
    "mixed:1:p0.11": "cc8187d99aa2761e9bbbcb1122b440a5ad494a3d42ef22e157be61442d860ef2",
    "mixed:1:p0.12": "ee216d869c3bf117d2546fe0ee4afa21439a4c00155f284c04f03971d88c4922",
    "mixed:1:p0.13": "2a3fadd66c7983731cc645f06eedd991f534eba4cac3bd02bcebd2ba5c94bd91",
    "mixed:1:p0.14": "e8e4675ae1cf753fcafde53f5f72283066b8c0e4eb1550268648574fb998a432",
    "mixed:1:p0.15": "f400b828ae71faaa80e9688ecebcfc12b05da05c62e20b8547c1d1190d212e0f",
    "mixed:1:p0.16": "b3b1249ee0f8d767eb4728df810a6c8c5b1d165af9cdc7211170d2a2ff60d2a7",
    "mixed:1:p0.17": "be5f4a5270e9a5b5834577f393ecadfea794996eb7de86df324b6dc89c128bbb",
    "mixed:1:p0.18": "8b1bba153e862eea02c97d1bd8d7c49f71f875c4f6b35f2e46e9209a4e8db809",
    "mixed:1:p0.19": "1f34450b4297ce01f102e476112e3251d7b08c1afb02092c61b0ff70aca22128",
    "mixed:1:p0.2": "ab14a99b5090a919539081df0411e6e7d99bf67afabcfb20d7dbc962004cc441",
    "mixed:1:p0.20": "666ebff67c76b1ed77ed1cf3fcae6b0c5dc2b5e57ab00b38e3d929e7b3c2951f",
    "mixed:1:p0.21": "6b72251f0e84202c8537e77f7c6be67b77f4427ed98f5419cf5b1cc366e9bd8f",
    "mixed:1:p0.22": "c9b6c2e882bcecc087e6c818741bb87528674d4c9f32d57596b057ce24b28c19",
    "mixed:1:p0.23": "2eb34a328a4c683bd5ad523742e41b91a22c7d3c2926703cbcc5f1c67986768e",
    "mixed:1:p0.24": "aad9799c923d676eabd526ceefa88b36bbf6bd00e8df57ce0a0dac4bf8652558",
    "mixed:1:p0.3": "64ba3a003e3323b79a030c85753cac5bf98fcfb62061c3b96f7d8797c60a6bd3",
    "mixed:1:p0.4": "7586a3696ef423260097ba07304ce2e49572c868550a6fac1db72f5c4362c07e",
    "mixed:1:p0.5": "2030769f9c70616879e5e6891d7d84a85bcbec45a3be036943b7a50e0bac90b8",
    "mixed:1:p0.6": "4115ff335816d999f04a9275820cadcb6aa473698a304316824144e65e61517a",
    "mixed:1:p0.7": "ca095cd1b43588fd2e2e63e08612a4e1179d03356e1ccb11c19bf6b0bf96a8ae",
    "mixed:1:p0.8": "9470da895c9f6babf38ec39f4c35f74c23b178d012cc1dab15351ecc62655758",
    "mixed:1:p0.9": "a20dd38161eaf9196771ac8a26959615ae52c9b32a7b302eb46791ec493815b7",
    "mixed:2:p0.0": "a753251d739d65642157e8d09135e9bb9261a16ac3255acb7fc2fdafd5061746",
    "mixed:2:p0.1": "de1a652392c3b5698ed79fa72020fbad5cc3d7c0b348566075e9523109782eaa",
    "mixed:2:p0.10": "2fc170a7af1d6562803e035f9edfab98b88f4aba4edbb99824c63fa299a40fad",
    "mixed:2:p0.11": "18af07ead3761eab997032f5c8fe1843c58b1c448313c375efef8458bd7a35c5",
    "mixed:2:p0.12": "52a5ed35e083ce6de0932b9220a9bf8ec4c6287759aa21c35cbe81a4fb1aa7e7",
    "mixed:2:p0.13": "837700447183083a224b487f1b54fa4d15c69672f6723c147f719e1c6e190927",
    "mixed:2:p0.14": "afb8d7a704fc220cce81d2589d02cac9ee4dd624f53db03c0d74ebc65d230a73",
    "mixed:2:p0.15": "7141e0d7a0752e4e4ab64931c4e90bd5da3ce633ef634c074f8e201234d2b0be",
    "mixed:2:p0.16": "85ee3bfe138dc82ff0ca02754ea1cd29e21d8ea601449d34cc03bcdb5bc7a03e",
    "mixed:2:p0.17": "ca74bed5d98a1ca56b9a6dbeb10e20cba85ded1977353d5747db04d47e22724a",
    "mixed:2:p0.18": "3becd24366ef995ffbc63fcaca800a1bb1edef132c359469f8ff2250e2aa52be",
    "mixed:2:p0.19": "bd54dc8a3748825a9678b2d852fb7ed5d15fcdbb9f40ebbf9ad81029c9d08c43",
    "mixed:2:p0.2": "99b1572f3f368ac4ec9a86c2a6a93b2efea3363c1d9a35db7e283667cb714aa0",
    "mixed:2:p0.20": "e9d3b5f6eb89b216094cba38b256fc5ef87f742143477e6ec8ef192eeada2294",
    "mixed:2:p0.21": "6f87d64a42766699f95486840dc75501f744bf8f868926c580e5f5d30f628988",
    "mixed:2:p0.22": "8e1d6be0e158974417e02758569f90eb8bc6b20c095b296def5b516888e46c10",
    "mixed:2:p0.23": "ae87f26eb786779eac4b3a6acdf24aba58e77db2bc60e065cc083ab28d098513",
    "mixed:2:p0.24": "4c04cad566c5e01f79fa66a2a32bea85dbbf5847785d9fb17b8d94eaf735c106",
    "mixed:2:p0.3": "1fb5d848b886a86a385331375e67f6857f3cd3f993d3b79abf1b8925eebf2886",
    "mixed:2:p0.4": "a19585b6c71f3495eab4d8ae17d10637ae813d362579c2301daaaca4a0d3338a",
    "mixed:2:p0.5": "4bc90561815e497f5cca00270f874ef9509d5f05b8d8e3d1e547dd151a3d726e",
    "mixed:2:p0.6": "26df20d9ea151702fd6159e92465b44cc57548bc190b4163219c2175f9e69b73",
    "mixed:2:p0.7": "1f9aa97793fc46efe049be7d37059132eec9f5ca9c0899c22d6c0229795d05fd",
    "mixed:2:p0.8": "562d6736c1a2de6988a552a0b7e40fd1b455aa679c84ad014bec40af1347e2da",
    "mixed:2:p0.9": "68ad2a57220ba6f20d9ca14515a74d40af6c43c982aa00f63ed1c7a191e638b5",
    "mixed:3:p0.0": "c15d0a6f368bfadcdbd52556a3755091deab3df8a861855695646b33b3c27583",
    "mixed:3:p0.1": "58f968a3e1285c759d716a93d72b022a715aa2e6202b972ad8ab833319bbffb8",
    "mixed:3:p0.10": "6c603007ae9e421fb041415b1fb92d588fada021dfcdac33d9e96e266ab9bafe",
    "mixed:3:p0.11": "4308a9a76ca921649cddf67448772009b3fa2191ec2f2c254ef233d8ff2b749a",
    "mixed:3:p0.12": "621885c1f541e9952d542b40f8c26bd2981cf9b17ff72903b2da40bdd3227bd0",
    "mixed:3:p0.13": "40d9873d110151753f1a26b2c62d5a666f6bb131a4f34f0416a3763ebb267ff6",
    "mixed:3:p0.14": "c8c4bac58849048070c61162a6d3469e22c6ae83060626c655670fac0c744d29",
    "mixed:3:p0.15": "d92d9f8367e2194ac770709ea113f5a60002c8270674e60a2eedf1faad463eae",
    "mixed:3:p0.16": "1ba8447efa82bcdadd623233a46bbc68da5ce054dbcad7de52086518dd4231b5",
    "mixed:3:p0.17": "b6d1f77187c0d5b3b934d3ab87d1cdc39fa8acd59737f94b978fc13298210b24",
    "mixed:3:p0.18": "579c3cbe85783f37495982ed47fbc0ba6c03570198689043d4c300cefc50d362",
    "mixed:3:p0.19": "c910913a98ef745c65b06524b16f9d6bec48ab033321e905b72cfa12462551e8",
    "mixed:3:p0.2": "a7a631cf65b9498173b60682b4395d587f9855ea42f4590f031faa41350e173a",
    "mixed:3:p0.20": "fb743a056901dec67eac04ed5390f76d95d80a2a5f790b9c3c5c880d8d8d40a4",
    "mixed:3:p0.21": "9071f484e1fced5c07c152a8215ab1e9e203e9c22e515e428b0b7eedf608fcd1",
    "mixed:3:p0.22": "f937b5b8abf2bf3817e6d8b46459ccee136fd4c117e51f9fc814e43b50289c30",
    "mixed:3:p0.23": "65df486a4183620e7f25ce7c791a7d8e7065e42ad82df2a0257eb605180068f8",
    "mixed:3:p0.24": "da36f2cf69fceea9753298d340ff69dd70b13b065241a7e66652e8152b5fc8e4",
    "mixed:3:p0.3": "7718e7562b60755bc4bbb40f9d948ba673b9fc52090d55e093e5b5ef3de87440",
    "mixed:3:p0.4": "63dc3f640dedff1c1e68ecf3d8cc8157c45ca582e55734b6ceae5ab4631e76e9",
    "mixed:3:p0.5": "39bc0e9354e7435de07bafa53d536c02e33fe4a326e7da45475ca625fee5960b",
    "mixed:3:p0.6": "d03613750afd65f2d97cfd959db8ede46861b51e13f013e1a87e1e535fa9d5f8",
    "mixed:3:p0.7": "6386847f5765d71ad0014c04b887d394e396f74a5e05591c45c6026de2a46cdf",
    "mixed:3:p0.8": "f52b48bbab53695207340e660c7f9ff2a35536f7828434ef33eba80c8b78200b",
    "mixed:3:p0.9": "bb7e9c39de77f435694ebc86a0456cca9f0794e2f6d8da21aac38f4fd4eacf30",
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
