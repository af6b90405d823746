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
    "mixed:1:p0.0": "26191e9ac749957bbb1b28c925edd3012f33faa1fba2f05db08e9b8f97146fb0",
    "mixed:1:p0.1": "908631c6169b31d5b524405542ef1f16d03584e280393f4445cf3a53b4102a00",
    "mixed:1:p0.10": "ff13c30e62f32aef068acbeefa32a54b375bde803ba027113d17668a2a0315dc",
    "mixed:1:p0.11": "3f6df109a757f252ed0a0580f76619a90595d2a6419fe7acafb5ac102c041275",
    "mixed:1:p0.12": "d2e9751957592eaf7d3d62de94dcc6ba53292f9f343ab609f031123fb8da69b4",
    "mixed:1:p0.13": "399677a218e66fe71a3682d697450d52ad9eda9041295baf18ca4b72b002801a",
    "mixed:1:p0.14": "77f65bacfc59a36b4c995e09febc43ab51c407b5b5b8fd42dbb56244d2f81e96",
    "mixed:1:p0.15": "04eb7839c2883ee1a30e744f58ad94c44dd2e6e7a26924cb3ebe2e4385616e60",
    "mixed:1:p0.16": "53f8d6ca59c33ddf2a4824a8b1d22210d1f91ddc2e4a51df60541f92e507a272",
    "mixed:1:p0.17": "05873fec15b102556d9fb2dc3d7482a7b136ce5676644b6de91d29df6926cc04",
    "mixed:1:p0.18": "f7f53c2c30174ee6b3139efa76ab3010e24290e2a5fedc779cd0d6aeac8387be",
    "mixed:1:p0.19": "7a05ca957124439f999df5b40e46b5e7526a63e7bba8aec7f9d76678542a4207",
    "mixed:1:p0.2": "ab14a99b5090a919539081df0411e6e7d99bf67afabcfb20d7dbc962004cc441",
    "mixed:1:p0.20": "70906f20326c0d4f233cb24839a86333df53eb6a54e6d06c5f4b872a2c0a869f",
    "mixed:1:p0.21": "8a956799da8112ec21afeacff35f08870af4025b61e405e70a65e832a5bdaba9",
    "mixed:1:p0.22": "fede0452328cf280dc44db398a271efa0916748fc1b0347a0c2337611d7533f6",
    "mixed:1:p0.23": "85e01d5aa81bc672f0263497c6d9f6d36af2bf1835414a048722489b1f64e3c1",
    "mixed:1:p0.24": "22597edc5ca4ab124d29804075fe972db7113ff3a6b037dc74064c7740b295d5",
    "mixed:1:p0.3": "be293dd8e1caeac4ac39613f7a6278e90d722036a6f38f52ed6fd7d384813168",
    "mixed:1:p0.4": "6475b6e2a5935d45ac096563c7c9b3e78a3d134f892c9b29bb241ec4066309be",
    "mixed:1:p0.5": "03404fda993614f788fb0f30f332443d0ddda6499805b92593218857dfb05bc6",
    "mixed:1:p0.6": "4115ff335816d999f04a9275820cadcb6aa473698a304316824144e65e61517a",
    "mixed:1:p0.7": "503d69e5719374ada765af1cbf1b05c5676232f87f4c600d0ceef22ae6542a57",
    "mixed:1:p0.8": "6fae4c8edd70f1907648782683fc1fc386fb645209172feb367c9a181f20c7c8",
    "mixed:1:p0.9": "2eeb71ddd0f534cfefd2bfb0249366ddaa80ca4fb7f84e942f3c6a4986cc758d",
    "mixed:2:p0.0": "a753251d739d65642157e8d09135e9bb9261a16ac3255acb7fc2fdafd5061746",
    "mixed:2:p0.1": "ed43d0454a16785fb57e5a1f0180dfdecf6e09f2f7e5a410096930a80b5823a4",
    "mixed:2:p0.10": "7b2aba1d37101b00c75b36c07dec1c34839b035dbb0cdaf81efd349cef6906ef",
    "mixed:2:p0.11": "8e3ad343a16296981778bd1c8f07e6f81713b490016cb1ee53a572fda757f66c",
    "mixed:2:p0.12": "036236d4ca4fad162cf670063b6257f058b04336f34f8d9efb994f2c0a6817b6",
    "mixed:2:p0.13": "68e461435ef3052f12dcc0085bc1084156e2855c40b612edc536eeca7e6a11a3",
    "mixed:2:p0.14": "6768a422f4b0297c789640cd00c79d146f732e507c4cc45e0f18addec51ac1d6",
    "mixed:2:p0.15": "401b787188b3fec133afc9438de4a86e094ef92ef6f4023490652c5d97ea0e5a",
    "mixed:2:p0.16": "5d9baee613e35c61b39e4470a61bd07de969eb5611e61434002f38b5ed443beb",
    "mixed:2:p0.17": "8b873e43b786f3255f404a19180415e0a95da6d427af72edc3f8dcaae66a796a",
    "mixed:2:p0.18": "2a528d75ea53cc4c06dd954981843e89582997f6051b8cb3d755a32dab52eb4f",
    "mixed:2:p0.19": "dfde33c700fba5c46e360487e1654cc9d25f46a3890835a1774aea5043e98c26",
    "mixed:2:p0.2": "99b1572f3f368ac4ec9a86c2a6a93b2efea3363c1d9a35db7e283667cb714aa0",
    "mixed:2:p0.20": "9b2cae03da219146bbf353c536c9ede73a2a80a72ced8ff5cd1121f84e8225f9",
    "mixed:2:p0.21": "c26ab13cef578c745eef39588f72707f907828ae22b26f9334495a8188ae1624",
    "mixed:2:p0.22": "ba8bb60ca87087987ab6a19ad70c3f3a94352020f3011156f5cc494d91161e40",
    "mixed:2:p0.23": "33f1322393d6bc0855c82929bf3c22b8f3d6763260f2fcc2b5541714ac33a930",
    "mixed:2:p0.24": "d686191edd2573309efd1c701cf1445cc33a6299d0619c1d1a97a786386df0ed",
    "mixed:2:p0.3": "fc8f573852e3f473bedeb6fb1c8582c4b67d3b562e0c4d8041892f3267686fcb",
    "mixed:2:p0.4": "a19585b6c71f3495eab4d8ae17d10637ae813d362579c2301daaaca4a0d3338a",
    "mixed:2:p0.5": "98038d570597873a0ce6a1171817cc97d480d3dbd68bf9d348c1b1a70392e325",
    "mixed:2:p0.6": "04cdb7a0cba0384e38d3d1b721cfaf76b078f5414142464fbcc471cd71cff7f2",
    "mixed:2:p0.7": "544c941a01453c14a9a2eeda761bfefdfe0b4fa8b3f8d972e9814b71d844baba",
    "mixed:2:p0.8": "cfefe8f2639aa166fbaef3dcd428e706a5acf24275cd9be84c27171a853df6a0",
    "mixed:2:p0.9": "f11447eb79b96b87244c3a9b2764caa4abeef73ec06093e95ace18b5271173cf",
    "mixed:3:p0.0": "c15d0a6f368bfadcdbd52556a3755091deab3df8a861855695646b33b3c27583",
    "mixed:3:p0.1": "58f968a3e1285c759d716a93d72b022a715aa2e6202b972ad8ab833319bbffb8",
    "mixed:3:p0.10": "5dccfbe91cc904c10ad98ab8cb2462c7d1956118a4f9069d54ed75a86a743a5d",
    "mixed:3:p0.11": "ba55d76c59b0aa6ab61c70649a05f79e93ce731d3489ec0752b7b7298e0dff2e",
    "mixed:3:p0.12": "1db38430f51cfe77e992ea62ea8f54fe33c2329482bc0f1c7be2181b985c534d",
    "mixed:3:p0.13": "5efb0f8e8bb026cf7600941689df4c1a12fd757e33e9422812dfe2b3f29b8845",
    "mixed:3:p0.14": "cab2ec83e03d0b152372e8efc9dca789b08dcc51eef9a4222708f15024cb487d",
    "mixed:3:p0.15": "8bb797ac849fbe72e72b4815674f219d4caa20a3fb81603ca167010d8f2e88ca",
    "mixed:3:p0.16": "6ae6c697ce77faf0925a6078b08c2225c89542e3a6d0076398950389ea6ac78f",
    "mixed:3:p0.17": "84a96725e2eaf71e9ead64aebcbdaf99f248fbe59a07a0f80284aecf14ac7bed",
    "mixed:3:p0.18": "859d06d77ed49a62d3f463b9410b67ab9405f9b4fbaa6c7e77533882c67191a7",
    "mixed:3:p0.19": "563919cca3d81182db0e498d96aeac18d2a04b8ffa0946e773e56e58ef776e9d",
    "mixed:3:p0.2": "a7a631cf65b9498173b60682b4395d587f9855ea42f4590f031faa41350e173a",
    "mixed:3:p0.20": "c802e113268692b620126ac960479895279314e6d687c74cb4136b1e4b5512a0",
    "mixed:3:p0.21": "1566188fdf29cdd912d907b2c39e19a1471ef9e1740c19a06b8e3b140683d952",
    "mixed:3:p0.22": "0969d3994bbc7726d506305abee993585efb17c7442ef11d6c10e60212425cf6",
    "mixed:3:p0.23": "abfc921b3a7f4af0ac425d8ff10f7eb06ff78b7cc82dfc28ad3e25a58424571b",
    "mixed:3:p0.24": "5bdd1c64628c72369d9ffaf83a55e131e6e299e0d7980121be589848760dfbed",
    "mixed:3:p0.3": "8def71672aebba6c0e4d70720549acf96c274a6e36e86c1894602ef715bee3cd",
    "mixed:3:p0.4": "0415a78a66540c429a1cd8e3426ccce08a59d014804affe3d947fa3e950b4c36",
    "mixed:3:p0.5": "b2e33ef6bdd0699c7264c4c21b4867cdd1c2f1e4e3cb27d23178ba00fbd601c4",
    "mixed:3:p0.6": "df3926848204ef1345d968f92ce09461fd8bfd6213a8eca9f8ad41f3bbd3f522",
    "mixed:3:p0.7": "6386847f5765d71ad0014c04b887d394e396f74a5e05591c45c6026de2a46cdf",
    "mixed:3:p0.8": "45d06feaf73e70fff2a61312a26b2887859155188cc1fa40d8e7ba8d1c589dc5",
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
