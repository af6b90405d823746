"""Golden digests of the scalar optimize phase.

Each case is lowered, put in SSA form and run through the optimize
phase's round loop (SCCP, simplify, GVN, copy propagation; at most
three rounds).  The replay keeps the old stop rule: it stops only after
a round that changes nothing, so it runs the round that
``repro.pipeline._run_scalar_passes`` skips once it has proved that
round a no-op.  ``test_pipeline_matches_replay`` checks that
``analyze()`` still reaches the same SSA on every committed case.  One
sha256 per case covers, for every round:

* SCCP's lattice values and executable blocks;
* the return value of simplify, GVN and copy propagation;
* the printed SSA after each of the four passes.

The committed cases are the first pass of the perfbench ``dsl_mixed``
and ``dsl_chain`` workloads for seeds 1-3, ``examples/*.loop``, and
every lowered function of ``tests/pyfront/corpus/*.py``.  The corpus
includes ``numeric.py:digits_sum``, whose SSA changes in round 2: round
1 GVN forwards a name that SCCP proved constant into a copy, and round
2 SCCP folds that copy.

``PYTHONPATH=src python -m tests.scalar.test_scalar_golden``, run from
the repository root, prints the digests for seeds 1-10: diff that output
before and after a change to the scalar passes.
"""

import glob
import hashlib
import os

import pytest

from perfbench.inputs import chain_pass, mixed_pass
from repro.analysis.loopsimplify import simplify_loops
from repro.frontend.lower import lower_program
from repro.frontend.parser import parse_program
from repro.ir.clone import clone_function
from repro.ir.printer import print_function
from repro.pipeline import analyze, analyze_function
from repro.pyfront.lower import compile_module
from repro.scalar.copyprop import propagate_copies
from repro.scalar.gvn import run_gvn
from repro.scalar.sccp import run_sccp
from repro.scalar.simplify import simplify_instructions
from repro.ssa.construct import construct_ssa

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

COMMITTED_SEEDS = (1, 2, 3)
MAIN_SEEDS = tuple(range(1, 11))


def _cases(seeds):
    """case id -> (kind, payload): DSL source text or lowered named IR."""
    cases = {}
    for seed in seeds:
        for program in mixed_pass(seed, 0):
            cases[f"mixed:{seed}:{program.uid}"] = ("dsl", program.source)
        for program in chain_pass(seed, 0):
            cases[f"chain:{seed}:{program.uid}"] = ("dsl", program.source)
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.loop"))):
        with open(path) as handle:
            cases[f"example:{os.path.basename(path)}"] = ("dsl", handle.read())
    corpus = os.path.join(ROOT, "tests", "pyfront", "corpus")
    for path in sorted(glob.glob(os.path.join(corpus, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            module = compile_module(handle.read(), origin=os.path.basename(path))
        for cf in module.functions:
            if cf.ok:
                cases[f"py:{os.path.basename(path)}:{cf.qualname}"] = ("py", cf.function)
    return cases


CASES = _cases(COMMITTED_SEEDS)


def _named(case):
    """The loop-canonical named IR ``analyze()`` would optimize."""
    kind, payload = case
    if kind == "dsl":
        named = lower_program(parse_program(payload), name="main")
    else:
        named = clone_function(payload)
    simplify_loops(named)
    return named


def replay(named):
    """Run the optimize phase on an SSA clone of ``named``.

    Returns ``(ssa, lines)``: the optimized SSA and the text the digest
    is taken over.
    """
    ssa = clone_function(named)
    construct_ssa(ssa)
    lines = []
    for round_index in range(3):
        result = run_sccp(ssa)
        lines.append(f"round {round_index}")
        lines.append(repr(sorted((k, repr(v)) for k, v in result.values.items())))
        lines.append(repr(sorted(result.executable_blocks)))
        lines.append(print_function(ssa))
        changed = 0
        for run in (simplify_instructions, run_gvn, propagate_copies):
            count = run(ssa)
            changed += count
            lines.append(f"{run.__name__} {count}")
            lines.append(print_function(ssa))
        if not changed:
            break
    return ssa, lines


def digest(case):
    _, lines = replay(_named(case))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


GOLDEN = {
    "chain:1:p0.0": "a18f6fe2400217428c5c1675fd9f22a7ad88ab0a4e96a53dbf49b0f4f11d9133",
    "chain:1:p0.1": "34cab750596ccb5e403e7cadceb869c28629f683e60c9e1a1ea74a88bed6dedc",
    "chain:1:p0.10": "46f7f31b4b33f12d13037f917bad77ef9d8a7d503d1801df59ab8d8a15533a59",
    "chain:1:p0.11": "3c71ade9fecf2b877bb353979b8f7a636e28a0c26b9faa4d54c76253d35b10b1",
    "chain:1:p0.12": "1f07c0dda2c3373a08e68020c244a61fd5f96eaa589a3b1d5ae6d9844f018ebf",
    "chain:1:p0.13": "c451d69030edbb19899f138b071ec4ce2ec00ec83b3f397e5d68483bbeb71ab1",
    "chain:1:p0.14": "74c67a12ddf424695d4af61306d6b2031b89bf08f63da0a6818c739ee268a5d3",
    "chain:1:p0.15": "7df54ba0af4db4f8400b681e68f4af98ee8332dab256dd203fef47a672351b32",
    "chain:1:p0.16": "7fcf65bd20b08c55cca2cbad78187ad3542c9e6f237d16395567e5e8e3c91ca9",
    "chain:1:p0.17": "1ab14ed1cfbe20b73efb54581ae52cf2528902baf2a208f4542cae4e70d22095",
    "chain:1:p0.18": "2237e174903f7f76a79f5b31b36801f408da5886e10bbcf8e9da8075f432fcc8",
    "chain:1:p0.19": "55da05045752cb3508839cafd5181af5ba561ed4506cd478da7111659ef54fff",
    "chain:1:p0.2": "af8b51b688f34ae04a6b196f4db93604fac44d7b8a60918685d0534bc6af3c2e",
    "chain:1:p0.20": "ef37a052698bfb97cb2d4990d45c895b0de72847dc8b59c637d5efd6372041f2",
    "chain:1:p0.21": "63bffd1e5096211d9adad38b7f68b108db94d0729b036f302fcaf72b209b714c",
    "chain:1:p0.22": "72feb0ee16f9814a4f25ccea97ec04069ad5d50f8f6d557ac2fed946d7ffbc49",
    "chain:1:p0.23": "5c0a51b3c24b0035169d6ecfa756acfd9fd9265f6a5eb1b23d38c67a371c182d",
    "chain:1:p0.24": "e4de5b17eebe74d1a3887d8dc4823a5dd6e3b6a3f5294f9da88d842bb743affd",
    "chain:1:p0.3": "8cf4d30173c8b90bdf93dd90114384f6ddd657fb34375553db352799c64e4ace",
    "chain:1:p0.4": "7d65c882ddbfae298de5670b37ef584ac365142b459d0ff54edb675b505519ad",
    "chain:1:p0.5": "ae53467c5a3b7cb959676ae9816e7e284b7196a744ff0e28c69549a88a1ae7dd",
    "chain:1:p0.6": "858633ff4063e8ad33c0b5029da32f04bce0b4f29e732e27ae89be0b592f8ef0",
    "chain:1:p0.7": "950359e58c70722117282378594b8d6ef3e9875582c42db3ba2718432e849fca",
    "chain:1:p0.8": "97f58f964dbb9c611c9544aee4d27f66f238a4ff77108a14ad83813ed0def200",
    "chain:1:p0.9": "c65c7f5972cb8d6d4ca0c65aa86f0396b5c1e657fc6c373d46940d11d132e190",
    "chain:2:p0.0": "65dd427a2391d22541e7a1f6c6e1fe3bc6fa612979c4eb14333728412c1279bd",
    "chain:2:p0.1": "357ef041c26c1f532a1548376ac88c5ac8287a53465bb496710cac0226ba1871",
    "chain:2:p0.10": "168fa637150839356542a5d5e7277625d7d019c23add92f9dd842cad76aca21c",
    "chain:2:p0.11": "774f8792dca3001d52149caf98d009680ce2c22354b9ba9fb26bed133737cfed",
    "chain:2:p0.12": "eef1e728484fe4bbf48e363c3cc43b4794eeaea556d74f33a4aaa6f27245d628",
    "chain:2:p0.13": "d977ecea5b70ca99713ec4067d0082293a812561e6a90afdf41b4700c90c7870",
    "chain:2:p0.14": "919d426ba9cd4b58bf9ae3d0cc614c8af84bccd3a4e0a436bfd530ab38a266c0",
    "chain:2:p0.15": "e948fe3f6d867f9ee397955c75e3d810d93c8c9a7bd0006075fcec172031de10",
    "chain:2:p0.16": "942c1e9e0e3ad7f7a7a31e4d0c1b894be89d595e172fe34533118476eeba80dd",
    "chain:2:p0.17": "af5e8e33b3555a301df5adcf2c3e9d547e1428953c4a6d7fb8c0cdc45ccf0d13",
    "chain:2:p0.18": "a032117018c625850ea5289065682f2735c3ab77570e5d2995c592eae0b2fc29",
    "chain:2:p0.19": "d461f06f313c0fa6eaf1da8ea8e09d38e0d0273a650c6b4cd043bcd4637a7f63",
    "chain:2:p0.2": "9931b673b05515e37f13039e855af540023dde69121fc98ee566ce9c268320db",
    "chain:2:p0.20": "08a5c339d6bf18d9e15c842c8184e975d9f7832f9ee5150c24c8793865f7e038",
    "chain:2:p0.21": "dc8dfcad15394aec4ad4c90d7dad7d1c06221c71cc1cadc32690b9d898b38abb",
    "chain:2:p0.22": "6d46d265d4dbd819b4da4b55bd0d786dbfc986980d413d3925726adab5801871",
    "chain:2:p0.23": "d49f48536751c4001a3d5be7ee6f7669cff7917af98a3666d99c820a8c118ff2",
    "chain:2:p0.24": "78d8b14fac5721d657523ac4529e04f825b0ddf969407d044b3c12282df46337",
    "chain:2:p0.3": "8e31dbd9791847b7fbc20d7f39c090281f8db170e462950fb084871ab1b47f92",
    "chain:2:p0.4": "a96577727c8fe146be13ad72838655899d07acacb747e6483a071422047ef523",
    "chain:2:p0.5": "7a1a62c8508ec242098a13c2e5a8c3230d76590837f61eb6fd274bbf12b4f57c",
    "chain:2:p0.6": "0d0849f51d7b5c8fc0a0cda8b64dcef4746c730962ca1ed8d0176e9f5551ddb7",
    "chain:2:p0.7": "09ab856ec41fac8b9890bb6a502e8c6b09ebb7ed4892dd9a8f9da8dbd914a136",
    "chain:2:p0.8": "55d1a75ec1b6a1cac60f64a81d70d2eec4ae045608b692860242a8cac503fbc8",
    "chain:2:p0.9": "2595b236c2fea3bc3338bc615c716bbe32ff27a6c21adb65fce54f420a0e194b",
    "chain:3:p0.0": "0deebb59fe6a67a61da0c02c0f01d6defa714c388d9669acd97515e9bbe5002e",
    "chain:3:p0.1": "bdc97990a3a4ec5f857cdab4b84f49b6507806ba0fef493f38b9f2d024568c3c",
    "chain:3:p0.10": "55a5234f41e4b9a90e08b096327e687e6cd02f86e7ebbb87189624c1c47cc28c",
    "chain:3:p0.11": "4422d0a3c14f9122ffed809d9a27179970a9416c76e05cdbee6cb8c7dc0eb4e9",
    "chain:3:p0.12": "0f8078fb20c5799804c0270fe0dc7bb990c13ae23a005d5927627e8b4a095eab",
    "chain:3:p0.13": "d2eccc49b5ab0d5a2eb806159468d044ad4f203a5d086637e0db467e7c1db6cd",
    "chain:3:p0.14": "87bee0ed9848b37205565e6cd1f9368eeb52e91d5266bd73f4306d1cfaa6b757",
    "chain:3:p0.15": "0cc96f84741625b5f97de901917d307077ba6d9ad0eb16ee382966d0cd732a78",
    "chain:3:p0.16": "59230145177facceea9d9d9563d3df1f91fa87433b9b30bd259d8cc461a20011",
    "chain:3:p0.17": "1814fdaf5345d437dd9b4ed513359e931e4b316967d2185bf4acfd3adfc3af4b",
    "chain:3:p0.18": "4c2e03474737d6cb1a2e86930797c468b9f1fe798c558a51cc685b768bd5e7d1",
    "chain:3:p0.19": "2844ca07eb73609e3d183bad3bedb1b5ff28789e8bf5d391410c2250700820a3",
    "chain:3:p0.2": "c986a4030167bd187607614d71a542cc47642fcd0a6fc55d1dd194da334a07a2",
    "chain:3:p0.20": "080e4fe376124a81b0ae6aa034df008e9aea8a1bbf31c6a348a22fc5db9b50e9",
    "chain:3:p0.21": "84cd9b9d972cf756b911c9266226d3f6d70e79b2f43e245d91980fe55fc2d5b3",
    "chain:3:p0.22": "27eef0fd4a8e6db9d5cc27fe1a923c67ed60d279e8a59bb4c7e1c4ed1af857d2",
    "chain:3:p0.23": "812060d5b3b4c4a7457fdc1656771d89481f1477c6c2dc8d0b84f423e4efe3e9",
    "chain:3:p0.24": "88a3befe2d0bd1f3ba768aea63500b04b6325594acd7238c6d0c8cb434894256",
    "chain:3:p0.3": "4fa1eb14f538dfdf9299689fbcfb1c38cf3cb1f02fd23546430aaab968fe4c6f",
    "chain:3:p0.4": "34a498aaed6a491db81cbe814c89f26ef528a3820ef7013d274371b9d54f93a6",
    "chain:3:p0.5": "2bc0ba79f84c55e1f44d469aa8676d11fe029f0b3fb7d212fac68080aa08c2c9",
    "chain:3:p0.6": "4889ef9526ac615a38128b07fae2b9ad761c7bbee76845629cf9da5384e3c532",
    "chain:3:p0.7": "1907096cd0a9ab50d2ffc1028ac8aafd20a3dada59bd2b27b07b40b1bebabc5c",
    "chain:3:p0.8": "1e3ce6107e6782c3b51d5f1da4ec067291bfc553e52c40c485221537f34cafda",
    "chain:3:p0.9": "f4e7ace7efda1225967391c2fdd0149a3bb91862bd7592d6c7de3d36462dbcc2",
    "example:branchy_counters.loop": "a77add77e644f3f8a33779581ab4bb06ca82f3ef95559aaa79a7dc12e6c9c272",
    "example:wolfe_figures.loop": "ca5cf2c4ccd3c9a2acf02a0cb7c3e3f96ef2c3e1884b3eff38ea5b1015b9ec3a",
    "mixed:1:p0.0": "38816ff16409473cec5de1807148f8646f841afb64c1c690cd47583815c1cbd5",
    "mixed:1:p0.1": "a6ca8dda8cca60e658a6d93d3ee3ecff1c923b9548c02ecad5cf54500dd67a3f",
    "mixed:1:p0.10": "fa8a6c9893237b69ea191761eacf1f92535181f73d98beea2006fcefc2fcc067",
    "mixed:1:p0.11": "e2e31c754c2d1aaaec9fbac3d672c15eccd68719a2d03637c1c47862ce8f9c1f",
    "mixed:1:p0.12": "50fb4a4c3624a086b7dc4deb180909d89fdeafe809b0d68ef3513a3ee59f0a15",
    "mixed:1:p0.13": "70b6f34d12c954104abec10e20a0b42560ba0e553014b8c040c001669b92fd25",
    "mixed:1:p0.14": "e1b7a742e71bd0b8e3bd79f91881b3e39df60b83afa6d4cf814eb2092f2fbe4c",
    "mixed:1:p0.15": "ba8b1565e0ee2d1c5b8ba77c45ab99a32187a245747b512c4e714b8665ec3291",
    "mixed:1:p0.16": "5f9b1e2d76553c23c5e4cbdc20b0cf70fefc01cf0f1b7a4a920d9c6913d63f82",
    "mixed:1:p0.17": "008c01017207d7129a77eed72d13d8bfea034eaf28e744a7ddbc40bb4ce97c4c",
    "mixed:1:p0.18": "5a4918e5629575f59a1dccf3291fb2386c70e410b3974c825a50c74f8e7ee191",
    "mixed:1:p0.19": "de9cc2950c39f4424571a7d00aee8a326c15528b100663f46b596ad508d2a055",
    "mixed:1:p0.2": "f31b655400c3ef29adef75a8f402567297ae8c8376235b6c128d411b28aa04a7",
    "mixed:1:p0.20": "18861ccfc320a29eba34d099a9fd3f7a876327cd6cbccba590aa1448c05c374e",
    "mixed:1:p0.21": "a015d80cb2770cafb5552117460054821c946e37819b6b40b3169b02af44eb9f",
    "mixed:1:p0.22": "e1d04f6f28b0219466b2c2850ad17850f3181be80782f11daf88702460f8ea9f",
    "mixed:1:p0.23": "9ec3589ac1a2d77266df27a61aa1ad3992e42bd03ab144a9738058e8facc6cfa",
    "mixed:1:p0.24": "20de9be47fa21e34f24c1adc6c86f29d3c2bfb130ac02e33136754fe46c1a85f",
    "mixed:1:p0.3": "36a68a428c4a96937ecc31859516e3bc40e4f265ae3ff775685b14b99daf42ae",
    "mixed:1:p0.4": "19d4de0436200a5a39c9117fd2b0d8bddbc48a19e00023a95f88d24792ec8eae",
    "mixed:1:p0.5": "2ba809518aaf06a8f9469be86b952a07fae1db46b4de7d6c59b6c1c0e5f742bd",
    "mixed:1:p0.6": "da6ae3ed748246a5096a2cc3e4c2fa4a562185e6001231a97df4809874f1b094",
    "mixed:1:p0.7": "7cdf15d57235b87857bed56ee64e2a7208ef2b9f1cf96876810e396e73ce823c",
    "mixed:1:p0.8": "772293eed17b2658c85b2fe7ff5574c8c67634a29332bc2b608c62ed2ed68677",
    "mixed:1:p0.9": "dfdb33ee037e18317ea6b14981e813a630d06c215361ec7ce7defe7cfc6f0d9f",
    "mixed:2:p0.0": "0f88322648134487ce3a923a0f6bd8f740d394d07772a8e2453ece3285180129",
    "mixed:2:p0.1": "1a58d10189ccb067e5d0ec9353fe36995a2d4187bc02b79bd19001493f8263d6",
    "mixed:2:p0.10": "4efccfdee6e045d910a3764af56362adef87004525197d5c1d64bb0934ffc73c",
    "mixed:2:p0.11": "67d9971bcbfe4f5df10ee2d3e03d79fd002955ca93ddd5a17627094db3ed4230",
    "mixed:2:p0.12": "0e4eba5e0c01cf3004b043ee782af73690d65ec355ed3478d201519be70ef3f4",
    "mixed:2:p0.13": "cdcba63c4cb87169ffc050f5dfa605e553000c4f31fb434af7c54ba7edddf070",
    "mixed:2:p0.14": "ce584c1916b63b484ffb27d06c4e3e3d8ad60e977c66389886edfb7ec6aa6640",
    "mixed:2:p0.15": "bb0888f1772c6fccdd6ee113e642c7a580548e2444f1faafffe934486f15341a",
    "mixed:2:p0.16": "780988beca158f2c63eaa6c8aff75344d618f1312cd30dae1dde781d116ee5ed",
    "mixed:2:p0.17": "a8199538ecbd87fbebeae8ca848e9d769a5af33dd185b135fc3a1f6223119e80",
    "mixed:2:p0.18": "f906c0a33701991b79fd5f5d69caba87403d8f72da567c626be334deb6376381",
    "mixed:2:p0.19": "a7a684e80ca1ff646c6379326633a2d9c91cc33cebddf6467eaabe46f46cfac4",
    "mixed:2:p0.2": "c2a0cae50fabc45d32e9d6fa8179f7aac283fe938029a7c8d4d1331f74c140bf",
    "mixed:2:p0.20": "6e26e75b31c7e37f41963616baf85ead33c68e81b0d1c7b4df501e8e51dd98c3",
    "mixed:2:p0.21": "51cc001e15acf795297512594431e6077fb2c96a95314bd12d8a8f0c43c7751f",
    "mixed:2:p0.22": "b965a3932a817402b33e4f386781685ba3003d30fa1dcf38799dd99f826f659f",
    "mixed:2:p0.23": "dd3c2864b0caa552046350026ec125ad2b33ccf4244c6e65faa2a5f0fabfa8f9",
    "mixed:2:p0.24": "c5a260c69c026fa0ac506329a5525d05848800ab6704c186f8da2d4f03e1459c",
    "mixed:2:p0.3": "8b774c9137318cb184e8b56ff3340d74096c523cef65c306d06ff28f45fa6070",
    "mixed:2:p0.4": "30b0a8a2f4ec337de5b2ca23c1fd86e136e9dc48afdf413f6db9e4754f60f4f3",
    "mixed:2:p0.5": "9e442fee99c5c8d266766b1e0c1b8b45480de696ebf8afe56c815e676af43112",
    "mixed:2:p0.6": "432f8157508dda5ced9f949b09bca6848c542952934a6bed258b6edf1e2c3e48",
    "mixed:2:p0.7": "75d2d5cd3946c69e067e68f66dd8b8d6a2a85b8f0fe05738482d459f2a7decfa",
    "mixed:2:p0.8": "909a83c7401813003d80ecd0acd4f945fe3207f227654ee0583f0bb8f462b015",
    "mixed:2:p0.9": "0ff23f563627e118de7c535dfb0cb993f6f9090d27adf4ef77824845688d2702",
    "mixed:3:p0.0": "93f6f8d26a96fcac1d60d1f21a3d3445c619c030137fca74f36073537511923c",
    "mixed:3:p0.1": "5319593c3293adcc8fbc28c2bfad42bc4ad9c3f5c8f9c63e7793430293ca8e3c",
    "mixed:3:p0.10": "4d0e6b0da48ca3a3080c71b02754330d8e4a593dfa5504120d80b4b4b43564db",
    "mixed:3:p0.11": "e8a24ee884226325cdb5afdc132c2df9b99786db98d3ccb8e14354b1ec74b755",
    "mixed:3:p0.12": "75617d182c9617dd957e24826ec6e969a3aef4a5c0e81d06a03e1b9a6cf95ad7",
    "mixed:3:p0.13": "bb590d8835c7ff8a487c711c567c66fed094a194bff2c92ac1f192db9a5cccc6",
    "mixed:3:p0.14": "488b1abbf5bfe762ec02683f8c3ac8ea739fa32e39536d1c976b6a6df451bf0c",
    "mixed:3:p0.15": "0b34cc4fdd113aa19d38f101e70206c60b06484ebaee9a4920c065c94327e4ff",
    "mixed:3:p0.16": "c7bdd66101cdb1f9ba06944d24c560d69a37254f7a1729cc0fd59251dcabe0fd",
    "mixed:3:p0.17": "dc80767249c64934b4aa40afa52cb25e4a00fb22370502b052f0671b17889fa4",
    "mixed:3:p0.18": "bbe3d0539000abf4dfe5d148a17010218a522134f6190315828f6654b7cd44f0",
    "mixed:3:p0.19": "53ea96b338607d59fa2be942f1bd3f73cdd4e34ebdc1d6c8e85092e5ef3e027a",
    "mixed:3:p0.2": "4eafce8792390f93b630b696e520bd8d4b7034aab8229a611cbad266e64261f7",
    "mixed:3:p0.20": "ae46739456c5729ce88043aced3d91d0c3e3638eabb1f62d9395b02107b7e677",
    "mixed:3:p0.21": "9322d494db8027d27c50949aab82ced3b1f52990afe5f88a6843878809bfd6b2",
    "mixed:3:p0.22": "29beca4894c87677174124aa47cf47e2f6e5c8ff1c1f1ef171e7fe3800f406f7",
    "mixed:3:p0.23": "396061e8c6b1c6bebb7d38db37704317b60ab893330992afbd1d61dec0e302c9",
    "mixed:3:p0.24": "2a31e17a21e09b9943a55f48795c2936cd5e38b3272a0a117e7124455e07cbf7",
    "mixed:3:p0.3": "713de69ddb05a6b4c354d3770b8a74e5d713922fdb400b06a32fee65743093b2",
    "mixed:3:p0.4": "8f24a929af44493a61c37de2e8f02142fe442a04cc52d5ab2ac181b0b836f044",
    "mixed:3:p0.5": "e1cbcd182b72e43ce2339f36b88c88c59f3ca398d372f335bb7aa866885826c9",
    "mixed:3:p0.6": "5ac2f8e2fe9ab58b31183112750d8740d31084172e0417893a930d4aa3d43488",
    "mixed:3:p0.7": "06456bffe5ceb80de4c849158a360e953e240c602e3d41fde0b10e61d954a369",
    "mixed:3:p0.8": "1cb9cfe188f8a1fa0b1e00f1c808059cb97d4272f3b48321a09cb5f5f0de8081",
    "mixed:3:p0.9": "1ba90a31e24f436d94e602ff37b56d784537ec9a6b02c6e59ecc746696d3409b",
    "py:kernels.py:count_positive": "b69211234f24a6318313379758f22302df7623a59cfc34e4cb1ae9d301b8c13d",
    "py:kernels.py:dot": "c160d7dc198125b4b5b2df80d417f402b7168a1bec07f5e42112853e6feb61b5",
    "py:kernels.py:prefix_sum": "445b7f2bb546bd2571146a5d1f9a96161f0885e12bb745a36223486b5ec5a178",
    "py:kernels.py:reverse_copy": "8965f38e705ed46af925cdee710db3074714c0624a5b51efb2fb68f3a7f11f2d",
    "py:kernels.py:saxpy": "b2a82dd603b133a812112ddc8866bd0236cf48edd7c38e72c9105ced108b902a",
    "py:kernels.py:scale": "f89ad831879b4cd184044d69c3efca7759f344cba15ccdd79a1c4483d27f336c",
    "py:kernels.py:sum_of_squares": "db846a406a5792c44c2a1498e519e8aa4484ebe312f2bb484abfdbc253ba4547",
    "py:kernels.py:triangular": "ea8fd397fdb7ee0995cd806493cee0fb62da3d42fe93cce2bdba60c51c88edbc",
    "py:numeric.py:alternating_sum": "79aa5a358e182b34a1647a154a0aed983da84ec97e2af20a61e0ee3d01fb39cd",
    "py:numeric.py:average_step": "faab1d2c5147c7fad96c7ab31275b66d0a8c8bf2a2b445e731e7e7baf5b1e925",
    "py:numeric.py:bounded_fill": "f099397239b7b80a873be43f79817d6f81b5fe490e81e0f3cf27e7a08b8b575e",
    "py:numeric.py:digits_sum": "d3c4bdb05cf7295d4a50379d2353f66e34334da78b91ae69cdc7010cd50bdc5c",
    "py:numeric.py:gcd": "f1396919fa0d4a08603ad403584af677400a0f5dfbaaab49a07663fad18f1077",
    "py:numeric.py:halving_steps": "6014f4d1b1391ccccd88dfb5213c700583c69931470c3331f9396ea767516081",
    "py:numeric.py:horner": "a32c74a15ebbbc14c8fddbe987504b205622f9e370b613533110bfe727a4a41a",
    "py:numeric.py:last_element": "ebac727eec0623eb5e0d9f5398b4f849eb7ea085a61b331bac39fc2286f88d8c",
    "py:search.py:binary_search": "8891793b953d14350204c4362f933bb535e1a939928bdb5852f1a9b7d951899a",
    "py:search.py:clamp_all": "2895b06b1e7ccd2d3e0afff4d3103e6450fd112d0c4f4afa9acb68ed42ebb955",
    "py:search.py:count_runs": "0376c4cbfca7a2758827c0ea7f9848978a962310dbfd6f606562e7a1ea9c61e3",
    "py:search.py:first_gap": "a0ee689b56fd04d83c40e9bb2888e2abdb513375df46ee6611862c74caae1586",
    "py:search.py:linear_search": "2e33227fab8495654b8c3f4bae0792f9523def26fcffd82deb56ed2900beedc5",
    "py:search.py:weighted_tally": "6c5ce5eee67e07d6b00615f827dea5d32dc2059c32d287b032a2d79143eaef17",
}


def test_every_case_has_a_golden():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(CASES[case]) == GOLDEN[case]


#: lines per round in ``replay``: marker, values, blocks, SCCP's print,
#: then a count and a print for each of the other three passes
ROUND_LINES = 10


def test_round_two_case_is_committed():
    """``digits_sum`` is a committed case whose round 2 rewrites SSA."""
    _, lines = replay(_named(CASES["py:numeric.py:digits_sum"]))
    assert len(lines) == 2 * ROUND_LINES
    round_one_final = lines[ROUND_LINES - 1]
    round_two_sccp = lines[ROUND_LINES + 3]
    assert "%$t18.1 = copy %$t7.1" in round_one_final
    assert "%$t18.1 = copy 0" in round_two_sccp


@pytest.mark.parametrize("case", sorted(CASES))
def test_pipeline_matches_replay(case):
    """``analyze()`` optimizes to the same SSA as the pass-by-pass replay."""
    kind, payload = CASES[case]
    ssa, _ = replay(_named(CASES[case]))
    program = analyze(payload) if kind == "dsl" else analyze_function(payload)
    assert not program.degraded
    assert print_function(program.ssa) == print_function(ssa)


if __name__ == "__main__":
    cases = _cases(MAIN_SEEDS)
    for case in sorted(cases):
        print(f'    "{case}": "{digest(cases[case])}",')
