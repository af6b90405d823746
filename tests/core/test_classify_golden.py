"""Golden digests of the classifier's observable output.

Each case is analyzed the way the perfbench DSL workloads analyze it
(``ranges=True, invariants=True``) and reduced to one sha256 over:

* ``describe_all()`` and the ``nested_describe`` of every described name;
* per loop: the trip kind, count, assumptions and ``degraded`` flag, and
  the ``exit_value`` of every name classified in the loop;
* the ``RangeInfo.values`` and the ``InvariantInfo.by_loop`` descriptions.

The digests pin the symbolic kernel (``Expr``, ``ClosedForm``) and the
SCR classifier: a change to a coefficient's representation, a closed
form, a monotonic verdict or a trip count that alters one rendered
value shows up here.  The committed cases are the first pass of the
perfbench ``dsl_mixed`` and ``dsl_chain`` workloads for seeds 1-3 plus
``examples/*.loop``.

``PYTHONPATH=src python -m tests.core.test_classify_golden``, run from
the repository root, prints the digests for seeds 1-10: diff that output
before and after a change to compare the wider set, and paste its seeds
1-3 lines here after an intended change.
"""

import glob
import hashlib
import os

import pytest

from perfbench.inputs import chain_pass, mixed_pass
from repro.pipeline import analyze

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

COMMITTED_SEEDS = (1, 2, 3)
MAIN_SEEDS = tuple(range(1, 11))


def _cases(seeds):
    cases = {}
    for seed in seeds:
        for program in mixed_pass(seed, 0):
            cases[f"mixed:{seed}:{program.uid}"] = program.source
        for program in chain_pass(seed, 0):
            cases[f"chain:{seed}:{program.uid}"] = program.source
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.loop"))):
        with open(path) as handle:
            cases[f"example:{os.path.basename(path)}"] = handle.read()
    return cases


CASES = _cases(COMMITTED_SEEDS)


def canonical(source):
    """The text the digest is taken over (exposed for debugging)."""
    program = analyze(source, ranges=True, invariants=True)
    result = program.result
    described = program.describe_all()
    lines = [repr(sorted(described.items()))]
    lines.append(repr([(name, result.nested_describe(name)) for name in sorted(described)]))
    for header in sorted(result.loops):
        summary = result.loops[header]
        trip = summary.trip
        lines.append(
            repr((header, trip.kind.name, str(trip.count), trip.assumptions, summary.degraded))
        )
        lines.append(
            repr(
                [
                    (name, str(result.exit_value(header, name)))
                    for name in sorted(summary.classifications)
                ]
            )
        )
    lines.append(repr(sorted((k, repr(v)) for k, v in result.ranges.values.items())))
    by_loop = result.invariants.by_loop
    lines.append(
        repr([(header, [inv.describe() for inv in by_loop[header]]) for header in sorted(by_loop)])
    )
    return "\n".join(lines)


def digest(source):
    return hashlib.sha256(canonical(source).encode()).hexdigest()


GOLDEN = {
    "chain:1:p0.0": "35b4bc3e68e822c308b67df58f21bd6ca9a6a1b7ee12933c213c6e0dfd92d5f0",
    "chain:1:p0.1": "c829496097c2c3fb9a69af8d6eba3a229c7ccedc6eda1c220d803e1e5f66c5d5",
    "chain:1:p0.10": "defc320c7ec61cd8c49f07bc9cf19da69da7f53eef569787b25e2114016595fc",
    "chain:1:p0.11": "9eb2e8730d40f43a27a9db21b0dd4e6caa0fa7495ad36069a41aaf161a4536a0",
    "chain:1:p0.12": "0d9b91a0d398fc0515fd40a9a815b1657e61770a3bbb8b0b95a62ce64d53c176",
    "chain:1:p0.13": "1afb8e2dca15b2105c3115b006ee6de0fdf3d34599317031dc2221b89fdbbd9a",
    "chain:1:p0.14": "692bf3c7064a9ab7846fe2263662f2f00dec1aa5e0392abdc86f6a1eaeb39fd3",
    "chain:1:p0.15": "4da3b67b0375c54fcc91238d42bcacafcc18e3f5a39821538064f0dce0b6499a",
    "chain:1:p0.16": "dede18c3e7c80f6724828bc6bd5633e998ba750fd92295d5526518b5c425dd0b",
    "chain:1:p0.17": "9c27ed0b81011d3142b05962428594f57b05c1fb56f7b9c85b0ea9d697842353",
    "chain:1:p0.18": "d0fda121b185ead72d2fb62fa7ad0259fe680aeb1aa15442a72568dec9eaadc9",
    "chain:1:p0.19": "f6729542529b02038fa6e97e16e1d69fb31d479e28d36695e77ed09015f0d9de",
    "chain:1:p0.2": "a0100ab72d0b40e4bd4f30661877b6467699123f01f8c74c401d4d5a1a7a8010",
    "chain:1:p0.20": "551fc1c18e9a75f6f8985afbedd798640c303513de0902d4fc879768ca07f201",
    "chain:1:p0.21": "60cf9fd42acebfbe2bc3ebacbb9e86a225c1e8c5bbbd0087e9d07d0f374dc84e",
    "chain:1:p0.22": "4e9f8c8ce91f945b0054b58692a903ae25e1ae10a56bedf1d896a4b651e12144",
    "chain:1:p0.23": "3648f26313332b8bd55ee9980672d263f3e75b541e1a66b4e9a1bd67c64c3f8f",
    "chain:1:p0.24": "c31f0305128272b84e6c679c2734125c12fa7826cad433159fe58096c477c4a8",
    "chain:1:p0.3": "6a6a5c4a5357f9cb6c94d000ae187bcf3826065d91c22b7a25af52ebb6ca1e07",
    "chain:1:p0.4": "d86d425f550357e5578a8a31f3b265a2e5886c0dfc818428b4624b2fd708bbd1",
    "chain:1:p0.5": "64c2379edfa6c45b00b6eae709202c6b78d4d685d12619bab034494940f8edf5",
    "chain:1:p0.6": "2b98e421ff8c1bd7635b29375b1e40fa2888844ddc0ddf93184e966dac85a2f6",
    "chain:1:p0.7": "5def3b52c22aede3b00d26c2f87b311f5b9a1efe642963dc039b8bf93bec03eb",
    "chain:1:p0.8": "9b8bb1c318d9896f40eaa0a1714bdc0e233f0a6ec74ac8f16063802bfc66f3eb",
    "chain:1:p0.9": "b6aa24bf48fac93d7a8f35cb1ffba32c8d193c6c06aca1985d20d35ffb4d4da0",
    "chain:2:p0.0": "712bc2821af987c52c228f34b7381c489b3b367f125a7807b7fe934efe5ff9f3",
    "chain:2:p0.1": "61796b7912d60207536ce4c9f05b80b5584095e146ab18fc1eef732ffdfc93f2",
    "chain:2:p0.10": "cfc140e76f9fa6294076cfb3095cbb3aeea6da224135b239514c0220b27cd778",
    "chain:2:p0.11": "ae58413a9e961116953b6f5f4865072dcad1bba7766147716039691ef88e6546",
    "chain:2:p0.12": "442e5888d61378424f4ff65740918495ce2dbb3d606d11d9460604e634a989dd",
    "chain:2:p0.13": "186f86e1755108b8f496d722799b11cc85f9e15b61f65679e6cd57b764748392",
    "chain:2:p0.14": "357d5545723d48b198e72e53548468dabf088824b889a527cae7a5fce75114bb",
    "chain:2:p0.15": "4710e1ee7573c4790aa32af87e9a774960dcf62c0d64f1c02e9fc9bfad05ac1d",
    "chain:2:p0.16": "7b04e760e20f6d59c6ca3f6c22cb2744d324911abf875705af71ececc77c31e2",
    "chain:2:p0.17": "f19f19acf808c99a0c2ea26c50f34ae4db4911a24918777f17cc2ea5878b0540",
    "chain:2:p0.18": "b28e021a1dc5b0b20ae6a2709116a5101d79957f6beb49f2fbe604bc8efba195",
    "chain:2:p0.19": "bad52726416becdd1ae23dfdea704ba744061b4ebe7e4ed45cf80bac9f228c69",
    "chain:2:p0.2": "79261294bcf856a3dc22257cf50b5c6650fc24fea9525516fd020e7134566b40",
    "chain:2:p0.20": "2f6daf33d35c44d4cb2fc6780ced270e96daf1a4e10a352b9d8a64d7d757b718",
    "chain:2:p0.21": "e5fdbe801c1d3dc3340f4c773bffcc659e516c00afc57f2ec05bbe7456312763",
    "chain:2:p0.22": "0252dbd42c82e653a9cdeea1b6d07bf946eb9baa23c786d2ff35f21d40776d30",
    "chain:2:p0.23": "9f664a4b43a4d7c22901e88a3499eac3aaba6ac95b5520ed8673725ca91c251c",
    "chain:2:p0.24": "2e2a2126ae3ddf047100f251b6e49a45e3343bd633ad5d36c8459d394a5aa4ac",
    "chain:2:p0.3": "6affafd2879b79091d5ef30603e740b06c11e61fcabb4a2a3e55f33efc39d21a",
    "chain:2:p0.4": "d4d0aec92bcf57cbf9c4422946037c9df49010a1013880a691801950b373ed1c",
    "chain:2:p0.5": "cd88911bc6894d45574384b2d1444689bfbdd2814c5e4a7a246388c878b3f3b0",
    "chain:2:p0.6": "4d1adf05575cfa57af5a8e56d3f4c2745ca452217b6c6c28f89c19c8f900ab5b",
    "chain:2:p0.7": "089856f50e824938db16d53507afbceb7e60c73ca67f152414fb207a69614067",
    "chain:2:p0.8": "cec78803e54835ea9887682bc16db651d5857f68f56efeb8ec5f0ad485fb4ba4",
    "chain:2:p0.9": "42110a5662feb89bc184b76aa69b79d5b9a7dceac2b83b54a7dfc7e147a886cd",
    "chain:3:p0.0": "7e81900e1cbecee3ead472f4a219bfe155d811bcf5e5094070f7d8c4d4d5375d",
    "chain:3:p0.1": "0c76e9c107670a2268d1a2ba66ddfb6a9a940ca99fdf95902c61272552b17805",
    "chain:3:p0.10": "2907aee144186eabdf7dfe8c2d4b6f404b8a4318e55953d9b92b4a794b916cb4",
    "chain:3:p0.11": "44b79615085b77ed883b356daf56f791ba3aea252f972e9270d91101485b9e54",
    "chain:3:p0.12": "a2917491efc9d3169c3cdce453208ad8173c18245c7d982623278d82dc57cb54",
    "chain:3:p0.13": "62d4365baf97a6e623929c0233be660aa4e1990545073adc4704915bd05d2658",
    "chain:3:p0.14": "cabdbbcbdba4a1f5ff56158d3c48e444eac83c570780c7d8e9242404c78e7cf3",
    "chain:3:p0.15": "e11a2b742400cbc5e527d5a598e9b39b1d5981e76535444fd43413ac664bb723",
    "chain:3:p0.16": "afae659ea27160aa855a911ad6b1e33bdcc160186c611eb8d4fe8c6a99472c04",
    "chain:3:p0.17": "cdacec579b8690b0fbefbad551f1cf5943e1dbeb85f6d44c4dd80b89a7a01861",
    "chain:3:p0.18": "8e583d729a74d4b41e7697afb79939441db6e911bf08aa09aae0116cc69d7cdf",
    "chain:3:p0.19": "c320ef6f23f3736012602ab83f2bde9b744d1eb897c9ddb45ac2bf57aff80c4e",
    "chain:3:p0.2": "085fe2597ffd83dc8682d21df8837f0d817d4223e6ab5c4dd5693c55b9153ef0",
    "chain:3:p0.20": "963d4a363b779764c729a71040948822c335b0417bf55ac46517f57b62d90f69",
    "chain:3:p0.21": "8b386210eef4ddecdc7ac91a8e7487dff23ea3efd0e35ff8747a9b242896cfca",
    "chain:3:p0.22": "2e49fddfcf52d3bfe3925a4f6a2515bc4d63c85992a83d72c8624db2a0897be1",
    "chain:3:p0.23": "638accbac27f5c6a6f976da4a02103338b0cc06f175db9ab3dfebb264ce81748",
    "chain:3:p0.24": "f2e21c4aae20d4632f76a6977b098a64d611267b61215354d424188c2ca11b72",
    "chain:3:p0.3": "1845a1b0d3c44137af12120696314e1b15dc777167eb7ea42d980f39dd6a8f4a",
    "chain:3:p0.4": "f356370f82ae622e97ad9927ab13e809a5fbb138dbd51bd87fda731d2ba33597",
    "chain:3:p0.5": "dd3413ae6844d130dec139fb4fab6ec314c5322332b7b7ac0c5dfb84f7c5c83f",
    "chain:3:p0.6": "a73d97dc2fcea1ee6bf6a625dbcd3eaf57044026817983329db5367cb25d5c48",
    "chain:3:p0.7": "3bd42997cd8fb5bef2020e674a3ab9438308196e4216799606cbb3766af762dd",
    "chain:3:p0.8": "15b580cbf798d1de52e973230a292254166c1fafea301bd7303e23c6348f4fe0",
    "chain:3:p0.9": "cf134f21b1df4c2b3b2c0f302385dc0e890ba31233860db27c9afac044a0767d",
    "example:branchy_counters.loop": "83ef213214765431a8ab83b55201ea6cc5562d4d6380d428d40e28b35b970ebc",
    "example:wolfe_figures.loop": "16523cd585e289db2f0a3288b5d9a9287b35c139348a77a0aff39c89a143e3c1",
    "mixed:1:p0.0": "37273d89ee8a508cf6d378b29f0cb0a99a62bd71b04fa8347eff6516edb35d3e",
    "mixed:1:p0.1": "a853b7c12fe72836a64cb7750a086d1ade681c09eebbfccc2f5bc5b235beb671",
    "mixed:1:p0.10": "e8b102a31658d8c886149a7a72ec500ba439071e5ec027ea21280a17afa6c0db",
    "mixed:1:p0.11": "12aeb3e29cc731015f0f891ad99a8c59fb6d1e6342c02cb7982cd3c48ae34ca4",
    "mixed:1:p0.12": "bba93dc23ce5cc71f15fce142ef59d77bdfb285bec3796bc61e07f201bbf9e29",
    "mixed:1:p0.13": "7da7eceb0f28d1dea96e5ed385e3ade15258ec1bcf26e4cd8527618767c8fc01",
    "mixed:1:p0.14": "8676c8f4725b0f8919a301f2e58cbd6fe1af373404514b7086eea011d6f273e4",
    "mixed:1:p0.15": "e4f2ded4bbe040a2a1e3b69eedbfc09effe6ca92c13726fdb61946c742986a7d",
    "mixed:1:p0.16": "c9d3955779dea03b205c3861d83d659760a21ec78908df00076a5477b1d6fb2f",
    "mixed:1:p0.17": "8cbfd5f29d75e3e7d4cafd3f4ae32168f14539504e7210258d38a9704dba9d4f",
    "mixed:1:p0.18": "637e3f6193d125dbf7eccf022413c876db49371bf2889277cd94f141d2b783e4",
    "mixed:1:p0.19": "69b6a1f1ec2e80ac7f9d6973d36efa6441ec06e619a0db47bf939c81afed758b",
    "mixed:1:p0.2": "2424dade7ab65b3e0104f433381c6c2e3242b87c22065706653f88a6d7e0afcb",
    "mixed:1:p0.20": "33fc2eb6b82998a76112f1bfa832d6a25ea87e838312c7f82c857d1337d7510a",
    "mixed:1:p0.21": "85da41497fa9a06f4ac55c6af71acd46f1189baaa59d2d5ed9f93949b3ebf4dc",
    "mixed:1:p0.22": "b1dcb361b0161bce00c67ca0eb00c7d823e62f91faf334e496f152393e46be94",
    "mixed:1:p0.23": "6fcb450569051f3c6abf68f173eb6e9d9f8785b89cfcd3a6a2e788b5ca5754cf",
    "mixed:1:p0.24": "8de80aeb32c1167429f39a54d8463d5073e629d908d028caa13272ed000352c0",
    "mixed:1:p0.3": "53db2ad35b87764c0e21ca14bb63fa0c6f8215344340953a6d29e11729828d30",
    "mixed:1:p0.4": "fd13cda96b61e8f77748e613808c9f099f1a78aa1e5ac0d1e7143fc8fcc85e67",
    "mixed:1:p0.5": "1cd91f0a734bc162c24c35010885c6a17ce22672488be88bd1868bf914cfa176",
    "mixed:1:p0.6": "c9cdbf0fd8198a58421b14784300c81300f27d5905d61e99b08f7d2953952ea0",
    "mixed:1:p0.7": "dc5fffc195ad2225a835af02ac6bc585d2b5e9ea152a235169e181656f7b6a6b",
    "mixed:1:p0.8": "05ed82147c14c2a914002bea547c01d3bec64674c538c21d8355687673bc7d36",
    "mixed:1:p0.9": "9323869b6df43ef21324107a4bdc5ccb4d92dbb461d72ee9f8c165a72cf8038b",
    "mixed:2:p0.0": "c5e017cceb181ff33a617a4760cd08a242174aade40453f8208ba5a93401f3b1",
    "mixed:2:p0.1": "70b54c5a4a7c3d31966f02dea91d4fd096f4fc4ac68c0f202e77251e292db186",
    "mixed:2:p0.10": "9d151631991fbbd451e4e15404948830228a5d49db81b4c57cfcce85252419b6",
    "mixed:2:p0.11": "72a99c39e2e71560feb4dee46f0a0e5a95fd0327f57170712bb04311809bd2cc",
    "mixed:2:p0.12": "8ee84b297919d9be28ddfd4dd9319c77f643416b111e550fe8e09f56f3d5bdfe",
    "mixed:2:p0.13": "77d36fb5a5948cf6391a7e097d53ebee11ca17a9ddd693d5b9e414cc62af40a4",
    "mixed:2:p0.14": "3890c82fdccc836b5420b7556b5057924e0d6626dfdda18f28b1ce699e2f9152",
    "mixed:2:p0.15": "8f66d3703aa32a0233a748c1a96d47665b30cc0af688a94f757c5f5342c1a626",
    "mixed:2:p0.16": "d78ae4ed408cc8e874a6466fc6c8e061962c4951b7adef0fac7ebcc24fcab9c8",
    "mixed:2:p0.17": "371f95cf7e60ac821f313ac93833247a0ae50c54cadeb77d3da183d36a114f44",
    "mixed:2:p0.18": "1037bea6a0bbb62059b480f2763ea3df6f53ea7b56e14fccb6afce6db210ceb3",
    "mixed:2:p0.19": "2ee620e715993d37ab6404c1f28530dd3279bc730938a9823d5dce97f395ea30",
    "mixed:2:p0.2": "6fb2daf58b42f651469d740b63609f8898be9918b19bc2b06bf79113c6a6bf1a",
    "mixed:2:p0.20": "21371127bcefc2ba7e2b4b8f3d5d30c696aa577eaa151e9918e1450201e9902a",
    "mixed:2:p0.21": "ed612fd6d6afbe431b56029bff985d50f2062c943ba0f976898a2877eed3e799",
    "mixed:2:p0.22": "9c82c5137df0dd8edd0ce3b30c7b8418c43d4b98cab951a27de91674e6533c50",
    "mixed:2:p0.23": "b7bc77c95309ea4a4e996568b9b59ca75de3e5c42c7aa3322be1b652da3724cd",
    "mixed:2:p0.24": "fcbfbf87a69833c862d35f2e8672a2f9dae9f3e726de369e64fb91f386cfa7e0",
    "mixed:2:p0.3": "6760f6519506382370ac81b081bc4e519307bd6dd818428214fcbf4c385b03f2",
    "mixed:2:p0.4": "114efd6d458ec78ee87e6fe7468c1ea76a99e150ec7e0cb61112f1f5dba14ce5",
    "mixed:2:p0.5": "5658c1a23f1e779cd53a99472b3b14136c109107babe51918e6bc9ee66b2dfbc",
    "mixed:2:p0.6": "d41aca8a3539ea94aca06deecfc17d0e3978872768bd6ce31a88ee16a145de0d",
    "mixed:2:p0.7": "41628c40882399a5ead547b2f2058435b1562d9f1e678f3bae5908cf70d9e41b",
    "mixed:2:p0.8": "014a0620d28bca41d5ee906d89351dd102a644f9217076d38d1e6e2edb7ed1f8",
    "mixed:2:p0.9": "ade4011773a9224c3ce2dfd72553c9b6a2abd47ca06eb7339f828324efe692ef",
    "mixed:3:p0.0": "4bb7f351393c3259ee5c985f24e36e0c804acec445f91bec103aa3fa56466330",
    "mixed:3:p0.1": "68039c917a2958124170484eadfd03bfe466305e2c44031a6f96cad2c53e22b9",
    "mixed:3:p0.10": "55987a4814624d7c47d6daf951032e8af4d8c20f55ee5621093cf81242adcf9f",
    "mixed:3:p0.11": "93792fa060691c844185a8ae57095102f1e9995d9c5fa7db79a072cb72baed77",
    "mixed:3:p0.12": "e5a5f66297e5cb9a4843003f18187057deedcb3326f4f7ecb94c1e6eba8e08d1",
    "mixed:3:p0.13": "eb59042fcb1a4e871e61d06c096e1aa5d78d1ad073b67f7aaa665ec42ebed67b",
    "mixed:3:p0.14": "80869b473b775bc834f8593543a23d623dcb367bffe8e62590c603d937e674f9",
    "mixed:3:p0.15": "843bcfd696314c928a0497d44d2bc1fddc79a67480ba72bc6407556e89e7a816",
    "mixed:3:p0.16": "335512c9217818b873160258f476d114ecc780b69c44969d6e2d012b46a48ae1",
    "mixed:3:p0.17": "a13752502238673665830c4a7a9f11e3ef9f6d9b38ad73a880d926a1dac9447a",
    "mixed:3:p0.18": "6534ee42053b7014c0a58449e49a09d2b1032e82e331a0e4b0f6b362a0fea054",
    "mixed:3:p0.19": "3a03dd6e072d3cc15c6878290cd2d16b5e02f62a9f5731dd4d4e5ff24585dda0",
    "mixed:3:p0.2": "33b26a410423245201e48a0e719160b464b300f178de55943e5ad3cd1a4050db",
    "mixed:3:p0.20": "9142987550f2108ef7d16f86123f8dfa4faef283051ceda44c65c79cd9f474a3",
    "mixed:3:p0.21": "9cbbebe007053f42d7979f0c04ce15185a1a33dbd6d3e12ae4955b5f1c0ac3ed",
    "mixed:3:p0.22": "aa6b50f176d7defd2e1a1ca2d487137aa8ce5fcac66e835876d612f898da75b0",
    "mixed:3:p0.23": "75a874de32ee115dc5f1f86501af34501633b7578428a98a5e20c0b62013a283",
    "mixed:3:p0.24": "66fb7022b9baf24c4c890b016c7de273403145bef9a00b57f84a46077d79bd7d",
    "mixed:3:p0.3": "75f4278abca9e97c9ff3ae319270a8f91bca0721cd1e093f12b5151d385e9b5b",
    "mixed:3:p0.4": "d1eae295ad0272ee40000be6483656b19eb196a16f0728e827739ec0026b5abc",
    "mixed:3:p0.5": "99dd72886d267d4e2872ab938ce575bf33aa133cc53528618d713cec379008a8",
    "mixed:3:p0.6": "85c04611a5d52b165750e1d99104a433b7b48f91eda94585d94c8424091e9cba",
    "mixed:3:p0.7": "b8633807541f425db76d0e34ea77117edd1de20d3e2c5d1b49d70e4d59fcb35d",
    "mixed:3:p0.8": "2180475efb586e482769f8c95bafea29046414bdc72dc1137a0a291284a95763",
    "mixed:3:p0.9": "9c3314a28b35bee867c397a6777d15630947479bfd4649a4801f93537177cedc",
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
