"""Golden digests of the value-range phase.

Each case is analyzed with ``ranges=True`` (and no invariants phase, so
the ranges are exactly what :func:`repro.ranges.compute_ranges` derived)
and reduced to one sha256 over the :class:`RangeInfo`:

* the sorted reprs of ``values`` and of ``trips``;
* ``degraded``;
* the worklist counters ``fixpoint_insts``, ``fixpoint_visits`` and
  ``fixpoint_narrowed``.

The digests pin the seed (every class's interval, the closed-form
kernel, trip-count ranges) and the operator fixpoint: a change that
alters one endpoint, one trip range or the order in which the worklist
narrows shows up here.  The committed cases are the first pass of the
perfbench ``dsl_chain`` and ``dsl_mixed`` workloads for seeds 1-3,
``examples/*.loop``, and every lowered function of
``tests/pyfront/corpus/*.py``.

``PYTHONPATH=src python -m tests.ranges.test_ranges_golden``, run from
the repository root, prints the digests for seeds 1-10: diff that output
before and after a change to the ranges phase.
"""

import glob
import hashlib
import os

import pytest

from perfbench.inputs import chain_pass, mixed_pass
from repro.pipeline import analyze, analyze_function
from repro.pyfront.lower import compile_module

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

COMMITTED_SEEDS = (1, 2, 3)
MAIN_SEEDS = tuple(range(1, 11))


def _cases(seeds):
    """case id -> (kind, payload): DSL source text or lowered named IR."""
    cases = {}
    for seed in seeds:
        for program in chain_pass(seed, 0):
            cases[f"chain:{seed}:{program.uid}"] = ("dsl", program.source)
        for program in mixed_pass(seed, 0):
            cases[f"mixed:{seed}:{program.uid}"] = ("dsl", program.source)
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


def range_info(case):
    kind, payload = case
    if kind == "dsl":
        program = analyze(payload, ranges=True)
    else:
        program = analyze_function(payload, ranges=True)
    return program.result.ranges


def canonical(case):
    """The text the digest is taken over (exposed for debugging)."""
    info = range_info(case)
    return "\n".join(
        [
            repr(sorted((name, repr(iv)) for name, iv in info.values.items())),
            repr(sorted((header, repr(iv)) for header, iv in info.trips.items())),
            repr(
                (
                    info.degraded,
                    info.fixpoint_insts,
                    info.fixpoint_visits,
                    info.fixpoint_narrowed,
                )
            ),
        ]
    )


def digest(case):
    return hashlib.sha256(canonical(case).encode()).hexdigest()


GOLDEN = {
    "chain:1:p0.0": "eebc4c0a440c58baf1c5f6c27647e3d8705553cc0115d81511878049531f3cdb",
    "chain:1:p0.1": "e21975b5321402c9d6ec76a480129cb5c14cf0b4b692bb4b58ec310c5a98d33d",
    "chain:1:p0.10": "880dfd533238a5a4b62b3fd3ab7b110d0c6a00ba0c6004f77594213387882ff6",
    "chain:1:p0.11": "d7469d0ef5dd21ec8fd5dcd9c00ee32516438b601117d59ffb25aab02f809e6e",
    "chain:1:p0.12": "ec53a10b1b5c4c45e972ff560c459062a6f8a8b135f8db6a0012a566fe127902",
    "chain:1:p0.13": "f35173c87c40991c93b2af83a77b10d3111cbdda88123ff6a011e896f84403d8",
    "chain:1:p0.14": "2779d5b93fa5f6bd29d7c42ace8f68edd700eea7e227443480f0c2ff1d3686d0",
    "chain:1:p0.15": "7e2f668d54419fc598436b0025e9396f38c0627d895ac879257c38725b5f2273",
    "chain:1:p0.16": "91fac9494e388f659ce4390911151ef5813e680d5ece528eb2536858fe2bbb84",
    "chain:1:p0.17": "d5dfc46373a8423e0de21cd0376b6087069ac8cbae90a19eab2c4fd424ea15c2",
    "chain:1:p0.18": "0af5015c0ca184ac7ddc364228449185ff304782ab76fe631188859f52bf2011",
    "chain:1:p0.19": "c417a0e599d66cb950b55f567bc31f6013b325f2cf30bf7426d3a49525f691ca",
    "chain:1:p0.2": "965b1c84b2864109dfaf999de9d90b83fcbb1ad6614c37bb0b545ca630870519",
    "chain:1:p0.20": "be9e6d2909f6d70e842db095532ad3628d1b84fede3b64a72c0a3ef77cb591fd",
    "chain:1:p0.21": "fac877841ae06e2b5ace749e08c2de997321fa0af70ad5f236d1a6deda7b0a10",
    "chain:1:p0.22": "1c9befdfc2769d5c286a6221d72eeda6373257c76bb815473f01d0834ff379ec",
    "chain:1:p0.23": "cde0d1a6d519f791934a4d048131edf9adb6b23689d31c3ad949ea7f2b550156",
    "chain:1:p0.24": "66b3e312f592b71dd71c1863060ba7142a8c6b2f1353b0bbc620dd3069e160c3",
    "chain:1:p0.3": "a2fb92c5b0c1f70f407b5a532db3bda329c4eb3b87f102b93063f952e36437d4",
    "chain:1:p0.4": "f095bea552acabf3b0627322b649bc0f4551f04bd3c6f3d258c810a9a1bf5b5b",
    "chain:1:p0.5": "0fa776c26a455be98fd345e81e14a2b817387803bdc2a3a0ed02fd21c53f3d8f",
    "chain:1:p0.6": "a817d4bd53d01a816d9b1e2f7669538a737353c32a08d11d99cd2eb8893190b8",
    "chain:1:p0.7": "57139c82851e93c4537ba06ab8503917cf47d1401931efccfcc785d7e54843e6",
    "chain:1:p0.8": "a917b3a7fd43f240a05a04ddbc4ac309423f39bd4997d2c2ba8178c2bde344a7",
    "chain:1:p0.9": "66a6436a5b1069bfe4abfdccde7f07f535e84cb5adfad6ede46f1defed89d3b3",
    "chain:2:p0.0": "bafc02c30bb77b6f967d97774bf6d67073c052213af68db7918aa444a20877e0",
    "chain:2:p0.1": "316a598c4a9e9c22729119b37535bbfeb74194b84dc58a196f4b427af02475af",
    "chain:2:p0.10": "a1254c94a499302f44870dfca07341a7b5f4798f22422594e12c48b635023f3f",
    "chain:2:p0.11": "98b2581d8949b2ebcac5b9af482107f10f19715b8091700bc4035f14735f087f",
    "chain:2:p0.12": "8f091145c7082e6ae2e83fa532a1543cb742a55cf2232e97b54ff8472d24884e",
    "chain:2:p0.13": "b47bc906684e026eb0a7e2271bff7ab00a1beff4816a382a132c6761aac96030",
    "chain:2:p0.14": "cc4387fd08a4b5b2a420d1fbe9b051157d5b7d77e6c0688b1a8fbbb40719102d",
    "chain:2:p0.15": "d305890b01c7d0b2c1e449fa2402d2152c36772b9f9f831638f961bb52ed79d8",
    "chain:2:p0.16": "1a269d39c1bdd6e01c94304918aebf53c531999b29936fb85113006bc6692f0f",
    "chain:2:p0.17": "c62cfffaadb995effb453763e252325dcb416d240ded5004e61e2f93bb8f848b",
    "chain:2:p0.18": "96ff235522c15a3ffbc4cd60d45727026301ecf0e4afd5a7aeaefffd49a9292a",
    "chain:2:p0.19": "b781e8844528d1942105ed1c2cd77b5788ee93c511e7555bf11b284e48430246",
    "chain:2:p0.2": "4e37a0bd54bdba3cfa2891c233f50c5c9f064a4cef2df5ecee8744fe372e6225",
    "chain:2:p0.20": "54c49735078d7dfe23fa1857ab1b9c1a0d35ddd55967c7dcb1996a1862456544",
    "chain:2:p0.21": "5c41dab00e957cc49ae7e1ce5dc8d77362c7c234bb854165f80a1b94afcdcd6e",
    "chain:2:p0.22": "54ad7f47c055eb0478b0d6ca3c18beb7393a6d085b2cf059e86eb713b71051a3",
    "chain:2:p0.23": "712b6492d7e80fd2b6d0bfc8bdbb27c99465d6df62d40c13cb54700fbb4f7d0b",
    "chain:2:p0.24": "bc0e379759b58ee359cf94fcee1b24ac78d330cf3cf660528918f230520f2b4f",
    "chain:2:p0.3": "6c2d7b76fbc2be2c072ef0ee72cd0be6e3b60fac3d878f04a64cd8cd129a13ff",
    "chain:2:p0.4": "13b0fe8d3943e09cc7f3e440b6bfb5bfb36227c49d4b73baf5eb05e561172971",
    "chain:2:p0.5": "0e434eef8df85bfa4fd1489dccad957de4370171eadd5531c99f26d1c0932677",
    "chain:2:p0.6": "8be6391d31f6898c6b476313690f5325af6a35814417a3a569d753559a8c2332",
    "chain:2:p0.7": "54f522a72c902437974b75335ac417ac873feb57a5a32822fc0fecd4b8a92b0e",
    "chain:2:p0.8": "21dfb619b2a4859142e41ad863bc749b34a40577f637dc63032ad415fb85e618",
    "chain:2:p0.9": "de4ed596f20881ce9ca6463252174269bf44a07e16ea7903636e67c3caa200cc",
    "chain:3:p0.0": "ffeafdca816d76ddb7c94bbd1bad84f036f9f0c1ca855146a8b51a139a2143b4",
    "chain:3:p0.1": "2eec2688a34bed502a552f38cdd54ffc600d1d59747ba50e48680cdb914fd70b",
    "chain:3:p0.10": "f8d6719733bfdb1c6af0343c54981dcbfae483d5f256694dab5e5dd524267c97",
    "chain:3:p0.11": "f018369482185d49c1b3bf4eb87115597b9180934048f3f88aa435f6cc904ace",
    "chain:3:p0.12": "daf26f774c80ff5732f32aeec74cb4e327f6570877a236b9ede5257380b7b660",
    "chain:3:p0.13": "a45818f762351f05ac58dbed3db68dd72fd9f78def8f94440fa0028345c5b26a",
    "chain:3:p0.14": "5a08e249499418606300554ec35f84acdeea7a1a430a15f1ca6d3de8284951eb",
    "chain:3:p0.15": "6df0c19834e3f6031b28057e68303232d1f5339b699d9c5b19c9ee2b4d6b2463",
    "chain:3:p0.16": "0a0d3ee863d75582d3ccf5e3b5b654e43ee73b552aeeb238e0450bbb8b1c9c47",
    "chain:3:p0.17": "10c00cb0d235967a08add651ea4bd3d9525076abf75302b1f3f2074b0466a1ad",
    "chain:3:p0.18": "62e51c99888a4f66c8f007579a7f634ffa2ff4fb98262768f577b3aad38ef401",
    "chain:3:p0.19": "3f21687c7b8b8a5a8490552d774ea6c9e883d555481046cbbe9c225142bddb61",
    "chain:3:p0.2": "d01ce81eabd9fbf6f97f586ad0245dbf76b36166bb99aefe9ce3c81d4ab7dd0d",
    "chain:3:p0.20": "720c2974c8932442c454cfea767d2224fa29d81120a8035d0bae67f6b7847e9c",
    "chain:3:p0.21": "7333b477c82d393b20c4aa631fc5295e6b1069823f2bdcd83fb5b02c81099c7f",
    "chain:3:p0.22": "6fcab6263b8fd32b272e414bcfa23af4dc525cfcadbfa6ce82bb90253de8fba8",
    "chain:3:p0.23": "298dbdf79d741eec6acf5b6c6060633de8c65928ae15607b752f8d9499ed50e2",
    "chain:3:p0.24": "b25d93f7b469aa150b55b14fd7375ed5954b63097e351e96198f88bfdf5b6a59",
    "chain:3:p0.3": "cb8e8340f23e7d1e6786b8dc75d6c61317ab3f7c5ee3edf0c91c8988e3bc7cd1",
    "chain:3:p0.4": "39e1e7915128d133733de0719508421e41804f2656a749c8d07ebcf643599516",
    "chain:3:p0.5": "3d7397f0c0de69e79a065e1156d602e4f04712e49a85fd453ece818774272d58",
    "chain:3:p0.6": "d0a5b148f18b85140b2744136e5c1f3c2ce2c63c9ad6d94079dad370f87540f6",
    "chain:3:p0.7": "5bc5cf67b089f9f1f14c1167d2e52d6687d91fdab94e7d9f4c1cdde593597639",
    "chain:3:p0.8": "97059d4c97585f0a9da255874ab13486be30a7a7caee4c69724d5ce5b9dc3f15",
    "chain:3:p0.9": "9bad297695f8a302c6a5a3ab825b63e81282d5c881aff4cd614a8ebf81fffdee",
    "example:branchy_counters.loop": "00e70367aa08cb9e2563a4318d5569626277b7cf50f779afa467be0845f4a1c7",
    "example:wolfe_figures.loop": "024974dac4ce086456b64da840eeab91a8f2782a6ee6769eff35cd968953dac0",
    "mixed:1:p0.0": "4a86e390f02b1c28e461084005780f0a91fc18b7d6fab1103b8f32480375634f",
    "mixed:1:p0.1": "299d6544bbef0b3f1ac53bfe24d809a097d0f9b143a49fd0a0b1de7e9c59775a",
    "mixed:1:p0.10": "61174b2303c39d913158158f2bbe8433bf453ad81e984c6dadb219c7a6c11780",
    "mixed:1:p0.11": "a717eff53af3d1b8b73566f94b53dfcb3a68bef1f651685d5dd60210589c280e",
    "mixed:1:p0.12": "8adaa05d6ebb2b3d46f9d5bc00ba3196e0e36cbdccf08c8fc21a4d1e607adc8d",
    "mixed:1:p0.13": "c2cda3f014b554cc426d412caa4740942eba5ed60852c28e8ff50c25ad1bb00c",
    "mixed:1:p0.14": "e4dd5bc213652115f9bf4bca42080f446ac13d89d1b230019b6e57cb0d692b41",
    "mixed:1:p0.15": "ebc90ce4c726b4f2dee0624fc7b88e96698e4731551fac04f556dfc41bb73581",
    "mixed:1:p0.16": "5657f9e2cb32b34071e4690fb26b44b38c331b0f964a013b92b104d264342d45",
    "mixed:1:p0.17": "865014e42bf7a299bfced672a26a5a5c3fab4fd4377e4972b7a310ce232b9c3a",
    "mixed:1:p0.18": "b75f9b9c8162956313662804702eb727c7555526994a7fe2a9a98108d94b431b",
    "mixed:1:p0.19": "f70268d0ad233a98fc47b77c52f11d2db5f9b8ff9c8411ec98d9d7cdbeae7ea5",
    "mixed:1:p0.2": "9fb387228329cb0b2aae246c74b58dc187803b45bb47e6a376d11cb1dd9f23a5",
    "mixed:1:p0.20": "3ee33123717d59323d83c86c711f091a8964792c54d0cc8478e52ec4a33eb6f4",
    "mixed:1:p0.21": "6ca3b0b2b6b0679976fe4fe328683835a3ac6bb68bfd1a494b315f0cacffe667",
    "mixed:1:p0.22": "0568c661f8c649505eef02bdd58b3bcf7110c2bb5d93a8c0ddde82f333b2e71f",
    "mixed:1:p0.23": "3c9ca25cb8935fbb50cfb36215c63df67f80306522c19a2eb0f12a1e8d4281f5",
    "mixed:1:p0.24": "44305e14e4927162711c21c0ee0eb1d2606bccbfec9564197776c744bfdfcf6c",
    "mixed:1:p0.3": "3879eaf5f74de61ecb75481ad7ae3e89678a7f6b6c0623cf02c4f1e48bf874b3",
    "mixed:1:p0.4": "72c70c657cc5f48b9c89363e67bce5da50816f1008568258128a4b2b5c66da3a",
    "mixed:1:p0.5": "84781c822da060fd39506fbd2a4d84e66444f9ebb2b0689b6faa27e9bc5888f2",
    "mixed:1:p0.6": "af2c0d522f230ca402216c86374302cf85b3e1cafb98be157222f09216f13114",
    "mixed:1:p0.7": "07e321bdcde4dab4905da9fb277f7bf442d662134c1b807d0de3cc3e24e7e45c",
    "mixed:1:p0.8": "b3e0c56c011644e5e114962ecb77f408f29a633b509384bd3ebc4271fdb3089d",
    "mixed:1:p0.9": "a80897b501e02bdebf5ebf32a0827d9d8d133f6e324191e603a7c114cd8b1d46",
    "mixed:2:p0.0": "a54c62eeb0933b391af7e4d8a1e597f6293421e599f5347b9184a6f6872bffa6",
    "mixed:2:p0.1": "80a855d3bd0a388c3278041008623fd5d03216c17c28693b95395790f8d5aa33",
    "mixed:2:p0.10": "53e3cd5e66cecfe9e16b0e9b9199a015c21a4f4a8355f225e1b3c4e74586c277",
    "mixed:2:p0.11": "136862356a5063b9f988feaa95dc59c3b86f7db3504b3e2bd10eb5fd8c451046",
    "mixed:2:p0.12": "ed65a890b5f7571d5aef226d9ac903af48994f965806d3b206510948cb8ff420",
    "mixed:2:p0.13": "2385445aa675626f4a32e9ca9d9da3d0a4c11f04ba6188e074b4f8eb892a1e5b",
    "mixed:2:p0.14": "6864f98d52110e02e796c66627c4a1f988f763d25107b1728c169c5045d3328d",
    "mixed:2:p0.15": "d4f1aeb70bb95f5461301b1641853fd7394235a32572ddfb5ba2380e39effa4c",
    "mixed:2:p0.16": "cb5e9bf7bbc02c27e369a9c15c6fdb5cb69dc1fb6a4cde90827c431a4e4876a7",
    "mixed:2:p0.17": "8f2fcf941464ca9f3170e7e0792c5605b4432cf2f3e52d2388b45247d5235c83",
    "mixed:2:p0.18": "450a4126b48675582cb559f310a860412e351a65f01ece71ec329aeeb27fd199",
    "mixed:2:p0.19": "88bf8d54712c75c4b91361464acee91997feab8a739828c6e4ef8e5dcb7e673e",
    "mixed:2:p0.2": "ae185e3ae10f9c4b40852a32d4b72916e4c407bd7c6662114995df81c9d38861",
    "mixed:2:p0.20": "0b6ca6358d46f3a949a2e9835f4b6c981a4445f4814a146da2adb7e301e405da",
    "mixed:2:p0.21": "7fa51a96232a25e9a4e2a74f4fabef8ef427ad4b659df3185176b68ba5995a62",
    "mixed:2:p0.22": "df814f5714a2a3f41d5455a144f30233933ab29af30edc395a4f4f354bf336d5",
    "mixed:2:p0.23": "a09aa57f611e50ceac64e808669a5b43deff225a948e41b08d8a67b10943d02e",
    "mixed:2:p0.24": "0f12e021514144f17a189d3c79c877cfda21eadea236235c69db2c39a129df61",
    "mixed:2:p0.3": "965fc38e915685740ba395dfafca538372d7665e9b03cce68f096316bbae17e0",
    "mixed:2:p0.4": "ec09ccee24b6e8a829e2767d2765a81c0dd55dffc6e2603013b822daed7fef24",
    "mixed:2:p0.5": "02e8f1cf677bbd11f388535a631fa15bf517f1551c89a845db6cfab9ed0d8c8f",
    "mixed:2:p0.6": "044d821664363f9f9dd09dda38574f5479cd28d94af8706da8e8697214debcbe",
    "mixed:2:p0.7": "bbc7676a6feab74427dec88a31cb823e106a94d46bb1454534eda8ce79024de2",
    "mixed:2:p0.8": "ca9effefa3f7fe74bb72cbd467828cf4d87fffaf8885cc4a1760b9b873ad881b",
    "mixed:2:p0.9": "115d4eea0010cb19e1af7743d8ad70086096bbbc637b9fa1ef177256cad81932",
    "mixed:3:p0.0": "90d5644edfd5d5d0f28201dab03b9081ba5ed63f59a056e0488a6b73ebd7faaa",
    "mixed:3:p0.1": "fb0ac3031de00499fcec9ff211e03f91849bf3b8979e142ba1a184e0ccc2e4b6",
    "mixed:3:p0.10": "6de878aa214a8a1a9b6b667158293539f544196c407cca462953cd23a052df5a",
    "mixed:3:p0.11": "0e26f2a957199676be0631e9d8a9b25494f4544acb946c5def50ea7aa9da2ea5",
    "mixed:3:p0.12": "de5bf9a640813dde3a808b70c3c138b08383876a5f5da1fd9460305894f7741b",
    "mixed:3:p0.13": "727c47cb6bf7b1fb5b5974755b4550ee5ee478e8e4b57eee9a8a86df4b65d05c",
    "mixed:3:p0.14": "ea614cef96d9aa8cb2810882692d80a4fd7ac6cc0a43aa9c40c5d5d0a2d149f7",
    "mixed:3:p0.15": "a0062078c34d7a8438c2b1e753727dcb337ed666639d6095bce4e36d5b243c6a",
    "mixed:3:p0.16": "2b70781a0029b76ab06b21220e6e4620c81f3ef6ba32ccf5f8d41baafd1b744f",
    "mixed:3:p0.17": "3e1c1468f915a60472262655396497ffda78095e2f45fdc543dcdf8f3910596d",
    "mixed:3:p0.18": "be0e98fbbda90381a7711a0c834d50d251394202074aad85fbdfa23f9c184394",
    "mixed:3:p0.19": "61191128b1d694e034e8489375f3de7261df560f9527a76c4ce4d5fa8662fcce",
    "mixed:3:p0.2": "5bbadb88bc22c7a0957e79799e23bc3e532d5aa56abb79705d593c2dc1c1572f",
    "mixed:3:p0.20": "db199cc721f1ae0cef0e504480f8308022892ca03bbbf3284d1548d4ec2f609e",
    "mixed:3:p0.21": "482c27538a613389585cade72df1bb594224cdeb537984053d37fa890ecda983",
    "mixed:3:p0.22": "60b64fcb8d8ae46a7d6f91dc1ae1743d59b11fbbc86e5c850ade1c200389489f",
    "mixed:3:p0.23": "8d29991d58062e18c126d110e40fe27e9ec00b5a94526d115cf697d6e62c78a1",
    "mixed:3:p0.24": "1c8e1ffd7021ec965c278d394659351538dcaad8833bf70af33191041eb86465",
    "mixed:3:p0.3": "cda0075761cecf5e0fb6fcce140813f37d1d3ec649222bec923cdd650afc809e",
    "mixed:3:p0.4": "02c9a69e34c8e85d244b2a458b86bcb832536a2acd49e28ed24b011f0279741a",
    "mixed:3:p0.5": "9eec7d07e0c7caa3c7662d75a6368f4720a4001d7e594be206166582a9184008",
    "mixed:3:p0.6": "05c0fc8e90a98cdcf5c02ea4a28e3ccd72df6442ff95589aeae191e53dc61ba0",
    "mixed:3:p0.7": "b4774ad8e35aaa3feb809d3d4a22f8ae4ec847ccfa2641aaa41553667502492c",
    "mixed:3:p0.8": "51251d67496ddf0163a1dd3af1a8f8b86348b9aec5fc1c118b3d643690637dc6",
    "mixed:3:p0.9": "6d930491ff974f62d9468fdc1f74d7727f70fde3200815b51cb263c9df4ddabb",
    "py:kernels.py:count_positive": "af14130cdf634d592262881e6f42f56ab5c1180f4a8547e5f34667dd4124448f",
    "py:kernels.py:dot": "3761544413e68a6ad0c0ad3d67032970cd393f7fb2283d194b4a7f5045be8519",
    "py:kernels.py:prefix_sum": "e1d8813c859272bca19b0f0f1cfbb861a10abb7e2174150c052c534e43852f5b",
    "py:kernels.py:reverse_copy": "04cfd85bc2bb89821532339792c02afabce388834dcc9dff7d151e5da65c8fc1",
    "py:kernels.py:saxpy": "d6dbfa221d3c010ffc4c776211b30b545355cc05a620f8f1a799e759af7e381a",
    "py:kernels.py:scale": "cb312cae833eb24b748dd418e000b64c4fb785ccd01b4b9a34bef61fae1cdeee",
    "py:kernels.py:sum_of_squares": "19a8e2eff9846be48affa033529a48bac82b476cffdf7f693ba5b16d49e56c34",
    "py:kernels.py:triangular": "e94aeb85cb740a38619881ca28c65ff3f0de2119d5659d38357675d80f383491",
    "py:numeric.py:alternating_sum": "831042a2fd76fe4497fa2d14cd686dc01f983c64dfef1a934e55ed1b271a5f8b",
    "py:numeric.py:average_step": "50c96ca3a9abc368033561c0b0d7a14e7195fb8c62c9351be4b71df3fc87908c",
    "py:numeric.py:bounded_fill": "e0c2c48d82ee721749257a966386b464276d72c55abd735056c4f97f5319dc99",
    "py:numeric.py:digits_sum": "909356471221de5f4adec79bb08d518f6f60a3e8a82ce91c022ca73560cf8848",
    "py:numeric.py:gcd": "2117872520383efbb18e14052c908f90463c1af0f41b8b3a5558da48d69c1a56",
    "py:numeric.py:halving_steps": "bcc9c5740f1abf78c4ae8187cbc65225fd27bec4fb0382f82980804174d54576",
    "py:numeric.py:horner": "7afaf6bc37bddfeb07c1899e4d44d12df56d4f3933d15d15e10903653a5c5016",
    "py:numeric.py:last_element": "f66760f7bca9c097d679e5714cf246a9c9854759d68a9f6ba86153991f1bdff2",
    "py:search.py:binary_search": "80c3d102cba2974a78f9afcfd3cb269161152b02d65f1db35cf003519f54c386",
    "py:search.py:clamp_all": "11c11d12e2941b4004aca2e91e5baf8f790d741610e94a36139f1a12386cd848",
    "py:search.py:count_runs": "d3e96043c60a9fc8a9edfafce90db1af33a13ea494570af5d625b96b46087bb1",
    "py:search.py:first_gap": "25bc6a8b494018938494226e0c91c68bf2748257a75fdd9d224d9c9912627e8a",
    "py:search.py:linear_search": "1a2b158ee3cea86a40d200c07849e887ae12e5857e154f1c514f9225085ce676",
    "py:search.py:weighted_tally": "4a3913dbdd372ae05938269587dcb79a0e673d84962e1b8763ab1a3dc697b44d",
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
