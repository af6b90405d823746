"""Golden digests of the collect-all verifier on seeded SSA mutations.

Each case is the optimized SSA of one program (``analyze(source).ssa``).
Every mutation below is applied to its own copy of that SSA, with a
random generator seeded by the case id and the mutation's name, and the
copy is run through ``verify_collect(ssa=True)``.  The digest of a case
is one sha256 over, for each mutation in order, the ordered
``(code, severity, message, block, name)`` of every finding.

The digests pin what the verifier reports *and the order it reports it
in*: structural codes (IR0xx), then definitions (IR101/IR102), phi arity
(IR103), self-reference (IR108), and the dominance and undefined-use
codes (IR104-IR107) in block and instruction order.  Between them the
mutations reach every IR0xx and IR1xx code
(:func:`test_mutations_reach_every_code`).

The committed cases are the first pass of the perfbench ``dsl_chain``
and ``dsl_mixed`` workloads for seeds 1-2 plus ``examples/*.loop``.
``PYTHONPATH=src python -m tests.diagnostics.test_verifier_golden``, run
from the repository root, prints the digests for seeds 1-10: diff that
output before and after a change to the verifier.
"""

import glob
import hashlib
import os
import random

import pytest

from perfbench.inputs import chain_pass, mixed_pass
from repro.diagnostics.registry import all_codes
from repro.diagnostics.verifier import verify_collect
from repro.ir.clone import clone_function
from repro.ir.instructions import Assign, Jump, Phi
from repro.ir.values import Ref
from repro.pipeline import analyze

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

COMMITTED_SEEDS = (1, 2)
MAIN_SEEDS = tuple(range(1, 11))


def _cases(seeds):
    cases = {}
    for seed in seeds:
        for program in chain_pass(seed, 0):
            cases[f"chain:{seed}:{program.uid}"] = program.source
        for program in mixed_pass(seed, 0):
            cases[f"mixed:{seed}:{program.uid}"] = program.source
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.loop"))):
        with open(path) as handle:
            cases[f"example:{os.path.basename(path)}"] = handle.read()
    return cases


CASES = _cases(COMMITTED_SEEDS)


# ----------------------------------------------------------------------
# candidate sites
# ----------------------------------------------------------------------
def _non_phi_defs(f):
    return [
        (block, inst)
        for block in f
        for inst in block.instructions
        if inst.result is not None and not isinstance(inst, Phi)
    ]


def _phis(f):
    return [(block, phi) for block in f for phi in block.phis()]


def _ref_uses(f):
    """(block, owner, name) for every Ref operand, terminators included."""
    out = []
    for block in f:
        owners = list(block.instructions)
        if block.terminator is not None:
            owners.append(block.terminator)
        for owner in owners:
            for value in owner.uses():
                if isinstance(value, Ref):
                    out.append((block, owner, value.name))
    return out


# ----------------------------------------------------------------------
# mutations: each edits ``f`` in place and returns False when the
# function offers no site for it
# ----------------------------------------------------------------------
def drop_phi_edge(f, rng):
    sites = [(b, phi) for b, phi in _phis(f) if phi.incoming]
    if not sites:
        return False
    _, phi = rng.choice(sites)
    del phi.incoming[rng.choice(sorted(phi.incoming))]
    return True


def def_below_use(f, rng):
    """Move a non-phi definition to just after one of its users."""
    defs = {inst.result: (block, inst) for block, inst in _non_phi_defs(f)}
    sites = [
        (block, owner, name)
        for block, owner, name in _ref_uses(f)
        if name in defs and owner is not defs[name][1]
    ]
    if not sites:
        return False
    use_block, user, name = rng.choice(sites)
    def_block, inst = defs[name]
    def_block.instructions.remove(inst)
    if user in use_block.instructions:
        position = use_block.instructions.index(user) + 1
    else:  # the user is the terminator
        position = len(use_block.instructions)
    use_block.instructions.insert(position, inst)
    return True


def def_elsewhere(f, rng):
    """Move a non-phi definition to the end of another block's body."""
    defs = _non_phi_defs(f)
    if not defs or len(f) < 2:
        return False
    def_block, inst = rng.choice(defs)
    def_block.instructions.remove(inst)
    rng.choice([b for b in f if b is not def_block]).instructions.append(inst)
    return True


def duplicate_def(f, rng):
    defs = _non_phi_defs(f)
    if not defs:
        return False
    _, inst = rng.choice(defs)
    block = rng.choice(list(f))
    position = len(block.phis())
    position += rng.randint(0, len(block.instructions) - position)
    block.instructions.insert(position, Assign(inst.result, rng.randint(0, 9)))
    return True


def self_reference(f, rng):
    sites = [
        (block, inst)
        for block, inst in _non_phi_defs(f)
        if any(isinstance(v, Ref) for v in inst.uses())
    ]
    if not sites:
        return False
    _, inst = rng.choice(sites)
    refs = [v.name for v in inst.uses() if isinstance(v, Ref)]
    inst.replace_uses({rng.choice(refs): Ref(inst.result)})
    return True


def ghost_use(f, rng):
    sites = _ref_uses(f)
    if not sites:
        return False
    _, owner, name = rng.choice(sites)
    owner.replace_uses({name: Ref(f"ghost.{rng.randint(0, 99)}")})
    return True


def shadow_param(f, rng):
    defs = _non_phi_defs(f)
    if not f.params or not defs:
        return False
    _, inst = rng.choice(defs)
    inst.result = rng.choice(f.params)
    return True


def unreachable_block(f, rng):
    """An island that reads live names and jumps into the reachable CFG."""
    names = list(f.params) + [inst.result for _, inst in _non_phi_defs(f)]
    label = f.fresh_label("island")
    island = f.add_block(label)
    for k in range(rng.randint(0, 2)):
        source = rng.choice(names) if names else rng.randint(0, 9)
        island.append(Assign(f"{label}.v{k}", source))
    island.terminator = Jump(rng.choice([b.label for b in f if b is not island]))
    return True


def phi_after_non_phi(f, rng):
    sites = [
        (block, phi)
        for block, phi in _phis(f)
        if len(block.instructions) > len(block.phis())
    ]
    if not sites:
        return False
    block, phi = rng.choice(sites)
    block.instructions.remove(phi)
    first_body = len(block.phis())
    position = rng.randint(first_body + 1, len(block.instructions))
    block.instructions.insert(position, phi)
    return True


def no_blocks(f, rng):
    f.blocks.clear()
    return True


def missing_entry(f, rng):
    f.entry_label = "nowhere"
    return True


def unknown_target(f, rng):
    sites = [block for block in f if block.successors()]
    if not sites:
        return False
    block = rng.choice(sites)
    block.terminator.retarget(rng.choice(block.successors()), "nowhere")
    return True


def missing_terminator(f, rng):
    rng.choice(list(f)).terminator = None
    return True


def phi_in_entry(f, rng):
    sites = _phis(f)
    if not sites:
        f.entry.instructions.insert(0, Phi("entry.phi", {}))
        return True
    block, phi = rng.choice(sites)
    block.instructions.remove(phi)
    f.entry.instructions.insert(0, phi)
    return True


SSA_MUTATIONS = (
    drop_phi_edge,
    def_below_use,
    def_elsewhere,
    duplicate_def,
    self_reference,
    ghost_use,
    shadow_param,
    unreachable_block,
)


def mixture(f, rng):
    """Three SSA-level mutations on one copy: the emission order matters."""
    applied = False
    for _ in range(3):
        applied |= rng.choice(SSA_MUTATIONS)(f, rng)
    return applied


MUTATIONS = SSA_MUTATIONS + (
    phi_after_non_phi,
    no_blocks,
    missing_entry,
    unknown_target,
    missing_terminator,
    phi_in_entry,
    mixture,
)


def findings(ssa, case_id):
    """mutation name -> ordered finding tuples (None: no site)."""
    out = {"clean": _tuples(verify_collect(clone_function(ssa), ssa=True))}
    for mutation in MUTATIONS:
        f = clone_function(ssa)
        rng = random.Random(f"{case_id}:{mutation.__name__}")
        if not mutation(f, rng):
            out[mutation.__name__] = None
            continue
        out[mutation.__name__] = _tuples(verify_collect(f, ssa=True))
    return out


def _tuples(diagnostics):
    return [(d.code, str(d.severity), d.message, d.block, d.name) for d in diagnostics]


def canonical(case_id, source):
    """The text the digest is taken over (exposed for debugging)."""
    found = findings(analyze(source).ssa, case_id)
    return "\n".join(f"{name} {found[name]!r}" for name in found)


def digest(case_id, source):
    return hashlib.sha256(canonical(case_id, source).encode()).hexdigest()


GOLDEN = {
    "chain:1:p0.0": "d62d30456ba1b19a64f99bc341bd58feecfa8ee3300bc0eb607d3667be015503",
    "chain:1:p0.1": "5cba1c4a9b0c4f6c0b0b3a43721a86ebddfcf5398f283d5abddeab53f25328bf",
    "chain:1:p0.10": "887047a6d3bd871c7399321e2ae5f504fc8209a14858ffdba40213730a6f814d",
    "chain:1:p0.11": "00708a449f750b396f27d690cba7e35a31fd9dccdae4477f738eed7467ed2609",
    "chain:1:p0.12": "6c558fadcbab7c43ba144b0ca32a2c12c4e4921ecd837891828bd089c1ed5b30",
    "chain:1:p0.13": "77c5b0358b1e955c0b66825c848016940dd9e8d3af61af5767fb003b5e49e681",
    "chain:1:p0.14": "3229bb730bd5b62fc0476b2cd070a84dc2f7bb6ad9c68a3e7d891fbfd13cd948",
    "chain:1:p0.15": "45c5abacbadf4165154f916043f6f06a424868808a1c18307826527e83d8178c",
    "chain:1:p0.16": "732ab18077380f990db52fae6d852c2703c14217cbfdf9934736ef2981aeab41",
    "chain:1:p0.17": "4a8bc7f6714de6049c5a94c6372c8ab15bdd80652ebc9f0598f6b71e9aafdd64",
    "chain:1:p0.18": "0f67d481c4c10793190d9cc5f62853e967af3f13895d05c83c461cf7bec84019",
    "chain:1:p0.19": "4bfa8e2103bab63693400b88e1f7c13c5a3114ce03724129621182f6d09b134c",
    "chain:1:p0.2": "810935aa0a115993a403a8ab516f9974fb19db81a35baa55bf26b8938fa5f380",
    "chain:1:p0.20": "d576ebc3b7a8c4a0f9a910281c1b90eea9f525cda5981d6bf709a025137b41f9",
    "chain:1:p0.21": "97605bced82c5c4f822e225932ae5f50b6df67bb2901c087e31510e3b9aac0a7",
    "chain:1:p0.22": "885826b289f94da7635474f4b4e2b61043133323d33fb957ee71fd2598b36843",
    "chain:1:p0.23": "839e3075c25bf7f0588e315d98c4fd6d3562be27a312a4ba23045113609a69b3",
    "chain:1:p0.24": "d8623b117ff9303565f8b6103b4ca355f98e2545d241c505f3487adf1101ddcb",
    "chain:1:p0.3": "315b819c7f7163097907e00d3047bd4566667acc5ff5183d2395d31683658b90",
    "chain:1:p0.4": "6026086fa0df4be79ea04cee0e997cee68a70d010ee5a961a714266afe8b0ce4",
    "chain:1:p0.5": "6103362ddb0fc5aff2fc5790ac233e242780eb36714b9315fe0e6bf0587a0136",
    "chain:1:p0.6": "ac9709fb6bd7708bf45ea5c8051fb2b9ddf2bce96b29c64b94fa35fac541645c",
    "chain:1:p0.7": "9360d541ca66707ff88fee9dd1676db6377e11eac394f70ffecbcf35e852b1fb",
    "chain:1:p0.8": "ebb41e580b25d56bb0a59b33b3da3c14bc1a962166e74881a1ec6d663ec7c1ef",
    "chain:1:p0.9": "737c0161dbd3851790757b6fe56213b0223f7350278f412a057eeb4a7b13ec7d",
    "chain:2:p0.0": "05f909570bb3de87e4d5c566534186dfb9dea662621dc04b8005022706f0b508",
    "chain:2:p0.1": "d7fecac2d0139cfc912aefd646af95d38f93cab6f546f345564acc5c23396b2d",
    "chain:2:p0.10": "eeb7adff990d84b0f29a4015aab4d9db6f909bcf017d58c975a6ace3a4c16148",
    "chain:2:p0.11": "8d817afb36b361a5747bab303b9ac0bb4ba4eb353061f6f566440bc4351db975",
    "chain:2:p0.12": "4cfb5daf925065014cec6e38f0cd4d62376f8ece6bb98e14d3a65181f69b83ca",
    "chain:2:p0.13": "f7aafbdf3ca6c74739445ba3f13b4be750257b2c462976b6dd6631e6b7461bee",
    "chain:2:p0.14": "7d080f4d7222aa9c16c432774175ed1780aa2c19ecf3cc1cc357f4df61452784",
    "chain:2:p0.15": "49831e6a2dbc06828e31e8a5ef6fd0212ba3d1b95704a562ea75b59b15378e8c",
    "chain:2:p0.16": "55fc2b8e03bf2fcf6e565450122c430e1749360175d9dc4f948fa7a378365de0",
    "chain:2:p0.17": "12d6861937fd18785c7f3ede795be4b0685ad4d15c24a64f373c57587785761c",
    "chain:2:p0.18": "2099c4e43c90b7518bbf9cb3cdf135967d5f068cd9789dea05cf2d5b0d6f9cd1",
    "chain:2:p0.19": "b7581a89d04673c0edd993e3be2c5849ab1534630e922887357d662c8fd18e3c",
    "chain:2:p0.2": "31be4eec00d4ea05441c0f6ccdb57a1d54318075bcf57399a1da743ba0d3468d",
    "chain:2:p0.20": "bc6852b30abf7c023cb0f6dc64a69e09f2156cac464fba8df7bd6edd6c937ec0",
    "chain:2:p0.21": "aa8e20d8d23a24777299e89303685e7409e83eeab45f810b1da40e514130cbc9",
    "chain:2:p0.22": "5a2569585ec26c27e5635d77533c03bc48c80e74ebaeaf54f75e92c102b2bf54",
    "chain:2:p0.23": "67aeb5e04dfd8480d81b8902ff389bc24c161e117fc57eaafff4d092dce2dbac",
    "chain:2:p0.24": "d58f4338c0bd8be4490c56508a892207d8e7bba395fb2332085fa52413c3b85c",
    "chain:2:p0.3": "e0b213160583b8223ba759838db9fe66fa7c8d87ce1884343d943dd76dc2c58e",
    "chain:2:p0.4": "c2415d1e6313a94748b7b88f835dd69f523df25e81dfba8ece6494e0aea3f08e",
    "chain:2:p0.5": "0721cf74057c48357512109aebb82010dc5c889b6d53ce37f6463357f0ace35d",
    "chain:2:p0.6": "e7b1953bfc8c8948a1aa80d9bc245021e618a9818bb04c6ef35946227da20915",
    "chain:2:p0.7": "6053d2d6006811019d37e6d0b53d68d9f6021d5a9ffac514b4723b17c7c6a38c",
    "chain:2:p0.8": "65513bf850f11b41ece098ec7e3288b89690231c915202a415c824e48c420401",
    "chain:2:p0.9": "66216cf2bf42373b3a140530bfe54850d6cfb86c21c9bb9751507b904c589ae5",
    "example:branchy_counters.loop": "d6d20599e36d5618c331e3ff252b9b379b49c857fc0236d8f24f40c1a2ceee85",
    "example:wolfe_figures.loop": "417bd62fc4fedc3714490162be5de787b7c1c4ca14e4c93689bc4385bb3a68ea",
    "mixed:1:p0.0": "1242ebe57ee108c8b7fa7c57005d6976682afb0f3602ed6ceb6938fb54d947c5",
    "mixed:1:p0.1": "ef7e23dada82009b2197cd3e9f498490fd15520d112bf27b471176a47bd51845",
    "mixed:1:p0.10": "414412a8b94cda441bc60248034cd38a8a2cb91cef57a915249229b821564985",
    "mixed:1:p0.11": "612b6220a48700b997dc5d5a6e02b4ba3be16528ce3d0bbe2ed3fec2fd6600f3",
    "mixed:1:p0.12": "6562ac01673aaafb13ea2f639ff6d173d8d663e7931f2292b9e61371156f7b32",
    "mixed:1:p0.13": "7891d0fb2100c8069d8bfe631b8ecfb3a3a264d17831e73868a9a0aa813308f4",
    "mixed:1:p0.14": "f624176219968e54ceaa7d8c012e42fbdf03804a3ac94108936a77a84fcfd6b2",
    "mixed:1:p0.15": "2c36da9774edd854592e1b67d9abeddc1e561c5f2b006ad9007c2e136ee76346",
    "mixed:1:p0.16": "3c832ab6327ce5efd24faf52b68401b804c0f08dfc74c45fc61e8c2265e8c2bc",
    "mixed:1:p0.17": "52132b6a223c2b2b656a5cc109d785cb517872dfb04905c9e5e9c43323b4ed49",
    "mixed:1:p0.18": "0747067ba7488fa278238a74891880bfe8ac842a0ad505a0f230ca7ce72714a9",
    "mixed:1:p0.19": "4aaa61220b01fbfc2953b6f6e98d2a655479979eb558bfb8f6cc2ffe51f84e00",
    "mixed:1:p0.2": "86a07efc1ac7e5f7474f60f8ab3960daec9cb3fc4ec8482b7d915ae2458abac9",
    "mixed:1:p0.20": "9105904f5acfcb1590988a0d690bb78209d474745660ba45ee9b2000ceddadfd",
    "mixed:1:p0.21": "f1dc02af6253d6351f9a89d794250a97fc0873540c06f1028a8af7d2b1958f41",
    "mixed:1:p0.22": "9cdedf0fdd7f391c142873300aa7d5f65cb02e980ca6ffd1c1b200d886c29155",
    "mixed:1:p0.23": "64dba0fc86ca27483161f3abb188ff96c062701bd8cb9628580f0314c9849add",
    "mixed:1:p0.24": "592137fc6ca3b771fa692eb5a6cae318c49b42d3806f3f0fff549eccb4d45c11",
    "mixed:1:p0.3": "88562c1bf3d1ac60636e34401e2ac77e771e217936036972cf0c8eddc88cc041",
    "mixed:1:p0.4": "705e926691a8b3c63f600626b921069626d7448af0a2181eba343cba1263ce63",
    "mixed:1:p0.5": "aa11bc77a5a56e0edf367bfbf197a6a0bd96683793d75381de45c4eb24ce9606",
    "mixed:1:p0.6": "9c08bcaaa0b1ce17646b3f91179466be159826481ce922256905ec4b9ac6515c",
    "mixed:1:p0.7": "a25fd572bf599d9816157fad5d2c2f431da242b9b1b0bfa989eaa159d4f468d2",
    "mixed:1:p0.8": "81a66a2cabff12ee0e4ebe4a6cac5c0ad52d21e73ed69fe4323a89904ea964a2",
    "mixed:1:p0.9": "0f2f3ac838555622da7507ea0166ac8c81b9075ced807926d200b2e5c77b07e3",
    "mixed:2:p0.0": "1c178c323811b0cab1ac03f8498a2917f6210dc7d9e6e43cd12a9ded89a05454",
    "mixed:2:p0.1": "32c25a723cd3af8fd57a01dec5ba01f07535c6de3e1e44bce532af6da31c6022",
    "mixed:2:p0.10": "dbce8ea6bbc0b53d68963809f305496b861a1cd54e992b6cefdee2634b86aa84",
    "mixed:2:p0.11": "6085fbd23ef9170a8af34365094e77e40a5aa5a2eaaee7ec3aca8a059227e63f",
    "mixed:2:p0.12": "392e8f9133c0297a5ca83f9e45a347a762ea66c1b0ed007b5075e53900ffa6a4",
    "mixed:2:p0.13": "743d4f11be82cd5719f514e235d11575e72ca837a160926043a919110e1655ad",
    "mixed:2:p0.14": "fd87eb3e8601531c4e11410203f4ad919c4757ee0ba8e00b98b8cf03de72cba1",
    "mixed:2:p0.15": "f778be16abcbd7f93d3328a4a2c3768b09830534bea3997f28fa66a6899300ac",
    "mixed:2:p0.16": "f9f46f369e744e9e3253080b4941092a11b43f8ddc8d116ed831f6d710f956b1",
    "mixed:2:p0.17": "43f5c3eb8ca777542cc5f0114672bde18c0dec8ca38d4936932867c8b81652aa",
    "mixed:2:p0.18": "787c65a0033d6cbccc54db5ddd227710fbddac2ac32f79e9e055fa46ab02cc02",
    "mixed:2:p0.19": "0403478591041a46c58efff27e0f9049c755a41069b3bd8a2d327512c51bc7ff",
    "mixed:2:p0.2": "c04816aa53241e36f1f6e8ccbc47322b48249ac4de5778c60b80cc95921117b0",
    "mixed:2:p0.20": "25e1091815d169cb69d259b84f41241fabf5773bece2f9f586d3676e10d9f4e8",
    "mixed:2:p0.21": "2760f7fc80dd8c8b224b63a03a00492aac54de6157b74c486445cd162722e3c2",
    "mixed:2:p0.22": "340dcd24950c85696318080c48e3f12ed483f97ffbbd603754c0a9539359f1ff",
    "mixed:2:p0.23": "15930557c13259cb4d0b422d71dadb469880b85417b2005e5945dce0dd890313",
    "mixed:2:p0.24": "0c16c467cf757b329fc1eb3443ff384c6e79882075be454483162fc3230b5b40",
    "mixed:2:p0.3": "710f800e19dc1370cc36f9120257aba0d61d769f2d938d11de1f7d9c0a58c49d",
    "mixed:2:p0.4": "78989bbeda5307b17bd52f2e3450825dbb7f2a3688d69c25e682ba8456ec8e25",
    "mixed:2:p0.5": "f4c6daece528c1b95500ec2c648f3caff9dfaf49a78ff2bd5910f5aacb1b6155",
    "mixed:2:p0.6": "d0447e516d2d9df3d40048f78a11824ec00d060d2069b64d27356b7745b36bd5",
    "mixed:2:p0.7": "e5f1e56887ca615b8deb407b2521cb4a3e9bd373fecd63ee0351ee7151312a02",
    "mixed:2:p0.8": "faf03c44361db23b52e219deb48f6616527a8f3a10fb7d5cbbf4daa0d93f1684",
    "mixed:2:p0.9": "fcc690c1c9fbc40ffc4ec0409a5f4cbc1d205fb2a060a6488936f8be74bb1b1e",
}


def test_every_case_has_a_golden():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(case, CASES[case]) == GOLDEN[case]


def test_mutations_reach_every_code():
    reached = set()
    for case in sorted(CASES):
        found = findings(analyze(CASES[case]).ssa, case)
        assert found["clean"] == [], case
        for mutated in found.values():
            reached.update(code for code, *_ in mutated or ())
    verifier_codes = {code for code in all_codes() if code.startswith("IR")}
    assert verifier_codes == reached


if __name__ == "__main__":
    cases = _cases(MAIN_SEEDS)
    for case in sorted(cases):
        print(f'    "{case}": "{digest(case, cases[case])}",')
