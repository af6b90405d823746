"""The scalar rounds stop early only where the next round is a no-op.

``repro.pipeline._run_scalar_passes`` stops after a round that changed
something once ``_next_round_is_noop`` proves that another round would
change nothing.  Every such stop is checked here by running that round
for real on a clone: simplify, GVN and copy propagation must return
0/0/0, and no pass may change the printed SSA.

The inputs are the scalar golden's committed cases, the perfbench DSL
programs of seeds 4-6, and seeded random programs built from the
patterns that make simplify produce constants SCCP did not see
(``x - x``, ``(s + t) - (t + s)``, ``x ** 0``, ``x mod 1``) inside
nested ``if`` and ``for`` statements.

``PYTHONPATH=src python -m tests.scalar.test_fixpoint_stop``, run from
the repository root (``make scalar-fixpoint``), checks perfbench seeds
1-30 and 5,000 random programs and exits 1 on any wrong stop.
"""

import random
import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from perfbench.inputs import chain_pass, mixed_pass
from repro import pipeline
from repro.ir.clone import clone_function
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.ir.values import Const
from repro.obs.metrics import MetricsRegistry, collecting
from repro.pipeline import analyze, analyze_function
from repro.scalar.copyprop import propagate_copies
from repro.scalar.gvn import run_gvn
from repro.scalar.sccp import run_sccp
from repro.scalar.simplify import simplify_instructions
from tests.scalar.test_scalar_golden import CASES

#: random programs a tier-1 run checks
TEST_RANDOM = 300
#: perfbench seeds 1..N and random programs the script checks
SCRIPT_SEEDS = 30
SCRIPT_RANDOM = 5000

#: named IR that branches on ``x - x``.  Round 1's simplify makes
#: ``%t = copy 0`` and copy propagation makes the branch read 0 without
#: counting the rewrite (it counts instructions only); round 1's SCCP
#: held ``%t`` varying, so only round 2 decides the branch and folds
#: the join's phi into ``return 2``.
BRANCH_ON_ZERO = """func f(x) {
e:
  %t = sub %x, %x
  branch %t, a, b
a:
  %y = copy 1
  jump j
b:
  %y = copy 2
  jump j
j:
  return %y
}"""


def extra_round(ssa):
    """What one more round does to a clone of ``ssa``: [] when nothing."""
    clone = clone_function(ssa)
    before = print_function(clone)
    changes = []
    run_sccp(clone)
    if print_function(clone) != before:
        changes.append("sccp rewrote")
    for run in (simplify_instructions, run_gvn, propagate_copies):
        count = run(clone)
        if count or print_function(clone) != before:
            changes.append(f"{run.__name__} {count}")
    return changes


@contextmanager
def checking_stops():
    """Check every early stop of the scalar rounds inside the block.

    Yields the list that collects one entry per early stop: the
    :func:`extra_round` changes of the SSA the loop stopped at.
    """
    stops = []
    real = pipeline._next_round_is_noop

    def checked(ssa, lattice):
        stop = real(ssa, lattice)
        if stop:
            stops.append(extra_round(ssa))
        return stop

    pipeline._next_round_is_noop = checked
    try:
        yield stops
    finally:
        pipeline._next_round_is_noop = real


def rounds_of(kind, payload):
    """Analyze one case; returns its ``scalar.rounds`` count."""
    with collecting(MetricsRegistry()) as registry:
        if kind == "dsl":
            program = analyze(payload)
        else:
            program = analyze_function(payload)
    assert not program.degraded, program.degradations
    return registry.snapshot()["counters"]["scalar.rounds"]


def perfbench_sources(seeds):
    for seed in seeds:
        for program in mixed_pass(seed, 0) + chain_pass(seed, 0):
            yield f"{seed}:{program.uid}", program.source


_NAMES = ("a", "b", "s", "t", "x")


def _operand(rng):
    return rng.choice(_NAMES + ("n", "A[i]", str(rng.randint(0, 3))))


def _expr(rng):
    x, y = rng.choice(_NAMES), _operand(rng)
    return rng.choice(
        (
            f"{x} - {x}",
            f"({x} + {y}) - ({y} + {x})",
            f"{x} ** 0",
            f"{x} mod 1",
            f"{x} + {y}",
            f"{x} - {y}",
            f"{x} * {y}",
            f"{y} * 0",
            f"{x} + 0",
            f"{x} * 1",
        )
    )


def _body(rng, depth, indent, lines):
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(6 if depth < 2 else 4)
        if kind < 4:
            lines.append(f"{indent}{rng.choice(_NAMES)} = {_expr(rng)}")
        elif kind == 4:
            lines.append(f"{indent}if {_expr(rng)} > {_operand(rng)} then")
            _body(rng, depth + 1, indent + "  ", lines)
            if rng.random() < 0.5:
                lines.append(f"{indent}else")
                _body(rng, depth + 1, indent + "  ", lines)
            lines.append(f"{indent}endif")
        else:
            index = "ijk"[depth]
            lines.append(f"{indent}for {index} = 1 to {_operand(rng)} do")
            _body(rng, depth + 1, indent + "  ", lines)
            lines.append(f"{indent}endfor")


def random_program(seed):
    """A seeded DSL program around one loop, rich in folding patterns."""
    rng = random.Random(seed)
    lines = [f"{v} = {rng.choice(('n', '0', '1', '2'))}" for v in _NAMES]
    lines.append("for i = 1 to n do")
    _body(rng, 1, "  ", lines)
    lines.append("endfor")
    lines.append(f"return {' + '.join(_NAMES)}")
    return "\n".join(lines)


def check(cases):
    """Analyze ``(name, kind, payload)`` cases, checking every early stop.

    Returns ``(rounds, stops, wrong)``: a histogram of rounds per case,
    the number of early stops, and ``(name, changes)`` per wrong stop.
    """
    rounds = Counter()
    wrong = []
    total = 0
    for name, kind, payload in cases:
        with checking_stops() as stops:
            rounds[rounds_of(kind, payload)] += 1
        total += len(stops)
        wrong.extend((name, changes) for changes in stops if changes)
    return rounds, total, wrong


def _committed():
    for case in sorted(CASES):
        yield (case, *CASES[case])


def test_committed_cases_stop_only_at_a_fixpoint():
    _, stops, wrong = check(_committed())
    assert wrong == []
    assert stops > 0


def test_perfbench_seeds_stop_only_at_a_fixpoint():
    cases = ((n, "dsl", s) for n, s in perfbench_sources((4, 5, 6)))
    _, stops, wrong = check(cases)
    assert wrong == []
    assert stops > 0


def test_random_programs_stop_only_at_a_fixpoint():
    cases = ((seed, "dsl", random_program(seed)) for seed in range(TEST_RANDOM))
    rounds, stops, wrong = check(cases)
    assert wrong == []
    assert stops > 0
    assert rounds[2] > 0, "no random program needed a second round"


def test_digits_sum_takes_two_rounds():
    """Round 2 folds the copy that round 1's GVN made of a constant."""
    assert rounds_of(*CASES["py:numeric.py:digits_sum"]) == 2


def test_a_branch_made_constant_gets_its_round():
    with checking_stops() as stops, collecting(MetricsRegistry()) as registry:
        program = analyze_function(parse_function(BRANCH_ON_ZERO))
    assert all(changes == [] for changes in stops)
    assert registry.snapshot()["counters"]["scalar.rounds"] == 2
    assert program.ssa.block("j").terminator.value == Const(2)


@pytest.mark.parametrize(
    "case", sorted(c for c in CASES if c.startswith("mixed:1:"))
)
def test_mixed_programs_take_one_round(case):
    assert rounds_of(*CASES[case]) == 1


def main():
    groups = {
        "perfbench": (
            (n, "dsl", s)
            for n, s in perfbench_sources(range(1, SCRIPT_SEEDS + 1))
        ),
        "random": (
            (seed, "dsl", random_program(seed)) for seed in range(SCRIPT_RANDOM)
        ),
    }
    failed = False
    for group, cases in groups.items():
        rounds, stops, wrong = check(cases)
        histogram = ", ".join(f"{k}: {rounds[k]}" for k in sorted(rounds))
        print(f"{group}: rounds {{{histogram}}}, early stops {stops}, "
              f"wrong stops {len(wrong)}")
        for name, changes in wrong[:10]:
            print(f"  wrong stop at {name}: {', '.join(changes)}")
        failed = failed or bool(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
