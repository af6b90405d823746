"""Monotonic variable detection (paper section 4.4, Figure 10)."""

from tests.conftest import (
    analyze_src,
    assert_closed_forms_match_execution,
    classification_by_var,
    run_ssa,
)
from repro.core.classes import BranchDependent, Monotonic, Unknown


class TestBasicMonotonic:
    def test_conditional_increment_pack(self):
        """The pack idiom of loop L15: k incremented under a condition."""
        p = analyze_src(
            "k = 0\nL15: for i = 1 to n do\n  if A[i] > 0 then\n    k = k + 1\n    B[k] = A[i]\n  endif\nendfor"
        )
        k = classification_by_var(p, "k", "L15")
        assert isinstance(k, BranchDependent)
        assert k.direction == 1 and not k.strict
        assert (k.min_step(), k.max_step()) == (0, 1)

    def test_figure6_strictly_increasing(self):
        """Figure 6 (loop L16): +1 or +2 on every path -> strictly."""
        p = analyze_src(
            "k = 0\nL16: for i = 1 to n do\n  if A[i] > 0 then\n    k = k + 1\n  else\n    k = k + 2\n  endif\n  B[k] = i\nendfor"
        )
        k = classification_by_var(p, "k", "L16")
        assert isinstance(k, BranchDependent)
        assert k.strict
        assert (k.min_step(), k.max_step()) == (1, 2)
        assert_closed_forms_match_execution(p, {"n": 6})

    def test_figure10_member_strictness(self):
        """k3 strictly increasing; k2, k4 merely non-decreasing."""
        p = analyze_src(
            "k = 0\nL15: for i = 1 to n do\n  F[k] = A[i]\n  if A[i] > 0 then\n"
            "    k = k + 1\n    B[k] = A[i]\n  endif\n  G[i] = F[k]\nendfor"
        )
        classes = {n: p.classification(n) for n in p.ssa_names("k")}
        by_strict = {
            name: cls.strict
            for name, cls in classes.items()
            if isinstance(cls, (Monotonic, BranchDependent))
        }
        assert sum(by_strict.values()) == 1  # exactly k3
        assert len(by_strict) == 3
        # all in one family
        families = {
            cls.family
            for cls in classes.values()
            if isinstance(cls, (Monotonic, BranchDependent))
        }
        assert len(families) == 1

    def test_decreasing(self):
        p = analyze_src(
            "k = 100\nL1: for i = 1 to n do\n  if A[i] > 0 then\n    k = k - 2\n  endif\n  B[k] = i\nendfor"
        )
        k = classification_by_var(p, "k", "L1")
        assert isinstance(k, BranchDependent)
        assert k.direction == -1 and not k.strict
        assert (k.min_step(), k.max_step()) == (-2, 0)

    def test_strictly_decreasing(self):
        p = analyze_src(
            "k = 0\nL1: for i = 1 to n do\n  if A[i] > 0 then\n    k = k - 1\n  else\n    k = k - 3\n  endif\n  B[k] = i\nendfor"
        )
        k = classification_by_var(p, "k", "L1")
        assert k.direction == -1 and k.strict
        assert_closed_forms_match_execution(p, {"n": 5})

    def test_mixed_signs_branch_dependent(self):
        """+1 or -1: not monotonic, but the step set is still known."""
        p = analyze_src(
            "k = 0\nL1: for i = 1 to n do\n  if A[i] > 0 then\n    k = k + 1\n  else\n    k = k - 1\n  endif\n  B[k] = i\nendfor"
        )
        k = classification_by_var(p, "k", "L1")
        assert isinstance(k, BranchDependent)
        assert k.direction is None and not k.strict
        assert (k.min_step(), k.max_step()) == (-1, 1)

    def test_symbolic_increment_no_direction(self):
        """Without sign information on s, no direction -- but the per-path
        step set {0, s} is still recorded."""
        p = analyze_src(
            "k = 0\nL1: for i = 1 to n do\n  if A[i] > 0 then\n    k = k + s\n  endif\n  B[k] = i\nendfor"
        )
        k = classification_by_var(p, "k", "L1")
        assert isinstance(k, BranchDependent)
        assert k.direction is None
        assert k.min_step() is None  # symbolic step: no numeric bound

    def test_increment_by_iv(self):
        """k += i with i a non-negative IV: monotonic (step varies)."""
        p = analyze_src(
            "k = 0\nL1: for i = 1 to n do\n  if A[i] > 0 then\n    k = k + i\n  endif\n  B[k] = i\nendfor"
        )
        k = classification_by_var(p, "k", "L1")
        assert isinstance(k, Monotonic)
        assert k.direction == 1


class TestMultiplicative:
    def test_doubling_under_condition(self):
        """'Multiply operations can also be allowed, such as 2*i+i, as long
        as the initial value of i is known.'"""
        p = analyze_src(
            "k = 1\nL1: for i = 1 to n do\n  if A[i] > 0 then\n    k = k * 2 + k\n  endif\n  B[k] = i\nendfor"
        )
        k = classification_by_var(p, "k", "L1")
        assert isinstance(k, Monotonic)
        assert k.direction == 1

    def test_multiplicative_with_unknown_init(self):
        p = analyze_src(
            "k = k0\nL1: for i = 1 to n do\n  if A[i] > 0 then\n    k = k * 3\n  endif\n  B[k] = i\nendfor"
        )
        k = classification_by_var(p, "k", "L1")
        assert isinstance(k, Unknown)

    def test_execution_check(self):
        p = analyze_src(
            "k = 1\nL1: for i = 1 to n do\n  if i % 3 == 0 then\n    k = k * 2\n  endif\n  B[k] = i\nendfor"
        )
        k = classification_by_var(p, "k", "L1")
        assert isinstance(k, Monotonic)
        assert_closed_forms_match_execution(p, {"n": 9})


class TestAlgebraCombinations:
    def test_monotonic_plus_invariant(self):
        p = analyze_src(
            "k = 0\nL1: for i = 1 to n do\n  if A[i] > 0 then\n    k = k + 1\n  endif\n  j = k + 5\n  B[j] = i\nendfor"
        )
        j = p.classification(p.ssa_names("j")[0])
        assert isinstance(j, Monotonic) and j.direction == 1

    def test_monotonic_plus_iv(self):
        """'adding a monotonic variable to an induction variable to get
        another monotonic variable' (section 5.1)."""
        p = analyze_src(
            "k = 0\nL1: for i = 1 to n do\n  if A[i] > 0 then\n    k = k + 1\n  endif\n  j = k + i\n  B[j] = i\nendfor"
        )
        j = p.classification(p.ssa_names("j")[0])
        assert isinstance(j, Monotonic)
        assert j.strict  # the IV part is strictly increasing

    def test_monotonic_times_negative_const(self):
        p = analyze_src(
            "k = 0\nL1: for i = 1 to n do\n  if A[i] > 0 then\n    k = k + 1\n  endif\n  j = k * -1\n  B[j] = i\nendfor"
        )
        j = p.classification(p.ssa_names("j")[0])
        assert isinstance(j, Monotonic) and j.direction == -1

    def test_monotonic_plus_opposing_iv_unknown(self):
        p = analyze_src(
            "k = 0\nL1: for i = 1 to n do\n  if A[i] > 0 then\n    k = k + 1\n  endif\n  j = k - i\n  B[j] = i\nendfor"
        )
        j = p.classification(p.ssa_names("j")[0])
        assert isinstance(j, Unknown)

    def test_unconditional_member_of_conditional_cycle_not_strict(self):
        """An unconditional computation that GVN reuses as a conditional
        phi input joins the cycle SCR -- but it is observed on *every*
        iteration, including those whose carried path bypasses it, so it
        must not inherit the conditional path's strictness.

        Here ``a = b + 2`` (every iteration) is the same value number as
        the conditional ``b = b + 2``; ``a`` stays constant whenever the
        branch is not taken, so it is increasing but NOT strictly.
        """
        p = analyze_src(
            "a = 0\nb = 0\nL1: for i = 1 to n do\n  a = b + 2\n"
            "  if i % 3 == 2 then\n    b = b + 2\n  endif\nendfor"
        )
        classes = [p.classification(name) for name in p.ssa_names("a")]
        monotonics = [cls for cls in classes if isinstance(cls, Monotonic)]
        assert monotonics, "in-loop a should classify as monotonic"
        for cls in monotonics:
            assert cls.direction == 1
            assert not cls.strict

    def test_arithmetic_drops_family(self):
        p = analyze_src(
            "k = 0\nL1: for i = 1 to n do\n  if A[i] > 0 then\n    k = k + 1\n  endif\n  j = k + 5\n  B[j] = i\nendfor"
        )
        j = p.classification(p.ssa_names("j")[0])
        assert j.family is None


class TestMemberRuleWorkBound:
    """The per-member strictness rule checks each distinct case once.

    ``_additive_member`` may call ``closedform_strict_sign`` at most
    (distinct ``(path addend, paired offset)`` pairs) x (distinct next
    offsets) times per member: its verdicts are conjunctions, so a
    repeated path or offset adds no information.
    """

    #: a mixed_class_loop whose branchy counter has repeated path addends
    BRANCHY_SEED, BRANCHY_SIZE = 2, 30

    @staticmethod
    def _bound(member, effects, carried_effects, all_paths_relevant):
        offsets = list(dict.fromkeys(pe.addend for pe in effects))
        relevant = [pe for pe in carried_effects if member in pe.through]
        if all_paths_relevant:
            relevant = carried_effects
        pairs = set()
        for pe in relevant:
            if member in pe.visits:
                pairs.add((pe.addend, pe.visits[member][1]))
            else:
                pairs.update((pe.addend, offset) for offset in offsets)
        return len(pairs) * len(offsets)

    def _measure(self, monkeypatch, source):
        from repro.core import scr

        counted = {"calls": None}
        per_member = []
        strict_sign = scr.closedform_strict_sign
        additive_member = scr._additive_member

        def counting_strict_sign(form):
            if counted["calls"] is not None:
                counted["calls"] += 1
            return strict_sign(form)

        def measured_member(loop, member, direction, effects, carried_effects, *args, **kwargs):
            counted["calls"] = 0
            try:
                return additive_member(
                    loop, member, direction, effects, carried_effects, *args, **kwargs
                )
            finally:
                bound = self._bound(
                    member, effects, carried_effects, kwargs.get("all_paths_relevant", False)
                )
                per_member.append((member, counted["calls"], bound))
                counted["calls"] = None

        monkeypatch.setattr(scr, "closedform_strict_sign", counting_strict_sign)
        monkeypatch.setattr(scr, "_additive_member", measured_member)
        analyze_src(source)
        return per_member

    def _assert_within_bound(self, per_member):
        assert per_member, "the monotonic member rule never ran"
        over = [(m, calls, bound) for m, calls, bound in per_member if calls > bound]
        assert not over, f"strictness checks above the distinct-case bound: {over}"

    def test_branchy_counters_example(self, monkeypatch):
        import os

        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        with open(os.path.join(root, "examples", "branchy_counters.loop")) as handle:
            source = handle.read()
        self._assert_within_bound(self._measure(monkeypatch, source))

    def test_branchy_mixed_class_loop(self, monkeypatch):
        from benchmarks.workloads import mixed_class_loop

        self._assert_within_bound(self._measure(monkeypatch, mixed_class_loop(self.BRANCHY_SEED, self.BRANCHY_SIZE)))


class TestMergeOfMonotonicValues:
    """A merge outside every cycle of two different increasing values.

    ``b`` is ``a + 1`` after the first iteration and ``a`` after the
    second (2, then 1): each input of the merge increases, the merge does
    not.  Equal monotonic classes say nothing about equal values.
    """

    SOURCE = (
        "a = 0\nb = 0\nL1: for i = 1 to 2 do\n  b = b + 0\n"
        "  if i % 3 == 1 then\n    a = a + 1\n  endif\n  b = a + 0\n"
        "  if i % 3 == 1 then\n    b = b + 1\n  endif\nendfor"
    )

    def test_merge_is_not_monotonic(self):
        p = analyze_src(self.SOURCE)
        merges = [
            inst.result
            for block in p.ssa
            if block.label != "L1"
            for inst in block.phis()
            if inst.result.startswith("b.")
        ]
        assert len(merges) == 1
        merged = p.classification(merges[0])
        assert isinstance(merged, Unknown)
        assert run_ssa(p).value_history[merges[0]] == [2, 1]

    def test_every_monotonic_name_moves_one_way(self):
        p = analyze_src(self.SOURCE)
        history = run_ssa(p).value_history
        for name in p.ssa.definitions():
            cls = p.classification(name)
            if isinstance(cls, Monotonic):
                values = history.get(name, [])
                assert all(
                    (later - earlier) * cls.direction >= 0
                    for earlier, later in zip(values, values[1:])
                ), (name, values)
