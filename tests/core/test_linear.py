"""Linear induction variable detection (paper sections 2-3)."""

import pytest

from tests.conftest import (
    analyze_src,
    assert_closed_forms_match_execution,
    classification_by_var,
)
from repro.core.classes import InductionVariable, Invariant, Unknown
from repro.symbolic.expr import Expr


class TestBasicLinear:
    def test_simple_counter(self):
        p = analyze_src("i = 0\nL1: while i < n do\n  i = i + 1\nendwhile")
        iv = classification_by_var(p, "i", "L1")
        assert isinstance(iv, InductionVariable)
        assert iv.describe() == "(L1, 0, 1)"
        assert_closed_forms_match_execution(p, {"n": 10})

    def test_decrement(self):
        p = analyze_src("i = n\nL1: while i > 0 do\n  i = i - 2\nendwhile")
        iv = classification_by_var(p, "i", "L1")
        assert iv.step == -2

    def test_symbolic_init_and_step(self):
        p = analyze_src("i = n0\nL1: while i < n do\n  i = i + s\nendwhile")
        iv = classification_by_var(p, "i", "L1")
        assert str(iv.init) == "n0"
        assert str(iv.step) == "s"

    def test_mutual_family_fig1(self):
        """Figure 1 (loop L7): i = j + c; j = i + k."""
        p = analyze_src(
            "j = jn\nL7: loop\n  i = j + c\n  j = i + k\n  if j > x then\n    break\n  endif\nendloop"
        )
        j2 = classification_by_var(p, "j", "L7")
        assert j2.describe() == "(L7, jn, c + k)"
        i = p.classification(p.ssa_names("i")[0])
        assert str(i.init) == "c + jn"
        assert str(i.step) == "c + k"

    def test_multiple_increments_accumulate(self):
        p = analyze_src(
            "i = 0\nL1: loop\n  i = i + 1\n  i = i + 2\n  i = i + 3\n  if i > n then\n    break\n  endif\nendloop"
        )
        iv = classification_by_var(p, "i", "L1")
        assert iv.step == 6
        assert_closed_forms_match_execution(p, {"n": 30})

    def test_long_cycle_expands_without_recursion(self):
        """An SCR of 1,000 members is one linear family, not a degraded
        ``Unknown``: expansion depth does not depend on the stack."""
        members = 1000
        p = analyze_src(
            "b = 0\nL1: for i = 1 to n do\n" + "  b = b + a\n" * members + "endfor"
        )
        assert not p.degradations
        names = p.ssa_names("b")[1:]
        assert len(names) == members + 1
        a = Expr.sym("a")
        for k, name in enumerate(names):
            iv = p.classification(name)
            assert isinstance(iv, InductionVariable) and iv.is_linear
            assert (iv.init, iv.step) == (a * k, a * members)

    def test_subtraction_of_invariant(self):
        p = analyze_src("i = 100\nL1: while i > 0 do\n  i = i - k\nendwhile")
        iv = classification_by_var(p, "i", "L1")
        assert str(iv.step) == "-k"

    def test_n_minus_i_is_not_linear(self):
        """The paper's exclusion: 'no i = n - i assignments'."""
        p = analyze_src(
            "i = 0\nc = 0\nL1: loop\n  i = n - i\n  c = c + 1\n  if c > m then\n    break\n  endif\nendloop"
        )
        iv = classification_by_var(p, "i", "L1")
        assert not isinstance(iv, InductionVariable)

    def test_fig3_equal_offsets_through_branches(self):
        """Figure 3 (loop L8): both arms add 2 -> still a linear family."""
        p = analyze_src(
            "i = 1\nL8: loop\n  if x > 0 then\n    i = i + 2\n  else\n    i = i + 2\n  endif\n"
            "  if i > 100 then\n    break\n  endif\nendloop"
        )
        header = classification_by_var(p, "i", "L8")
        assert header.describe() == "(L8, 1, 2)"
        # the endif phi and both arms are members with init 3
        members = [p.classification(n) for n in p.ssa_names("i")]
        member_inits = {
            str(m.init) for m in members if isinstance(m, InductionVariable)
        }
        assert member_inits == {"1", "3"}
        assert_closed_forms_match_execution(p, {"x": 1})

    def test_unequal_offsets_not_linear(self):
        p = analyze_src(
            "i = 1\nL8: loop\n  if x > 0 then\n    i = i + 2\n  else\n    i = i + 3\n  endif\n"
            "  if i > 100 then\n    break\n  endif\nendloop"
        )
        header = classification_by_var(p, "i", "L8")
        assert not isinstance(header, InductionVariable)

    def test_for_loop_var(self):
        p = analyze_src("L1: for i = 5 to n by 3 do\n  x = i\nendfor")
        iv = classification_by_var(p, "i", "L1")
        assert iv.describe() == "(L1, 5, 3)"

    def test_downto(self):
        p = analyze_src("L1: for i = n downto 1 do\n  x = i\nendfor")
        iv = classification_by_var(p, "i", "L1")
        assert str(iv.init) == "n"
        assert iv.step == -1


class TestDerivedLinear:
    def test_affine_of_iv(self):
        p = analyze_src("L1: for i = 0 to n do\n  j = 3 * i + 7\n  A[j] = 0\nendfor")
        j = p.classification(p.ssa_names("j")[0])
        assert isinstance(j, InductionVariable)
        assert j.describe() == "(L1, 7, 3)"

    def test_difference_of_ivs(self):
        p = analyze_src(
            "L1: for i = 0 to n do\n  j = 2 * i\n  k = j - i\n  A[k] = 0\nendfor"
        )
        k = p.classification(p.ssa_names("k")[0])
        assert k.describe() == "(L1, 0, 1)"

    def test_iv_minus_itself_invariant(self):
        p = analyze_src("L1: for i = 0 to n do\n  z = i - i\n  A[z] = 0\nendfor")
        z = p.classification(p.ssa_names("z")[0])
        assert isinstance(z, Invariant)
        assert z.expr == 0

    def test_negation(self):
        p = analyze_src("L1: for i = 0 to n do\n  j = -i\n  A[j] = 0\nendfor")
        j = p.classification(p.ssa_names("j")[0])
        assert j.describe() == "(L1, 0, -1)"

    def test_scaled_by_symbolic_invariant(self):
        p = analyze_src("L1: for i = 0 to n do\n  j = s * i\n  A[j] = 0\nendfor")
        j = p.classification(p.ssa_names("j")[0])
        assert isinstance(j, InductionVariable)
        assert str(j.step) == "s"


class TestInvariants:
    def test_loop_invariant_value(self):
        p = analyze_src("L1: for i = 0 to n do\n  x = a + b\n  A[x] = i\nendfor")
        x = p.classification(p.ssa_names("x")[0])
        assert isinstance(x, Invariant)
        assert str(x.expr) == "a + b"

    def test_conditional_reset_needs_constant_propagation(self):
        """x reset to its own initial value: the SCR analysis alone cannot
        see the equality (the reset path is independent of the header phi);
        the paper's answer is to run constant propagation first, after
        which the merge folds away entirely."""
        source = (
            "x = 5\nL1: for i = 0 to n do\n  if c > 0 then\n    x = 5\n  endif\n  A[x] = i\nendfor"
        )
        unoptimized = analyze_src(source, optimize=False)
        x = classification_by_var(unoptimized, "x", "L1")
        assert isinstance(x, Unknown)

        optimized = analyze_src(source)
        # after SCCP + simplification the phi for x is gone: the store
        # subscript is the literal 5
        from repro.ir.instructions import Store
        from repro.ir.values import Const

        stores = [
            inst for b in optimized.ssa for inst in b if isinstance(inst, Store)
        ]
        assert stores[0].indices == [Const(5)]

    def test_pure_copy_cycle_is_invariant(self):
        """x = phi(init, x) exactly (unconditional self-copy)."""
        p = analyze_src(
            "x = v\nL1: for i = 0 to n do\n  x = x + 0\n  A[x] = i\nendfor",
            optimize=False,
        )
        x = classification_by_var(p, "x", "L1")
        assert isinstance(x, (Invariant, InductionVariable))
        if isinstance(x, InductionVariable):
            assert x.step == 0
