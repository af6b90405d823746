"""Polynomial invariant generation over hand-built path summaries."""

from fractions import Fraction

from repro.invariants.paths import LoopPath, PathSummary
from repro.invariants.poly import MAX_VARIABLES, generate_invariants
from repro.symbolic.expr import Expr


def sym(name):
    return Expr.sym(name)


def const(value):
    return Expr.const(value)


def path(**updates):
    return LoopPath(blocks=("L1",), updates=tuple(sorted(updates.items())))


def summary(phis, *paths):
    return PathSummary(loop="L1", phis=tuple(sorted(phis)), paths=tuple(paths))


def holds_on(invariant, state):
    env = {k: Fraction(v) for k, v in state.items()}
    return invariant.poly.evaluate(env) == invariant.value.evaluate(env)


class TestLinear:
    def test_proportional_steps_give_linear_equality(self):
        # i += 1, j += 2  |  i += 3, j += 6   =>   j == 2*i
        ps = summary(
            ("i", "j"),
            path(i=sym("i") + const(1), j=sym("j") + const(2)),
            path(i=sym("i") + const(3), j=sym("j") + const(6)),
        )
        invariants = generate_invariants(ps, {"i": const(0), "j": const(0)})
        assert len(invariants) >= 1
        linear = [inv for inv in invariants if inv.degree == 1]
        assert linear
        inv = linear[0]
        assert holds_on(inv, {"i": 4, "j": 8})
        assert not holds_on(inv, {"i": 4, "j": 9})

    def test_symbolic_entry_state_flows_into_value(self):
        ps = summary(
            ("i", "j"),
            path(i=sym("i") + const(1), j=sym("j") + const(2)),
            path(i=sym("i") + const(2), j=sym("j") + const(4)),
        )
        invariants = generate_invariants(ps, {"i": sym("a"), "j": sym("b")})
        inv = next(inv for inv in invariants if inv.degree == 1)
        # j - 2*i == b - 2*a: check on a conforming concrete state
        env = {"a": Fraction(3), "b": Fraction(10)}
        assert inv.poly.evaluate(
            {"i": Fraction(3), "j": Fraction(10), **env}
        ) == inv.value.evaluate(env)

    def test_carried_invariant_symbols_act_as_variables(self):
        # i += n, j += 2*n: the equality needs n as a joint variable
        ps = summary(
            ("i", "j"),
            path(i=sym("i") + sym("n"), j=sym("j") + const(2) * sym("n")),
            path(
                i=sym("i") + const(2) * sym("n"),
                j=sym("j") + const(4) * sym("n"),
            ),
        )
        invariants = generate_invariants(ps, {"i": const(0), "j": const(0)})
        assert any(
            inv.degree == 1 and "n" in inv.variables for inv in invariants
        )


class TestQuadratic:
    def test_figure6_pair_preserves_2s_minus_i2_minus_i(self):
        # i += 1, s += i'  |  i += 2, s += 2*i' - 1  (i' = post-update i)
        ps = summary(
            ("i", "s"),
            path(
                i=sym("i") + const(1),
                s=sym("s") + sym("i") + const(1),
            ),
            path(
                i=sym("i") + const(2),
                s=sym("s") + const(2) * (sym("i") + const(2)) - const(1),
            ),
        )
        invariants = generate_invariants(ps, {"i": const(0), "s": const(0)})
        quadratic = [inv for inv in invariants if inv.degree == 2]
        assert quadratic
        # 2*s == i^2 + i on the state after one trip of each path
        for inv in quadratic:
            assert holds_on(inv, {"i": 1, "s": 1})
            assert holds_on(inv, {"i": 3, "s": 6})

    def test_emitted_degree_is_capped_at_two(self):
        ps = summary(
            ("i", "s"),
            path(i=sym("i") + const(1), s=sym("s") + sym("i")),
            path(i=sym("i") + const(2), s=sym("s") + const(2) * sym("i")),
        )
        for inv in generate_invariants(ps, {"i": const(0), "s": const(0)}):
            assert inv.degree <= 2


class TestRefusals:
    def test_independent_updates_have_no_invariant(self):
        ps = summary(
            ("i", "j"),
            path(i=sym("i") + const(1), j=sym("j") + const(1)),
            path(i=sym("i") + const(2), j=sym("j") + const(5)),
        )
        invariants = generate_invariants(ps, {"i": const(0), "j": const(0)})
        # every candidate must actually hold on both paths' reachable states
        for inv in invariants:
            assert holds_on(inv, {"i": 1, "j": 1})
            assert holds_on(inv, {"i": 2, "j": 5})

    def test_truncated_summary_yields_nothing(self):
        ps = summary(("i",), path(i=sym("i") + const(1)))
        ps.truncated = True
        assert generate_invariants(ps, {"i": const(0)}) == []

    def test_non_affine_summary_yields_nothing(self):
        ps = summary(("i",), path(i=sym("i") * sym("i")))
        assert not ps.affine
        assert generate_invariants(ps, {"i": const(2)}) == []

    def test_missing_init_yields_nothing(self):
        ps = summary(
            ("i", "j"),
            path(i=sym("i") + const(1), j=sym("j") + const(2)),
            path(i=sym("i") + const(2), j=sym("j") + const(4)),
        )
        assert generate_invariants(ps, {"i": const(0)}) == []

    def test_variable_cap(self):
        names = [f"x{k}" for k in range(MAX_VARIABLES + 1)]
        updates = {name: sym(name) + const(1) for name in names}
        other = {name: sym(name) + const(2) for name in names}
        ps = summary(names, path(**updates), path(**other))
        inits = {name: const(0) for name in names}
        assert generate_invariants(ps, inits) == []

    def test_no_pure_parameter_identities(self):
        # n - n == 0 style vectors (no phi involved) must be dropped
        ps = summary(
            ("i", "j"),
            path(i=sym("i") + sym("n"), j=sym("j") + const(2) * sym("n")),
            path(
                i=sym("i") + const(3) * sym("n"),
                j=sym("j") + const(6) * sym("n"),
            ),
        )
        invariants = generate_invariants(ps, {"i": const(0), "j": const(0)})
        phi_set = {"i", "j"}
        for inv in invariants:
            assert inv.poly.free_symbols() & phi_set


class TestNormalization:
    def test_integer_coprime_coefficients(self):
        # steps 1/2 and 3/2: the kernel vector has fractional entries
        ps = summary(
            ("i", "j"),
            path(
                i=sym("i") + const(Fraction(1, 2)),
                j=sym("j") + const(1),
            ),
            path(
                i=sym("i") + const(Fraction(3, 2)),
                j=sym("j") + const(3),
            ),
        )
        invariants = generate_invariants(ps, {"i": const(0), "j": const(0)})
        inv = next(inv for inv in invariants if inv.degree == 1)
        coeffs = [
            coeff for _mono, coeff in inv.poly.iter_terms() if coeff
        ]
        assert all(c.denominator == 1 for c in coeffs)

    def test_rational_updates_give_the_exact_fraction_solve_invariants(self):
        # Fraction coefficients make the rows non-integral, so the solver
        # scales them to integers first; the invariants are the ones the
        # Gauss-Jordan solve over Fraction gave
        third = const(Fraction(1, 3))
        ps = summary(
            ("i", "j", "s"),
            path(
                i=sym("i") + const(Fraction(1, 2)),
                j=sym("j") + const(Fraction(3, 2)),
                s=sym("s") + third * sym("i") + const(Fraction(1, 12)),
            ),
            path(
                i=sym("i") + third,
                j=sym("j") + const(1),
                s=sym("s") + const(Fraction(2, 9)) * sym("i") + const(Fraction(1, 27)),
            ),
            path(i=sym("i"), j=sym("j"), s=sym("s")),
        )
        inits = {"i": const(0), "j": sym("n"), "s": const(Fraction(1, 2))}
        invariants = generate_invariants(ps, inits)
        assert [(inv.describe(), inv.degree) for inv in invariants] == [
            ("-3*i + j == n", 1),
            ("-3*s + i^2 == -3/2", 2),
            ("27*s - 6*i*j + j^2 == 27/2 + n^2", 2),
        ]
        assert all(inv.variables == ("i", "j", "s") for inv in invariants)
        # entry with n = 4, then one trip of the first path
        after = {"i": Fraction(1, 2), "j": Fraction(11, 2), "s": Fraction(7, 12), "n": 4}
        for inv in invariants:
            assert holds_on(inv, {"i": 0, "j": 4, "s": Fraction(1, 2), "n": 4})
            assert holds_on(inv, after)

    def test_identity_updates_leave_every_monomial_invariant(self):
        # every row of the system is zero: the whole space is the kernel
        ps = summary(("i",), path(i=sym("i")), path(i=sym("i")))
        invariants = generate_invariants(ps, {"i": sym("a")})
        assert [inv.describe() for inv in invariants] == ["i == a", "i^2 == a^2"]
