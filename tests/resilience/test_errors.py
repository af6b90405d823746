"""The structured error taxonomy: codes, policies, adaptation."""

import pytest

from repro.resilience.errors import (
    ERROR_CODES,
    BudgetExceeded,
    InjectedFault,
    MissingPhiError,
    RecoveryPolicy,
    ReproError,
    all_error_codes,
    error_code_info,
    wrap_exception,
)


class TestRegistry:
    def test_every_code_has_policy_and_description(self):
        for code in all_error_codes():
            info = error_code_info(code)
            assert info.code == code
            assert isinstance(info.policy, RecoveryPolicy)
            assert info.description

    def test_unknown_code_raises(self):
        with pytest.raises(KeyError, match="no-such-code"):
            error_code_info("no-such-code")

    def test_abort_codes_are_exactly_the_input_and_tooling_errors(self):
        aborting = {
            code
            for code in all_error_codes()
            if error_code_info(code).policy is RecoveryPolicy.ABORT
        }
        assert aborting == {
            "frontend-error",
            "python-syntax-error",
            "sanitizer-violation",
            "malformed-request",
            "request-overflow",
        }

    def test_worker_crash_has_no_policy_of_its_own(self):
        # a crashed worker is re-dispatched by the server on its code,
        # not by a policy of its own
        assert set(RecoveryPolicy) == {
            RecoveryPolicy.DEGRADE,
            RecoveryPolicy.ABORT,
        }
        assert error_code_info("worker-crash").policy is RecoveryPolicy.DEGRADE


class TestReproError:
    def test_defaults(self):
        error = ReproError("boom")
        assert error.code == "internal-error"
        assert error.policy is RecoveryPolicy.DEGRADE
        assert error.phase is None
        assert str(error) == "boom"

    def test_explicit_code_sets_policy(self):
        error = ReproError("nope", code="frontend-error")
        assert error.policy is RecoveryPolicy.ABORT

    def test_policy_override(self):
        error = ReproError("x", code="internal-error", policy=RecoveryPolicy.ABORT)
        assert error.policy is RecoveryPolicy.ABORT

    def test_unknown_code_rejected_at_construction(self):
        with pytest.raises(KeyError):
            ReproError("x", code="made-up")

    def test_subclass_default_codes(self):
        assert BudgetExceeded("b").code == "budget-request-deadline"
        assert InjectedFault("i").code == "injected-fault"
        assert MissingPhiError("m").code == "missing-header-phi"

    def test_missing_phi_error_is_a_keyerror(self):
        # pre-taxonomy callers catch KeyError; the subclass keeps them working
        with pytest.raises(KeyError):
            raise MissingPhiError("no phi")
        assert issubclass(MissingPhiError, ReproError)


class TestWrapException:
    def test_repro_error_is_identity_and_fills_phase(self):
        error = ReproError("x")
        wrapped = wrap_exception(error, "classify.loop")
        assert wrapped is error
        assert wrapped.phase == "classify.loop"

    def test_existing_phase_is_kept(self):
        error = ReproError("x", phase="ssa.construct")
        assert wrap_exception(error, "classify.loop").phase == "ssa.construct"

    def test_generic_exception_becomes_internal_error(self):
        wrapped = wrap_exception(KeyError("k"), "classify.loop")
        assert wrapped.code == "internal-error"
        assert wrapped.policy is RecoveryPolicy.DEGRADE
        assert wrapped.phase == "classify.loop"
        assert "KeyError" in wrapped.message

    def test_frontend_error_aborts(self):
        from repro.frontend.lexer import FrontendError

        wrapped = wrap_exception(FrontendError("bad", 1, 2), "frontend")
        assert wrapped.code == "frontend-error"
        assert wrapped.policy is RecoveryPolicy.ABORT

    def test_sanitizer_error_aborts(self):
        from repro.diagnostics.sanitizer import SanitizerError

        wrapped = wrap_exception(
            SanitizerError("gvn", []), "pipeline.optimize"
        )
        assert wrapped.code == "sanitizer-violation"
        assert wrapped.policy is RecoveryPolicy.ABORT

    def test_messageless_exception_uses_type_name(self):
        wrapped = wrap_exception(ValueError(), "x")
        assert "ValueError" in wrapped.message

    def test_catalogue_registration_rejects_duplicates(self):
        from repro.resilience.errors import _register

        existing = next(iter(ERROR_CODES))
        with pytest.raises(ValueError, match="registered twice"):
            _register(existing, RecoveryPolicy.DEGRADE, "dup")
