"""docs/ROBUSTNESS.md must catalogue every error code and fault point.

Mirror of ``tests/obs/test_docs.py`` / ``tests/diagnostics/test_docs.py``:
the doc and the Python catalogues (``ERROR_CODES``, ``FAULT_POINTS``) are
checked in both directions so neither can drift from the other.
"""

import os
import re

import pytest

from repro.resilience.errors import ERROR_CODES, error_code_info
from repro.resilience.faultinject import FAULT_POINTS

DOCS = os.path.join(
    os.path.dirname(__file__), "..", "..", "docs", "ROBUSTNESS.md"
)

SECTIONS = {
    "Error-code catalogue": set(ERROR_CODES),
    "Fault-point catalogue": set(FAULT_POINTS),
}


def read_docs():
    with open(DOCS) as handle:
        return handle.read()


def section_text(heading):
    text = read_docs()
    match = re.search(
        rf"^###? {re.escape(heading)}$(.*?)(?=^##)",
        text,
        re.MULTILINE | re.DOTALL,
    )
    assert match, f"docs/ROBUSTNESS.md lacks a {heading!r} section"
    return match.group(1)


def documented_names(heading):
    """Backticked names from the section's bullet labels (before the dash)."""
    names = []
    for line in section_text(heading).splitlines():
        if not line.startswith("- `"):
            continue
        label = line.split(" — ")[0]
        names.extend(re.findall(r"`([^`]+)`", label))
    return names


@pytest.mark.parametrize("heading", sorted(SECTIONS))
def test_every_catalogued_name_is_documented(heading):
    documented = set(documented_names(heading))
    missing = SECTIONS[heading] - documented
    assert not missing, f"{heading}: missing from docs: {sorted(missing)}"


@pytest.mark.parametrize("heading", sorted(SECTIONS))
def test_no_undocumented_names(heading):
    documented = documented_names(heading)
    unknown = [name for name in documented if name not in SECTIONS[heading]]
    assert not unknown, f"{heading}: docs mention unknown names: {unknown}"
    assert len(documented) == len(set(documented)), f"{heading}: duplicates"


def test_documented_policies_match_the_registry():
    """Each error-code bullet states its policy as ``(degrade|abort)``."""
    for line in section_text("Error-code catalogue").splitlines():
        match = re.match(r"- `([^`]+)` — \((degrade|abort)\)", line)
        if not match and line.startswith("- `"):
            pytest.fail(f"bullet lacks a policy annotation: {line!r}")
        if match:
            code, policy = match.groups()
            assert error_code_info(code).policy.value == policy, code


def test_res_diag_codes_are_cross_referenced():
    text = read_docs()
    for code in ("RES501", "RES502", "RES503", "RES505"):
        assert code in text, f"{code} not mentioned in docs/ROBUSTNESS.md"


def test_linked_from_readme_and_api_reference():
    root = os.path.join(os.path.dirname(__file__), "..", "..")
    with open(os.path.join(root, "README.md")) as handle:
        assert "docs/ROBUSTNESS.md" in handle.read()
    with open(os.path.join(root, "docs", "API.md")) as handle:
        assert "ROBUSTNESS.md" in handle.read()
    # the related catalogues link back
    with open(os.path.join(root, "docs", "DIAGNOSTICS.md")) as handle:
        assert "ROBUSTNESS.md" in handle.read()
    with open(os.path.join(root, "docs", "OBSERVABILITY.md")) as handle:
        assert "ROBUSTNESS.md" in handle.read()
