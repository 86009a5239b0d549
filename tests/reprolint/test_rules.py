"""Static rule catalog: every rule fires on its trigger fixtures and
stays quiet on the near-misses."""

from __future__ import annotations

import pytest

import lint_fixtures as fixtures

from tools.reprolint import RULES, Severity, lint_callable


def _codes(fn, role):
    return {f.code for f in lint_callable(fn, role)}


class TestCatalog:
    def test_every_static_rule_has_trigger_and_near_miss(self):
        static_rules = {c for c in RULES if c in fixtures.TRIGGERS}
        assert static_rules == set(fixtures.TRIGGERS)
        assert set(fixtures.NEAR_MISSES) == set(fixtures.TRIGGERS)

    def test_rule_metadata(self):
        for code, rule in RULES.items():
            assert rule.code == code
            assert code.startswith("RPR")
            assert rule.hint
            assert isinstance(rule.severity, Severity)

    def test_severity_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert Severity.parse("error") is Severity.ERROR
        with pytest.raises(ValueError, match="severity must be one of"):
            Severity.parse("fatal")


@pytest.mark.parametrize(
    "code,fn,role",
    [(code, fn, role)
     for code, cases in fixtures.TRIGGERS.items()
     for fn, role in cases],
    ids=lambda v: getattr(v, "__qualname__", str(v)),
)
def test_trigger_fires(code, fn, role):
    assert code in _codes(fn, role), (
        f"{code} should fire on {fn.__qualname__} in role {role}")


@pytest.mark.parametrize(
    "code,fn,role",
    [(code, fn, role)
     for code, cases in fixtures.NEAR_MISSES.items()
     for fn, role in cases],
    ids=lambda v: getattr(v, "__qualname__", str(v)),
)
def test_near_miss_stays_clean(code, fn, role):
    assert code not in _codes(fn, role), (
        f"{code} must not fire on near-miss {fn.__qualname__}")


class TestRoleScoping:
    def test_combiner_rules_skip_reduce_role(self):
        # A subtracting fold is only an algebra problem for combiners;
        # a reduce sees the complete value list exactly once.
        assert "RPR021" in _codes(fixtures.subtracting_combine, "combine")
        assert "RPR021" not in _codes(fixtures.subtracting_combine, "reduce")

    def test_values_mutation_skips_map_role(self):
        assert "RPR012" in _codes(fixtures.sorting_reduce, "reduce")
        assert "RPR012" not in _codes(fixtures.sorting_reduce, "map")

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="role must be one of"):
            lint_callable(fixtures.clock_map, "mapper")

    def test_findings_carry_location_and_hint(self):
        findings = lint_callable(fixtures.clock_map, "map")
        assert findings
        f = findings[0]
        assert f.filename.endswith("fixtures.py")
        assert f.line > 0
        assert "clock_map" in f.function
        assert f.hint == RULES[f.code].hint
        assert str(f.line) in f.format()

    def test_finding_as_dict_shape(self):
        f = lint_callable(fixtures.clock_map, "map")[0]
        d = f.as_dict()
        assert set(d) == {"code", "severity", "message", "function",
                         "file", "line", "hint"}
        assert d["severity"] == "error"
