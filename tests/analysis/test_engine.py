"""Engine behavior: pragmas, module paths, parse failures, findings."""

import pytest

from repro.analysis.engine import (
    DEFAULT_PACKAGE,
    FileContext,
    Project,
    parse_pragmas,
    run_rules,
)
from repro.analysis.findings import Finding
from repro.analysis.rules import select_rules


class TestPragmas:
    def test_single_rule(self):
        pragmas = parse_pragmas(["x = 1  # repro: allow DET001"])
        assert pragmas == {1: frozenset({"DET001"})}

    def test_comma_separated(self):
        pragmas = parse_pragmas(["# repro: allow DET001, TRC002"])
        assert pragmas[1] == frozenset({"DET001", "TRC002"})

    def test_non_pragma_comments_ignored(self):
        assert parse_pragmas(["# just a comment", "x = 1"]) == {}

    def test_allowed_checks_line_and_line_above(self):
        source = "\n".join([
            "# repro: allow DET001",
            "x = 1",
            "y = 2",
        ])
        ctx = FileContext(None, "m.py", source)
        assert ctx.allowed("DET001", 1)
        assert ctx.allowed("DET001", 2)
        assert not ctx.allowed("DET001", 3)
        assert not ctx.allowed("DET002", 2)

    def test_suppression_counts(self, check_fixture):
        findings, suppressed = check_fixture("pragmas", ["DET001"])
        # same_line and line_above are suppressed; the unsuppressed
        # call and the wrong-rule pragma still fire.
        assert suppressed == 2
        assert len(findings) == 2
        assert {f.source_line for f in findings} == {
            "return time.perf_counter()",
            "return time.time()  # repro: allow TRC001",
        }


class TestPragmaAnchors:
    def test_rule_hint_stamped_onto_findings(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n")
        project = Project(tmp_path)

        class HintedRule:
            rule_id = "DET001"
            hint = "use the sim clock"

            def check_file(self, context):
                yield context.finding("DET001", 1, "msg")

            def finish(self, project):
                return iter(())

        findings, _ = run_rules(project, [HintedRule()])
        assert findings[0].hint == "use the sim clock"


class TestModulePath:
    def test_strips_package_prefix(self, tmp_path):
        module = tmp_path / DEFAULT_PACKAGE / "core" / "x.py"
        module.parent.mkdir(parents=True)
        module.write_text("x = 1\n")
        project = Project(tmp_path)
        (ctx,) = project.contexts
        assert ctx.relpath == "src/repro/core/x.py"
        assert ctx.module_path == "core/x.py"

    def test_bare_tree_is_its_own_package(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n")
        project = Project(tmp_path)
        (ctx,) = project.contexts
        assert ctx.module_path == "m.py"


class TestParseFailures:
    def test_syntax_error_becomes_eng000_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        (tmp_path / "fine.py").write_text("x = 1\n")
        project = Project(tmp_path)
        findings, _ = run_rules(project, select_rules(None))
        assert [f.rule_id for f in findings] == ["ENG000"]
        assert findings[0].path == "broken.py"
        # The parseable file still made it into the run.
        assert len(project.contexts) == 1


class TestFinding:
    def test_render_form(self):
        finding = Finding("DET001", "m.py", 3, "no clocks")
        assert finding.render() == "m.py:3: DET001 error: no clocks"

    def test_hint_renders_but_is_not_identity(self):
        bare = Finding("DET001", "m.py", 3, "no clocks",
                       source_line="t = time.time()")
        hinted = Finding("DET001", "m.py", 3, "no clocks",
                         source_line="t = time.time()",
                         hint="use the sim clock")
        assert hinted == bare
        assert "hint: use the sim clock" in hinted.render()
        assert hinted.as_dict()["hint"] == "use the sim clock"

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            Finding("DET001", "m.py", 1, "msg", severity="fatal")
