"""The ``python -m repro check`` gate, end to end.

The two load-bearing properties: the shipped tree is clean (exit 0),
and a seeded violation in a copy of the tree fails it (exit 1).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.analysis.cli import main

from .conftest import REPO_ROOT


def seeded_tree(tmp_path, violation="\nimport time\n"
                                    "_BOOT = time.time()\n"):
    """A copy of the real package with one violation appended."""
    shutil.copytree(REPO_ROOT / "src", tmp_path / "src")
    target = tmp_path / "src" / "repro" / "core" / "config.py"
    target.write_text(target.read_text() + violation)
    return tmp_path


class TestShippedTree:
    def test_clean(self, capsys):
        assert main(["--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("0 findings")

    def test_clean_under_baseline(self):
        assert main(["--root", str(REPO_ROOT), "--baseline"]) == 0

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "check", "--format", "json"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["findings"] == []
        assert report["checked_files"] > 50


class TestSeededViolation:
    def test_fails_with_located_finding(self, tmp_path, capsys):
        root = seeded_tree(tmp_path)
        assert main(["--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "core/config.py" in out
        assert "DET001 error" in out

    def test_json_report(self, tmp_path, capsys):
        root = seeded_tree(tmp_path)
        assert main(["--root", str(root), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        (finding,) = report["findings"]
        assert finding["rule"] == "DET001"
        assert finding["source_line"] == "_BOOT = time.time()"

    def test_output_artifact_written(self, tmp_path, capsys):
        root = seeded_tree(tmp_path)
        artifact = tmp_path / "findings.json"
        assert main(["--root", str(root),
                     "--output", str(artifact)]) == 1
        capsys.readouterr()
        report = json.loads(artifact.read_text())
        assert len(report["findings"]) == 1

    def test_write_baseline_grandfathers(self, tmp_path, capsys):
        root = seeded_tree(tmp_path)
        assert main(["--root", str(root), "--write-baseline"]) == 0
        # Grandfathered: the same violation no longer fails...
        assert main(["--root", str(root), "--baseline"]) == 0
        # ...but without --baseline it still does,
        assert main(["--root", str(root)]) == 1
        # and a *new* violation fails even under the baseline.
        extra = root / "src" / "repro" / "core" / "errors.py"
        extra.write_text(extra.read_text() + "\nimport random\n")
        capsys.readouterr()
        assert main(["--root", str(root), "--baseline"]) == 1
        out = capsys.readouterr().out
        assert "DET002" in out
        assert "1 baselined" in out

    def test_corrupt_baseline_is_exit_2(self, tmp_path, capsys):
        root = seeded_tree(tmp_path)
        assert main(["--root", str(root), "--write-baseline"]) == 0
        baseline = root / "analysis-baseline.json"
        payload = json.loads(baseline.read_text())
        payload["findings"] = []
        baseline.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["--root", str(root), "--baseline"]) == 2


def git(root, *args):
    return subprocess.run(
        ["git", "-C", str(root), "-c", "user.email=t@t",
         "-c", "user.name=t", *args],
        capture_output=True, text=True, check=True,
    )


class TestChanged:
    def test_scopes_per_file_rules_to_diffed_files(self, tmp_path,
                                                   capsys):
        (tmp_path / "stale.py").write_text(
            "import time\nA = time.time()\n")
        (tmp_path / "fresh.py").write_text("B = 1\n")
        git(tmp_path, "init", "-q")
        git(tmp_path, "add", ".")
        git(tmp_path, "commit", "-qm", "seed")
        # Only fresh.py changes; stale.py's violation predates the
        # diff and stays out of the fast pre-push loop.
        (tmp_path / "fresh.py").write_text(
            "import time\nB = time.time()\n")
        assert main(["--root", str(tmp_path), "--changed",
                     "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["changed_files"] == 1
        assert [f["path"] for f in report["findings"]] == ["fresh.py"]
        # The full (unscoped) run still sees both.
        capsys.readouterr()
        assert main(["--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "stale.py" in out and "fresh.py" in out

    def test_cross_file_finish_pass_still_runs(self, tmp_path,
                                               capsys):
        shutil.copytree(REPO_ROOT / "tests" / "analysis" / "fixtures"
                        / "rac001", tmp_path / "tree")
        root = tmp_path / "tree"
        git(root, "init", "-q")
        git(root, "add", ".")
        git(root, "commit", "-qm", "seed")
        # Empty diff: the per-file pass covers nothing, but the
        # interprocedural finish pass still audits the whole tree.
        assert main(["--root", str(root), "--changed",
                     "--rules", "RAC001", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["changed_files"] == 0
        assert len(report["findings"]) == 3

    def test_state_accumulating_rules_see_unchanged_files(
            self, tmp_path, capsys):
        """TRC002 collects emission sites in check_file and reports in
        finish; scoping must filter findings, not starve that state
        (else every kind looks dead the moment the diff is small)."""
        shutil.copytree(REPO_ROOT / "src", tmp_path / "src")
        git(tmp_path, "init", "-q")
        git(tmp_path, "add", ".")
        git(tmp_path, "commit", "-qm", "seed")
        readme = tmp_path / "README.md"
        readme.write_text("touched\n")
        git(tmp_path, "add", ".")
        assert main(["--root", str(tmp_path), "--changed",
                     "--rules", "TRC002"]) == 0
        capsys.readouterr()

    def test_without_git_is_exit_2(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path), "--changed"]) == 2
        assert "git" in capsys.readouterr().err


class TestSarif:
    def test_sarif_stdout_validates(self, tmp_path, capsys):
        from repro.analysis.sarif import (
            FINGERPRINT_KEY,
            validate_sarif,
        )
        root = seeded_tree(tmp_path)
        assert main(["--root", str(root), "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        validate_sarif(payload)
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check"
        (result,) = run["results"]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] \
            == "src/repro/core/config.py"
        assert location["region"]["startLine"] >= 1
        assert FINGERPRINT_KEY in result["partialFingerprints"]
        # Every registered rule lands in the driver table.
        ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "RAC001" in ids and ids == sorted(ids)

    def test_sarif_out_artifact_next_to_json(self, tmp_path, capsys):
        from repro.analysis.sarif import validate_sarif
        root = seeded_tree(tmp_path)
        json_artifact = tmp_path / "findings.json"
        sarif_artifact = tmp_path / "findings.sarif"
        assert main(["--root", str(root),
                     "--output", str(json_artifact),
                     "--sarif-out", str(sarif_artifact)]) == 1
        capsys.readouterr()
        validate_sarif(json.loads(sarif_artifact.read_text()))
        assert json.loads(json_artifact.read_text())["findings"]

    def test_clean_tree_sarif_has_no_results(self, capsys):
        from repro.analysis.sarif import validate_sarif
        assert main(["--root", str(REPO_ROOT),
                     "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_sarif(payload)
        assert payload["runs"][0]["results"] == []

    def test_validator_rejects_malformed(self):
        from repro.analysis.sarif import validate_sarif
        with pytest.raises(ValueError):
            validate_sarif({"version": "2.1.0", "runs": []})
        with pytest.raises(ValueError):
            validate_sarif({"version": "1.0.0", "runs": [{}]})


class TestUsage:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("CTR001", "DET001", "DET002", "EXC001",
                        "TRC001", "TRC002"):
            assert rule_id in out

    def test_unknown_rule_is_exit_2(self, capsys):
        assert main(["--rules", "NOPE99"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_bad_flag_is_exit_2(self, capsys):
        assert main(["--no-such-flag"]) == 2
        capsys.readouterr()

    def test_missing_root_is_exit_2(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path / "absent")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_rule_subset_runs(self, capsys):
        assert main(["--root", str(REPO_ROOT),
                     "--rules", "DET001,DET002"]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_shipped_tree_reports_files_checked(fmt, capsys):
    assert main(["--root", str(REPO_ROOT), "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)["checked_files"] > 50
    else:
        assert "files" in out
