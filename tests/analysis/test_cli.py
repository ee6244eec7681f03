"""The ``python -m repro check`` gate, end to end.

The two load-bearing properties: the shipped tree is clean (exit 0),
and a seeded violation in a copy of the tree fails it (exit 1).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from repro.analysis.cli import main
from repro.analysis.rules import RULE_CLASSES

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


class TestUsage:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == [
            "CTR001", "DET001", "DET002", "EXC001", "OBS001", "PLN001",
            "QUE001", "REP001", "TRC001", "TRC002"]

    def test_the_catalogue_documents_every_rule_and_no_other(self):
        """docs/INVARIANTS.md has a ``### <ID>`` heading per shipped
        rule, and a heading per rule only."""
        catalogue = (REPO_ROOT / "docs" / "INVARIANTS.md").read_text()
        documented = re.findall(r"^### ([A-Z]{3}\d{3}) ", catalogue,
                                flags=re.MULTILINE)
        assert sorted(documented) == sorted(
            cls.rule_id for cls in RULE_CLASSES)

    def test_unknown_rule_is_exit_2(self, capsys):
        assert main(["--rules", "NOPE99"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_bad_flag_is_exit_2(self, capsys):
        for flags in (["--no-such-flag"], ["--baseline"], ["--changed"],
                      ["--write-baseline"], ["--sarif-out", "x.sarif"],
                      ["--format", "sarif"]):
            assert main(flags) == 2
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
