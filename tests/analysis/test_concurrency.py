"""Process discovery and the RAC001/RAC002/RAC003 race rules."""

import json

from repro.analysis.concurrency import (
    SANCTIONED_OWNERS,
    ProcessModel,
)
from repro.analysis.engine import Project, run_rules
from repro.analysis.rules import select_rules

from .conftest import FIXTURES, REPO_ROOT


def check(tree, rule_ids):
    project = Project(FIXTURES / tree)
    return run_rules(project, select_rules(rule_ids))


class TestProcessDiscovery:
    def test_real_tree_entries(self):
        model = ProcessModel.for_project(Project(REPO_ROOT))
        assert sorted(model.entries) == [
            "bench/loadgen.py::LoadGenerator._arrivals",
            "bench/loadgen.py::LoadGenerator._client",
            "core/serving/dispatch.py::Dispatcher._run",
            "core/serving/pipeline.py::ServingPipeline._monitor",
        ]

    def test_fixture_entries_are_generators_only(self):
        model = ProcessModel.for_project(
            Project(FIXTURES / "rac001"))
        assert all(entry.fn.is_generator
                   for entry in model.sorted_entries())
        # start()/reset_stats are spawn *sites* or sync paths, never
        # entries themselves.
        assert not any(entry.fn.name in ("start", "reset_stats")
                       for entry in model.sorted_entries())

    def test_spawning_a_process_is_not_calling_its_body(self, tmp_path):
        """A process that starts another (the pipeline growing a lane
        from inside a load process) reaches the spawn site, not the
        spawned body: that runs in the process it becomes."""
        module = tmp_path / "core" / "serving" / "lanes.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "class Worker:\n"
            "    def start(self):\n"
            "        spawn(self.engine, self._run(), name='worker')\n"
            "    def _run(self):\n"
            "        while True:\n"
            "            yield 10\n"
            "            self.request.future.complete(None)\n"
            "class Feeder:\n"
            "    def __init__(self, worker: 'Worker'):\n"
            "        self.worker = worker\n"
            "    def start(self):\n"
            "        spawn(self.engine, self._feed(), name='feeder')\n"
            "    def _feed(self):\n"
            "        yield 1\n"
            "        self.worker.start()\n")
        project = Project(tmp_path)
        model = ProcessModel.for_project(project)
        feeder = model.entries["core/serving/lanes.py::Feeder._feed"]
        reach = model.full_reach(feeder)
        assert "core/serving/lanes.py::Worker.start" in reach
        assert "core/serving/lanes.py::Worker._run" not in reach
        findings, _ = run_rules(project, select_rules(["RAC003"]))
        assert findings == []

    def test_non_serving_modules_not_scanned(self):
        # The htm/mm sim processes live outside core/serving/ and
        # bench/: by design they are not serving processes.
        model = ProcessModel.for_project(Project(REPO_ROOT))
        assert all(
            entry.spawn_module.startswith(("core/serving/", "bench/"))
            for entry in model.sorted_entries())


class TestRac001:
    def test_two_process_writes_flagged_at_both_sites(self):
        findings, _ = check("rac001", ["RAC001"])
        served = [f for f in findings if "served" in f.message]
        assert len(served) == 2
        assert {f.line for f in served} == {23, 40}
        assert all(f.rule_id == "RAC001" and f.severity == "error"
                   for f in served)
        joined = " ".join(f.message for f in served)
        assert "PredictWorker._run" in joined
        assert "UpdateWorker._run" in joined

    def test_process_plus_sync_write_flagged(self):
        findings, _ = check("rac001", ["RAC001"])
        (dropped,) = [f for f in findings if "dropped" in f.message]
        assert "DropWorker._run" in dropped.message
        assert "synchronous path" in dropped.message
        assert "reset_stats" in dropped.message

    def test_sanctioned_owner_and_private_state_clean(self):
        findings, _ = check("rac001", ["RAC001"])
        # QueueFeeder funnels through RequestQueue.push (sanctioned);
        # PredictWorker.local_count has one writer.
        joined = " ".join(f.message for f in findings)
        assert "RequestQueue" not in joined
        assert "local_count" not in joined
        assert len(findings) == 3

    def test_hint_names_owning_components(self):
        findings, _ = check("rac001", ["RAC001"])
        assert all("sanctioned owner" in f.hint for f in findings)

    def test_real_tree_clean(self):
        findings, suppressed = run_rules(
            Project(REPO_ROOT), select_rules(["RAC001"]))
        assert findings == []
        # bench/loadgen.py kept the tree's only two pragmas until its
        # counters became the pipeline's; none is left.
        assert suppressed == 0


class TestRac002:
    def test_check_yield_act_flagged(self):
        findings, _ = check("rac002", ["RAC002"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule_id == "RAC002"
        assert "BadAdmitter._admit_loop" in finding.message
        assert "self.queue.depth" in finding.message
        assert "yield" in finding.message
        # Anchored at the stale act, not the check.
        assert "append" in finding.source_line

    def test_reread_and_atomic_variants_clean(self):
        findings, _ = check("rac002", ["RAC002"])
        joined = " ".join(f.message for f in findings)
        assert "GoodAdmitter" not in joined
        assert "AtomicAdmitter" not in joined

    def test_real_tree_clean(self):
        findings, _ = run_rules(Project(REPO_ROOT),
                                select_rules(["RAC002"]))
        assert findings == []


class TestRac003:
    def test_settle_site_shared_by_two_processes_flagged(self):
        findings, _ = check("rac003", ["RAC003"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule_id == "RAC003"
        assert "DoubleSettler._finish" in finding.message
        assert "_worker" in finding.message
        assert "_reaper" in finding.message
        assert "request.future.complete" in finding.message

    def test_creator_owned_and_single_process_clean(self):
        findings, _ = check("rac003", ["RAC003"])
        joined = " ".join(f.message for f in findings)
        assert "LocalSettler" not in joined
        assert "SingleSettler" not in joined

    def test_real_tree_clean(self):
        findings, _ = run_rules(Project(REPO_ROOT),
                                select_rules(["RAC003"]))
        assert findings == []


class TestInterproceduralQue001:
    def test_kernel_entry_via_helper_caught(self):
        findings, _ = check("que001", ["QUE001"])
        indirect = [f for f in findings
                    if f.path.endswith("bench/indirect.py")]
        assert len(indirect) == 1
        (finding,) = indirect
        assert "score_helper" in finding.message
        assert "IndirectWorker._run" in finding.message
        assert "->" in finding.message  # the call path is named
        assert "predict_batch" in finding.source_line

    def test_helper_def_and_decorators_are_pragma_anchors(self):
        findings, suppressed = check("rac_pragmas", ["QUE001"])
        # decorator-line, def-line, and multi-line-first-line pragmas
        # suppress; the closing-line pragma misses the anchor.
        assert suppressed == 3
        assert len(findings) == 1
        assert "helper_multiline_last_line" in findings[0].message

    def test_multiline_call_anchors_to_first_line(self):
        findings, _ = check("rac_pragmas", ["QUE001"])
        (finding,) = findings
        # The call spans three lines; the finding pins the first.
        assert finding.source_line.startswith(
            "return service.predict_batch(")


class TestFingerprintPins:
    def test_pinned_fingerprints_match(self):
        """The CI smoke step asserts these exact fingerprints; keep
        the pin honest from the test suite too."""
        pins = json.loads(
            (FIXTURES / "rac-fingerprints.json").read_text())
        for tree, spec in pins.items():
            findings, _ = check(tree, [spec["rule"]])
            got = sorted(f"{f.fingerprint():08x}" for f in findings)
            assert got == spec["fingerprints"], tree


class TestOwnershipModel:
    def test_sanctioned_owners_exist_in_real_tree(self):
        """Every sanctioned owner the rules trust must be a real class
        (a stale name would silently stop mediating anything)."""
        from repro.analysis.callgraph import ProgramIndex
        index = ProgramIndex.for_project(Project(REPO_ROOT))
        for owner in SANCTIONED_OWNERS:
            assert index.resolve_class(owner) is not None, owner
