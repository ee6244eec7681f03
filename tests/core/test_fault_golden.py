"""A faulted run, pinned whole: what injection does, not only what it returns.

Each transport runs one seeded client under one fault plan - syscall
failures, stale reads, dropped and partial flushes - through scalar and
batch reads, updates, flushes and resets, with the degrade ladder's
retries, breaker and fallbacks absorbing what fails.  Mid-run the
injector is detached, the client runs healed, then a second injector
is attached and a third replaces it; the run ends with ``close()``.
Observability is attached after the first injector and before the
others.  The golden holds everything the run leaves: every returned
score, the full event stream (kind, transport, ``dur_ns``, detail and
order), the spans, the latency account, each injector's
:class:`~repro.core.faults.FaultStats`, the client's
:class:`~repro.core.stats.ResilienceStats` and the domain's stats.

So a change that moves where a die rolls - before the crossing it
fails is charged or traced, after an update is counted - fails here
even when every score is still right.  Regenerate the file only for a
change that is *meant* to move a faulted run, and say so in CHANGES.md::

    PYTHONPATH=src python -m tests.core.test_fault_golden --write
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core import PredictionService, PSSConfig
from repro.core.config import ResilienceConfig
from repro.core.faults import FaultInjector, FaultPlan
from repro.obs import Tracer

GOLDEN = Path(__file__).parent / "golden" / "fault_run.json"

CONFIG = PSSConfig(num_features=2)
ROWS = [(i, (3 * i + 1) % 7) for i in range(6)]
RESILIENCE = ResilienceConfig(max_attempts=2, breaker_threshold=2,
                              breaker_cooldown=2)
#: the run's plan: every transport-level fault
PLAN = FaultPlan(seed=5, syscall_failure_rate=0.45, stale_read_rate=0.35,
                 flush_drop_rate=0.2, partial_flush_rate=0.3)
#: what is attached after the healed stretch, then what replaces it:
#: crossings and flushes fail, reads are the plain cached ones
SECOND = FaultPlan(seed=9, syscall_failure_rate=0.25, flush_drop_rate=0.2,
                   partial_flush_rate=0.25)
THIRD = FaultPlan(seed=11, syscall_failure_rate=0.4, flush_drop_rate=0.3,
                  partial_flush_rate=0.3)


def drive(client, start, steps):
    """``steps`` calls from a fixed schedule; what each returned."""
    out = []
    for i in range(start, start + steps):
        row = ROWS[i % len(ROWS)]
        op = i % 8
        if op in (0, 1, 2):
            out.append(client.predict(row))
        elif op == 3:
            out.append(client.predict_batch(
                [row, ROWS[(i + 1) % len(ROWS)], row, ROWS[(i * 5) % 6]]))
        elif op in (4, 5):
            out.append(client.update(row, i % 3 != 0))
        elif i % 3 == 0:
            out.append(client.reset(row, i % 6 == 0))
        else:
            out.append(client.flush())
    return out


def spans(tracer):
    return [{"id": span.span_id, "parent": span.parent_id,
             "name": span.kind, "transport": span.transport,
             "start_ns": span.start_ns, "end_ns": span.ts_ns,
             "status": span.status, "detail": span.detail}
            for span in tracer.spans()]


def faulted_run(kind):
    """The whole record of one transport's faulted run, as JSON data."""
    tracer = Tracer()
    service = PredictionService()
    client = service.connect("golden", config=CONFIG, transport=kind,
                             batch_size=4, resilience=RESILIENCE,
                             fallback=-1)
    injectors = [FaultInjector(plan) for plan in (PLAN, SECOND, THIRD)]
    client.attach_fault_injector(injectors[0])
    client.attach_observability(tracer=tracer)
    results = {"first": drive(client, 0, 80)}
    client.attach_fault_injector(None)
    results["healed"] = drive(client, 80, 16)
    client.attach_fault_injector(injectors[1])
    results["second"] = drive(client, 96, 40)
    client.attach_fault_injector(injectors[2])
    results["third"] = drive(client, 136, 40)
    client.close()
    record = {
        "results": results,
        "events": [event.as_dict() for event in tracer.events()],
        "spans": spans(tracer),
        "account": client.latency.snapshot(),
        "faults": [asdict(injector.stats) for injector in injectors],
        "resilience": asdict(client.stats),
        "domain": asdict(service.domain("golden").stats),
        "scores": [service.handle("golden").predict(row) for row in ROWS],
    }
    return json.loads(json.dumps(record))


def golden_text():
    """The golden file: one line per result, event and span."""
    lines = ["{"]
    for kind in ("syscall", "vdso"):
        run = faulted_run(kind)
        lines.append(f" {json.dumps(kind)}: {{")
        for part, value in run.items():
            items = value.items() if isinstance(value, dict) else value
            if part in ("results", "events", "spans"):
                inner = [f"  {json.dumps(item)}," if part != "results"
                         else f"  {json.dumps(item[0])}: "
                              f"{json.dumps(item[1])},"
                         for item in items]
                inner[-1] = inner[-1][:-1]
                opening, closing = ("{", "}") if part == "results" \
                    else ("[", "]")
                lines += [f"  {json.dumps(part)}: {opening}", *inner,
                          f"  {closing},"]
            else:
                lines.append(f"  {json.dumps(part)}: {json.dumps(value)},")
        lines[-1] = lines[-1][:-1]
        lines.append(" },")
    lines[-1] = " }"
    return "\n".join(lines + ["}", ""])


@pytest.mark.parametrize("kind", ["syscall", "vdso"])
def test_faulted_run_matches_committed_golden(kind):
    golden = json.loads(GOLDEN.read_text())[kind]
    run = faulted_run(kind)
    for part in golden:
        assert run[part] == golden[part], part
    assert run == golden


def test_the_run_reaches_every_fault():
    """The schedule is not vacuous: each transport's run injects what
    it can and the ladder absorbs it, so the golden pins real faults."""
    golden = json.loads(GOLDEN.read_text())
    for kind, run in golden.items():
        first = run["faults"][0]
        kinds = {event["kind"] for event in run["events"]}
        assert first["syscall_faults"] > 0, kind
        assert {"fault", "fault_injected", "retry", "fallback",
                "breaker_open"} <= kinds, kind
        assert run["resilience"]["dropped_updates"] > 0, kind
        assert run["resilience"]["dropped_resets"] > 0, kind
    vdso = golden["vdso"]
    assert vdso["faults"][0]["stale_reads"] > 0
    assert "stale_read" in {event["kind"] for event in vdso["events"]}
    assert all(stats["syscall_faults"] for stats in vdso["faults"])
    assert vdso["faults"][0]["dropped_flushes"] > 0
    assert sum(stats["partial_flushes"] for stats in vdso["faults"]) > 1


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.core.test_fault_golden --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text())
    print(f"wrote {GOLDEN}")
