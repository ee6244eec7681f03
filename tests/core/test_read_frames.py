"""What a vDSO read and a flush execute, pinned by frame count.

A vDSO reader checks the version word its domain publishes; it never
walks the kernel's objects to find it.  The frames one plain
``client.predict(row)`` enters - on the ``sync_hot`` stack: a vDSO
client of an admission-controlled service - are pinned here by
``sys.setprofile``, with its observed twin (Tracer + MetricsRegistry)
alongside, so a frame that creeps back onto the read fails by count,
not by time.  No frame named ``generation`` runs on any of them.  The
same holds for the write a flush delivers, on the ``sync_churn`` shape.
"""

import gc
import sys
from collections import Counter
from functools import partial

import pytest

from repro.core import AdmissionController, PSSConfig, ShardedService
from repro.obs import MetricsRegistry, Tracer

ROW = (1, 1)

#: Python frames per call, from the client's own frame down:
#: (plain, watched)
PINNED = {
    # client.predict, VdsoTransport.predict, charge_vdso_predict, the
    # handle's and the domain's record_cached_prediction,
    # TenantMeter.charge_predict and the stats' record_cached_prediction:
    # the row's tuple test and the probe's count are inline in the
    # transport, and the read's op breakdown is filed when the account
    # is read; watched adds none: its event is a tuple appended through
    # the tracer's bound ``emit``
    "hit": (7, 7),
    # the same transport frames, then predict_mapped, _admit_predict,
    # charge_predict, Domain.predict, the model's predict -> dot ->
    # _flat_indices -> gather and record_prediction; watched adds none:
    # the miss opens no span, and its event is appended through
    # ``emit`` once the read returns
    "miss": (12, 12),
    # client.update, VdsoTransport.update: one append; watched adds
    # none (the event's ``Tracer.record`` frame went)
    "update": (2, 2),
    # the update that fills a 32-record buffer: the two frames above,
    # then the flush's 15 (spanned wrapper and body, _ensure_open,
    # charge_op, charge_syscall, handle.update_batch wrapper and body,
    # _tracer, charge_updates, domain.update_batch, record_updates,
    # perceptron.update_batch, train_batch, two list comprehensions),
    # one gather per record (32) and adjust_at per training record
    # (14 of the 32 train): 2 + 15 + 32 + 14; watched adds the flush's
    # and kernel's spans and the events, appended through ``emit`` (the
    # buffered update's and the flush's ``Tracer.record`` frames went)
    "flush": (63, 83),
}


def frames(action):
    """The Python functions entered while ``action()`` runs, by name
    (``action`` is a ``partial``, so the first is the client's own).
    The cyclic collector is off meanwhile: a collection enters the
    callbacks other code registers (hypothesis keeps one), which are
    not the operation's frames."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def sync_hot_client(watched, **connect):
    observed = ({"tracer": Tracer(), "metrics": MetricsRegistry()}
                if watched else {})
    service = ShardedService(admission=AdmissionController(), **observed)
    client = service.connect("d", transport="vdso", batch_size=32,
                             config=PSSConfig(num_features=2), **connect)
    for i in range(40):
        client.update((i % 4, 1), True)
    client.flush()
    client.predict(ROW)                 # cached: the next read hits
    return service.domain("d"), client


def moved(domain):
    """Move a weight, so the next read misses."""
    before = domain.generation
    domain.update((2, 9), False)
    if domain.generation == before:
        domain.update((2, 9), True)
    assert domain.generation > before


@pytest.mark.parametrize("watched", [False, True],
                         ids=["plain", "watched"])
def test_what_a_read_executes(watched):
    domain, client = sync_hot_client(watched)
    account = client.latency
    hit = frames(partial(client.predict, ROW))
    assert account.cache_hits == 1
    moved(domain)
    miss = frames(partial(client.predict, ROW))
    assert account.cache_misses == 2
    update = frames(partial(client.update, ROW, True))
    assert client.pending_updates == 1
    counts = {"hit": hit, "miss": miss, "update": update}
    for op, calls in counts.items():
        assert sum(calls.values()) == PINNED[op][watched], (op, calls)
        assert "generation" not in calls, (op, calls)
        assert "_ensure_open" not in calls, (op, calls)


#: the ``sync_churn`` shape: 8 features, 1 024 cells per feature, a
#: 32-record buffer; rows alternate directions, one record in five
#: against its row's (what the margin rule keeps training on)
CHURN_CONFIG = PSSConfig(num_features=8, entries_per_feature=1024)
CHURN_ROWS = [tuple((7 * r + 3 * f) % 50 for f in range(8))
              for r in range(8)]
CHURN_RECORDS = [(CHURN_ROWS[k % 8], (k % 2 == 0) != (k % 5 == 0))
                 for k in range(32)]
#: records of CHURN_RECORDS that train, once the warm-up below has run
CHURN_TRAINED = 14


@pytest.mark.parametrize("watched", [False, True],
                         ids=["plain", "watched"])
def test_what_a_flush_executes(watched):
    observed = ({"tracer": Tracer(), "metrics": MetricsRegistry()}
                if watched else {})
    service = ShardedService(admission=AdmissionController(), **observed)
    client = service.connect("d", transport="vdso", batch_size=32,
                             config=CHURN_CONFIG)
    for features, direction in CHURN_RECORDS * 4 + CHURN_RECORDS[:-1]:
        client.update(features, direction)
    assert client.pending_updates == 31
    before = service.domain("d").generation
    flush = frames(partial(client.update, *CHURN_RECORDS[-1]))
    assert client.pending_updates == 0
    assert service.domain("d").generation - before == CHURN_TRAINED
    assert flush["gather"] == len(CHURN_RECORDS), flush
    assert flush["adjust_at"] == CHURN_TRAINED, flush
    assert sum(flush.values()) == PINNED["flush"][watched], flush
    assert "generation" not in flush, flush


def test_a_guarded_read_is_a_plain_read_in_its_span_wrapper():
    """A client connected with ``fallback=`` reads, while nothing has
    faulted, what a plain client reads inside its ``client.predict``
    span wrapper: the breaker, the retry loop and the row's
    canonicalisation wait for a fault."""
    domain, client = sync_hot_client(False, fallback=0)
    hit = frames(partial(client.predict, ROW))
    assert client.latency.cache_hits == 1
    moved(domain)
    miss = frames(partial(client.predict, ROW))
    assert client.stats.predictions == 3
    assert not client.last_prediction_was_fallback
    for op, calls in {"hit": hit, "miss": miss}.items():
        assert sum(calls.values()) == PINNED[op][False] + 1, (op, calls)
        for skipped in ("canonical_features", "allow", "_attempt",
                        "record_success"):
            assert skipped not in calls, (op, calls)
