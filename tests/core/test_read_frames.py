"""What a vDSO read executes, pinned by frame count.

A vDSO reader checks the version word its domain publishes; it never
walks the kernel's objects to find it.  The frames one plain
``client.predict(row)`` enters - on the ``sync_hot`` stack: a vDSO
client of an admission-controlled service - are pinned here by
``sys.setprofile``, with its observed twin (Tracer + MetricsRegistry)
alongside, so a frame that creeps back onto the read fails by count,
not by time.  No frame named ``generation`` runs on any of them.
"""

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
    # client.predict, canonical_features, VdsoTransport.predict,
    # charge_vdso_predict, record_cache_hit, the handle's and the
    # domain's record_cached_prediction, TenantMeter.charge_predict,
    # PredictionStats.record_cached_prediction; watched adds the
    # event's Tracer.record
    "hit": (9, 10),
    # the same transport frames with record_cache_miss, then
    # predict_mapped, _admit_predict, charge_predict, Domain.predict,
    # the model's predict -> score -> dot -> _flat_indices and
    # record_prediction; watched adds _traced_read, its span (span,
    # __enter__, __exit__, the account's clock) and the event
    "miss": (14, 20),
    # client.update, VdsoTransport.update: one append; watched adds
    # the event
    "update": (2, 3),
}


def frames(action):
    """The Python functions entered while ``action()`` runs, by name
    (``action`` is a ``partial``, so the first is the client's own)."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


def sync_hot_client(watched):
    observed = ({"tracer": Tracer(), "metrics": MetricsRegistry()}
                if watched else {})
    service = ShardedService(admission=AdmissionController(), **observed)
    client = service.connect("d", transport="vdso", batch_size=32,
                             config=PSSConfig(num_features=2))
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
