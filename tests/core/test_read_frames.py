"""What a vDSO read and a flush execute, pinned by frame count.

A vDSO reader checks the version word its domain publishes; it never
walks the kernel's objects to find it.  The frames one plain
``client.predict(row)`` enters - on the ``sync_hot`` stack: a vDSO
client of an admission-controlled service - are pinned here by
``sys.setprofile``, with its observed twin (Tracer + MetricsRegistry)
alongside, so a frame that creeps back onto the read fails by count,
not by time.  No frame named ``generation`` runs on any of them.  The
same holds for the write a flush delivers, on the ``sync_churn`` shape,
and for a cold block's ``predict_batch`` on the ``batch_cold`` shape,
with the degrade ladder configured or not (none of its frames runs).
"""

import gc
import sys
from collections import Counter
from functools import partial

import pytest

from repro.core import (
    AdmissionController,
    PSSConfig,
    ResilienceConfig,
    ShardedService,
)
from repro.obs import MetricsRegistry, Tracer

try:
    import numpy
except ImportError:     # the package does not require it
    numpy = None

ROW = (1, 1)

#: Python frames per call, from the client's own frame down:
#: (plain, watched)
PINNED = {
    # client.predict, VdsoTransport.predict, the handle's and the
    # domain's record_cached_prediction, TenantMeter.charge_predict and
    # the stats' record_cached_prediction: the row's tuple test, the
    # read's two counts and the probe's count are inline in the
    # transport, and its op breakdown is count x cost when the account
    # is read; watched adds none: its event is a tuple appended through
    # the tracer's bound ``emit``
    "hit": (6, 6),
    # the same transport frames, then predict_mapped, _admit_predict,
    # charge_predict, Domain.predict, the model's predict -> dot ->
    # _flat_indices -> gather and record_prediction; watched adds none:
    # the miss opens no span, and its event is appended through
    # ``emit`` once the read returns
    "miss": (11, 11),
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
    # and kernel's spans (the kernel's opened by its span wrapper, with
    # no opener of its own) and the events, appended through ``emit``
    # (the buffered update's and the flush's ``Tracer.record`` frames
    # went)
    "flush": (63, 82),
}


#: a client as ``connect`` builds it, and with its ladder configured
CONNECTS = ({}, {"fallback": 1, "resilience": ResilienceConfig()})
#: the breaker, the retry loop, canonicalisation and the ladder bodies
LADDER = {"allow", "_attempt", "record_success", "canonical_features",
          "_ladder", "_predict_ladder", "_predict_batch_ladder",
          "_update_ladder", "_reset_ladder", "_flush_ladder"}


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
    for connect in CONNECTS:
        domain, client = sync_hot_client(watched, **connect)
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
            assert not {"generation", "_ensure_open", *LADDER} & set(calls), (
                op, calls)


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
    for connect in CONNECTS:
        observed = ({"tracer": Tracer(), "metrics": MetricsRegistry()}
                    if watched else {})
        service = ShardedService(admission=AdmissionController(),
                                 **observed)
        client = service.connect("d", transport="vdso", batch_size=32,
                                 config=CHURN_CONFIG, **connect)
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
        assert not {"generation", *LADDER} & set(flush), flush


def test_a_guarded_read_is_a_plain_read_in_its_span_wrapper():
    """A callable ``fallback=`` waits for a fault: a steady read runs
    no span wrapper and no ladder frame, the fallback's included."""
    domain, client = sync_hot_client(False, fallback=lambda features: 1)
    hit = frames(partial(client.predict, ROW))
    moved(domain)
    miss = frames(partial(client.predict, ROW))
    assert (client.latency.cache_hits, client.latency.cache_misses,
            client.stats.fallback_predictions) == (1, 2, 0)
    for op, calls in {"hit": hit, "miss": miss}.items():
        assert sum(calls.values()) == PINNED[op][False], (op, calls)
        assert not {"<lambda>", *LADDER} & set(calls), (op, calls)


#: Python frames a cold block's ``client.predict_batch`` enters with the
#: vector engine live, whatever its row count: client.predict_batch,
#: the transport's spanned wrapper and body, _ensure_open, the rows'
#: tuple test (one list comprehension), _charge_crossing,
#: charge_syscall, charge_op; the handle's wrapper and body, its two
#: _tracer reads, _admit_predict, charge_predict; the domain's wrapper,
#: body and _tracer, the model's predict_batch, dot_batch,
#: _resolve_block, plan, score_select_rows, _rows_as_u64, _admit_block,
#: record_predictions and its list comprehension.  No frame runs per
#: row: a block's distinct rows, its validation, its uint64 matrix,
#: its index tuples, its scores and its evictions are C-level passes.
COLD_BLOCK = 26


def cold_rows(first, count):
    """Rows ``first`` .. ``first + count - 1`` of a never-repeating
    sequence (an odd multiplier is a bijection mod 2**32)."""
    return [tuple((n * 2654435761 + 97 * f) & 0xFFFFFFFF
                  for f in range(8)) for n in range(first, first + count)]


def test_what_a_cold_block_executes():
    """The ``batch_cold`` shape: a syscall client, 8 features x 1 024
    cells, blocks of rows the index cache has never seen."""
    for connect in CONNECTS:
        service = ShardedService(admission=AdmissionController())
        client = service.connect("d", transport="syscall",
                                 config=CHURN_CONFIG, **connect)
        client.predict_batch(cold_rows(0, 256))     # warm: plan, numpy
        weights = service.domain("d").model.weights
        counted = []
        for first, rows in ((256, 64), (320, 256)):
            before = weights.index_cache_misses
            counted.append(frames(partial(client.predict_batch,
                                          cold_rows(first, rows))))
            assert weights.index_cache_misses - before == rows
        for calls in counted:
            # a valid block is validated in one pass, canonicalised inline
            assert not {"_check_features", *LADDER} & set(calls), calls
        if numpy is not None:
            assert [sum(calls.values()) for calls in counted] == \
                [COLD_BLOCK, COLD_BLOCK], counted
