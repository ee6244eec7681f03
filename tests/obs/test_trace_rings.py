"""The tracer's bounded deque against the list ring it replaced.

:class:`~repro.obs.Tracer` keeps every record - events and ended spans
alike - as numbered tuples in one ``deque(maxlen=capacity)``, derives
``dropped``, ``span_dropped`` and the fallback timestamps of clockless
records from the record numbers, and lets a hot site append through its
bound ``emit``.  :class:`ListRing` is the earlier tracer, kept here:
a hand-rotated list, explicit drop counts and one sequence counter.  It
has the two changes the deque brought with it: ``clear()`` leaves open
spans on the stack and never hands out an id one of them holds, and
events and spans share the one ring, so a full ring overwrites its
oldest record of either kind.  A hypothesis test drives both through
the same random mixes of records, hot-site emits, nested spans and
clears, and compares what a reader can see after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, TraceEvent


class ListRing:
    """The list-ring tracer: ``record``, ``enter`` / ``exit`` of a
    span, ``clear`` and the readers, every field but ``kind`` and
    ``ts_ns`` (and a span's ids, start and status) left at its
    default."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.dropped = self.span_dropped = 0
        self.ring, self.head = [], 0
        self.stack, self.seq, self.next_id = [], 0, 1

    def _push(self, record):
        """Append, or overwrite the oldest record and count its loss."""
        if len(self.ring) < self.capacity:
            self.ring.append(record)
            return
        lost, self.ring[self.head] = self.ring[self.head], record
        self.head = (self.head + 1) % self.capacity
        if lost.status:
            self.span_dropped += 1
        else:
            self.dropped += 1

    def _parent(self):
        return self.stack[-1][0] if self.stack else 0

    def record(self, kind, ts_ns=None):
        self.seq += 1
        self._push(TraceEvent(
            float(self.seq) if ts_ns is None else ts_ns, kind, "", "",
            0.0, 0, None, "", self._parent()))

    def enter(self, name):
        self.seq += 1
        self.stack.append((self.next_id, self._parent(), name,
                           float(self.seq)))
        self.next_id += 1

    def exit(self):
        self.seq += 1
        span_id, parent_id, name, start = self.stack.pop()
        end = float(self.seq)
        self._push(TraceEvent(end, name, "", "", end - start, 0, None, "",
                              span_id, parent_id, start, "ok"))

    def clear(self):
        self.ring, self.head = [], 0
        self.dropped = self.span_dropped = 0
        self.next_id = self._parent() + 1

    def _held(self):
        return self.ring[self.head:] + self.ring[:self.head]

    def events(self):
        return [record for record in self._held() if not record.status]

    def spans(self):
        return [record for record in self._held() if record.status]


def emit(tracer, kind, ts_ns):
    """What a hot site does: one tuple through the bound ``emit``."""
    spans = tracer.span_stack
    tracer.emit((tracer.next_number(), ts_ns, kind, "", "", 0.0, 0, None,
                 "", spans[-1].span_id if spans else 0))


steps = st.lists(st.one_of(
    st.tuples(st.just("record"), st.sampled_from(["predict", "flush"]),
              st.one_of(st.none(), st.floats(0.0, 1e6))),
    st.tuples(st.just("emit"), st.sampled_from(["predict", "update"]),
              st.floats(0.0, 1e6)),
    st.tuples(st.just("open"), st.sampled_from(["a", "b"])),
    st.just(("close",)),
    st.just(("clear",)),
), max_size=40)


def readable(tracer):
    return {
        "events": tracer.events(),
        "dropped": tracer.dropped,
        "spans": tracer.spans(),
        "span_dropped": tracer.span_dropped,
    }


@given(program=steps, capacity=st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_deques_hold_what_the_list_rings_held(program, capacity):
    tracer, model = Tracer(capacity=capacity), ListRing(capacity)
    opened = []
    for step in program + [("close",)] * len(program):
        op = step[0]
        if op == "record":
            tracer.record(step[1], ts_ns=step[2])
            model.record(step[1], step[2])
        elif op == "emit":
            emit(tracer, step[1], step[2])
            model.record(step[1], step[2])
        elif op == "open":
            opened.append(tracer.span(step[1]))
            opened[-1].__enter__()
            model.enter(step[1])
        elif op == "close" and opened:
            opened.pop().__exit__(None, None, None)
            model.exit()
        elif op == "clear":
            tracer.clear()
            model.clear()
        assert readable(tracer) == readable(model)
        assert len(tracer) == len(model.events())
        assert ([span.span_id for span in tracer.open_spans()]
                == [entry[0] for entry in model.stack])
