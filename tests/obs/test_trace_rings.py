"""The tracer's bounded deques against the list rings they replaced.

:class:`~repro.obs.Tracer` keeps events as numbered tuples in a
``deque(maxlen=capacity)``, derives ``dropped`` and the fallback
timestamps of clockless records from the event numbers, and lets a hot
site append through its bound ``emit``.  :class:`ListRing` is the
earlier tracer, kept here: hand-rotated lists, an explicit drop count
and one sequence counter.  Its ``clear()`` has the fix the deques
brought with them - open spans stay on the stack and their ids are
never handed out again - and is otherwise as it was.  A hypothesis test
drives both through the same random mixes of records, hot-site emits,
nested spans and clears, and compares what a reader can see after every
step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Span, Tracer, TraceEvent


class ListRing:
    """The list-ring tracer: ``record``, ``enter`` / ``exit`` of a
    span, ``clear`` and the readers, every field but ``kind`` and
    ``ts_ns`` left at its default."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.dropped = self.span_dropped = 0
        self.ring, self.head = [], 0
        self.done, self.span_head = [], 0
        self.stack, self.seq, self.next_id = [], 0, 1

    def _push(self, ring, head, item):
        """Append or overwrite the oldest; the new head and the drop."""
        if len(ring) < self.capacity:
            ring.append(item)
            return head, 0
        ring[head] = item
        return (head + 1) % self.capacity, 1

    def record(self, kind, ts_ns=None):
        self.seq += 1
        event = TraceEvent(
            float(self.seq) if ts_ns is None else ts_ns, kind, "", "",
            0.0, 0, None, "", self.stack[-1].span_id if self.stack else 0)
        self.head, lost = self._push(self.ring, self.head, event)
        self.dropped += lost

    def enter(self, name):
        self.seq += 1
        span = Span(self.next_id,
                    self.stack[-1].span_id if self.stack else 0, name,
                    start_ns=float(self.seq))
        self.next_id += 1
        self.stack.append(span)

    def exit(self):
        self.seq += 1
        span = self.stack.pop()
        span.end_ns, span.status = float(self.seq), "ok"
        self.span_head, lost = self._push(self.done, self.span_head, span)
        self.span_dropped += lost

    def clear(self):
        self.ring, self.head, self.dropped = [], 0, 0
        self.done, self.span_head, self.span_dropped = [], 0, 0
        self.next_id = self.stack[-1].span_id + 1 if self.stack else 1

    def events(self):
        return self.ring[self.head:] + self.ring[:self.head]

    def spans(self):
        return self.done[self.span_head:] + self.done[:self.span_head]


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
        "spans": [span.as_dict() for span in tracer.spans()],
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
                == [span.span_id for span in model.stack])
