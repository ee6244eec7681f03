"""The span wrapper: one body per operation, the traced twin derived.

Unit coverage for :func:`repro.obs.spanned.spanned` plus the properties
the instrumented stack relies on: wrapped operations keep their call
shape, a span opens exactly once per call (and only when its opener
says so), and no hand-written ``_x``/``_x_impl`` twin grows back.
"""

import inspect
import re
from pathlib import Path

import pytest

import repro.core
from repro.core import PredictionService, PSSConfig, ResilienceConfig
from repro.core.client import PSSClient
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.transport import Transport, VdsoTransport
from repro.obs import NULL_TRACER, Tracer
from repro.obs.spanned import named, spanned

CONFIG = PSSConfig(num_features=2)
ROW = (3, 5)


class Host:
    """Minimal spanned host: one operation, openers that record."""

    def __init__(self, tracer=NULL_TRACER):
        self._tracer = tracer
        self.opened = []

    def _op_span(self, value, scale=2):
        self.opened.append((value, scale))
        if value == "quiet":
            return None
        return self._tracer.span("host.op", detail={"value": value})

    @spanned(_op_span)
    def op(self, value, scale=2):
        """Scale a value."""
        if value == "boom":
            raise KeyError(value)
        return value * scale


def span_names(tracer):
    return [span.kind for span in tracer.spans()]


class TestWrapper:
    def test_keeps_name_doc_parameters_and_defaults(self):
        assert Host.op.__name__ == "op"
        assert Host.op.__qualname__ == "Host.op"
        assert Host.op.__doc__ == "Scale a value."
        assert str(inspect.signature(Host.op)) == "(self, value, scale=2)"
        host = Host()
        assert host.op(3) == 6
        assert host.op(3, 5) == 15
        assert host.op(value=3, scale=4) == 12

    def test_untraced_call_never_asks_for_a_span(self):
        host = Host()
        host.op(1)
        assert host.opened == []

    def test_traced_call_runs_inside_the_opened_span(self):
        tracer = Tracer()
        host = Host(tracer)
        assert host.op(2, scale=3) == 6
        assert host.opened == [(2, 3)]
        (span,) = tracer.spans()
        assert (span.kind, span.status, span.detail) == (
            "host.op", "ok", {"value": 2})

    def test_opener_may_decline(self):
        tracer = Tracer()
        host = Host(tracer)
        assert host.op("quiet") == "quietquiet"
        assert host.opened == [("quiet", 2)]
        assert tracer.spans() == []

    def test_raising_body_closes_its_span_with_the_error(self):
        tracer = Tracer()
        host = Host(tracer)
        with pytest.raises(KeyError):
            host.op("boom")
        (span,) = tracer.spans()
        assert span.status == "error:KeyError"
        assert tracer.open_spans() == []

    def test_is_a_class_level_method_an_instance_can_shadow(self):
        # perf/spans.py times layers by setting an instance attribute
        # over the method and restoring the class's own with delattr.
        host = Host()
        host.op = lambda value: "shadowed"
        assert host.op(1) == "shadowed"
        del host.op
        assert host.op(1) == 2

    def test_subclass_overrides_by_public_name(self):
        class Louder(Host):
            @spanned(Host._op_span)
            def op(self, value, scale=2):
                return value * scale * 10

        tracer = Tracer()
        assert Louder(tracer).op(1) == 20
        assert span_names(tracer) == ["host.op"]

    def test_named_opener_goes_through_the_hosts_span_method(self):
        class Batcher(Host):
            def _span(self, name, detail=None):
                return self._tracer.span(name, detail=detail)

            @spanned(named(_span, "host.one"))
            def one(self, value):
                return value

            @spanned(named(_span, "host.many", "rows"))
            def many(self, values, scale=1):
                return [value * scale for value in values]

        tracer = Tracer()
        host = Batcher(tracer)
        assert host.one(4) == 4
        assert host.many([1, 2, 3], scale=2) == [2, 4, 6]
        assert host.many([]) == []      # an empty batch opens no span
        assert [(span.kind, span.detail) for span in tracer.spans()] == [
            ("host.one", None), ("host.many", {"rows": 3})]

    @pytest.mark.parametrize("body", [
        lambda self, *rows: None,
        lambda self, **options: None,
        lambda self, *, flag=False: None,
        lambda: None,
        lambda self, _body: None,
    ])
    def test_rejects_bodies_it_cannot_forward_by_name(self, body):
        with pytest.raises(TypeError):
            spanned(Host._op_span)(body)


class TestInstrumentedStack:
    def test_client_operations_keep_their_call_shape(self):
        assert str(inspect.signature(PSSClient._reset_ladder)) == \
            "(self, features: 'Sequence[int]', reset_all: 'bool', " \
            "error: 'PSSError | None' = None) -> 'None'"
        for name in ("predict", "predict_batch", "update", "reset",
                     "flush"):
            ladder = getattr(PSSClient, f"_{name}_ladder")
            assert ladder.__name__ == f"_{name}_ladder"
            assert ladder.__qualname__ == f"PSSClient._{name}_ladder"
            assert getattr(PSSClient, name).__doc__
        assert Transport.reset.__doc__.startswith("Resets always cross")

    @pytest.mark.parametrize("resilient", [False, True])
    def test_reset_accepts_its_keyword(self, resilient):
        service = PredictionService()
        client = service.connect(
            "d", config=CONFIG,
            resilience=ResilienceConfig() if resilient else None)
        client.update(ROW, True)
        client.reset(ROW, reset_all=True)
        assert service.domain("d").stats.resets == 1

    def test_resilient_predict_opens_exactly_one_client_span(self):
        tracer = Tracer()
        service = PredictionService(tracer=tracer)
        client = service.connect("d", config=CONFIG, transport="syscall")
        client.predict(ROW)
        # steady: the crossing roots the call
        assert span_names(tracer) == ["kernel.predict", "syscall.predict"]
        client.attach_fault_injector(FaultInjector(
            FaultPlan(seed=0, syscall_failure_rate=1.0)))
        tracer.clear()
        client.predict(ROW)
        # the refused crossing comes first; the ladder's one span roots
        # the two retried crossings, the retries and the fallback
        root, = [s for s in tracer.spans() if s.kind == "client.predict"]
        assert [s.parent_id for s in tracer.spans()
                if s.kind == "syscall.predict"] == [0] + [root.span_id] * 2
        assert [e.kind for e in tracer.events() if e.span_id == root.span_id
                ] == ["retry", "retry", "fallback"]

    def test_vdso_flush_spans_only_a_buffered_batch(self):
        tracer = Tracer()
        service = PredictionService(tracer=tracer)
        transport = VdsoTransport(service.handle("d", config=CONFIG))
        transport.attach_observability(tracer=tracer)
        transport.flush()
        assert span_names(tracer) == []
        transport.update(ROW, True)
        tracer.clear()
        transport.flush()
        assert span_names(tracer) == ["kernel.update_batch", "vdso.flush"]
        assert [span.detail for span in tracer.spans()] == [
            {"records": 1}] * 2


def test_no_hand_written_traced_twin_under_core():
    """Every request-path operation has one body: a ``_x_impl`` or
    ``_x_traced`` method is the hand fork :func:`spanned` replaced."""
    twin = re.compile(r"def (_\w+_(?:impl|traced))\b")
    found = [
        f"{path.name}:{match.group(1)}"
        for path in Path(repro.core.__file__).parent.rglob("*.py")
        for match in twin.finditer(path.read_text())
    ]
    assert found == []
