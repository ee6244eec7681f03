"""The span wrapper: an operation is written once, its traced twin derived.

Every instrumented operation used to be spelled twice - a public
method holding ``if tracer.enabled: with span: impl() else: impl()``
and a hidden ``_x_impl`` holding the work.  :func:`spanned` is that
fork, written once: decorate the body with a function that opens its
span and the public method *is* the body, run inside the span whenever
the host's tracer is enabled.

The wrapper is generated from the body's signature, one ``def`` per
decorated method with the same explicit parameters, rather than being
one generic ``def wrapper(*args, **kwargs)``.  That is a measured
choice (docs/OBSERVABILITY.md, "What watching costs"): packing and
re-spreading the arguments costs about 200 ns per wrapped layer on
CPython 3.11, more than 10 % of a 3.2 us score-cache hit that crosses
two wrapped layers, while the explicit-arity form runs within noise of
the hand-written fork - with tracing off a call pays one ``enabled``
check and one extra frame, exactly what the ``_x``/``_x_impl`` pair
paid.  It is the technique :mod:`repro.core.plans` uses for ``select``.
"""

from __future__ import annotations

import inspect
from functools import update_wrapper
from typing import Any, Callable, NamedTuple, Optional, TypeVar, cast

from repro.obs.trace import SpanHandleLike

F = TypeVar("F", bound=Callable[..., Any])

#: opens the span for one call of the operation it decorates: called
#: with the operation's own arguments (``self`` first), only while the
#: tracer is enabled; returning None leaves this one call unspanned
SpanOpener = Callable[..., Optional[SpanHandleLike]]


class named(NamedTuple):
    """The common opener: the host already has one method that builds
    its spans, ``method(host, name, detail)``, and the operation only
    supplies the ``name`` (``rows`` stamps the size of its first
    argument on the span).  A tuple rather than a closure so that
    :func:`spanned` can write the call into the wrapper: a traced
    operation then reaches ``method`` directly, as the hand-written
    fork did."""

    method: Callable[..., SpanHandleLike]
    name: str
    rows: bool = False


_TEMPLATE = """\
def {name}({params}):
    if {host}.{tracer}.enabled:
        _span = _open({opening})
        if _span is not None:
            with _span:
                return _body({params})
    return _body({params})
"""

_RESERVED = frozenset({"_open", "_body", "_span", "len"})


def spanned(open_span: SpanOpener | named,
            tracer: str = "_tracer") -> Callable[[F], F]:
    """Method decorator: run the body inside ``open_span(...)``'s span
    whenever ``self.<tracer>`` is enabled.

    ``tracer`` is what follows ``self.`` to reach the host's
    :data:`~repro.obs.trace.TracerLike`: an attribute name, or a call
    such as ``"_tracer()"`` where the tracer is looked up per call (a
    method, unlike a property, is inlined by CPython 3.11).  The result
    is a plain function with the body's name, docstring, parameter
    names and defaults, so it is an ordinary class-level method:
    subclasses override it by name and an instance attribute can shadow
    it.  A body that raises closes its span with ``error:<Type>`` - the
    span is its own context manager.

    Bodies take plain positional-or-keyword parameters only: a
    ``*args`` body would bring back the forwarding cost this wrapper
    exists to avoid.
    """

    def decorate(body: F) -> F:
        parameters = list(inspect.signature(body).parameters.values())
        names = [parameter.name for parameter in parameters]
        if not parameters or _RESERVED.intersection(names) or any(
                parameter.kind is not parameter.POSITIONAL_OR_KEYWORD
                for parameter in parameters):
            raise TypeError(
                f"spanned() wraps methods with plain named parameters "
                f"(none called {sorted(_RESERVED)}); "
                f"{body.__qualname__}{inspect.signature(body)} is not one"
            )
        params = opening = ", ".join(names)
        opener = open_span
        if isinstance(open_span, named):
            opener = open_span.method
            detail = f'{{"rows": len({names[1]})}}' if open_span.rows else None
            opening = f"{names[0]}, {open_span.name!r}, {detail}"
        source = _TEMPLATE.format(
            name=body.__name__, params=params, opening=opening,
            host=names[0], tracer=tracer)
        namespace: dict[str, Any] = {"_open": opener, "_body": body}
        exec(compile(source, f"<spanned {body.__qualname__}>", "exec"),
             namespace)
        wrapper = namespace[body.__name__]
        wrapper.__defaults__ = body.__defaults__
        return cast(F, update_wrapper(wrapper, body))

    return decorate
