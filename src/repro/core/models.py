"""The predictor model contract and registry (paper Section 3.2.1).

"Since the system interface is not tied to the implementation, the underlying
predictor model can be replaced easily."  Every model the service hosts
inherits :class:`PredictorModel`; the default is the hashed perceptron, and
:mod:`repro.models_extra` ships lighter alternatives and static baselines.

Models map directly onto the three service calls:

* ``predict(features) -> int`` - signed score; ``>= threshold`` is true.
* ``update(features, direction)`` - feedback; ``True`` rewards the last
  tendency for these features, ``False`` penalizes it.
* ``reset(features, all)`` - selective or total state wipe.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.config import PSSConfig
from repro.core.errors import FeatureError, ModelError

if TYPE_CHECKING:
    from repro.core.plans import PlanCompiler


class VersionWord:
    """A domain's weight generation, published as one word.

    The paper's vDSO reader checks a version word the kernel publishes
    in the mapped page; it never asks the kernel.  This is that word:
    every mutation of the model holding it bumps ``value`` in place,
    and a reader that bound the object once (a handle, a transport's
    score cache) loads ``value`` - one attribute, no call - to learn
    whether what it cached is still current.  It never decreases.
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"VersionWord({self.value})"


class PredictorModel:
    """What the kernel knows about every model it hosts, white-box: a
    model inherits this and writes ``predict``, ``to_state`` and the
    three mutations ``_update`` / ``_reset`` / ``_load_state``.

    The public ``update`` / ``reset`` / ``load_state`` apply one and
    bump :attr:`version`, the word a domain publishes so readers know
    when a cached score went stale; a mutation that raises was not
    applied and bumps nothing.  The batch calls are the scalar loop and
    :meth:`bind_plan` does nothing: a model that can do better (the
    hashed perceptron) overrides them, and one that tracks what
    *actually* changed overrides the public mutations and bumps the
    word itself.
    """

    config: PSSConfig

    @cached_property
    def version(self) -> VersionWord:
        """The word this model's mutations bump: its own, until a
        domain hands it the one its readers hold (:meth:`adopt`)."""
        return VersionWord()

    @property
    def generation(self) -> int:
        """:attr:`version`'s value: mutations applied so far."""
        return self.version.value

    def adopt(self, word: VersionWord) -> None:
        """Bump ``word`` from now on instead of the model's own."""
        self.version = word

    def predict(self, features: Sequence[int]) -> int:
        """Signed score for ``features``; magnitude conveys confidence."""
        raise NotImplementedError

    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """``predict`` for every row, in order."""
        return [self.predict(features) for features in feature_rows]

    def update(self, features: Sequence[int], direction: bool) -> None:
        """Apply feedback: ``True`` = reward, ``False`` = penalize."""
        self._update(features, direction)
        self.version.value += 1

    def update_batch(
        self, records: Sequence[tuple[Sequence[int], bool]]
    ) -> None:
        """``update`` for every ``(features, direction)`` record, in
        order.  A record that fails validation costs only itself: the
        others are applied, then the first :class:`FeatureError` is
        raised with the ``refused`` positions."""
        refused: list[int] = []
        first_error: FeatureError | None = None
        for position, (features, direction) in enumerate(records):
            try:
                self.update(features, direction)
            except FeatureError as error:
                if first_error is None:
                    first_error = error
                refused.append(position)
        if first_error is not None:
            first_error.refused = tuple(refused)
            raise first_error

    def reset(self, features: Sequence[int], reset_all: bool) -> None:
        """Clear either the entry for ``features`` or all state."""
        self._reset(features, reset_all)
        self.version.value += 1

    def to_state(self) -> dict[str, Any]:
        """Serializable snapshot for persistence."""
        raise NotImplementedError

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`to_state`."""
        self._load_state(state)
        self.version.value += 1

    def _update(self, features: Sequence[int], direction: bool) -> None:
        raise NotImplementedError

    def _reset(self, features: Sequence[int], reset_all: bool) -> None:
        raise NotImplementedError

    def _load_state(self, state: dict[str, Any]) -> None:
        raise NotImplementedError

    def _check_len(self, features: Sequence[int]) -> None:
        """Refuse a vector that is not ``config.num_features`` long."""
        if len(features) != self.config.num_features:
            raise FeatureError(
                f"expected {self.config.num_features} features, "
                f"got {len(features)}")

    def bind_plan(self, compiler: PlanCompiler) -> None:
        """Bind whatever the model compiles per shape through the
        kernel's shared ``compiler``; most models compile nothing."""

    def index_cache_stats(self) -> tuple[int, int]:
        """``(hits, misses)`` of the model's feature-index cache."""
        return 0, 0


ModelFactory = Callable[[PSSConfig], PredictorModel]


def _perceptron(config: PSSConfig) -> PredictorModel:
    # Imported here: the perceptron module builds on this contract.
    from repro.core.perceptron import HashedPerceptron

    return HashedPerceptron(config)


#: the default model is registered from the start; the rest of the
#: built-in set joins the first time a name is asked for that is not
#: registered yet (:func:`ensure_builtin_models`)
_MODEL_REGISTRY: dict[str, ModelFactory] = {"perceptron": _perceptron}


def register_model(name: str, factory: ModelFactory) -> None:
    """Register a model factory under ``name``.

    Raises:
        ModelError: if ``name`` is already registered, built-ins included.
    """
    if name not in _MODEL_REGISTRY:
        ensure_builtin_models()
    if name in _MODEL_REGISTRY:
        raise ModelError(f"model {name!r} is already registered")
    _MODEL_REGISTRY[name] = factory


def create_model(name: str, config: PSSConfig) -> PredictorModel:
    """Instantiate the registered model ``name`` with ``config``."""
    if name not in _MODEL_REGISTRY:
        ensure_builtin_models()
    try:
        factory = _MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_MODEL_REGISTRY))
        raise ModelError(
            f"unknown model {name!r}; registered models: {known}"
        ) from None
    return factory(config)


def registered_models() -> tuple[str, ...]:
    """Names of all registered models, sorted."""
    ensure_builtin_models()
    return tuple(sorted(_MODEL_REGISTRY))


def ensure_builtin_models() -> None:
    """Idempotently register the built-in model set."""
    # Imported here so the ablation models stay out of a process that
    # only ever asks for the perceptron.
    from repro.models_extra import alt_models

    builtin: dict[str, ModelFactory] = {
        "linear": alt_models.OnlineLinearModel,
        "naive-bayes": alt_models.NaiveBayesModel,
        "stumps": alt_models.DecisionStumpEnsemble,
        "always-true": alt_models.ConstantModel.always_true,
        "always-false": alt_models.ConstantModel.always_false,
        "majority": alt_models.MajorityModel,
    }
    for name, factory in builtin.items():
        if name not in _MODEL_REGISTRY:
            _MODEL_REGISTRY[name] = factory
