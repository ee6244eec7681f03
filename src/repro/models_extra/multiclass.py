"""Multi-way choices on top of the binary service (extension).

The paper's proof of concept limits itself to "predictions along a
single dimension" and notes that richer decisions are future work; it
also observes that true/false can be "used iteratively to narrow in on
some balance point".  This module packages both patterns:

* :class:`MultiChoiceClient` - one-vs-rest: one domain per option, pick
  the highest-scoring option, train the chosen option's domain with the
  observed feedback (and optionally the runner-up negatively).
* :class:`BinarySearchTuner` - iterated binary predictions that walk a
  value up and down a bounded ladder, the pattern the JIT scenario uses,
  extracted for reuse.

Both are pure clients of the public service API - exactly the kind of
library the paper expects to grow on the user side of the interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import PSSConfig
from repro.core.errors import ConfigError
from repro.core.service import PredictionService


class MultiChoiceClient:
    """Choose among named options using one domain per option.

    >>> service = PredictionService()
    >>> chooser = MultiChoiceClient(service, "algo",
    ...                             options=("quick", "merge", "radix"),
    ...                             config=PSSConfig(num_features=1))
    >>> best = chooser.choose([1000])
    >>> chooser.feedback([1000], best, reward=True)
    """

    def __init__(self, service: PredictionService, prefix: str,
                 options: Sequence[str],
                 config: PSSConfig | None = None,
                 transport: str = "vdso",
                 batch_size: int = 8) -> None:
        if len(options) < 2:
            raise ConfigError("need at least two options to choose from")
        if len(set(options)) != len(options):
            raise ConfigError("options must be unique")
        self.options = tuple(options)
        self._clients = {
            option: service.connect(
                f"{prefix}/{option}", config=config,
                transport=transport, batch_size=batch_size,
            )
            for option in self.options
        }

    def scores(self, features: Sequence[int]) -> dict[str, int]:
        """Per-option scores (confidence ordering)."""
        return {
            option: client.predict(features)
            for option, client in self._clients.items()
        }

    def choose(self, features: Sequence[int]) -> str:
        """The option with the highest score; declaration order breaks
        ties so cold starts are deterministic."""
        scores = self.scores(features)
        return max(self.options, key=lambda option: scores[option])

    def feedback(self, features: Sequence[int], chosen: str,
                 reward: bool) -> None:
        """Train the chosen option's domain with the observed outcome."""
        if chosen not in self._clients:
            raise ConfigError(f"unknown option {chosen!r}")
        self._clients[chosen].update(features, reward)

    def flush(self) -> None:
        for client in self._clients.values():
            client.flush()


@dataclass
class BinarySearchTuner:
    """Walk an integer setting up/down using binary predictions.

    ``predict true`` means "raise the value"; feedback states whether the
    last move helped.  This is the ladder pattern of the JIT scenario in
    reusable form, with bounds and step control.

    The domain's ``config.num_features`` must equal one (for the current
    value, always prepended) plus the number of caller features passed
    to :meth:`propose`.
    """

    service: PredictionService
    domain: str
    lo: int
    hi: int
    value: int
    step: int = 1
    config: PSSConfig | None = None

    def __post_init__(self) -> None:
        if not self.lo <= self.value <= self.hi:
            raise ConfigError("value must start within [lo, hi]")
        if self.step < 1:
            raise ConfigError("step must be positive")
        self._client = self.service.connect(
            self.domain, config=self.config, batch_size=1,
        )
        self._last_features: list[int] | None = None
        self._last_up: bool | None = None

    def propose(self, features: Sequence[int] = ()) -> int:
        """Move one step in the predicted direction; returns the value.

        The current value is prepended to the caller's features so the
        predictor can learn position-dependent directions ("go up when
        low, down when high") instead of a single global bias.
        """
        full = [self.value, *features]
        go_up = self._client.predict_bool(full)
        if go_up:
            self.value = min(self.hi, self.value + self.step)
        else:
            self.value = max(self.lo, self.value - self.step)
        self._last_features = full
        self._last_up = go_up
        return self.value

    def feedback(self, improved: bool) -> None:
        """Report whether the last proposed move helped."""
        if self._last_features is None:
            return
        self._client.update(
            self._last_features,
            direction=improved == self._last_up,
        )
