"""A stand-in for :class:`repro.core.kernel.domain.DomainHandle`.

A transport wraps a handle and nothing else, so a test that must choose
the scores or make the service side fail substitutes this fake: the
handle's surface, answering ``score`` and recording every call it
receives.  A test about accounting uses a real ``service.handle(...)``.
"""

from repro.core.models import VersionWord


class FakeHandle:
    domain_name = "fake"

    def __init__(self, score=7):
        #: what every predict answers until a test changes it
        self.score = score
        #: raised by the next batch predict while set
        self.error = None
        self.version = VersionWord()
        #: ("predict", row), ("update", row, direction),
        #: ("reset", row, reset_all), in arrival order
        self.calls = []
        #: the scores accounted as score-cache hits
        self.cached = []

    @property
    def updates(self):
        """The update records delivered, in order."""
        return [call[1:] for call in self.calls if call[0] == "update"]

    def mutate(self, score):
        """What a weight write does: new scores, a new generation."""
        self.score = score
        self.version.value += 1

    def predict(self, features):
        self.calls.append(("predict", tuple(features)))
        return self.score

    predict_mapped = predict

    def predict_batch(self, rows):
        if self.error is not None:
            raise self.error
        return [self.predict(row) for row in rows]

    def record_cached_prediction(self, score):
        self.cached.append(score)

    def update(self, features, direction):
        self.calls.append(("update", tuple(features), direction))

    def update_batch(self, records):
        for features, direction in records:
            self.update(features, direction)

    def reset(self, features, reset_all):
        self.calls.append(("reset", tuple(features), reset_all))
