"""Tests for feature preprocessing: rounding, ratios, history registers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.features import (
    FeatureVector,
    HistoryRegister,
    reciprocal_ratio,
    round_to_msf,
    rounded_vector,
)


class TestRoundToMsf:
    def test_paper_examples(self):
        # Straight from Section 4.3 of the paper.
        assert round_to_msf(1234) == 1000
        assert round_to_msf(6276) == 6000
        assert round_to_msf(1999) == 2000

    def test_small_values_unchanged(self):
        for v in range(10):
            assert round_to_msf(v) == v

    def test_zero(self):
        assert round_to_msf(0) == 0

    def test_negative_symmetric(self):
        assert round_to_msf(-1234) == -1000
        assert round_to_msf(-1999) == -2000

    def test_two_figures(self):
        assert round_to_msf(1234, figures=2) == 1200
        assert round_to_msf(1999, figures=2) == 2000

    def test_rejects_bad_figures(self):
        with pytest.raises(ValueError):
            round_to_msf(10, figures=0)

    @given(st.integers(-10**9, 10**9))
    def test_idempotent(self, value):
        once = round_to_msf(value)
        assert round_to_msf(once) == once

    @given(st.integers(-10**9, 10**9))
    def test_within_half_order_of_magnitude(self, value):
        rounded = round_to_msf(value)
        assert abs(rounded - value) <= max(1, abs(value))
        # Sign is preserved.
        if value != 0:
            assert (rounded > 0) == (value > 0) or rounded == 0

    @given(st.integers(1, 10**9))
    def test_coarsening_reduces_cardinality(self, value):
        # Rounded values have at most 1 significant digit.
        rounded = round_to_msf(value)
        text = str(rounded).rstrip("0")
        assert len(text) <= 1 or rounded == value


class TestReciprocalRatio:
    def test_paper_floor_semantics(self):
        # floor(nr_scanned / nr_reclaimed): 100 scanned, 8 reclaimed -> 12
        assert reciprocal_ratio(100, 8) == 12

    def test_zero_denominator_saturates(self):
        assert reciprocal_ratio(100, 0) == 1_000_000

    def test_saturation_cap(self):
        assert reciprocal_ratio(10**9, 1, saturate_at=1000) == 1000

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            reciprocal_ratio(-1, 2)
        with pytest.raises(ValueError):
            reciprocal_ratio(1, -2)

    @given(st.integers(0, 10**6), st.integers(1, 10**6))
    def test_equals_floor_division(self, num, den):
        assert reciprocal_ratio(num, den) == min(num // den, 1_000_000)


class TestHistoryRegister:
    def test_push_shifts_left(self):
        h = HistoryRegister(bits=4)
        h.push(True)
        h.push(False)
        h.push(True)
        assert h.value == 0b101

    def test_window_drops_old_bits(self):
        h = HistoryRegister(bits=2)
        h.push(True)
        h.push(True)
        h.push(False)
        assert h.value == 0b10

    def test_success_count(self):
        h = HistoryRegister(bits=8)
        for outcome in [True, False, True, True]:
            h.push(outcome)
        assert h.success_count() == 3

    def test_clear(self):
        h = HistoryRegister(bits=8, initial=0xFF)
        h.clear()
        assert h.value == 0

    def test_initial_masked(self):
        h = HistoryRegister(bits=4, initial=0xFF)
        assert h.value == 0xF

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            HistoryRegister(bits=0)

    @given(st.lists(st.booleans(), max_size=100),
           st.integers(min_value=1, max_value=32))
    def test_value_always_fits_in_bits(self, outcomes, bits):
        h = HistoryRegister(bits=bits)
        for outcome in outcomes:
            h.push(outcome)
        assert 0 <= h.value < 2**bits

    @given(st.lists(st.booleans(), min_size=8, max_size=8))
    def test_value_encodes_exact_window(self, outcomes):
        h = HistoryRegister(bits=8)
        for outcome in outcomes:
            h.push(outcome)
        expected = 0
        for outcome in outcomes:
            expected = (expected << 1) | int(outcome)
        assert h.value == expected


class TestFeatureVector:
    def test_builder_combines_kinds(self):
        vec = (FeatureVector()
               .raw(0b1011)
               .rounded(1234)
               .ratio(100, 8)
               .build())
        assert vec == [0b1011, 1000, 12]

    def test_extend_rounded(self):
        vec = FeatureVector().extend_rounded([1234, 6276]).build()
        assert vec == [1000, 6000]

    def test_len(self):
        fv = FeatureVector().raw(1).raw(2)
        assert len(fv) == 2

    def test_build_returns_copy(self):
        fv = FeatureVector().raw(1)
        first = fv.build()
        first.append(99)
        assert fv.build() == [1]


class TestRoundedVector:
    def test_applies_to_all(self):
        assert rounded_vector([1234, 6276, 1999]) == [1000, 6000, 2000]

    def test_empty(self):
        assert rounded_vector([]) == []


class TestCategoricalEmbedding:
    """Paper Section 3.2.2: categorical parameters via projection."""

    def test_deterministic_and_distinct(self):
        from repro.core.features import embed_category
        assert embed_category("GET") == embed_category("GET")
        assert embed_category("GET") != embed_category("POST")

    def test_non_string_values_accepted(self):
        from repro.core.features import embed_category
        assert embed_category(("a", 1)) == embed_category(("a", 1))

    def test_bucket_range(self):
        from repro.core.features import embed_category
        for value in ("x", "y", 123, None):
            assert 0 <= embed_category(value, buckets=97) < 97

    def test_rejects_tiny_bucket_count(self):
        import pytest
        from repro.core.features import embed_category
        with pytest.raises(ValueError):
            embed_category("x", buckets=1)

    def test_hierarchy_one_feature_per_level(self):
        from repro.core.features import embed_hierarchy
        features = embed_hierarchy("api", "v2", "users")
        assert len(features) == 3

    def test_hierarchy_shares_prefixes(self):
        from repro.core.features import embed_hierarchy
        a = embed_hierarchy("api", "v2", "users")
        b = embed_hierarchy("api", "v2", "orders")
        assert a[0] == b[0] and a[1] == b[1] and a[2] != b[2]

    def test_embedded_categories_are_learnable(self):
        from repro.core import PredictionService, PSSConfig
        from repro.core.features import embed_category
        service = PredictionService()
        service.create_domain("routes", config=PSSConfig(num_features=1))
        for _ in range(20):
            service.handle("routes").update([embed_category("GET")], True)
            service.handle("routes").update([embed_category("POST")], False)
        assert service.handle("routes").predict([embed_category("GET")]) > 0
        assert service.handle("routes").predict([embed_category("POST")]) < 0
