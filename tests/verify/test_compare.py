"""Structural comparator: modes, paths, first-mismatch reporting."""

import numpy as np
import pytest

from repro.verify.compare import diff_structures


class TestAgreement:
    def test_identical_nested_structure(self):
        value = {
            "cores": [
                {"arrivals": np.arange(5.0), "label": "a"},
                {"arrivals": np.empty(0), "label": "b"},
            ],
            "count": 3,
        }
        assert diff_structures(value, value) is None

    def test_nan_equals_nan_in_bit_mode(self):
        a = np.array([1.0, np.nan, 3.0])
        assert diff_structures(a, a.copy(), mode="bit") is None
        assert diff_structures(float("nan"), float("nan"), mode="bit") is None

    def test_int_float_cross_type_numbers_agree(self):
        assert diff_structures(2, 2.0, mode="bit") is None
        assert diff_structures(np.float64(1.5), 1.5, mode="bit") is None

    def test_allclose_tolerates_small_drift(self):
        a = np.linspace(0.0, 1.0, 10)
        b = a + 1e-12
        assert diff_structures(a, b, mode="bit") is not None
        assert diff_structures(a, b, mode="allclose", rtol=1e-9, atol=1e-9) is None


class TestDivergence:
    def test_array_mismatch_reports_path_and_element(self):
        a = {"cores": [{"arrivals": np.array([1.0, 2.0, 3.0])}]}
        b = {"cores": [{"arrivals": np.array([1.0, 2.5, 3.0])}]}
        message = diff_structures(a, b)
        assert "$.cores[0].arrivals" in message
        assert "element 1" in message
        assert "1 of 3" in message

    def test_shape_and_dtype_kind_mismatches(self):
        assert "shapes differ" in diff_structures(np.zeros(3), np.zeros(4))
        assert "dtype kinds differ" in diff_structures(
            np.zeros(3), np.zeros(3, dtype=np.int64)
        )

    def test_dict_key_mismatch(self):
        message = diff_structures({"a": 1}, {"b": 1})
        assert "only in reference: ['a']" in message
        assert "only in optimized: ['b']" in message

    def test_length_and_scalar_mismatches(self):
        assert "lengths differ" in diff_structures([1], [1, 2])
        assert "values differ" in diff_structures("x", "y")
        assert "numbers differ" in diff_structures(1.0, 2.0)

    @pytest.mark.parametrize(
        "a, b",
        [
            (2**53, 2**53 + 1),
            ({"s": 2**64 + 1}, {"s": 2**64}),
            (np.uint64(2**63), np.uint64(2**63 + 1)),
        ],
        ids=["int-past-2**53", "dict-int-past-2**64", "uint64-near-2**63"],
    )
    def test_large_integers_compare_exactly_in_bit_mode(self, a, b):
        assert "numbers differ" in diff_structures(a, b, mode="bit")

    def test_type_mismatch(self):
        assert "types differ" in diff_structures("1", 1)
        assert "types differ" in diff_structures(np.zeros(2), [0.0, 0.0])

    def test_unsupported_leaf(self):
        message = diff_structures(object(), object())
        assert "unsupported leaf" in message

    @pytest.mark.parametrize("mode", ["bit", "allclose"])
    def test_first_divergence_only(self, mode):
        a = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
        b = [np.array([1.0]), np.array([9.0]), np.array([8.0])]
        message = diff_structures(a, b, mode=mode)
        assert "$[1]" in message and "$[2]" not in message


class TestSignOfZero:
    """Bit mode compares float sign bits, so ``0.0`` and ``-0.0`` differ."""

    def test_array_elements(self):
        message = diff_structures(np.array([1.0, 0.0]), np.array([1.0, -0.0]), mode="bit")
        assert "element 1" in message and "-0.0" in message

    @pytest.mark.parametrize(
        "a, b",
        [(0.0, -0.0), (-0.0, 0.0), (np.float64(0.0), -0.0), ([0.0], [-0.0])],
        ids=["float", "float-reversed", "numpy-scalar", "in-a-list"],
    )
    def test_scalars(self, a, b):
        assert "numbers differ" in diff_structures(a, b, mode="bit")

    def test_complex_parts(self):
        a = np.array([complex(1.0, 0.0)])
        assert diff_structures(a, np.array([complex(1.0, -0.0)]), mode="bit") is not None
        assert diff_structures(a, a.copy(), mode="bit") is None

    def test_same_signed_zeros_agree(self):
        zeros = np.array([0.0, -0.0])
        assert diff_structures(zeros, zeros.copy(), mode="bit") is None
        assert diff_structures(-0.0, np.float64(-0.0), mode="bit") is None

    def test_nan_of_either_sign_equals_nan(self):
        assert diff_structures(np.array([np.nan]), np.array([-np.nan]), mode="bit") is None
        assert diff_structures(float("nan"), -float("nan"), mode="bit") is None

    def test_allclose_ignores_the_sign_of_zero(self):
        assert diff_structures(np.array([0.0]), np.array([-0.0]), mode="allclose") is None
        assert diff_structures(0.0, -0.0, mode="allclose") is None
