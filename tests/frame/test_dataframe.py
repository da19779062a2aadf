"""DataFrame: construction, selection, conversion, concat."""

import numpy as np
import pytest

from repro.frame import DataFrame, concat


@pytest.fixture
def df():
    return DataFrame({"a": np.array([1, 2, 3]), "b": np.array([1.5, 2.5, 3.5])})


class TestConstruction:
    def test_shape_and_columns(self, df):
        assert df.shape == (3, 2)
        assert df.columns == ["a", "b"]
        assert len(df) == 3

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            DataFrame({"a": np.ones(3), "b": np.ones(4)})

    def test_2d_column_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            DataFrame({"a": np.ones((2, 2))})

    def test_from_matrix(self):
        m = np.arange(6).reshape(3, 2)
        df = DataFrame.from_matrix(m, names=["x", "y"])
        assert df.columns == ["x", "y"]
        assert np.array_equal(df["y"], [1, 3, 5])

    def test_from_arrays_default_names(self):
        df = DataFrame.from_arrays([np.ones(2), np.zeros(2)])
        assert df.columns == [0, 1]

    def test_empty_frame(self):
        df = DataFrame()
        assert df.shape == (0, 0)


class TestSelection:
    def test_column_access(self, df):
        assert np.array_equal(df["a"], [1, 2, 3])

    def test_missing_column_keyerror(self, df):
        with pytest.raises(KeyError, match="not found"):
            df["zzz"]

    def test_multi_column_subframe(self, df):
        sub = df[["b"]]
        assert isinstance(sub, DataFrame)
        assert sub.columns == ["b"]

    def test_iloc_slice_and_mask(self, df):
        assert len(df.iloc(slice(0, 2))) == 2
        assert len(df.iloc(np.array([True, False, True]))) == 2

    def test_head(self, df):
        assert len(df.head(2)) == 2

    def test_drop(self, df):
        assert df.drop(["a"]).columns == ["b"]
        with pytest.raises(KeyError):
            df.drop(["zzz"])

    def test_setitem_new_column(self, df):
        df["c"] = np.array([7, 8, 9])
        assert df.shape == (3, 3)
        with pytest.raises(ValueError):
            df["bad"] = np.ones(5)


class TestConversion:
    def test_to_numpy_promotes_to_common_dtype(self, df):
        m = df.to_numpy()
        assert m.dtype == np.float64
        assert m.shape == (3, 2)

    def test_values_property(self, df):
        assert np.array_equal(df.values, df.to_numpy())

    @pytest.mark.parametrize("columns", [["a", "b"], ["b"]])
    def test_to_numpy_with_dtype_is_a_fresh_array(self, df, columns):
        """Columns already of the asked dtype are not copied on the way
        in; the result still shares no memory with the frame."""
        sub = df[columns]
        m = sub.to_numpy(np.float64)
        assert m.dtype == np.float64 and m.flags.writeable
        assert not any(np.shares_memory(m, sub[c]) for c in columns)
        m[:] = -1.0
        assert sub["b"].tolist() == df["b"].tolist()

    def test_astype(self, df):
        assert df.astype(np.float32)["a"].dtype == np.float32

    def test_memory_usage_positive(self, df):
        assert df.memory_usage() > 0

    def test_dtypes(self, df):
        assert df.dtypes == {"a": "int64", "b": "float64"}


class TestEquality:
    def test_equals_self(self, df):
        assert df.equals(DataFrame({"a": df["a"].copy(), "b": df["b"].copy()}))

    def test_nan_equals_nan(self):
        a = DataFrame({"x": np.array([1.0, np.nan])})
        b = DataFrame({"x": np.array([1.0, np.nan])})
        assert a.equals(b)

    def test_column_order_matters(self):
        a = DataFrame({"x": np.ones(1), "y": np.ones(1)})
        b = DataFrame({"y": np.ones(1), "x": np.ones(1)})
        assert not a.equals(b)


class TestConcat:
    def test_rowwise(self, df):
        out = concat([df, df])
        assert out.shape == (6, 2)
        assert np.array_equal(out["a"], [1, 2, 3, 1, 2, 3])

    def test_single_frame_shortcircuit(self, df):
        assert concat([df]) is df

    def test_dtype_promotion_across_chunks(self):
        a = DataFrame({"x": np.array([1, 2])})
        b = DataFrame({"x": np.array([1.5])})
        out = concat([a, b])
        assert out["x"].dtype == np.float64

    def test_mismatched_columns_rejected(self, df):
        with pytest.raises(ValueError, match="same columns"):
            concat([df, DataFrame({"a": np.ones(1)})])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            concat([])

    def test_axis1_not_supported(self, df):
        with pytest.raises(NotImplementedError):
            concat([df, df], axis=1)
