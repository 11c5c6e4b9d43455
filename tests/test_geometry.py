import numpy as np
import pytest

from galaxyid.geometry import as_coords


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        as_coords([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_coords([1.0, float("inf")])
    with pytest.raises(ValueError):
        as_coords([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_coords([])
    out = as_coords([3, 4])
    assert out.dtype == np.float64
    assert out.tolist() == [3.0, 4.0]
