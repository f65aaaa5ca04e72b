import numpy as np

from mfglab.io_csv import write_csv

EDGE_VALUES = [-0.0, 0.0, 5e-324, 1e-300, 1.2e17, -1.5, np.inf, np.nan]


def test_array_rows_write_the_same_bytes_as_tuples(tmp_path):
    table = np.array(EDGE_VALUES + EDGE_VALUES[::-1] + [-np.inf, 1.0]).reshape(6, 3)
    write_csv(tmp_path / "tuples.csv", ["a", "b", "c"],
              [tuple(float(v) for v in row) for row in table])
    write_csv(tmp_path / "array.csv", ["a", "b", "c"], table)
    written = (tmp_path / "array.csv").read_bytes()
    assert written == (tmp_path / "tuples.csv").read_bytes()
    assert written.splitlines()[1:3] == [b"-0,0,4.9406564584124654e-324",
                                         b"1e-300,1.2e+17,-1.5"]

