import numpy as np

from mfglab.io_csv import Grid, write_csv

EDGE_VALUES = [-0.0, 0.0, 5e-324, 1e-300, 1.2e17, -1.5, np.inf, np.nan]


def test_grid_rows_write_the_same_bytes_as_tuples(tmp_path):
    s = np.array(EDGE_VALUES[:5])
    y = np.array(EDGE_VALUES[3:] + [-np.inf])
    v = np.resize(EDGE_VALUES + [-np.inf, 1.0], (s.size, y.size))
    grid = Grid(s, y, v)
    assert len(grid) == s.size * y.size
    write_csv(tmp_path / "tuples.csv", ["s", "y", "v"],
              [(float(s[i]), float(y[j]), float(v[i, j]))
               for i in range(s.size) for j in range(y.size)])
    write_csv(tmp_path / "grid.csv", ["s", "y", "v"], grid)
    written = (tmp_path / "grid.csv").read_bytes()
    assert written == (tmp_path / "tuples.csv").read_bytes()
    assert written.splitlines()[1:3] == [b"-0,1e-300,-0", b"-0,1.2e+17,0"]
