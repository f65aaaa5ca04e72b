"""The benchmark's tracer (mfgbench/tracing.py) wraps these functions and
reads their arguments by name; renaming one fails every traced operation
with a KeyError."""

import inspect

from mfglab import _kernels, fixed_point, io_csv, rng

TRACED = [
    (rng.gaussian_block, ("seed", "stream", "first_index", "n_rows", "n_cols")),
    (_kernels.population_kernel, ("states", "noise", "off")),
    (_kernels.representative_kernel, ("x0s", "mflow", "off", "noise", "disc",
                                      "states", "keep")),
    (_kernels.forward_field_kernel, ("x0", "u", "xgrid", "noise")),
    (fixed_point.backward_field_solve, ("flow", "grid")),
    (io_csv.write_csv, ("path", "rows")),
    (io_csv.write_text, ("path",)),
]


def test_traced_functions_keep_their_parameter_names():
    for fn, names in TRACED:
        assert set(names) <= set(inspect.signature(fn).parameters), fn.__name__
