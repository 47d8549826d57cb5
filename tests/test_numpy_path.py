"""The engine, estimator, map and probe tests again, on the numpy path.

With the C library loaded, the built-in potentials map points in C
(``mlangevin._kernel``), and so do ``euler_step`` and the engine.  This
module collects those tests a second time with the library read as missing,
so every property they check -- batched rows equal single runs, the engine
equals an ``euler_step`` loop, chunk-layout invariance -- also holds on the
numpy fallback.  ``test_kernel.py`` compares the two paths' outputs.
"""

import pytest

import mlangevin._kernel as _kernel
from test_diagnostics import (  # noqa: F401
    test_confluence_order_is_two_on_the_quadratic_model,
    test_confluence_zero_noise_gap_matches_the_closed_form,
    test_contraction_identical_starts_stay_identical,
    test_contraction_nonlinear_drift_depends_on_the_noise_seed,
    test_contraction_on_logistic_model_respects_the_convexity_envelope,
    test_contraction_on_quadratic_model_is_exactly_geometric,
)
from test_engine import *  # noqa: F401,F403
from test_estimator import *  # noqa: F401,F403
from test_kernel import (  # noqa: F401
    test_compensated_sums_are_the_same_bytes_on_both_paths,
)
from test_model import (  # noqa: F401
    test_a_potential_that_defines_only_grad_gets_the_default_map,
    test_advance_agrees_with_the_drift_to_a_few_ulps,
    test_advance_on_a_batch_equals_advance_row_by_row,
)
from test_sde import *  # noqa: F401,F403


@pytest.fixture(autouse=True, scope="module")
def numpy_maps():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "_lib", None)
        yield


def test_the_library_reads_as_missing_here():
    assert _kernel.lib() is None
