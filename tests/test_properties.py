"""Property sweep of the optimized sandwiched entropy for BPSK and QPSK.

Both orders a > 1 run on the fast solves: the golden-section search for
N=2 and the certified Newton method for N=4.
"""

import math
import warnings

import pytest

from pskrates.entropies import sandwiched_down_cq, sandwiched_up_invariant
from pskrates.states import ProtocolParams, build_ensemble

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Orders in (1, 64] with a - 1 log-uniform from 1e-5, the floor of the S
# order grid. Closer to 1 every sandwiched value carries a rounding error of
# about 1e-16 / (a - 1) bits from log2(T) / (1 - a).
ORDERS = st.floats(-5.0, math.log10(63.0)).map(lambda t: 1.0 + 10.0**t)


@pytest.mark.parametrize("n_states", [2, 4])
@hypothesis.settings(max_examples=500, deadline=None, database=None, derandomize=True)
@hypothesis.given(alpha=st.floats(0.0, 3.0), eta=st.floats(0.0, 1.0),
                  a=ORDERS, b=ORDERS)
def test_sandwiched_up_properties(n_states, alpha, eta, a, b):
    ensemble = build_ensemble(ProtocolParams(n_states, alpha, eta))
    lo, hi = sorted((a, b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        up_lo = sandwiched_up_invariant(ensemble, lo)
        up_hi = sandwiched_up_invariant(ensemble, hi)
        down_hi = sandwiched_down_cq(ensemble, hi)
    assert math.isfinite(up_lo) and math.isfinite(up_hi)
    assert up_hi >= down_hi - 1e-9
    assert up_hi <= up_lo + 1e-9  # non-increasing in the order
