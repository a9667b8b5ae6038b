"""Golden fitted values: each fit driver on the golden jobs' histograms.

``test_golden.py`` pins the integers a job makes: the file and the g2,
decay and intensity counts. This pins what the three fit drivers make of
those histograms, so a change in a model, an initializer, the bins a fit
uses or the engine shows here. The pulsed jobs' g2 is fitted with
``fit_g2_pw`` at the sync period and their decay with a one-component
``fit_multiexp``; the CW jobs' g2 with ``fit_g2_cw``.

The engine stops once chi-square falls by less than 1e-9 of itself, which
fixes a parameter only to about 1e-4 of its sigma: nudging the start
vector by one part in 10^15 moves the CW ``tau0_ns`` by 8.5e-5 sigma. A
BLAS build that sums in another order nudges the path by as much, so each
value is held to a relative 1e-6 or to 1e-3 of its sigma, whichever is
wider. ``converged`` is pinned exactly.
"""

import numpy as np
import pytest

from photonkit.fit import fit_g2_cw, fit_g2_pw, fit_multiexp
from photonkit.pipeline import (
    resolved_period_ns,
    run_correlate,
    run_decay_histogram,
    run_load,
    run_simulate,
)
from test_golden import JOBS

# job -> driver -> (converged, parameter vector in its packing order)
GOLDEN_FITS = {
    "cw_blinking": {
        "g2cw": (True, [355.716622, 0.9725487192, -0.03881068498,
                        4.581856848]),
    },
    "cw_lossy": {
        "g2cw": (True, [13.6493882, 0.782514675, -0.3963576641,
                        6.965359405]),
    },
    "cw_two_state": {
        "g2cw": (True, [504.9484186, 0.9638608399, 0.02841978462,
                        4.615726321]),
    },
    "pulsed": {
        "g2pw": (True, [0, 1601.467561, 1589.576637, 1600.582724,
                        1600.184867, 1604.241715, 2.755428548, 1604.429427,
                        1607.373195, 1609.204157, 1596.937608, 1597.293759,
                        -0.005384225369, 4.938392537]),
        "lifetime": (True, [4.465323859, 20531.63582, 4.710468235]),
    },
    "pulsed_full": {
        "g2pw": (True, [18.66081347, 7230.373123, 7231.929551, 7214.992792,
                        7204.720938, 7220.935215, 2439.909073, 7231.952107,
                        7223.425323, 7226.749154, 7216.013741, 7252.539022,
                        0.0007732781697, 4.200162344]),
        "lifetime": (True, [4.905613863, 45367.24924, 4.301845254]),
    },
}


@pytest.fixture(scope="module", params=sorted(JOBS))
def fits(request, tmp_path_factory):
    name = request.param
    job = JOBS[name]
    base = tmp_path_factory.mktemp("golden_fits")
    result, _ = run_simulate({**job, "output": f"{name}.ptst"}, str(base))
    _, streams = run_load({"input": result["output"]})
    g2 = run_correlate(streams, job)
    if job.get("excitation", {}).get("mode") == "pulsed":
        return name, {
            "g2pw": fit_g2_pw(g2, resolved_period_ns(streams, {})),
            "lifetime": fit_multiexp(run_decay_histogram(streams, job), 1),
        }
    return name, {"g2cw": fit_g2_cw(g2)}


def test_fitted_values_are_pinned(fits):
    name, got = fits
    assert sorted(got) == sorted(GOLDEN_FITS[name])
    for driver, res in got.items():
        converged, want = GOLDEN_FITS[name][driver]
        assert res.converged == converged, driver
        values = res.params.to_vector()
        tolerance = np.maximum(1e-6 * np.abs(want), 1e-3 * res.sigma)
        off = np.abs(values - want) > tolerance
        assert not off.any(), (
            f"{driver}: {np.asarray(res.names)[off].tolist()} moved to "
            f"{values[off].tolist()} from {np.asarray(want)[off].tolist()}")
