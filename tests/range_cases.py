"""Out-of-range values for the parametrized tests of each range-checked real."""

import numpy as np
import pytest


def range_cases(*sites):
    """pytest params (name, build, value) for each site (name, build, low,
    closed[, label]): NaN, +-inf and the bound, ``low`` itself when the bound
    is open and the float just below it when closed."""
    cases = []
    for name, build, low, closed, *label in sites:
        edge = [] if low == -np.inf else [np.nextafter(low, -np.inf) if closed else low]
        cases += [pytest.param(name, build, value,
                               id=f"{label[0] if label else name}={float(value)}")
                  for value in (np.nan, np.inf, -np.inf, *edge)]
    return cases
