from decimal import Decimal, localcontext

import numpy as np
import pytest

from mmrclimate import (
    build_policy_set,
    build_states,
    load_config,
    regret_matrix,
)


@pytest.fixture(scope="session")
def config():
    return load_config()


@pytest.fixture(scope="session")
def scenario(config):
    return config.to_scenario()


@pytest.fixture(scope="session")
def default_matrix(config, scenario):
    """Full 42 x 43 regret matrix for the bundled middle case."""
    states = build_states(config.deltas, config.ensemble)
    policies = build_policy_set(config.deltas, config.ensemble, scenario)
    return regret_matrix(policies, states, scenario)


def _decimal_emissions(scenario, delta, k, times):
    """Optimal E(t) in 120-digit decimals from the same float inputs, an
    independent reference that shares no code with the package: the
    particular response of each baseline rate group by a downward
    recurrence on the coefficients of (A_p, E_p), plus the stable mode
    pinned by E(0) = e0.  At a float-exact collision det is ~1e-20 and
    a power-2 group's coefficients scale like 1/det^3 before they
    cancel, hence the 120 digits."""
    with localcontext() as ctx:
        ctx.prec = 120
        d, kk = Decimal(delta), Decimal(k)
        groups = {}
        for c, n, mu in scenario.baseline.terms:
            groups.setdefault(Decimal(mu), {})[n] = Decimal(c)
        terms = []
        for mu, coeffs in groups.items():
            det = mu * mu - d * mu - kk
            w_a = w_e = Decimal(0)
            for j in range(max(coeffs), -1, -1):
                rhs_a = (j + 1) * w_a
                rhs_e = (j + 1) * w_e - coeffs.get(j, Decimal(0))
                w_a, w_e = (-mu * rhs_a + kk * rhs_e) / det, \
                    (rhs_a + (d - mu) * rhs_e) / det
                terms.append((w_e, j, mu))
        lam_minus = (d - (d * d + 4 * kk).sqrt()) / 2
        stable = Decimal(scenario.e0) - sum(c for c, n, _ in terms if n == 0)
        terms.append((stable, 0, lam_minus))
        values = []
        for t in map(Decimal, times):
            values.append(float(sum(c * (t ** n if n else 1) * (mu * t).exp()
                                    for c, n, mu in terms)))
        return np.array(values)


@pytest.fixture(scope="session")
def decimal_emissions():
    """The 120-digit reference path ``(scenario, delta, k, times) -> E(t)``
    shared by the path-accuracy tests."""
    return _decimal_emissions
