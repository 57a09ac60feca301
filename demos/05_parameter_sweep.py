"""Sensitivity of the minimax choice to the cost and damage weights.

The quadratic weights are the least certain economic inputs, so the
selection is repeated over a 3 x 3 grid around the central values.  Two
findings are robust: the selected discount rate is 0.02 in every cell,
and the selected policy keeps peak warming under 2 degC except when
abatement is costliest.  The Ramsey decomposition shows what a 0.02
rate means in terms of time preference and growth.
"""

from mmrclimate import load_config, sweep
from mmrclimate.report import sweep_table_mmr, sweep_table_tmax

config = load_config()
scenario = config.to_scenario()
report = sweep(config.alpha_grid, config.beta_grid, config.deltas,
               config.ensemble, scenario)

print(sweep_table_mmr(report, timestamp=False))
print(sweep_table_tmax(report, timestamp=False))

over = [(c.alpha, c.beta) for c in report.cells if c.tmax_degc >= 2.0]
print(f"cells with peak warming at or above 2 degC: {over}")
print("only the costliest-abatement column breaches the threshold\n")

# The Ramsey rule splits a consumption discount rate into pure time
# preference rho plus the elasticity of marginal utility eta times the
# consumption growth rate g.
print("reading delta = 0.02 through the Ramsey lens (delta = rho + eta g):")
for rho, eta, g in [(0.0, 1.0, 0.02), (0.005, 1.5, 0.01), (0.01, 2.0, 0.005)]:
    rate = rho + eta * g
    print(f"  rho={rho:<6g} eta={eta:<4g} g={g:<6g} -> delta = {rate:.3f}")
print("modest time preference with moderate growth lands right on the "
      "minimax-selected rate")
