"""Solve the planning problem in closed form and sanity-check it.

The first-order conditions couple abatement to the emissions stock
through a 2x2 linear system with one stable and one unstable root.
Killing the unstable mode (otherwise the discounted cost diverges) and
pinning the stable one at the initial stock yields exact paths.  A
brute-force discretized optimizer confirms the closed form from the
outside.
"""

from mmrclimate import (
    ExpPoly,
    Policy,
    discounted_total_cost,
    load_config,
    numeric_oracle,
    solve_optimal,
    tmax,
)

config = load_config()
scenario = config.to_scenario()
had = config.model("HAD")

sol = solve_optimal(0.05, had, scenario)
print(f"characteristic roots at delta=0.05: lam+ = {sol.roots.lam_plus:.6f}, "
      f"lam- = {sol.roots.lam_minus:.6f}")
print(f"optimal cost J* = {sol.j_star:.4f} percent of discounted output")

cheap = solve_optimal(0.01, had, scenario)
print(f"at delta=0.01 the future matters more: J* = {cheap.j_star:.4f}")

for delta in (0.05, 0.01):
    j = discounted_total_cost(ExpPoly.zero(), scenario.econ, had, delta,
                              scenario.baseline, scenario.e0)
    print(f"never abating, evaluated at delta={delta}: J = {j:.4f}")

print("\npath samples (delta = 0.05):")
print(f"{'year':>6} {'baseline':>9} {'abatement':>10} {'stock':>8} {'temp':>6}")
for t in (0.0, 40.0, 80.0, 120.0, 160.0, 250.0, 400.0):
    print(f"{config.start_year + int(t):>6} {scenario.baseline(t):>9.2f} "
          f"{sol.abatement(t):>10.2f} {sol.net_emissions(t):>8.0f} "
          f"{sol.temperature(t):>6.2f}")

# the stock peaks where dE/dt = B - A turns negative: the package's one peak
# search finds it
crossing, _ = tmax(Policy(0.05, had), had, scenario)
print(f"\nabatement overtakes the baseline around year "
      f"{config.start_year + crossing:.0f}; the emissions stock peaks there "
      f"and then declines toward zero "
      f"(E(2000 yr) = {sol.net_emissions(2000.0):.2g} GtC)")

print("\ncross-check against the discretized brute-force optimizer:")
oracle = numeric_oracle(0.05, had, scenario)
print(f"  closed form J* = {sol.j_star:.6f}")
print(f"  oracle      J  = {oracle.j_estimate:.6f}  "
      f"({abs(oracle.j_estimate / sol.j_star - 1):.2%} apart)")

residual = (sol.net_emissions.derivative() - scenario.baseline) + sol.abatement
print(f"\nstate equation dE/dt = B - A holds as an exact term-level "
      f"identity: residual is the zero function -> {residual.is_zero}")
