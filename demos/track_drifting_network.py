# Recover a slowly drifting interaction network from binary votes.
#
# Twenty agents vote +1/-1 each round, coupled through a hidden symmetric
# matrix that drifts by pulling pairs toward their shared neighborhoods.
# Experts differ only in how hard their dynamical model applies that same
# pull; the aggregator finds the drift rate without being told it.
import math

import numpy as np

from dynmd import (
    Box,
    DoublingStep,
    NetworkAttraction,
    SquaredEuclidean,
    default_lambda,
    dmd_init,
)
from dynmd.experiments import run_scenario, synthetic_votes

P, T = 20, 2000
ALPHAS = (0.0, 0.001, 0.002, 0.003, 0.004)

stream, thetas = synthetic_votes(n_agents=P, T=T, drift_alpha=0.002, seed=0,
                                 sweeps=4)
drift = float(np.abs(thetas[-1] - thetas[0]).max())
print(f"stream: {P} agents, T={T}, planted drift rate 0.002, "
      f"max entry movement {drift:.2f}")

geom = SquaredEuclidean(0.5)
fset = Box(-1.0, 1.0, shape=(P, P))
schedule = DoublingStep(10, 10, 1.0)
experts = [dmd_init(geom, fset, NetworkAttraction(a), schedule,
                    reg_period=10) for a in ALPHAS]

result = run_scenario(lambda t: stream.loss(t, tau=0.1), T, experts,
                      lam=default_lambda(3, T), eta_r=1.0 / math.sqrt(T),
                      collect_agent_values=True)
labels = result.expert_labels

tail = slice(3 * T // 4, T)
print(f"\nmean per-round loss over the final quarter (t>{3 * T // 4}):")
tail_means = result.expert_losses[tail].mean(axis=0)
for i in np.argsort(tail_means):
    print(f"  {labels[i]:>12}  {tail_means[i]:.4f}")
print(f"  {'pooled':>12}  {result.dfs_losses[tail].mean():.4f}")

print("\nweight on each expert at checkpoints:")
header = "".join(f"{lab:>12}" for lab in labels)
print(f"   t {header}")
for t in (100, 500, 1000, 2000):
    row = "".join(f"{w:12.3f}" for w in result.weights[t - 1])
    print(f"{t:4d} {row}")

# self-field magnitudes from the pooled estimate hint at stubborn agents
final = np.tensordot(result.final_state.weights,
                     result.final_state.theta_hat, axes=1)
diag = np.abs(np.diag(final))
top = np.argsort(diag)[::-1][:5]
print("\nlargest learned self-field magnitudes: "
      + ", ".join(f"agent {a}={diag[a]:.2f}" for a in top))
