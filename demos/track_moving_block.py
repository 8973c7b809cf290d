# Track a bright block drifting across a noisy compressive video feed.
#
# A 2x2 block moves east for half the rounds, then reverses west.  Nine
# experts share one pool: eight single-pixel shifts plus a static model.
# The aggregator discovers the active direction from measurement losses
# alone, then re-discovers it after the switch.
import numpy as np

from dynmd import (
    Box,
    DoublingStep,
    SquaredEuclidean,
    default_lambda,
    dmd_init,
    moving_average,
    shift_family,
)
from dynmd.experiments import VideoScenario, generate_video, run_scenario

ROWS, COLS, T = 32, 32, 60

scenario = VideoScenario(rows=ROWS, cols=COLS, block_size=2, start_row=15,
                         start_col=0, trajectory=((1, 0), (31, 4)), T=T,
                         measurements=100, noise_std=0.05, seed=0)
data = generate_video(scenario)
print(f"scenario: {ROWS}x{COLS} frame, {scenario.measurements} measurements "
      f"per round, T={T}, direction flips at t=31")

geom = SquaredEuclidean(1.0)
fset = Box(0.0, 1.0, shape=(data.n_pixels,))
models = shift_family(ROWS, COLS)
schedule = DoublingStep(8, 2, 0.5)
experts = [dmd_init(geom, fset, m, schedule) for m in models]

result = run_scenario(data.loss, T, experts, lam=default_lambda(1, T),
                      comparator=data.comparator())
labels = result.expert_labels

# trailing 30-round average loss per expert, inspected at both phase ends
avg = np.column_stack([moving_average(result.expert_losses[:, i], 30)
                       for i in range(len(labels))])
for t, phase in ((30, "eastbound phase"), (60, "westbound phase")):
    order = np.argsort(avg[t - 1])
    row = ", ".join(f"{labels[i]}={avg[t - 1][i]:.2f}" for i in order[:3])
    print(f"t={t:3d} ({phase}): lowest windowed losses  {row}")

totals = result.expert_losses.sum(axis=0)
print("\ncumulative loss per expert:")
for i in np.argsort(totals):
    bar = "#" * int(round(totals[i] / totals.max() * 40))
    print(f"  {labels[i]:>6}  {totals[i]:8.2f}  {bar}")
print(f"  {'pooled':>6}  {result.dfs_losses.sum():8.2f}")

# weight mass migrates from E to W after the switch
for t in (15, 30, 45, 60):
    w = result.weights[t - 1]
    top = np.argsort(w)[::-1][:2]
    row = ", ".join(f"{labels[i]}={w[i]:.2f}" for i in top)
    print(f"t={t:3d}: heaviest experts  {row}")

# crude look at the final pooled estimate against the true frame
final = result.final_state.weights @ result.final_state.theta_hat
truth = data.frames[T].reshape(ROWS, COLS)
est = final.reshape(ROWS, COLS)
r0 = max(0, int(np.argwhere(truth > 0.5)[:, 0].min()) - 2)
print("\ntruth (left) vs pooled estimate (right), rows "
      f"{r0}..{r0 + 5}, cols 0..15:")
for r in range(r0, r0 + 6):
    left = "".join("#" if truth[r, c] > 0.5 else "." for c in range(16))
    right = "".join("#" if est[r, c] > 0.5 else
                    ("+" if est[r, c] > 0.2 else ".") for c in range(16))
    print(f"  {left}   {right}")
