"""Interaction detection and 2-D heatmaps.

The data hides one genuine interaction (x2*x3). The pair ranker scores
every feature pair on the main-effects residuals; purely additive
structure scores near zero, so the product pair should dominate. The
learned 2-D grid is then rendered as a text heatmap.
"""

import windglass as wg

raw = wg.make_interaction_data(10_000, n_features=6, noise=0.05, seed=2)
split = wg.chronological_split(raw.n_rows)
matrix = wg.normalize_fit_apply(raw, split.train)
config = wg.TrainConfig(learning_rate=0.02, max_rounds=600,
                        early_stop_patience=30, max_bins=64, pair_bins=12)

bins = wg.fit_bins(matrix.X, split.train, config.max_bins)
mains, residuals = wg.train_main_effects(matrix, split, bins, config)

# Bin every row once: the ranker reads the training rows, the pair stage all.
Xb = wg.apply_bins(bins, matrix.X)
tr = split.train_slice
ranked = wg.rank_interaction_pairs(Xb[tr], residuals[tr], pair_bins=config.pair_bins)
print("pair strengths on main-effects residuals:")
for i, j, strength in ranked:
    marker = "  <-- the planted x2*x3 interaction" if (i, j) == (2, 3) else ""
    print(f"  ({matrix.feature_names[i]}, {matrix.feature_names[j]}): "
          f"{strength:10.4f}{marker}")

model = wg.train_interactions(mains, Xb, split, residuals,
                              [(i, j) for i, j, _ in ranked[:3]])

curve = wg.export_pair_heatmap(model, (2, 3))
print(f"\nlearned contribution grid for {curve.name}:")
lo, hi = curve.values.min(), curve.values.max()
span = (hi - lo) or 1.0
for row in curve.values:
    print("  " + "".join(" .:-=+*#%@"[int(9 * (v - lo) / span)] for v in row))
print(f"  (darkest {hi:+.3f}, lightest {lo:+.3f}: both inputs high pushes "
      "the forecast up)")
