"""Monte Carlo check of the sample-size rule, shared by the oracle tests
and the acceptance checklist."""

import numpy as np


def concentration_trial(objective, x, bundle, trials, delta_g):
    """Fraction of independent gradient draws within ``delta_g`` of the
    exact gradient, each trial using a fresh iteration's sample."""
    exact = objective.gradient(x)
    hits = 0
    for t in range(trials):
        bundle.begin_iteration(t)
        g = bundle.inexact_gradient(x)
        if float(np.linalg.norm(g.data - exact.data)) <= delta_g:
            hits += 1
    return hits / trials
