"""Cubic-regularized optimization on matrix manifolds.

The package provides an adaptive cubic-regularization driver with exact
or sub-sampled oracles, a trust-region baseline, the manifold geometry
they run on, a joint-diagonalization objective on the Stiefel manifold,
and a small benchmark harness with a CLI.

The package root exports the two solver entry points; everything else
is imported from its submodule, for example ``riemarc.arc.SolverConfig``.
"""

from .arc import run
from .trust_region import run_trust_region

__all__ = ["run", "run_trust_region"]
