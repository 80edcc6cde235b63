"""Desk-scale numerics on graded nilpotent Lie groups.

Subpackages: exact group law (algebra), grids and convolution (geometry),
left-invariant operators (calculus), heat semigroups (heatflow), Riesz and
Bessel kernels (potentials), Sobolev norms and probes (sobolev), the
verification suite (suite) and its command line (cli).

``GRADECALC_THREADS`` caps the BLAS thread count.  BLAS libraries read their
thread variables once, when numpy loads them, so the cap is set here, before
any submodule imports numpy; variables already set are left alone.
"""

import os

if os.environ.get("GRADECALC_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["GRADECALC_THREADS"])

__version__ = "0.1.0"


class GradecalcError(ValueError):
    """Base class of every refusal the library raises; only the CLI maps it to an exit code."""
