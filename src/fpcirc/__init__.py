"""Steady circulation control for overdamped diffusions in a box.

Design time-dependent controls that steer the density of a reflected
drift-diffusion process back to its uncontrolled stationary state while
imposing a prescribed steady probability-flux vorticity.  The pipeline:
spectral reduction onto the generator's leading eigenfunctions, adjoint
gradient optimization of the reduced dynamics, then validation against
a conservative finite-volume solve and a particle ensemble.

The package is used through its command line, `fpcirc` (fpcirc.cli).
"""

__version__ = "0.1.0"
