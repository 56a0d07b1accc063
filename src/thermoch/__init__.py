"""Pseudospectral solvers for a non-isothermal conserved phase-field system.

The package couples a fourth-order interface equation for a conserved order
parameter with a heat equation for absolute temperature, discretized with
Fourier collocation on a periodic box and an exponential (ETD1) time
stepper, exact on the linear parts.  Alongside the simulators it ships the
analysis layer used to certify runs: a per-snapshot thermodynamic audit,
dyadic frequency-block norms, data-smallness reports, and a fixed-point
contraction verifier.  The checks of the analysis itself (the constitutive
identities and the linear a-priori estimates) are test oracles, outside the
package.

Modules
-------
grid        periodic grids, half-spectrum FFTs, spectral derivatives
thermo      free energy, chemical potential, dissipation, a1 velocity and coupling
model_a2    ETD1 stepper and simulation driver for the a2, a1 and isothermal models
picard      Picard solution map and contraction-mapping verification
besov       dyadic partition of unity and frequency-block (Besov-type) norms
diagnostics conservation/dissipation audits and CSV reporting
config      INI run configuration: parse, validate, canonicalize
fieldio     binary/gnuplot field serialization
rng         xoshiro256** generator for bit-reproducible initial data
cli         command-line entry point (``thermoch``)
"""
