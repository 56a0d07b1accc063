"""Pseudospectral solvers for a non-isothermal conserved phase-field system.

The package couples a fourth-order interface equation for a conserved order
parameter with a heat equation for absolute temperature, discretized with
Fourier collocation on a periodic box and a semi-implicit (IMEX) time
stepper.  Alongside the simulators it ships the analysis layer used to
certify runs: thermodynamic consistency checks, dyadic frequency-block
norms, data-smallness reports, and a fixed-point contraction verifier.

Modules
-------
grid        periodic grids, half-spectrum FFTs, spectral derivatives
thermo      free-energy functional, chemical potential, entropy production
model_a1    a1 terms: transported-entropy coupling flux and mixture velocity
model_a2    IMEX stepper and simulation driver for the a2, a1 and isothermal models
picard      exact mode-wise propagators and contraction-mapping verification
besov       dyadic partition of unity and frequency-block (Besov-type) norms
diagnostics conservation/dissipation audits and CSV reporting
config      INI run configuration: parse, validate, canonicalize
fieldio     binary/gnuplot field serialization
rng         xoshiro256** generator for bit-reproducible initial data
cli         command-line entry point (``thermoch``)
"""
