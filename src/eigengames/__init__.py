"""Game-theoretic eigensolvers and their quantum variants.

Modules:
  hamiltonian         -- operator construction, Pauli sums, the dense oracle
  eigengame_classical -- exact-gradient and zeroth-order sequential games
  quantum_sim         -- statevector simulator, shot noise, circuit gradients
  quantumgame         -- parameterized players and the VQD baseline
  theory_diagnostics  -- numeric bound calculators and measurement harnesses
  bench_cli           -- experiment harness and command-line entry point
"""

__version__ = "0.1.0"
