"""Desk-scale workbench for DNR forcing, bushy trees, and effective immunity
constructions over a toy register machine.

The subpackages split along the objects they manipulate:

- machine, asm, oracle: the 17-opcode register machine, its assembler, and
  the bit-oracle hierarchy it can consult.
- bushy: n-bushy trees, bigness/smallness, closures, and the union and
  fusion lemmas with exhaustive sweeps.
- forcing: finite-functional density search returning replayable
  extension certificates.
- reductions, stages: diagonal set indices, DNR candidate extraction and
  audits, blocking prefixes, and the stagewise EI-not-co-EI construction.
- numbering, dyadic: table numberings, slice codes, exact dyadic measure
  of cylinder unions, Schnorr tail bounds, and the lowness sum check.
- certs, cli: the certificate replay registry and the `dnrlab` command
  line that emits and re-verifies trace files.

The most commonly scripted entry points are re-exported here; everything
else is a deliberate import away in its home module.
"""

from .bushy import (
    OrderFunction,
    TreeWitness,
    closure,
    is_n_big,
    verify_bushy,
    witness_tree,
)
from .certs import replay_certificate
from .dyadic import DyadicRational
from .forcing import FiniteFunctional, ForcingCondition, SearchLimits, density_search
from .machine import Halted, RUNNING, eval_program, fixed_point, gamma
from .oracle import PeriodicOracle, PrefixOracle, SetOracle

__version__ = "0.1.0"

__all__ = [
    "DyadicRational",
    "FiniteFunctional",
    "ForcingCondition",
    "Halted",
    "OrderFunction",
    "PeriodicOracle",
    "PrefixOracle",
    "RUNNING",
    "SearchLimits",
    "SetOracle",
    "TreeWitness",
    "closure",
    "density_search",
    "eval_program",
    "fixed_point",
    "gamma",
    "is_n_big",
    "replay_certificate",
    "verify_bushy",
    "witness_tree",
]
