"""Collisional quantum thermometry: stroboscopic qubit-ancilla dynamics and
Fisher-information analysis of the outgoing ancilla stream."""

from .channels import Interaction, ModelParams, exchange_unitary, zz_unitary
from .collision import AncillaBlock, FixedPointError
from .fisher import (FisherResult, RankChangeError, fisher_for, qfi,
                     thermal_fi_nbar)
from .optimize import (BlochAngles, Optimum, SchmidtParams, bloch_state,
                       optimize_b1, optimize_b2, schmidt_state)
from .sweeps import SweepConfig, SweepRow, claim_suite, run_sweep
from .zz_analytic import ZzProbabilities, zz_delta, zz_f1, zz_fn, zz_probs

__version__ = "0.1.0"
