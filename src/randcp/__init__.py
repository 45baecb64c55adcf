"""Randomized sparse tensor CP decomposition on a simulated processor grid."""

from .als import (AlsConfig, DecompResult, DegenerateSketchError, init_factors, run_als,
                  run_trials)
from .grid import CommLedger, ProcessorGrid, ledger_report, optimal_grid
from .linalg import (FactorBlocks, compute_fit, gram, hadamard_gram_chain,
                     khatri_rao, normalize_columns, pseudo_inverse)
from .matricization import LocalTensorSet, Matricization, matricize, partition_to_grid
from .mttkrp import downsampled_mttkrp, gather_sampled_nonzeros_to_csr, mttkrp_exact
from .samplers import (ArlsLevState, DegenerateWalkError, LeverageTree, SampleBatch,
                       arls_lev_build, arls_lev_sample, exact_krp_leverage_oracle,
                       sample_weights, sts_build, sts_sample)
from .tensor import (BoundsError, ModePermutations, ParseError, SparseTensorCOO,
                     apply_permutations, load_frostt, permute_modes)

__version__ = "0.1.0"
