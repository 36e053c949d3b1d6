"""Variational Bayes estimation of spatial error models with missing
response data, under MAR and MNAR mechanisms."""

__version__ = "0.1.0"

from .missing import (BlockPartition, MissingPattern, SelectionModel,
                      default_block_size, generate_mar, generate_mnar,
                      make_blocks, selection_grad_psi, selection_grad_yu,
                      selection_log_prob)
from .posterior import PriorSpec, TargetDensity
from .samplers import (ConditionalGaussian, GmrfPlan, HmcConfig, McmcConfig,
                       hmc_run, mar_conditional, mcmc_block, mcmc_nob,
                       sample_conditional, tune_step_size)
from .sem import PrecisionOps, SemParams, sem_log_likelihood
from .simulate import (MarMechanism, MnarMechanism, SimConfig,
                       simulate_dataset, simulate_sem)
from .vb import (AdadeltaState, FitResult, VParams, adadelta_step,
                 default_init_theta, draw_initial_yu, draw_variational,
                 hmc_fit, hvb_fit, hvb_gradient_estimate, jvb_fit,
                 jvb_gradient_estimate, woodbury_logdet, woodbury_solve)
from .weights import (SpatialWeights, build_rook_grid_weights, rho_interval,
                      row_normalize)
