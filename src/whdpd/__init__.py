"""Wiener-Hammerstein nonlinear digital pre-distortion toolkit."""

from .dsp import (AlignmentError, ConstellationSpec, RrcSpec, SampledSignal,
                  papr_db, qam_modulate, rms_normalize, rrc_taps, shape_pulse,
                  snr_db, synchronize)
from .kernels import backend
from .learn import (AdamState, DpdArtifact, FitConfig, TrainingDivergedError,
                    WhGradients, adam_step, apply_dpd, fit_linear,
                    fit_postestimator, indirect_learn, loss, rescale_artifact,
                    rescale_nl_coeff, wh_backward)
from .model import (ComplexityReport, FirBlock, PolyNlBlock, WhModel,
                    complexity, fir_apply, nl_apply, wh_forward)
from .txsim import (MzmSpec, SaturationSpec, TxChannel, paper_like_preset,
                    quantize, saturate, simulate_tx)

__version__ = "0.1.0"
