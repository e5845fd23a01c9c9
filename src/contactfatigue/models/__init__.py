"""Model families, fatigue terms, and parameter-vector plumbing."""

from .assemble import (AggregatedBrcModel, BrcData, HsgpConfig,
                       IndividualGamModel, LongitudinalNbModel, Model,
                       ModelSpec, RejectedState, Stage1PoissonModel,
                       Stage2PoissonModel, brc_surface_config, build_model,
                       make_brc_data)
from .fatigue import FatigueSpec, HillCurve, hill
from .likelihoods import (nb1_agg_loglik, nb1_rvs, nb2_loglik, nb2_rvs,
                          poisson_loglik)
from .params import Block, Layout

__all__ = [
    "AggregatedBrcModel", "Block", "BrcData", "FatigueSpec",
    "HillCurve", "HsgpConfig",
    "IndividualGamModel", "Layout", "LongitudinalNbModel", "Model",
    "ModelSpec", "RejectedState", "Stage1PoissonModel", "Stage2PoissonModel",
    "brc_surface_config", "build_model", "hill", "make_brc_data",
    "nb1_agg_loglik", "nb1_rvs", "nb2_loglik", "nb2_rvs",
    "poisson_loglik",
]
