"""Credit spread curves from bond and CDS prices.

Survival-curve based valuation, par-adjusted spreads, robust single-name
and rating-grid calibration, and carry/rolldown/relative-value returns.
"""

from .analytics import (
    ReturnDecomposition,
    TransitionInputs,
    carry,
    decompose_return,
    expected_return_with_transitions,
    relative_value,
    rolldown,
    total_return,
)
from .fitting import (
    FitConfig,
    FitResult,
    fit_rating_grid,
    fit_single_name,
    price_residual,
    robust_loss,
)
from .ratecurve import RiskfreeCurve
from .survival import (
    RATING_SYMBOLS,
    RatingGrid,
    RecoverySchedule,
    SurvivalParams,
)
from .valuation import (
    AssetSwapInputs,
    BondSpec,
    CdsSpec,
    KernelGrid,
    RiskyKernels,
    asset_swap_spread,
    bond_model_price,
    cds_traded_spread_to_upfront,
    cds_upfront,
    exact_fit_to_instrument,
    kernels,
    kernels_at,
    par_adjusted_spread,
    par_adjusted_spread_bond,
    par_adjusted_spread_cds,
    par_cds_spread,
    price_from_yield,
    riskfree_schedule_price,
    yield_from_price,
    z_spread,
)

__version__ = "0.1.0"

__all__ = [
    "RiskfreeCurve",
    "SurvivalParams",
    "RatingGrid",
    "RecoverySchedule",
    "RATING_SYMBOLS",
    "RiskyKernels",
    "KernelGrid",
    "kernels",
    "kernels_at",
    "BondSpec",
    "CdsSpec",
    "AssetSwapInputs",
    "bond_model_price",
    "price_from_yield",
    "yield_from_price",
    "riskfree_schedule_price",
    "z_spread",
    "asset_swap_spread",
    "par_cds_spread",
    "par_adjusted_spread_bond",
    "cds_traded_spread_to_upfront",
    "cds_upfront",
    "par_adjusted_spread_cds",
    "par_adjusted_spread",
    "exact_fit_to_instrument",
    "FitConfig",
    "FitResult",
    "robust_loss",
    "price_residual",
    "fit_single_name",
    "fit_rating_grid",
    "ReturnDecomposition",
    "TransitionInputs",
    "carry",
    "rolldown",
    "relative_value",
    "total_return",
    "decompose_return",
    "expected_return_with_transitions",
    "__version__",
]
