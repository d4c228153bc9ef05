"""Thermal Casimir force between a plane plate and a centimeter-size lens.

The package has four layers: parallel-plate free energy and pressure
(``plates``), lens surface profiles with bubble/pit imperfections
(``lens``), the proximity-force-approximation force engine (``pfa``) and
measurement-error combination (``metrology``).  ``cli`` exposes all of it
as the ``caslens`` command.
"""

from .config import build_grid, parse_kv_file, parse_length, parse_temperature
from .exceptions import (
    ConvergenceError,
    DegenerateBudgetError,
    DegenerateImperfectionError,
    NumericalError,
    QuadratureError,
    TableLookupError,
)
from .lens import (
    FOOTPRINT_DIAMETER_MAX,
    FOOTPRINT_DIAMETER_MIN,
    ImperfectionGeometry,
    LensKind,
    LensProfile,
    SpecCheck,
    SpecReport,
    derive_geometry,
    lateral_extent,
    validate_spec,
)
from .metrology import (
    CombinedError,
    ErrorBudget,
    Rule,
    combine_systematic,
    load_k_table,
    load_q_table,
    select_rule,
    total_error,
)
from .pfa import (
    ForceMethod,
    ForceResult,
    RatioCurve,
    force,
    force_bubble,
    force_general,
    force_perfect_full,
    force_pit,
    ratio_curve,
)
from .plates import (
    ZETA3,
    FreeEnergyAreal,
    free_energy_pp,
    free_energy_pp_oracle,
    pressure_pp,
    tau,
)

__version__ = "0.1.0"

__all__ = [
    "build_grid",
    "parse_kv_file",
    "parse_length",
    "parse_temperature",
    "ConvergenceError",
    "DegenerateBudgetError",
    "DegenerateImperfectionError",
    "NumericalError",
    "QuadratureError",
    "TableLookupError",
    "FOOTPRINT_DIAMETER_MAX",
    "FOOTPRINT_DIAMETER_MIN",
    "ImperfectionGeometry",
    "LensKind",
    "LensProfile",
    "SpecCheck",
    "SpecReport",
    "derive_geometry",
    "lateral_extent",
    "validate_spec",
    "CombinedError",
    "ErrorBudget",
    "Rule",
    "combine_systematic",
    "load_k_table",
    "load_q_table",
    "select_rule",
    "total_error",
    "ForceMethod",
    "ForceResult",
    "RatioCurve",
    "force",
    "force_bubble",
    "force_general",
    "force_perfect_full",
    "force_pit",
    "ratio_curve",
    "ZETA3",
    "FreeEnergyAreal",
    "free_energy_pp",
    "free_energy_pp_oracle",
    "pressure_pp",
    "tau",
    "__version__",
]
