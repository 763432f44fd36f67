"""Locate two transfer points on an embedded high-speed network so that the
total weight of origin/destination pairs preferring the mixed route is
maximized."""

from .fds_solver import solve_global
from .model import (
    InstanceFormatError,
    Network,
    NetworkPoint,
    ProblemInstance,
    Solution,
    ValidationReport,
    load_instance,
    network_point,
    parse_instance,
    save_instance,
    serialize_instance,
    validate_instance,
)
from .oracle import OracleResult, oracle_grid

__version__ = "0.1.0"
