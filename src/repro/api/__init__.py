"""repro.api — the unified public surface of the reproduction.

``Database`` owns the per-dataset state (TAG encoding, one shared plan
cache); ``Session`` executes SQL with optional parameters and
renders cross-engine EXPLAIN; the engine registry maps names ("tag",
"rdbms", "spark", ...) to executor factories so callers never hardwire an
executor class.  See :mod:`repro.api.database` for a usage example.
"""

from ..algebra.parameters import ParameterError, bind_parameters
from ..core.executor import StaleEngineError
from .database import Database, PreparedStatement, Session, infer_parameter_types
from .registry import (
    Engine,
    EngineContext,
    EngineError,
    available_engines,
    builtin_engine_names,
    create_engine,
    engine_aliases,
    list_engines,
    register_engine,
    resolve_engine_name,
)

__all__ = [
    "Database",
    "Engine",
    "EngineContext",
    "EngineError",
    "ParameterError",
    "PreparedStatement",
    "Session",
    "StaleEngineError",
    "available_engines",
    "bind_parameters",
    "builtin_engine_names",
    "create_engine",
    "engine_aliases",
    "infer_parameter_types",
    "list_engines",
    "register_engine",
    "resolve_engine_name",
]
