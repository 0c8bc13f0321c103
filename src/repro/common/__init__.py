"""Shared foundations: units, calibration, configuration, errors, records."""

from .config import (
    DEFAULT_CONFIG,
    FarviewConfig,
    MemoryConfig,
    NetworkConfig,
    OperatorStackConfig,
    RnicConfig,
)
from .errors import (
    CatalogError,
    ConfigurationError,
    FarviewError,
    FlowControlError,
    OperatorError,
    OutOfMemoryError,
    PipelineCompilationError,
    ProtectionFault,
    QueryError,
    RegexSyntaxError,
    RegionUnavailableError,
    TranslationFault,
)
from .records import Column, Schema, default_schema, string_schema, wide_schema

__all__ = [
    "DEFAULT_CONFIG",
    "FarviewConfig",
    "MemoryConfig",
    "NetworkConfig",
    "OperatorStackConfig",
    "RnicConfig",
    "CatalogError",
    "ConfigurationError",
    "FarviewError",
    "FlowControlError",
    "OperatorError",
    "OutOfMemoryError",
    "PipelineCompilationError",
    "ProtectionFault",
    "QueryError",
    "RegexSyntaxError",
    "RegionUnavailableError",
    "TranslationFault",
    "Column",
    "Schema",
    "default_schema",
    "string_schema",
    "wide_schema",
]
