"""Exception hierarchy, each error with a short machine-readable category,
and the field check that every config dataclass runs."""

import math
from dataclasses import fields


class ChunkrecError(Exception):
    category = "error"


class ShapeError(ChunkrecError):
    category = "shape"


class InvalidMaskError(ChunkrecError):
    category = "invalid-mask"


class NumericError(ChunkrecError):
    category = "numeric"


class ContractError(ChunkrecError):
    category = "contract"


class GeometryError(ChunkrecError):
    category = "geometry"


class ProtocolError(ChunkrecError):
    category = "protocol"


class EmptyInputError(ChunkrecError):
    category = "empty-input"


class CapacityError(ChunkrecError):
    category = "capacity"


class DegenerateLatticeError(ChunkrecError):
    category = "degenerate-lattice"


class VocabError(ChunkrecError):
    category = "vocab"


class UndefinedMetricError(ChunkrecError):
    category = "undefined-metric"


class AvailabilityError(ChunkrecError):
    category = "availability"


class CheckpointError(ChunkrecError):
    category = "checkpoint"


class CorruptHeaderError(CheckpointError):
    category = "corrupt-header"


class TruncatedFileError(CheckpointError):
    category = "truncated-file"


class VersionMismatchError(CheckpointError):
    category = "version-mismatch"


class ConfigError(ChunkrecError):
    category = "config"


def check_fields(cfg, **minimums):
    """Raise ConfigError unless each field of dataclass cfg has its default's type (an
    int; for a float default, a finite int or float; never a bool) and its minimum."""
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if not (type(v) is int or type(f.default) is float and type(v) is float
                and math.isfinite(v)):
            raise ConfigError(f"{f.name} must be {type(f.default).__name__}, got {v!r}")
        if v < minimums.get(f.name, v):
            raise ConfigError(f"{f.name} must be >= {minimums[f.name]}, got {v}")
