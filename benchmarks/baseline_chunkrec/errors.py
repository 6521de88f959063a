"""Exception hierarchy. Every error carries a short machine-readable category."""


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


class TrainingAbortedError(ChunkrecError):
    category = "training-aborted"


class ConfigError(ChunkrecError):
    category = "config"
