"""Exception types shared across the toolkit.

Each refuses something that comes from outside the program: a spec, text,
array or option a caller passes, or a file read back (checkpoint, index,
manifest, NRRD, STL). Data the package ships or builds itself, such as the
feature schema, is not re-checked at run time."""


class RodfindError(Exception):
    """Base class for all toolkit errors."""


class SpecError(RodfindError):
    """A linking-rod spec failed validation where validity is required."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class ParseError(RodfindError):
    """Description text could not be resolved against the schema."""


class ParseWarning(UserWarning):
    """Lenient parsing skipped or repaired a sentence."""


class StlError(RodfindError):
    """Malformed STL payload."""


class BuildError(RodfindError):
    """Solid construction rejected infeasible dimensions."""


class VoxelError(RodfindError):
    """Voxelization precondition failed (degenerate input, bad resolution)."""


class NrrdError(RodfindError):
    """Malformed or unsupported NRRD document."""


class ManifestError(RodfindError):
    """CSV manifest violated its contract."""


class DatasetError(RodfindError):
    """Corpus generation could not satisfy the request."""


class EncoderError(RodfindError):
    """Encoder input violated the architecture contract."""


class TrainingError(RodfindError):
    """Training aborted (non-finite loss, empty batch, bad config)."""


class DesignError(RodfindError):
    """Experiment design or analysis precondition failed."""


class RetrievalError(RodfindError):
    """Index build or query contract violation."""
