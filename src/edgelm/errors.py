"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration (model shapes, policy parameters, budgets)."""


class ShapeError(ValueError):
    """Tensor or grid shape violates an operation's preconditions."""


class FrozenEncodingError(RuntimeError):
    """An operation that needs frozen quantized encodings got unfrozen ones."""


class ContractViolation(RuntimeError):
    """A hard runtime contract failed (losslessness, base-hash invariance)."""


class ManifestError(ValueError):
    """A weight, quant or adapter file is truncated, malformed or inconsistent."""
