"""Exception types and the argument checks shared across the package."""


class DomainError(ValueError):
    """Input violates a documented precondition (shape, domain, symmetry)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or lost too much accuracy."""


def check_seed(seed):
    """Raise DomainError unless ``seed`` is a stream seed in [0, 2^64)."""
    if not 0 <= seed < (1 << 64):
        raise DomainError(f"seed must fit in 64 bits, got {seed}")


def check_band(band):
    """Raise DomainError unless ``band`` is a verdict band in (0, 1)."""
    if not 0 < band < 1:
        raise DomainError(f"verdict band must lie in (0, 1), got {band}")
