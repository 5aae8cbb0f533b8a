"""Exception types and the argument checks shared across the package."""

from numbers import Integral

import numpy as np


class DomainError(ValueError):
    """Input violates a documented precondition (shape, domain, symmetry)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or lost too much accuracy."""


def _is_integer(value):
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _plain(value):
    """``value`` as a Python scalar when it is a numpy one, so a message
    reads ``-1`` or ``1.5``, not ``np.int64(-1)`` or ``np.float64(1.5)``."""
    return value.item() if isinstance(value, np.generic) else value


def check_seed(seed):
    """Raise DomainError unless ``seed`` is an integer stream seed in
    [0, 2^64); a bool or a float is rejected, not truncated."""
    if not _is_integer(seed):
        raise DomainError(f"seed must be an integer, got {_plain(seed)!r}")
    if not 0 <= seed < (1 << 64):
        raise DomainError(f"seed must fit in 64 bits, got {seed}")


def check_count(n):
    """Raise DomainError unless ``n`` is a positive integer sample count."""
    if not _is_integer(n) or n < 1:
        raise DomainError(f"sample count must be a positive integer, got {_plain(n)!r}")


def check_band(band):
    """Raise DomainError unless ``band`` is a verdict band in (0, 1)."""
    if not 0 < band < 1:
        raise DomainError(f"verdict band must lie in (0, 1), got {band}")


def check_broadcast(*operands):
    """The broadcast stack shape of ``operands``, (name, shape, k) triples
    for arrays whose last k axes hold one entry of a stack; DomainError
    naming every shape when the stack shapes do not broadcast."""
    try:
        return np.broadcast_shapes(*(shape[:len(shape) - k] for _, shape, k in operands))
    except ValueError:
        named = [f"{name} of shape {shape}" for name, shape, _ in operands]
        raise DomainError(f"{', '.join(named[:-1])} and {named[-1]} do not broadcast") from None
