"""Exception types and the argument checks shared across the package.

Every kernel takes a stack, and every input gate names the first
offending stack entry so the input can be replayed: "matrix at stack
index 3 ...", "(1, 2)" for several leading axes, nothing for one entry.
``require(ok, lead, message)`` is that rule for every gate: a pass costs
one ``ok.all()``, and a failure raises ``message(i, where)`` for the
first flat index i whose trailing tests in ``ok`` are not all true, with
``where = stack_position(lead, i)``.  Warnings name their entry through
``first_failure``, the same lookup without the raise.
"""

import math
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


def check_chunk(first):
    """Raise DomainError unless ``first`` is a non-negative integer chunk
    number; a bool or a float is rejected, not read as one."""
    if not _is_integer(first) or first < 0:
        raise DomainError(f"first chunk must be a non-negative integer, got {_plain(first)!r}")


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


def stack_position(lead, flat_index):
    """Where a flat stack index lies: '' for a single entry, else
    ' at stack index i' (an index tuple for several leading axes)."""
    if not lead:
        return ""
    index = tuple(int(i) for i in np.unravel_index(flat_index, lead))
    return f" at stack index {index[0] if len(index) == 1 else index}"


def first_failure(ok, lead):
    """None when every test of ``ok`` holds, else (i, where): the first of
    the math.prod(lead) stack entries with a false test in its trailing
    axes, and where = stack_position(lead, i).  Rows reduce on failure only."""
    if ok.all():
        return None
    # as bool: the tests of an object array (Python ints) are Python bools
    rows = np.asarray(ok, dtype=bool).reshape(math.prod(lead), -1)
    i = int(np.argmin(rows.all(axis=1)))
    return i, stack_position(lead, i)


def require(ok, lead, message, error=DomainError):
    """Raise ``error(message(i, where))`` for the first failure of ``ok``
    over a stack of leading shape ``lead`` (see first_failure); the message
    is built only then.  NaN fails x <= tol and passes ~(x > tol)."""
    failure = first_failure(ok, lead)
    if failure:
        raise error(message(*failure))
