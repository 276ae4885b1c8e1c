"""Exception types shared across the library, and the decorator of its records."""

import reprlib


class UlsetError(Exception):
    """Base class for every error raised by this library."""


class InvalidInput(UlsetError, ValueError):
    """Malformed, out-of-range or dimensionally inconsistent input."""


class DirectionRejected(UlsetError):
    """Direction vector failed its recession-cone certificate."""


class Unsupported(UlsetError):
    """Operation is not defined for this set representation."""


class PreconditionFailed(UlsetError):
    """A documented precondition of the operation does not hold."""


class EmptyContour(UlsetError):
    """No cell of the sampling grid produced a usable function value."""


def _assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make cls a frozen record of its annotated fields, in order; a field
    with a class-level value defaults to it.

    It behaves as ``@dataclass(frozen=True, eq=False)`` does: ``__init__``
    takes the fields as its parameters, as the dataclass's does, so Python
    binds the arguments and raises its TypeErrors, then calls
    ``__post_init__`` if the class has one; ``__repr__`` (unless the class
    defines one) reads ``Name(field=value, ...)``; assigning or deleting an
    attribute raises AttributeError; equality is identity. Instances keep
    their ``__dict__``, where ``cached_property`` stores and where
    ``__post_init__`` normalises a field with ``object.__setattr__``.
    """
    names = tuple(cls.__annotations__)
    defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}
    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
    # one _set per field: vars(self).update would turn the instance's
    # key-sharing dict into a combined one, which takes more memory
    body = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    namespace = {"_defaults": defaults, "_set": object.__setattr__, "__name__": cls.__module__}
    exec(f"def __init__(self, {params}): {'; '.join(body)}", namespace)
    __init__ = namespace["__init__"]

    @reprlib.recursive_repr()
    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({fields})"

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    __repr__.__qualname__ = f"{cls.__qualname__}.__repr__"
    cls.__init__, cls.__setattr__, cls.__delattr__ = __init__, _assign, _delete
    if "__repr__" not in vars(cls):
        cls.__repr__ = __repr__
    return cls
