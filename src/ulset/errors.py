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
    takes the fields by position or keyword, raises the same TypeErrors and
    then calls ``__post_init__`` if the class has one; ``__repr__`` (unless
    the class defines one) reads ``Name(field=value, ...)``; assigning or
    deleting an attribute raises AttributeError; equality is identity. The
    methods are closures, so defining a record compiles no code. Instances
    keep their ``__dict__``, where ``cached_property`` stores and where
    ``__post_init__`` normalises a field with ``object.__setattr__``.
    """
    names = tuple(cls.__annotations__)
    defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}
    init = f"{cls.__qualname__}.__init__()"
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        if len(args) > len(names):
            least = f"from {len(names) - len(defaults) + 1} to " if defaults else ""
            raise TypeError(f"{init} takes {least}{len(names) + 1} positional arguments but "
                            f"{len(args) + 1} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{init} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{init} got multiple values for argument {name!r}")
            values[name] = value
        missing = [repr(n) for n in names if n not in values and n not in defaults]
        if missing:
            listed = " and ".join(missing[-2:])
            if len(missing) > 2:
                listed = ", ".join(missing[:-1]) + ", and " + missing[-1]
            raise TypeError(f"{init} missing {len(missing)} required positional argument"
                            f"{'s' if len(missing) > 1 else ''}: {listed}")
        return [values[n] if n in values else defaults[n] for n in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        vars(self).update(zip(names, args))
        if post_init:
            self.__post_init__()

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
