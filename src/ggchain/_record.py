"""Immutable record classes, built without generating code.

``@record`` reads a class's annotations, in order, as its fields and gives it
an ``__init__`` that takes them positionally or by keyword, then runs the
class's ``__post_init__`` if it has one (which may set a field through
``object.__setattr__``).  Assigning or deleting an attribute raises
``AttributeError``.  The repr lists the fields.  With ``eq=True`` two records
are equal when they are of the same class with equal fields, and hash by
their fields; with ``eq=False`` they keep object identity, as records holding
arrays must.  Fields live in the instance ``__dict__``, so ``pickle`` and
``copy`` work unchanged.  The field names are the class attributes
``_fields`` and ``__match_args__``.  Unlike :mod:`dataclasses`, which this
replaces for the package's records, nothing here is compiled at import.
"""


def _bind(cls, args: tuple, kwargs: dict) -> dict:
    """The fields given by ``args`` and ``kwargs``, by name; TypeError unless each is given once."""
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} fields, got {len(args)} positionally")
    values = dict(zip(names, args))
    for name in kwargs:
        if name not in names or name in values:
            problem = "an unexpected" if name not in names else "multiple values for"
            raise TypeError(f"{cls.__name__}() got {problem} field {name!r}")
    values.update(kwargs)
    if len(values) < len(names):
        missing = ", ".join(name for name in names if name not in values)
        raise TypeError(f"{cls.__name__}() missing field(s): {missing}")
    return values


def record(cls=None, *, eq: bool = True):
    """Make ``cls`` an immutable record; usable bare or as ``@record(eq=...)``."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", {}))
    count, known = len(names), frozenset(names)
    post_init = getattr(cls, "__post_init__", None)
    # a record derives from object, so the instance dict's setter is its own
    set_dict = cls.__dict__["__dict__"].__set__

    def __init__(self, *args, **kwargs):
        # the fast path: every field by keyword, adopting the call's own new dict
        if args or len(kwargs) != count or not known.issuperset(kwargs):
            kwargs = _bind(cls, args, kwargs)
        set_dict(self, kwargs)
        if post_init is not None:
            post_init(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    def _values(self):
        return tuple(map(self.__dict__.__getitem__, names))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self):
        return hash(_values(self))

    methods = [__init__, __setattr__, __delattr__, __repr__]
    if eq:
        methods += [__eq__, __hash__]
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
