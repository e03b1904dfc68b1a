"""Field-wise value semantics for kscheck's record classes, without dataclasses.

A subclass names its fields in ``_fields``, in constructor order.  ``Value``
compares instances of the same class field by field and prints them as
``Name(field=value, ...)``; it is unhashable, so its instances may change.
``Frozen`` also hashes by the fields and refuses assignment and deletion;
its constructor stores the fields with ``_set``.  Instances keep a
``__dict__``, so a ``functools.cached_property`` works on a frozen value.
"""

from operator import attrgetter


class Value:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            # one getter per class: the field tuple, or the one field's value
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"


class Frozen(Value):
    def __hash__(self):
        return hash(self._key(self))

    def _set(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
