"""The base of the value types: read-only fields, compared, hashed and shown by value."""


class Value:
    """Fields named by _fields in __init__'s order, set there by _set.

    _set also keeps them as one tuple, _values, which ==, hash, repr and copies read.
    """

    __slots__ = ("_values",)

    def _set(self, *values) -> None:
        put = object.__setattr__
        put(self, "_values", values)
        for name, value in zip(self._fields, values):
            put(self, name, value)

    def __eq__(self, other):
        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values
