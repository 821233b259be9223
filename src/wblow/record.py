"""The base of the result records: plain slotted classes, without ``dataclasses``.

A record's fields are its ``__init__`` parameters, in order: they become its
``__slots__``, which ``__init__`` fills with ``set_field`` in straight-line
code.  The base gives ``==`` and ``hash`` by value (never equal across
classes), the dataclass repr, copies and pickles rebuilt through ``__init__``,
and ``dataclasses.FrozenInstanceError`` on assignment or deletion.  A record
has two fields or more.
"""

from operator import attrgetter

set_field = object.__setattr__  # the record's own __setattr__ refuses


class _RecordType(type):
    def __new__(mcls, name, bases, namespace):
        init = namespace.get("__init__")  # Record itself has none, and no fields
        fields = init.__code__.co_varnames[1 : init.__code__.co_argcount] if init else ()
        namespace = {**namespace, "__slots__": fields}
        if fields:
            namespace["_values"] = attrgetter(*fields)  # the fields, as a tuple
        return super().__new__(mcls, name, bases, namespace)


class Record(metaclass=_RecordType):
    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # only on this error path
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError  # only on this error path
        raise FrozenInstanceError(f"cannot delete field {name!r}")
