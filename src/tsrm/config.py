"""One JSON codec for the dataclass config sections: ``from_dict`` checks
keys against the fields and values against their annotations, so a bad
config raises ``ConfigError`` before anything is built or written."""

import dataclasses
import functools
import sys
import typing

from .errors import ConfigError


class Section:
    """Base of a config dataclass. Subclasses name themselves in errors with
    ``_label``; ``_nested`` maps a field to the (object, key) holding it."""

    _nested = {}

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            obj, key = self._nested.get(f.name, (None, f.name))
            (out.setdefault(obj, {}) if obj else out)[key] = _encode(getattr(self, f.name))
        return out

    @classmethod
    def from_dict(cls, d):
        fields = dataclasses.fields(cls)
        objects = {obj for obj, _ in cls._nested.values()}
        flat = dict(_object(d, cls._label,
                            {f.name for f in fields if f.name not in cls._nested} | objects))
        for obj in objects & set(flat):
            keys = {key: name for name, (o, key) in cls._nested.items() if o == obj}
            flat.update((keys[k], v) for k, v in _object(flat.pop(obj), obj, set(keys)).items())
        missing = [f.name for f in fields if f.name not in flat
                   and f.default is f.default_factory is dataclasses.MISSING]
        if missing:
            raise ConfigError(f"{cls._label} lacks required keys: {missing}")
        hints = _type_hints(cls)
        return cls(**{k: _decode(hints[k], v, f"{cls._label} {k}") for k, v in flat.items()})


@functools.cache
def _type_hints(cls) -> dict:
    """A section's field annotations, evaluated once: evaluating them took
    most of a decode (about 0.1 ms of a ``TaskSpec``'s)."""
    return typing.get_type_hints(cls)


def _object(d, label: str, known: set) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{label} must be a JSON object, got {d!r}")
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown {label} keys: {sorted(unknown)}")
    return d


def _encode(value):
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value.to_dict() if isinstance(value, Section) else value


def _decode(tp, value, where: str):
    """``value`` checked against the annotation ``tp``; int takes no bool or
    float, float takes ints but no NaN or infinity."""
    if typing.get_origin(tp) is typing.Union:  # Optional[X]
        if value is None:
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    origin = typing.get_origin(tp)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be an array, got {value!r}")
        return origin(_decode(typing.get_args(tp)[0], v, where) for v in value)
    if issubclass(tp, Section):
        return tp.from_dict(value)
    if tp in (int, float):
        # bounded by the largest float so that no later float conversion overflows
        ok = type(value) in (int, tp) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is tp
    if not ok:
        raise ConfigError(f"{where} must be {'a finite number' if tp is float else tp.__name__}, "
                          f"got {value!r}")
    return value
