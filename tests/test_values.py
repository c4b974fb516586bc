"""Every frozen value of absplit is a groups.Value: equal exactly when its
class and its fields are equal, hashed over its fields, and read-only."""

import functools

import pytest

from absplit.groups import (
    CanonicalPresentation,
    FgAbGroup,
    HomGroup,
    Morphism,
    Value,
    canonical_group,
    group,
    hom_group,
    morphism,
)
from absplit.harness import Corpus, enumerate_groups
from absplit.preradicals import Preradical, ppart
from absplit.splitness import (
    Caps,
    Counterexample,
    EndRingView,
    end_ring,
    is_self_F_split_theorem,
)
from absplit.subgroups import ShortExactSequence, Subgroup, fi_ses, sub_from_gens

# A new value class must be added here, with a sample below.
VALUE_CLASSES = (
    FgAbGroup, Morphism, CanonicalPresentation, HomGroup, Subgroup,
    ShortExactSequence, Preradical, Caps, Counterexample, EndRingView, Corpus,
)


def _value_classes(cls=Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_classes(sub)


@functools.cache
def _samples() -> dict:
    m = group(2, 4)
    z4 = group(4)
    twice = sub_from_gens(z4, [(2,)])  # fully invariant, not a summand
    no = is_self_F_split_theorem(z4, twice)
    assert no.is_no
    samples = [
        m,
        morphism(z4, m, [[0], [1]]),
        canonical_group(((2, 0), (0, 4)), 2),
        hom_group(z4, m),
        twice,
        fi_ses(z4, twice),
        ppart(2),
        Caps(subgroup_cap=4),
        no.counterexample,
        end_ring(m),
        enumerate_groups(4),
    ]
    return {type(v): v for v in samples}


def _fields(v: Value) -> tuple:
    return tuple(getattr(v, name) for name in type(v).__slots__)


def _raw(cls, fields: tuple) -> Value:
    """An instance of cls holding fields, past any constructor check."""
    v = object.__new__(cls)
    for name, x in zip(cls.__slots__, fields):
        object.__setattr__(v, name, x)
    return v


def test_every_value_class_is_listed_and_sampled():
    assert set(_value_classes()) == set(VALUE_CLASSES) == set(_samples())


@pytest.mark.parametrize("cls", list(_value_classes()), ids=lambda c: c.__name__)
def test_values_compare_and_hash_on_their_fields_and_are_read_only(cls):
    v = _samples()[cls]
    fields = _fields(v)
    assert fields, "a value has at least one field"

    same = cls(*fields)  # the one positional constructor, in slot order
    with pytest.raises(TypeError):
        cls(*fields, None)
    assert same is not v
    assert same == v and not same != v and hash(same) == hash(v)
    assert len({v, same}) == 1

    for i in range(len(fields)):
        changed = _raw(cls, fields[:i] + (object(),) + fields[i + 1:])
        assert changed != v and v != changed, cls.__slots__[i]

    for other_cls, other in _samples().items():
        if other_cls is not cls:
            assert v != other and other != v
            if len(other_cls.__slots__) == len(fields):
                assert _raw(other_cls, fields) != v

    for name in cls.__slots__:
        with pytest.raises(AttributeError, match="read-only"):
            setattr(v, name, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(v, name)
    assert _fields(v) == fields
