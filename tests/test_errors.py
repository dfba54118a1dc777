"""Every library error survives pickling with its type and message.

Sharded workers report a failing cell's exception to the parent through
the process pool, which pickles it; an error that does not come back
intact renames the failure, and one that cannot be unpickled at all breaks
the whole pool.
"""

import pickle

import pytest

import repro.errors as errors

#: Constructor arguments of the classes that take more than a message.
ARGUMENTS = {
    "UnknownChipError": ("X9", ("M1", "M2")),
    "VersionMismatchError": ("store/manifest.json", "1.1.0", "1.2.0"),
}


def instance(name: str) -> BaseException:
    return getattr(errors, name)(*ARGUMENTS.get(name, (f"a {name}",)))


@pytest.mark.parametrize("name", errors.__all__)
def test_every_error_round_trips_through_pickle(name):
    original = instance(name)
    revived = pickle.loads(pickle.dumps(original))
    assert type(revived) is type(original)
    assert str(revived) == str(original)
    assert vars(revived) == vars(original)


def test_custom_constructors_keep_their_message_and_fields():
    chip = pickle.loads(pickle.dumps(instance("UnknownChipError")))
    assert str(chip) == "unknown chip 'X9' (known: M1, M2)"
    assert (chip.name, chip.known) == ("X9", ("M1", "M2"))
    stale = pickle.loads(pickle.dumps(instance("VersionMismatchError")))
    assert (stale.written_by, stale.running) == ("1.1.0", "1.2.0")


def test_a_rewritten_message_survives():
    # ResultEnvelope.load prefixes the file path onto a refusal's args
    original = instance("VersionMismatchError")
    original.args = (f"envelope file x.json: {original}",)
    revived = pickle.loads(pickle.dumps(original))
    assert str(revived) == str(original)
