"""The report writer against the json module it stands in for.

``machine_json(doc)`` must equal ``json.dumps(doc, indent=2,
sort_keys=True)`` byte for byte, on any document a report could hold.
"""

import json
import random

import pytest

from toricfol.audit import machine_json

# Non-ASCII text, both JSON escapes, control characters and a lone surrogate.
ALPHABET = 'ab Z09_-"\\/\n\t\r\x00\x1f\x7f\u00e9\u0662\u00a0\u2003\u4e2d\U0001f600\ud800'


def _text(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))


def _scalar(rng):
    return rng.choice(
        [
            lambda: _text(rng),
            lambda: rng.choice([True, False, None]),
            lambda: rng.randint(-10, 10),
            lambda: rng.choice([-1, 1]) * rng.randrange(10**99, 10**100),
            lambda: rng.choice([0.5, -2.25, 1e100, 0.1]),
        ]
    )()


def _value(rng, depth):
    kind = rng.random()
    if depth == 0 or kind < 0.4:
        return _scalar(rng)
    items = [_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind < 0.6:
        return items
    if kind < 0.7:
        return tuple(items)
    return {_text(rng): item for item in items}


def test_matches_the_json_module_on_random_documents():
    rng = random.Random(2024)
    for _ in range(500):
        doc = {_text(rng): _value(rng, 4) for _ in range(rng.randint(0, 5))}
        assert machine_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [{}, {"a": []}, {"a": {}}, {"a": ()}, {"": [[], {}, [[]]]}])
def test_empty_containers(doc):
    assert machine_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_unencodable_value_raises_as_the_json_module_does():
    with pytest.raises(TypeError, match="not JSON serializable"):
        machine_json({"a": [object()]})
