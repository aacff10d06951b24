"""Error contract of the scenario-file parser.

Each example scenario file, with one field at any depth replaced by a
malformed value (a string, NaN, an infinity, a list, ``None`` or a
negative number), must either still parse or be refused with a
:class:`~repro.exceptions.ConfigurationError` -- the error the CLI
reports as one line with exit code 2.  No other exception may escape
:func:`~repro.scenarios.spec.load_specs`.

CI runs this module under the derandomized profile
(``HYPOTHESIS_PROFILE=ci`` plus ``--hypothesis-seed=0``, see
``tests/conftest.py``), so the examples drawn are stable across runs.
"""

import copy
import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.scenarios.spec import ScenarioSpec, load_specs

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("scenario_*.json"))
DOCUMENTS = [json.loads(path.read_text(encoding="utf-8")) for path in EXAMPLES]


def field_paths(node, path=()):
    """The key path of every field of a JSON document, at any depth."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


TARGETS = [(index, path) for index, doc in enumerate(DOCUMENTS) for path in field_paths(doc)]

MALFORMED = st.one_of(
    st.text(max_size=6),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), None]),
    st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=3)), max_size=3),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-6, allow_infinity=False),
)


def test_every_example_parses_and_has_fields():
    assert len(DOCUMENTS) >= 4
    assert all(load_specs(doc) for doc in DOCUMENTS)
    assert len(TARGETS) > 100


@settings(max_examples=400, deadline=None)
@given(target=st.sampled_from(TARGETS), value=MALFORMED)
def test_a_malformed_field_is_parsed_or_refused(target, value):
    index, path = target
    document = copy.deepcopy(DOCUMENTS[index])
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        specs = load_specs(document)
    except ConfigurationError:
        return
    assert specs and all(isinstance(spec, ScenarioSpec) for spec in specs)
