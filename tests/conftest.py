import json

import pytest
from hypothesis import settings

from strange_segments import parse_model_document

# Example budgets for the properties that set none of their own: "dev" is the
# default, and CI selects the larger "ci" budget with --hypothesis-profile=ci.
settings.register_profile("dev", max_examples=300)
settings.register_profile("ci", max_examples=1500)
settings.load_profile("dev")


def unit_document(**overrides):
    doc = {
        "alpha": 1.0,
        "groups": [{"c": 1, "mu": 0.0, "beta": [1.0]}],
        "phi": [{"lag": 0, "value": 1.0}],
        "innovations": {"type": "gaussian", "cov": [[1.0]]},
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def unit_doc():
    return unit_document()


@pytest.fixture
def unit_spec():
    return parse_model_document(unit_document())


@pytest.fixture
def noisy_unit_spec():
    return parse_model_document(unit_document(noise={"type": "gaussian_noise", "var": 1.0}))


@pytest.fixture
def phi2_spec():
    return parse_model_document(unit_document(phi=[{"lag": 0, "value": 2.0}]))


@pytest.fixture
def cov4_spec():
    return parse_model_document(unit_document(innovations={"type": "gaussian", "cov": [[4.0]]}))


@pytest.fixture
def model_file(tmp_path):
    """Write a model document to disk and return its path."""

    def write(doc, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write
