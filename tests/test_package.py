"""The package's public surface."""

import pytest

import mastforge


@pytest.mark.parametrize("name", mastforge.__all__)
def test_exported_name_resolves(name):
    assert hasattr(mastforge, name)
