"""Every name the benchmark's tracer patches still exists where it patches it.

``perfbench/tracing.py`` imports only the standard library, so it is loaded
from its file here; a renamed or moved function then fails this test rather
than a benchmark run."""

import importlib.util
import pathlib

import pytest

import tensortree.cli  # the package itself does not import cli
from tensortree.model import SampleSet

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                               ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("owner_name, attr", [row[:2] for row in tracing.TARGETS])
def test_target_is_an_attribute_of_its_owner(owner_name, attr):
    assert attr in tracing._resolve(tensortree, owner_name).__dict__


def test_from_csv_is_a_classmethod():
    assert isinstance(SampleSet.__dict__["from_csv"], classmethod)
