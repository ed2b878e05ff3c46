import pytest

from rqpkit import synth_corpus
from rqpkit.ingest import save_corpus

pytest_plugins = ["pytester"]

TINY_SEED = 1234


@pytest.fixture(scope="session")
def tiny_corpus():
    """12 labeled 32x32 frames shared by the pipeline-level tests."""
    return synth_corpus(12, seed=TINY_SEED, size=(32, 32))


@pytest.fixture(scope="session")
def tiny_corpus_dir(tiny_corpus, tmp_path_factory):
    """The tiny corpus written to disk; returns the manifest path."""
    out = tmp_path_factory.mktemp("corpus")
    return save_corpus(tiny_corpus, out)
