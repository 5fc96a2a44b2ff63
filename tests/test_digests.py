"""The bytes every stage writes and prints, pinned by their sha256 digests.

The toy pipeline (``conftest.run_toy_pipeline``: 200 pairs, seed 0) runs
every stage in turn, and each artifact and each stage's standard output
must have the digest written here.  So the README's determinism promise
is checked against fixed bytes, not only run against run, on every
interpreter the tests run on.  A change that means to change what a stage
writes or prints updates these digests and says so.  ``extract`` splits
its pairs and ``predict`` its feature rows over worker processes, so the
test runs at 1, 2 and 3 workers.
"""

import io
import os
from contextlib import redirect_stdout
from hashlib import sha256
from unittest import mock

import pytest

from mtqe.cli import main

import conftest
from conftest import forced_workers, run_toy_pipeline

ARTIFACT_DIGESTS = {
    "src": "9bae75a59f8fe91b23af347bc04141be0781fbde6816347171874673349c5abb",
    "tgt": "13d3d3d9bcf1a9c6a6c97d4f6aa94c2d5c2beb737822a5826eadb1d79dc520e0",
    "judgments": "0f364560803d42932ad36c01bf86b8b64fb259ab4c71bb9210f288ac444033dc",
    "src_lm": "f7b8723240e8ae979bd7917c0942586871b72c967c9336b32e7e855444f69b22",
    "tgt_lm": "aa99c74662a2b5ca88fab64d92ee7a39dff74665c1bf8ef2000c50d20c557d84",
    "lexicon": "0cd0d36ed97cbbf248fb5be27bcce1b7224e177a2b147af448aefe303c793b81",
    "features": "23b594a37f14fdc73955ae28a85a387fe561ffde473bf7a97270bf0ed477619b",
    "model": "51903adbd3c5e539d9c8c011a69db1f3099f8be3222a685a1acd740ae348c2af",
    "predictions": "3f576a55f52cad5cca9c626f311bf1a8380849be2a9cdb636b374e85ddefbbb8",
    "report": "6ba63d688617eece93af8d945a061708f14c028b54370a497deacfb97828d605",
}

# In the order run_toy_pipeline runs the stages.
STDOUT_DIGESTS = [
    ("build-lm", "d76ff1f7e6fb1387821f24fc5f9ca946cad5007abb6658e5e67ae4824f6e7557"),
    ("build-lm", "2f9907c5bf24e2595aa4ed55509c4e89eac90b26c12f733b0d68ecee39f603f8"),
    ("build-lexicon", "a3500ba0c4d7d571c05fa89749ba75b654b2b90f90ebac1bacf626e3dd27ef72"),
    ("extract", "4f960576bdea95931d9a9dc2a3e5977c870e4f53f962f770bb8a9e29e738d638"),
    ("train", "6b6572058e29d979a2d74ebcfe01720559791d3d19d871c70f4c82c3453df280"),
    ("predict", "b0fad3547625cedfc51f004d4e2a04a281424c5e6c862aaacf9a54ef7d6f8a43"),
    ("evaluate", "b2f51685e88a6f7e0824ef0b215c9d3335b743fd2f1d2f0f276defe2bed87ed8"),
]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_toy_pipeline_bytes_are_pinned(tmp_path, workers):
    printed = []

    def main_printing_to_a_buffer(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        printed.append((argv[0], sha256(out.getvalue().encode("utf-8")).hexdigest()))
        return code

    (tmp_path / "data").mkdir()
    (tmp_path / "out").mkdir()
    with forced_workers(workers), \
            mock.patch.object(conftest, "cli_main", main_printing_to_a_buffer), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        paths, codes = run_toy_pipeline(tmp_path / "data", tmp_path / "out", n_pairs=200, seed=0)
    assert codes == [0] * 7
    # extract's and predict's workers, and no other stage forks
    assert fork.call_count == 2 * (workers - 1)
    digests = {key: sha256(path.read_bytes()).hexdigest() for key, path in paths.items()}
    assert digests == ARTIFACT_DIGESTS
    assert printed == STDOUT_DIGESTS
