"""clic's outputs equal the golden corpus, record for record.

A change that alters an output on purpose rewrites the corpus with
`PYTHONPATH=src python tests/golden/corpus.py` and commits it.
"""

import difflib
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_corpus", Path(__file__).with_name("golden") / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def test_outputs_match_the_golden_corpus():
    want = corpus.CORPUS.read_text(encoding="utf-8").split("\n\n")
    got = corpus.corpus().split("\n\n")
    for old, new in zip(want, got):
        if old != new:
            diff = difflib.unified_diff(old.splitlines(), new.splitlines(),
                                        "corpus", "now", lineterm="")
            raise AssertionError(f"first differing record: "
                                 f"{old.splitlines()[0]}\n" + "\n".join(diff))
    assert len(got) == len(want), (
        f"{len(got)} records, against {len(want)} in the corpus")
