"""The names in ``meta.json`` are runs, found in NumPy for int names.

``_encode_names`` must write what the name-by-name encoder it replaced
wrote, byte for byte, so an entry stored before the change still reads
and ``meta.json`` does not change. That encoder is kept here as the
oracle.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.frame import DataFrame
from repro.ingest import ColumnStoreCache
from repro.ingest.cache import _decode_names, _encode_names

#: NT3's full width (Table 1): the label, then 60,483 features
NT3_COLUMNS = 60_484


def encode_name_by_name(names) -> list:
    runs: list = []
    for name in names:
        if not isinstance(name, (int, np.integer)):
            runs.append(["s", str(name)])
        elif runs and runs[-1][0] == "r" and runs[-1][2] == int(name):
            runs[-1][2] += 1
        else:
            runs.append(["r", int(name), int(name) + 1])
    return runs


NAMES = {
    "nt3": list(range(NT3_COLUMNS)),
    "empty": [],
    "one": [5],
    "gaps": [0, 1, 2, 7, 8, 3, 3, -4, -3],
    "numpy ints": [np.int32(1), np.int64(2), 3, np.int8(9)],
    "bools": [True, False, True],
    "bool and int": [True, 2, 3],
    "strings": ["a", "b", "1"],
    "mixed": [0, 1, "label", 2, 3, 1.5, None],
    "floats": [0.0, 1.0],
    "tuples": [(1, 2), (3, 4)],
    "ragged tuples": [(1, 2), (3,)],
    "uint64": [np.uint64(2**63), np.uint64(2**63 + 1)],
    "beyond int64": [2**63, 2**63 + 1],
}


@pytest.mark.parametrize("names", NAMES.values(), ids=NAMES.keys())
def test_runs_are_the_name_by_name_runs(names):
    got = _encode_names(names)
    assert json.dumps(got) == json.dumps(encode_name_by_name(names))


def test_int_names_decode_back():
    names = NAMES["gaps"]
    assert list(_decode_names(_encode_names(names))) == names
    assert _decode_names(_encode_names(NAMES["nt3"])) == range(NT3_COLUMNS)


def test_meta_json_at_nt3_width_is_byte_identical(tmp_path):
    """A stored NT3-width entry's ``meta.json`` is the text the
    name-by-name encoder gave."""
    source = tmp_path / "nt3.csv"
    source.write_text("0\n")
    rng = np.random.default_rng(0)
    features = rng.random((2, NT3_COLUMNS - 1))
    labels = np.array([[0], [1]])
    blkno = np.r_[1, np.zeros(NT3_COLUMNS - 1, np.intp)]
    blkloc = np.r_[0, np.arange(NT3_COLUMNS - 1)]
    frame = DataFrame._from_blocks(list(range(NT3_COLUMNS)), [features, labels], blkno, blkloc, 2)
    cache = ColumnStoreCache(tmp_path / "c")
    cache.store(source, frame)
    text = (tmp_path / "c" / cache.entry_dir(source).rsplit("/", 1)[1] / "meta.json").read_text()
    meta = json.loads(text)
    assert meta["names"] == [["r", 0, NT3_COLUMNS]]
    assert text == json.dumps(dict(meta, names=encode_name_by_name(frame.columns)))
