"""Vectorized vs sampled-reference column conversion: bit identity.

The vectorized dispatch ladder and the chunk-level NA-substituted cast
must reproduce the sampled-inference engine *exactly* — same values,
same dtypes, same NaN placement — on every edge the CANDLE files (and
their pathological cousins) can contain. The reference is
``_parse_chunk_reference``, a plain oracle ``read_csv`` never calls;
each case reads the file as is and again with the oracle in
``_parse_chunk_fast``'s place (same framing, same chunking).
"""

from contextlib import nullcontext
from unittest import mock

import pytest

import repro.frame.csv as csv_mod
from repro.frame import concat, read_csv


def write(tmp_path, text):
    path = tmp_path / "case.csv"
    path.write_text(text)
    return str(path)


def reference_engine():
    return mock.patch.object(csv_mod, "_parse_chunk_fast", csv_mod._parse_chunk_reference)


def both_engines(path, **kwargs):
    with reference_engine():
        ref = read_csv(path, header=None, low_memory=False, **kwargs)
    vec = read_csv(path, header=None, low_memory=False, **kwargs)
    return ref, vec


def assert_identical(ref, vec):
    assert vec.equals(ref), (ref.dtypes, vec.dtypes)
    assert {str(k): v for k, v in vec.dtypes.items()} == {
        str(k): v for k, v in ref.dtypes.items()
    }


CASES = {
    "nan_spellings": "1.5,na\n2.5,NaN\nnan,N/A\n3.5,null\n4.5,None\n,n/a\n",
    "scientific_notation": "1e3,1.5e-8\n2E4,3.25E+10\n-1e2,na\n1e400,-1e400\n",
    "integral_narrowing": "1,1.0,1.5\n2,2.0,2.5\n3,3.0,na\n",
    "int_then_float_column": "1,7\n2,8\n2.5,9\n",
    "negative_and_whitespace": " 1 ,-2\n-3, 4.5 \n",
    "missing_only_column": "na,1\nna,2\nna,3\n",
    "mixed_with_missing": "0,na,5\n1,2.5,na\n2,na,7\n",
    "float_spelled_integrals": "1.0,na\n2.0,3.0\n4.0,5.0\n",
    "huge_digit_strings": f"{2**60},na\n{2**60 + 1},2.5\n",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bit_identity(tmp_path, name):
    ref, vec = both_engines(write(tmp_path, CASES[name]))
    assert_identical(ref, vec)


def test_bit_identity_with_comments(tmp_path):
    path = write(tmp_path, "# header comment\n1,na\n# middle\n2,3.5\n")
    ref, vec = both_engines(path, comment="#")
    assert_identical(ref, vec)
    assert len(ref) == 2


def test_bit_identity_garbage_past_sample(tmp_path):
    # sampled inference sees only the head; a malformed token beyond it
    # must take the same fallback on both engines
    rows = ["%d,%f" % (i, i / 3.0) for i in range(150)]
    rows[120] = "oops,0.5"
    ref, vec = both_engines(write(tmp_path, "\n".join(rows) + "\n"))
    assert_identical(ref, vec)


def test_bit_identity_overflow_ints_raise_identically(tmp_path):
    # beyond-int64 digit strings: the reference engine's behaviour
    # (crash included) defines the semantics
    path = write(tmp_path, f"{10**25},1\n{10**26},2\n")
    outcomes = []
    for engine in (reference_engine(), nullcontext()):
        with engine:
            try:
                outcomes.append(("frame", read_csv(path, header=None, low_memory=False)))
            except OverflowError:
                outcomes.append(("raises", None))
    assert outcomes[0][0] == outcomes[1][0]
    if outcomes[0][0] == "frame":
        assert_identical(outcomes[0][1], outcomes[1][1])


def test_bit_identity_object_column(tmp_path):
    ref, vec = both_engines(write(tmp_path, "1,abc\n2,def\nna,ghi\n"))
    assert_identical(ref, vec)


def test_bit_identity_chunked_iteration(tmp_path):
    text = "".join(
        f"{i},{'na' if i % 3 == 0 else i / 7.0},{i * 2}\n" for i in range(64)
    )
    path = write(tmp_path, text)

    def read_chunked():
        chunks = list(read_csv(path, header=None, chunksize=10, low_memory=False))
        return concat(chunks, axis=0, ignore_index=True)

    with reference_engine():
        ref = read_chunked()
    assert_identical(ref, read_chunked())


def test_default_is_vectorized(tmp_path, monkeypatch):
    # read_csv never calls the reference, not even for a chunk the C
    # cast refuses or on the low_memory path
    def refuse(*args):
        raise AssertionError("read_csv called the reference engine")

    monkeypatch.setattr(csv_mod, "_parse_chunk_reference", refuse)
    monkeypatch.setattr(csv_mod, "_convert_column_reference", refuse)
    path = write(tmp_path, CASES["mixed_with_missing"] + "3,abc,8\n")
    for low_memory in (False, True):
        assert len(read_csv(path, header=None, low_memory=low_memory)) == 4
