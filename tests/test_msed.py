import errno
import gc
import os

import numpy as np
import pytest

from musedec import msed, neurodata, stimfeat


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4), (2, 2, 2, 3)])
def test_round_trip_identity(tmp_path, dtype, shape):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=shape).astype(dtype)
    path = tmp_path / "t.msed"
    msed.write_tensor(path, arr)
    back = msed.read_tensor(path)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert np.array_equal(back.view(np.uint8), arr.view(np.uint8))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.msed"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(msed.BadMagic):
        msed.read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.msed"
    msed.write_tensor(path, np.ones((4, 4)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(msed.DimMismatch):
        msed.read_tensor(path)


@pytest.mark.parametrize("edit", [lambda b: b[:-1], lambda b: b + b"\x00"], ids=["one-byte-short", "one-byte-long"])
def test_payload_off_by_one_byte(tmp_path, edit):
    path = tmp_path / "t.msed"
    msed.write_tensor(path, np.ones((3, 2), dtype=np.float32))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(msed.DimMismatch, match="payload is"):
        msed.read_tensor(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "t.msed"
    msed.write_tensor(path, np.ones((3, 2)))
    path.write_bytes(path.read_bytes()[:9])
    with pytest.raises(msed.DimMismatch, match="truncated header"):
        msed.read_tensor(path)


@pytest.mark.parametrize("shape", [(), (0,), (2, 0, 3)])
def test_empty_and_scalar_tensors(tmp_path, shape):
    path = tmp_path / "t.msed"
    arr = np.full(shape, 2.5)
    msed.write_tensor(path, arr)
    back = msed.read_tensor(path)
    assert back.shape == shape and back.dtype == np.float64
    np.testing.assert_array_equal(back, arr)


def test_rewrite_leaves_a_read_tensor_intact(tmp_path):
    path = tmp_path / "t.msed"
    msed.write_tensor(path, np.arange(4096.0))  # several pages, so a truncated map would fault past the first
    old = msed.read_tensor(path)
    msed.write_tensor(path, np.ones(3))
    np.testing.assert_array_equal(old, np.arange(4096.0))
    np.testing.assert_array_equal(msed.read_tensor(path), np.ones(3))


def test_writing_a_read_tensor_leaves_its_file(tmp_path):
    path = tmp_path / "t.msed"
    msed.write_tensor(path, np.arange(6.0).reshape(2, 3))
    blob = path.read_bytes()
    arr = msed.read_tensor(path)
    arr[...] = np.nan
    assert np.isnan(arr).all()
    assert path.read_bytes() == blob
    np.testing.assert_array_equal(msed.read_tensor(path), np.arange(6.0).reshape(2, 3))


class _FullDisk:
    """A binary file whose writes fail after the first, as on a full disk."""

    def __init__(self, file, mode):
        self.fh, self.writes = open(file, mode), 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)


def _failing_replace(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


@pytest.mark.parametrize("fault", ["payload-write", "replace"])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, fault):
    path = tmp_path / "t.msed"
    msed.write_tensor(path, np.arange(5.0))
    blob = path.read_bytes()
    if fault == "payload-write":
        monkeypatch.setattr(msed, "open", _FullDisk, raising=False)
    else:
        monkeypatch.setattr(msed.os, "replace", _failing_replace)
    with pytest.raises(OSError):
        msed.write_tensor(path, np.zeros((4, 4)))
    assert path.read_bytes() == blob
    assert os.listdir(tmp_path) == ["t.msed"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_dropping_an_experiment_closes_its_descriptors(tmp_path):
    features = stimfeat.synth_features(20, 3, 4, 5, seed=0)
    datasets, _ = neurodata.synth_generate(2, 20, 3, 4, features, snr=5.0, seed=1)
    manifest = neurodata.write_experiment(tmp_path, datasets, features, "same-stimuli")
    del features, datasets
    gc.collect()
    before = len(os.listdir("/proc/self/fd"))
    loaded = neurodata.load_experiment(manifest)
    assert len(os.listdir("/proc/self/fd")) == before + 4  # llv, hlv and two subjects' responses
    del loaded
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == before


def test_unknown_dtype_code(tmp_path):
    path = tmp_path / "t.msed"
    msed.write_tensor(path, np.ones(2))
    blob = bytearray(path.read_bytes())
    blob[5] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(msed.MsedError):
        msed.read_tensor(path)


def test_integer_ids_read_as_strings(tmp_path):
    path = tmp_path / "ids.json"
    msed.write_ids(path, [1, "b", 30])
    assert msed.read_ids(path) == ["1", "b", "30"]


@pytest.mark.parametrize("ids", [["a", "b", "a"], [1, "1", 2]])  # 1 reads as "1"
def test_duplicate_ids_rejected(tmp_path, ids):
    path = tmp_path / "ids.json"
    msed.write_ids(path, ids)
    with pytest.raises(msed.ManifestError, match="duplicate stimulus ids"):
        msed.read_ids(path)


def test_string_ids_read_as_given(tmp_path):
    path = tmp_path / "ids.json"
    msed.write_ids(path, ["s2", "s10", "1"])
    assert msed.read_ids(path) == ["s2", "s10", "1"]


@pytest.mark.parametrize("text", ['[true]', '["a", false]', '[1.5]', '[null]', '[["a"]]', '{"a": 1}', '"a"'])
def test_ids_of_other_types_rejected(tmp_path, text):
    path = tmp_path / "ids.json"
    path.write_text(text)
    with pytest.raises(msed.ManifestError, match="not a JSON list of strings or integers"):
        msed.read_ids(path)


def _row_by_row_labels_csv(path):
    """The earlier per-row parser, kept as the oracle for the inputs it accepted."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        assert header[0] == "stimulus_id"
        ids, rows = [], []
        for line in fh:
            parts = line.strip().split(",")
            if not parts or parts == [""]:
                continue
            ids.append(parts[0])
            rows.append([int(v) for v in parts[1:]])
    return ids, np.array(rows, dtype=np.float64)


def _assert_same_parse(path):
    ids, rows = msed.read_labels_csv(path)
    want_ids, want_rows = _row_by_row_labels_csv(path)
    assert ids == want_ids
    assert rows.dtype == want_rows.dtype == np.float64 and rows.shape == want_rows.shape
    assert rows.tobytes() == want_rows.tobytes()
    return ids, rows


def test_labels_csv_round_trip(tmp_path):
    labels = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.float64)
    path = tmp_path / "labels.csv"
    msed.write_labels_csv(path, ["s0", "s1"], labels)
    ids, back = _assert_same_parse(path)
    assert ids == ["s0", "s1"]
    np.testing.assert_array_equal(back, labels)


def test_labels_csv_large_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    labels = (rng.random((300, 40)) < 0.2).astype(np.float64)
    path = tmp_path / "labels.csv"
    msed.write_labels_csv(path, [f"stim_{i}" for i in range(300)], labels)
    _, back = _assert_same_parse(path)
    np.testing.assert_array_equal(back, labels)


@pytest.mark.parametrize(
    "body, rows",
    [
        ("a,+1,0\nb,0,+1\n", [[1, 0], [0, 1]]),
        ("a, 1,0\nb,0 , 1\n", [[1, 0], [0, 1]]),
        ("a,1,0\n\n   \nb,0,1\n\n", [[1, 0], [0, 1]]),
        ("a,1,0\r\nb,0,1\r\n", [[1, 0], [0, 1]]),
        ("a,-1,2\nb,0,0", [[-1, 2], [0, 0]]),
        ("a,1,0\n", [[1, 0]]),
    ],
    ids=["plus-sign", "spaces", "blank-lines", "crlf", "no-final-newline", "one-row"],
)
def test_labels_csv_odd_inputs_parse_as_before(tmp_path, body, rows):
    path = tmp_path / "labels.csv"
    path.write_bytes(("stimulus_id,class_0,class_1\n" + body).encode())
    _, back = _assert_same_parse(path)
    np.testing.assert_array_equal(back, rows)


def test_labels_csv_without_rows(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("stimulus_id,class_0,class_1\n\n")
    ids, rows = msed.read_labels_csv(path)
    assert ids == [] and rows.shape == (0, 2) and rows.dtype == np.float64


@pytest.mark.parametrize(
    "text",
    [
        "stimulus_id,class_0,class_1\na,1,x\n",
        "stimulus_id,class_0,class_1\na,1,0\nb,1\n",
        "stimulus_id,class_0,class_1\na,1,1.0\n",
        "stimulus_id,class_0,class_1\na,1,\n",
        "stimulus_id,class_0,class_1\na,,1\n",
        "stimulus_id,class_0,class_1\na,1,0\nb,1,0,1\n",
        "stimulus_id,class_0,class_1\na,1,0,1\nb,1,0,1\n",
        "stimulus_id,class_0,class_1\na,1,0\nb\n",
        "stimulus_id,class_0,class_1\na\n",
        "stimulus_id,class_0,class_1\na,1,0#1\n",
        "stimulus_id,class_0\na,99999999999999999999\n",
        "sid,class_0\na,1\n",
        "stimulus_id\na\n",
    ],
    ids=[
        "letter", "missing-last-cell", "float", "empty-last-cell", "empty-cell", "extra-column",
        "extra-column-every-row", "id-only-row", "only-id-only-rows", "comment-char", "int64-overflow",
        "bad-header", "no-classes",
    ],
)
def test_malformed_labels_csv_is_manifest_error(tmp_path, text):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    with pytest.raises(msed.ManifestError, match="labels.csv"):
        msed.read_labels_csv(path)


def test_fuzz_round_trip_corpus(tmp_path):
    rng = np.random.default_rng(1234)
    for i in range(100):
        ndim = int(rng.integers(1, 5))
        shape = tuple(int(rng.integers(1, 6)) for _ in range(ndim))
        dtype = np.float32 if rng.integers(2) else np.float64
        arr = rng.normal(size=shape).astype(dtype)
        path = tmp_path / f"f{i}.msed"
        msed.write_tensor(path, arr)
        back = msed.read_tensor(path)
        assert np.array_equal(back.view(np.uint8), arr.view(np.uint8))
        assert back.dtype == arr.dtype and back.shape == arr.shape
