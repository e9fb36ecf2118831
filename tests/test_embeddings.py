import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nckit import embeddings as embeddings_mod
from nckit.embeddings import (
    FormatError,
    LabeledEmbeddings,
    load_embeddings,
    partition_by_class,
    save_embeddings,
)


def _random_set(rng, rows=20, dim=3, labels=(0, 3, 7)):
    return LabeledEmbeddings(
        labels=rng.choice(labels, size=rows),
        features=rng.normal(scale=5.0, size=(rows, dim)),
    )


class TestValidation:
    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            LabeledEmbeddings(labels=np.empty(0, dtype=int), features=np.empty((0, 2)))

    def test_rejects_negative_label(self):
        with pytest.raises(ValueError, match="non-negative"):
            LabeledEmbeddings(labels=[-1], features=[[1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="row 1"):
            LabeledEmbeddings(labels=[0, 1], features=[[1.0], [np.nan]])

    @pytest.mark.parametrize("label", [1.7, np.nan, np.inf, 2.0**63])
    def test_rejects_non_integral_float_labels(self, label):
        with pytest.raises(ValueError, match="integers"):
            LabeledEmbeddings(labels=[label, 0.0], features=[[1.0], [2.0]])

    def test_accepts_integral_float_labels(self):
        emb = LabeledEmbeddings(labels=[2.0, 0.0], features=[[1.0], [2.0]])
        np.testing.assert_array_equal(emb.labels, [2, 0])

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            LabeledEmbeddings(labels=[0], features=np.empty((1, 0)))

    def test_arrays_are_read_only(self):
        emb = LabeledEmbeddings(labels=[0], features=[[1.0, 2.0]])
        with pytest.raises(ValueError):
            emb.features[0, 0] = 3.0


class TestCsvFormat:
    def test_parses_two_row_example(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("label,f0,f1\n0,1.0,0.0\n1,0.0,1.0\n")
        emb = load_embeddings(path, format="csv")
        assert emb.n_rows == 2
        assert emb.dim == 2
        assert set(emb.class_ids.tolist()) == {0, 1}
        np.testing.assert_array_equal(emb.features, np.eye(2))

    def test_ragged_row_reports_index(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n1,1.0,2.0,3.0\n")
        with pytest.raises(FormatError, match="row 1"):
            load_embeddings(path, format="csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_embeddings(path, format="csv")

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("label,f0\n")
        with pytest.raises(FormatError, match="no data"):
            load_embeddings(path, format="csv")

    @pytest.mark.parametrize("header", ["lbl,f0", "label,f1,f0", "label", "f0,f1"])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n0,1.0\n")
        with pytest.raises(FormatError, match="header"):
            load_embeddings(path, format="csv")

    def test_non_finite_value_reports_row(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("label,f0\n0,1.0\n1,nan\n")
        with pytest.raises(FormatError, match="row 1"):
            load_embeddings(path, format="csv")

    def test_bad_label_reports_row(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("label,f0\n1.5,1.0\n")
        with pytest.raises(FormatError, match="row 0"):
            load_embeddings(path, format="csv")

    def test_label_beyond_int64_reports_row(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("label,f0\n0,0.5\n99999999999999999999,1.5\n")
        with pytest.raises(FormatError, match="row 1: label 99999999999999999999"):
            load_embeddings(path, format="csv")

    @pytest.mark.parametrize(
        "text,where",
        [("label,f0\r\n0,0.5\r\n", "header"), ("label,f0\n0,0.5\n1, 0.5\r\n", "row 1")],
        ids=["header", "data-row"],
    )
    def test_carriage_return_is_rejected(self, tmp_path, text, where):
        path = tmp_path / "crlf.csv"
        path.write_bytes(text.encode())
        with pytest.raises(FormatError, match=f"{where}: carriage return"):
            load_embeddings(path, format="csv")

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        emb = _random_set(rng)
        path = tmp_path / "rt.csv"
        save_embeddings(emb, path, format="csv")
        loaded = load_embeddings(path, format="csv")
        # shortest round-trip repr makes the csv cycle exact, well inside
        # the 1e-15 relative contract
        assert loaded == emb


    @pytest.mark.parametrize(
        "blob,where",
        [(b"label,f\xe90\n0,0.5\n", "header"), (b"label,f0\n0,0.5\n1,2\x88.5\n", "row 1")],
        ids=["header", "data-row"],
    )
    def test_non_utf8_file_is_a_format_error(self, tmp_path, blob, where):
        path = tmp_path / "latin1.csv"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=f"{where}: not UTF-8 text"):
            load_embeddings(path, format="csv")

    def test_binary_file_read_as_csv_is_a_format_error(self, tmp_path):
        path = tmp_path / "data.nceb"
        save_embeddings(LabeledEmbeddings(labels=[0], features=[[1.0]]), path, format="binary")
        with pytest.raises(FormatError, match="not UTF-8 text"):
            load_embeddings(path)

    def test_written_files_take_the_fast_parse(self, tmp_path):
        emb = _random_set(np.random.default_rng(14), rows=50, dim=4)
        path = tmp_path / "rt.csv"
        save_embeddings(emb, path, format="csv")
        table = embeddings_mod._csv_table(path.read_bytes())
        assert table is not None
        assert np.array_equal(table["label"], emb.labels)
        assert table["f"].tobytes() == emb.features.tobytes()


# tokens both parses agree on, and tokens where int(), float() and loadtxt
# disagree or that the format rejects
_PLAIN_TOKENS = ["0", "3", "12", "0.5", "-2.25", "1e-3", "7.5e2", "-0.0"]
_ODD_TOKENS = [
    "1_0", "\u0661", "\uff11", " 1.5", "+5", "5.0", "-1", str(2**63), str(2**63 - 1),
    "nan", "inf", "-inf", "1e400", "", " ", "\t4", "\x0b4 ", "\x1c7", "7\x1f", "0x1", "x",
]
_TOKEN = st.sampled_from(_PLAIN_TOKENS * 3 + _ODD_TOKENS)


def _outcome(load):
    try:
        emb = load()
    except FormatError as err:
        return str(err), err.row
    return emb.labels.tolist(), emb.features.tobytes()


@pytest.mark.filterwarnings("error")  # a file loadtxt cannot take must not warn either
@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_fast_parse_agrees_with_the_row_loop(tmp_path, data):
    dim = data.draw(st.integers(1, 3), label="dim")
    lines = []
    for _ in range(data.draw(st.integers(1, 5), label="rows")):
        kind = data.draw(st.sampled_from(["row"] * 5 + ["blank", "ragged"]))
        width = dim + 1 if kind == "row" else data.draw(st.sampled_from([1, dim, dim + 2]))
        tokens = data.draw(st.lists(_TOKEN, min_size=width, max_size=width))
        lines.append("" if kind == "blank" else ",".join(tokens))
    text = embeddings_mod._csv_header(dim) + "\n" + "\n".join(lines)
    if data.draw(st.booleans(), label="final newline"):
        text += "\n"
    path = tmp_path / "grid.csv"
    path.write_bytes(text.encode("utf-8"))
    loop = _outcome(lambda: embeddings_mod._csv_rows(text))
    assert _outcome(lambda: load_embeddings(path, format="csv")) == loop


class TestBinaryFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(12)
        emb = _random_set(rng, rows=33, dim=5)
        path = tmp_path / "rt.nceb"
        save_embeddings(emb, path, format="binary")
        loaded = load_embeddings(path, format="binary")
        assert loaded == emb
        assert loaded.features.tobytes() == emb.features.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nceb"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(FormatError, match="magic"):
            load_embeddings(path, format="binary")

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(13)
        emb = _random_set(rng)
        path = tmp_path / "trunc.nceb"
        save_embeddings(emb, path, format="binary")
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="bytes"):
            load_embeddings(path, format="binary")

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.nceb"
        import struct

        path.write_bytes(struct.pack("<4sIQI", b"NCEB", 9, 1, 1) + bytes(12))
        with pytest.raises(FormatError, match="version"):
            load_embeddings(path, format="binary")

    def test_non_finite_payload_reports_row(self, tmp_path):
        import struct

        path = tmp_path / "inf.nceb"
        rows = [
            struct.pack("<I", 0) + struct.pack("<d", 1.0),
            struct.pack("<I", 1) + struct.pack("<d", float("inf")),
        ]
        path.write_bytes(struct.pack("<4sIQI", b"NCEB", 1, 2, 1) + b"".join(rows))
        with pytest.raises(FormatError, match="row 1"):
            load_embeddings(path, format="binary")

    def test_oversized_label_rejected_on_save(self, tmp_path):
        emb = LabeledEmbeddings(labels=[2**32], features=[[1.0]])
        with pytest.raises(ValueError, match="u32"):
            save_embeddings(emb, tmp_path / "big.nceb", format="binary")


def test_unwritable_path_raises_oserror(tmp_path):
    emb = LabeledEmbeddings(labels=[0], features=[[1.0]])
    with pytest.raises(OSError):
        save_embeddings(emb, tmp_path / "no" / "such" / "dir.csv", format="csv")


def test_unknown_format_rejected(tmp_path):
    emb = LabeledEmbeddings(labels=[0], features=[[1.0]])
    with pytest.raises(ValueError, match="format"):
        save_embeddings(emb, tmp_path / "x", format="parquet")
    with pytest.raises(ValueError, match="format"):
        load_embeddings(tmp_path / "x", format="parquet")


class TestPartition:
    def test_groups_by_label(self):
        emb = LabeledEmbeddings(
            labels=[0, 1, 0], features=[[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
        )
        part = partition_by_class(emb)
        assert part.class_ids == (0, 1)
        np.testing.assert_array_equal(part.groups[0], [[1.0, 0.0], [3.0, 0.0]])
        np.testing.assert_array_equal(part.groups[1], [[2.0, 0.0]])

    def test_single_class(self):
        emb = LabeledEmbeddings(labels=[4, 4], features=[[1.0], [2.0]])
        part = partition_by_class(emb)
        assert part.class_ids == (4,)
        assert part.total_rows == 2

    def test_group_sizes_sum(self):
        rng = np.random.default_rng(21)
        labels = np.repeat([2, 5, 9], 50)
        emb = LabeledEmbeddings(labels=labels, features=rng.normal(size=(150, 4)))
        part = partition_by_class(emb)
        assert [part.groups[c].shape[0] for c in part.class_ids] == [50, 50, 50]
        assert part.total_rows == 150

    def test_preserves_row_multiset(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            emb = _random_set(rng, rows=int(rng.integers(5, 40)))
            part = partition_by_class(emb)
            rebuilt = np.concatenate(
                [
                    np.column_stack([np.full(len(part.groups[c]), c), part.groups[c]])
                    for c in part.class_ids
                ]
            )
            original = np.column_stack([emb.labels, emb.features])
            key = lambda arr: arr[np.lexsort(arr.T[::-1])]
            np.testing.assert_array_equal(key(rebuilt), key(original))
            assert all(g.shape[1] == emb.dim for g in part.groups.values())

    def test_appearance_tracks_first_occurrence(self):
        emb = LabeledEmbeddings(labels=[7, 2, 7, 0], features=np.arange(4.0)[:, None])
        part = partition_by_class(emb)
        assert part.appearance == (7, 2, 0)
        assert part.class_ids == (0, 2, 7)

    @pytest.mark.parametrize("ids", [(0, 1, 2, 3), (4, 19, 20, 1000003), (9,)])
    def test_blocks_match_masked_rows(self, ids):
        rng = np.random.default_rng(len(ids) + ids[-1])
        for rows in (1, 7, 300):
            emb = _random_set(rng, rows=rows, dim=5, labels=ids)
            part = partition_by_class(emb)
            present = np.unique(emb.labels)
            assert part.class_ids == tuple(present)
            for c in present:
                # the per-class mask is the oracle for content and row order
                assert np.array_equal(part.groups[int(c)], emb.features[emb.labels == c])
