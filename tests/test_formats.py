import os
import stat

import numpy as np
import pytest
from embedding_writers import write_embeddings, write_embeddings_csv

from dacs.core import FeatureMatrix, Rng
from dacs.formats import (
    MAGIC,
    ParseError,
    atomic_write_text,
    read_embeddings,
    read_embeddings_csv,
    read_index_file,
    read_scores_file,
)


def f32_matrix(n=7, d=5, seed=0):
    gen = Rng(seed, "fmt").generator()
    # quantize up front so the on-disk float32 payload is lossless
    data = gen.normal(size=(n, d)).astype("<f4").astype(np.float64)
    return FeatureMatrix(data)


class TestBinaryEmbeddings:
    def test_round_trip_is_bitwise(self, tmp_path):
        x = f32_matrix()
        path = tmp_path / "emb.bin"
        write_embeddings(path, x)
        back = read_embeddings(path)
        assert np.array_equal(back.data, x.data)
        assert back.unit_norm is False
        # the pool is the float32 payload; its rows are gathered as float64
        assert back.data.dtype == np.float32 and not back.data.flags.writeable
        assert np.array_equal(back.take(np.arange(x.n)), x.data)

    def test_unit_norm_flag_survives(self, tmp_path):
        x = FeatureMatrix(np.eye(4, 6), unit_norm=True)
        path = tmp_path / "emb.bin"
        write_embeddings(path, x)
        assert read_embeddings(path).unit_norm is True

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"DACSEMB1\x01\x02")
        with pytest.raises(ParseError, match="file has 10"):
            read_embeddings(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"NOTMYFMT" + b"\x00" * 32)
        with pytest.raises(ParseError, match="bad magic"):
            read_embeddings(path)

    def test_payload_size_mismatch_names_both_sizes(self, tmp_path):
        x = f32_matrix(n=3, d=4)
        path = tmp_path / "emb.bin"
        write_embeddings(path, x)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])  # drop two float32 values
        with pytest.raises(ParseError, match="promises 48 bytes.*found 40"):
            read_embeddings(path)

    def test_oversized_file_names_both_sizes(self, tmp_path):
        x = f32_matrix(n=3, d=4)
        path = tmp_path / "emb.bin"
        write_embeddings(path, x)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)  # two float32 values the header does not promise
        with pytest.raises(ParseError, match="promises 48 bytes.*found 56"):
            read_embeddings(path)

    # (rows, columns, offset of the zero count): 2^62 x 0 rows promise an
    # empty payload too large to shape; 3 x 0 and 0 x 4 an empty matrix.
    @pytest.mark.parametrize("n, d, offset", [(2**62, 0, 16), (3, 0, 16), (0, 4, 8)])
    def test_a_header_with_no_rows_or_no_columns_names_its_offset(self, tmp_path, n, d, offset):
        path = tmp_path / "emb.bin"
        path.write_bytes(MAGIC + n.to_bytes(8, "little") + d.to_bytes(8, "little") + b"\x00")
        with pytest.raises(ParseError, match=f"header declares 0 .* at byte offset {offset};"):
            read_embeddings(path)

    def test_header_layout_is_fixed(self, tmp_path):
        x = f32_matrix(n=3, d=4)
        path = tmp_path / "emb.bin"
        write_embeddings(path, x)
        blob = path.read_bytes()
        assert blob[:8] == MAGIC
        assert int.from_bytes(blob[8:16], "little") == 3
        assert int.from_bytes(blob[16:24], "little") == 4
        assert len(blob) == 25 + 3 * 4 * 4


class TestCsvEmbeddings:
    def test_round_trip(self, tmp_path):
        gen = Rng(1, "fmt").generator()
        x = FeatureMatrix(gen.normal(size=(6, 3)))
        path = tmp_path / "emb.csv"
        write_embeddings_csv(path, x)
        back = read_embeddings_csv(path)
        assert np.array_equal(back.data, x.data)

    def test_header_names_are_checked(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ParseError, match="line 1"):
            read_embeddings_csv(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("f0,f1\n")
        with pytest.raises(ParseError, match="no data rows"):
            read_embeddings_csv(path)

    def test_malformed_number_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("f0,f1\n1.0,oops\n")
        with pytest.raises(ParseError, match="malformed CSV"):
            read_embeddings_csv(path)

    def test_single_row_keeps_two_dims(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("f0,f1,f2\n1.0,2.0,3.0\n")
        back = read_embeddings_csv(path)
        assert back.data.shape == (1, 3)


class TestLineFiles:
    def test_index_file_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "idx.txt"
        path.write_text("# labeled rows\n3\n\n1\n 7 \n")
        assert read_index_file(path) == [3, 1, 7]

    def test_index_file_names_the_bad_line(self, tmp_path):
        path = tmp_path / "idx.txt"
        path.write_text("1\n2\nthree\n")
        with pytest.raises(ParseError, match="line 3"):
            read_index_file(path)

    def test_scores_file(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.5\n# comment\n1.25e-3\n")
        assert read_scores_file(path).tolist() == [0.5, 0.00125]

    def test_scores_file_names_the_bad_line(self, tmp_path):
        path = tmp_path / "scores.txt"
        for bad in ("nope", "nan", "inf", "-inf"):
            path.write_text(f"0.5\n{bad}\n")
            with pytest.raises(ParseError, match=f"line 2: '{bad}' is not a finite number"):
                read_scores_file(path)


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_text(tmp_path / "out.json", "payload")
        assert os.listdir(tmp_path) == ["out.json"]

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"]
    )
    def test_the_mode_follows_the_umask(self, tmp_path, umask, mode):
        # the mode open(path, "w") gives a new file, on every write
        path = tmp_path / "out.json"
        old = os.umask(umask)
        try:
            atomic_write_text(path, "first")
            first = stat.S_IMODE(path.stat().st_mode)
            atomic_write_text(path, "second")
        finally:
            os.umask(old)
        assert first == stat.S_IMODE(path.stat().st_mode) == mode

