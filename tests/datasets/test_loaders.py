"""TSV persistence."""

import pytest

from repro import STDataset
from repro.datasets.loaders import load_tsv, save_tsv
from repro.datasets.synthetic import TWITTER_LIKE, generate_dataset


class TestRoundtrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        original = generate_dataset(TWITTER_LIKE, seed=3, num_users=12)
        path = tmp_path / "data.tsv"
        written = save_tsv(original, path)
        assert written == original.num_objects

        loaded = load_tsv(path)
        assert loaded.num_objects == original.num_objects
        assert loaded.num_users == original.num_users
        # Object-level content survives (users and keywords as strings).
        orig = sorted(
            (str(o.user), o.x, o.y, tuple(sorted(map(str, original.vocab.decode(o.doc)))))
            for o in original.objects
        )
        back = sorted(
            (str(o.user), o.x, o.y, tuple(sorted(map(str, loaded.vocab.decode(o.doc)))))
            for o in loaded.objects
        )
        assert orig == back

    def test_coordinates_exact(self, tmp_path):
        ds = STDataset.from_records([("u", 0.1234567890123456, 1e-9, {"k"})])
        path = tmp_path / "p.tsv"
        save_tsv(ds, path)
        loaded = load_tsv(path)
        assert loaded.objects[0].x == 0.1234567890123456
        assert loaded.objects[0].y == 1e-9


class TestTemporalRoundtrip:
    def test_roundtrip(self, tmp_path):
        from repro.core.temporal import TemporalDataset
        from repro.datasets.loaders import load_temporal_tsv, save_temporal_tsv

        tds = TemporalDataset.from_records(
            [
                ("u", 0.1, 0.2, {"a", "b"}, 100.5),
                ("v", 0.3, 0.4, {"c"}, 200.25),
            ]
        )
        path = tmp_path / "t.tsv"
        assert save_temporal_tsv(tds, path) == 2
        back = load_temporal_tsv(path)
        assert back.dataset.num_objects == 2
        times = sorted(back.timestamps)
        assert times == [100.5, 200.25]

    def test_malformed_temporal_line(self, tmp_path):
        from repro.datasets.loaders import load_temporal_tsv

        path = tmp_path / "bad.tsv"
        path.write_text("u\t0.0\t0.0\ta\n")  # missing timestamp column
        with pytest.raises(ValueError, match="expected 5"):
            load_temporal_tsv(path)


class TestValidation:
    def test_reserved_char_in_keyword(self, tmp_path):
        ds = STDataset.from_records([("u", 0, 0, {"bad,token"})])
        with pytest.raises(ValueError):
            save_tsv(ds, tmp_path / "x.tsv")

    def test_reserved_char_in_user(self, tmp_path):
        ds = STDataset.from_records([("bad\tuser", 0, 0, {"k"})])
        with pytest.raises(ValueError):
            save_tsv(ds, tmp_path / "x.tsv")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only\ttwo\n")
        with pytest.raises(ValueError, match="expected 4"):
            load_tsv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.tsv"
        path.write_text("u\t0.0\t0.0\ta,b\n\nv\t1.0\t1.0\tc\n")
        ds = load_tsv(path)
        assert ds.num_objects == 2

    def test_empty_keyword_list(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("u\t0.0\t0.0\t\n")
        ds = load_tsv(path)
        assert ds.objects[0].doc == ()


class TestColumnarLoader:
    """The one-pass column loader keeps the line-by-line reader's results
    and error messages."""

    def _load(self, tmp_path, data: bytes):
        path = tmp_path / "d.tsv"
        path.write_bytes(data)
        return path, load_tsv(path)

    def test_crlf_same_as_lf(self, tmp_path):
        lines = ["u\t0.5\t0.25\ta,b", "v\t1.5\t2.0\tb,c"]
        _, lf = self._load(tmp_path, ("\n".join(lines) + "\n").encode())
        _, crlf = self._load(tmp_path, ("\r\n".join(lines) + "\r\n").encode())
        assert crlf.objects == lf.objects
        assert crlf.fingerprint() == lf.fingerprint()

    def test_no_trailing_newline(self, tmp_path):
        _, ds = self._load(tmp_path, b"u\t0.5\t0.25\ta\nv\t1.0\t1.0\tb")
        assert ds.num_objects == 2
        assert ds.vocab.decode(ds.objects[1].doc) == frozenset({"b"})

    def test_blank_lines_anywhere(self, tmp_path):
        _, ds = self._load(tmp_path, b"\n\nu\t0.5\t0.25\ta\n\n\nv\t1.0\t1.0\tb\n\n")
        assert [o.user for o in ds.objects] == ["u", "v"]

    def test_duplicate_and_empty_keywords(self, tmp_path):
        _, ds = self._load(tmp_path, b"u\t0.0\t0.0\ta,,b,a,\n")
        assert ds.vocab.decode(ds.objects[0].doc) == frozenset({"a", "b"})
        assert len(ds.objects[0].doc) == 2

    def test_empty_keyword_field_among_others(self, tmp_path):
        _, ds = self._load(tmp_path, b"u\t0.0\t0.0\t\nv\t1.0\t1.0\tk\n")
        assert ds.objects[0].doc == () and ds.objects[0].doc_set == frozenset()
        assert ds.vocab.df("k") == 1

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_same_message_as_from_records(self, tmp_path, bad):
        from repro.errors import DatasetValidationError

        path = tmp_path / "d.tsv"
        path.write_text(f"u\t0.0\t0.0\ta\n\nv\t{bad}\t1.0\tb\nw\t2.0\t{bad}\tc\n")
        with pytest.raises(DatasetValidationError) as loaded:
            load_tsv(path)
        with pytest.raises(DatasetValidationError) as built:
            STDataset.from_records(
                [
                    ("u", 0.0, 0.0, {"a"}),
                    ("v", float(bad), 1.0, {"b"}),
                    ("w", 2.0, float(bad), {"c"}),
                ]
            )
        assert loaded.value.problems == built.value.problems
        assert loaded.value.problems == [
            f"record 1 (user 'v'): non-finite coordinates ({float(bad)!r}, 1.0)",
            f"record 2 (user 'w'): non-finite coordinates (2.0, {float(bad)!r})",
        ]

    def test_wrong_field_count_names_the_line(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("u\t0.0\t0.0\ta\n\nv\t1.0\t1.0\n")
        with pytest.raises(ValueError) as err:
            load_tsv(path)
        assert str(err.value) == (
            f"{path}:3: expected 4 tab-separated fields, got 3"
        )

    def test_too_many_fields(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("u\t0.0\t0.0\ta\tb\n")
        with pytest.raises(ValueError, match=r":1: expected 4 tab-separated fields"):
            load_tsv(path)

    def test_first_bad_line_wins(self, tmp_path):
        # A bad float on line 1 is met before the short line 2, and a bad
        # y on line 1 before a bad x on line 2.
        path = tmp_path / "d.tsv"
        path.write_text("u\tzz\t0.0\ta\nv\t1.0\n")
        with pytest.raises(ValueError, match="to float: 'zz'"):
            load_tsv(path)
        path.write_text("u\t0.0\tyy\ta\nv\txx\t1.0\tb\n")
        with pytest.raises(ValueError, match="to float: 'yy'"):
            load_tsv(path)

    def test_equals_from_records(self, tmp_path):
        original = generate_dataset(TWITTER_LIKE, seed=4, num_users=15)
        path = tmp_path / "d.tsv"
        save_tsv(original, path)
        loaded = load_tsv(path)
        records = []
        for line in path.read_text().splitlines():
            user, x, y, keywords = line.split("\t")
            records.append((user, float(x), float(y), keywords.split(",")))
        built = STDataset.from_records(records)
        assert loaded.objects == built.objects
        assert loaded.vocab.tokens == built.vocab.tokens
        assert loaded.vocab.dfs == built.vocab.dfs
        assert loaded.users == built.users
        assert loaded.fingerprint() == built.fingerprint()
