import json
import math

import pytest

from soundscene.dsl import TimeSpan
from soundscene.manifest import decode_event_rows, read_jsonl, write_jsonl_atomic


class TestReadJsonl:
    def test_reads_records_in_order(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"a": 1}\n{"a": 2}\n')
        assert read_jsonl(p) == [{"a": 1}, {"a": 2}]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"a": 1}\n\n   \n{"a": 2}\n')
        assert read_jsonl(p) == [{"a": 1}, {"a": 2}]

    def test_invalid_json_reports_line_number(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"a": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r"m\.jsonl:2"):
            read_jsonl(p)

    def test_non_dict_record_rejected(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="object"):
            read_jsonl(p)

    def test_empty_file_gives_empty_list(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("")
        assert read_jsonl(p) == []


class TestWriteJsonlAtomic:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "out" / "m.jsonl"
        records = [{"id": "a", "x": 1.5}, {"id": "b", "x": None}]
        write_jsonl_atomic(p, records)
        assert read_jsonl(p) == records

    def test_creates_parent_directories(self, tmp_path):
        p = tmp_path / "deep" / "nested" / "m.jsonl"
        write_jsonl_atomic(p, [])
        assert p.exists()
        assert p.read_text() == ""

    def test_no_temp_files_left_behind(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_jsonl_atomic(p, [{"a": 1}])
        assert [f.name for f in tmp_path.iterdir()] == ["m.jsonl"]

    def test_overwrites_previous_content(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_jsonl_atomic(p, [{"a": 1}, {"a": 2}])
        write_jsonl_atomic(p, [{"a": 3}])
        assert read_jsonl(p) == [{"a": 3}]

    def test_unicode_preserved_without_escapes(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_jsonl_atomic(p, [{"caption": "café naïve"}])
        raw = p.read_text(encoding="utf-8")
        assert "café" in raw and "\\u" not in raw
        assert json.loads(raw) == {"caption": "café naïve"}

    def test_unserializable_record_leaves_no_file(self, tmp_path):
        p = tmp_path / "m.jsonl"
        with pytest.raises(TypeError):
            write_jsonl_atomic(p, [{"bad": object()}])
        assert list(tmp_path.iterdir()) == []


class TestDecodeEventRows:
    def test_rows_become_tuples_with_timespan_rounding(self):
        rows = [
            {"label": "dog", "start": -0.001, "end": 2},
            {"label": "Speech", "start": 6.985, "end": 7.5, "transcript": "hi"},
        ]
        decoded = decode_event_rows(rows, "m.jsonl:1")
        assert decoded == [("dog", 0.0, 2.0, None), ("Speech", 6.99, 7.5, "hi")]
        for (_, start, end, _), row in zip(decoded, rows):
            span = TimeSpan(row["start"], row["end"])
            assert (start, end) == (span.start, span.end)
        assert math.copysign(1.0, decoded[0][1]) == 1.0
        assert all(type(t) is float for _, start, end, _ in decoded for t in (start, end))
