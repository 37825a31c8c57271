"""Unit and property tests for the page-based storage layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.pager import (
    MAX_RECORD,
    PAGE_SIZE,
    PageFile,
    RecordFile,
    SlottedPage,
    StorageError,
)


class TestPageFile:
    def test_create_and_reopen(self, tmp_path):
        path = str(tmp_path / "test.db")
        with PageFile(path) as pf:
            page_no = pf.allocate_page()
            pf.write_page(page_no, b"x" * PAGE_SIZE)
        with PageFile(path) as pf:
            assert pf.read_page(page_no) == b"x" * PAGE_SIZE
            assert pf.num_pages == 2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.db"
        path.write_bytes(b"NOPE" + b"\x00" * PAGE_SIZE)
        with pytest.raises(StorageError):
            PageFile(str(path))

    def test_wrong_page_size_rejected(self, tmp_path):
        with PageFile(str(tmp_path / "t.db")) as pf:
            page = pf.allocate_page()
            with pytest.raises(StorageError):
                pf.write_page(page, b"short")

    def test_out_of_range(self, tmp_path):
        with PageFile(str(tmp_path / "t.db")) as pf:
            with pytest.raises(StorageError):
                pf.read_page(99)


class TestSlottedPage:
    def test_insert_read(self):
        page = SlottedPage()
        slot_a = page.insert(b"hello")
        slot_b = page.insert(b"world!")
        assert page.read(slot_a) == b"hello"
        assert page.read(slot_b) == b"world!"

    def test_round_trip_through_bytes(self):
        page = SlottedPage()
        slot = page.insert(b"payload")
        reloaded = SlottedPage(page.to_bytes())
        assert reloaded.read(slot) == b"payload"

    def test_full_page_rejects(self):
        page = SlottedPage()
        assert page.insert(b"x" * MAX_RECORD) is not None
        assert page.insert(b"y") is None

    def test_free_space_accounting(self):
        page = SlottedPage()
        before = page.free_space()
        page.insert(b"12345")
        after = page.free_space()
        assert before - after == 5 + 4  # record + one slot entry


class TestRecordFile:
    def test_insert_read_delete(self, tmp_path):
        with PageFile(str(tmp_path / "r.db")) as pf:
            rf = RecordFile(pf)
            rid = rf.insert(b"record one")
            assert rf.read(rid) == b"record one"

    def test_spills_to_new_pages(self, tmp_path):
        with PageFile(str(tmp_path / "r.db")) as pf:
            rf = RecordFile(pf)
            big = b"z" * 1000
            ids = [rf.insert(big) for _ in range(10)]
            pages = {rid[0] for rid in ids}
            assert len(pages) >= 3  # ~3 per page
            for rid in ids:
                assert rf.read(rid) == big

    def test_record_too_large(self, tmp_path):
        with PageFile(str(tmp_path / "r.db")) as pf:
            rf = RecordFile(pf)
            with pytest.raises(StorageError):
                rf.insert(b"x" * (MAX_RECORD + 1))

    def test_scan_order(self, tmp_path):
        with PageFile(str(tmp_path / "r.db")) as pf:
            rf = RecordFile(pf)
            payloads = [f"rec{i}".encode() for i in range(50)]
            for p in payloads:
                rf.insert(p)
            assert [r for _, r in rf.scan()] == payloads

    def test_reopen_and_append(self, tmp_path):
        path = str(tmp_path / "r.db")
        with PageFile(path) as pf:
            RecordFile(pf).insert(b"first")
        with PageFile(path) as pf:
            rf = RecordFile(pf)
            rf.insert(b"second")
            assert [r for _, r in rf.scan()] == [b"first", b"second"]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=300), max_size=60))
def test_record_file_behaves_like_list(tmp_path_factory, payloads):
    """Property: insert/scan agree with an in-memory reference."""
    tmp = tmp_path_factory.mktemp("prop")
    with PageFile(str(tmp / "p.db")) as pf:
        rf = RecordFile(pf)
        live = {}
        for payload in payloads:
            rid = rf.insert(payload)
            assert rid not in live
            live[rid] = payload
        assert dict(rf.scan()) == live
        for rid, payload in live.items():
            assert rf.read(rid) == payload
