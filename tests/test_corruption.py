"""Single-byte corruption sweeps: damage is detected, never silently wrong.

The property under test is the robustness contract of PR 9: flip *any* one
byte of a saved snapshot or WAL record and the system either behaves
bit-identically (the flip landed somewhere semantically inert, e.g. header
padding) or raises a structured error (:class:`CorruptSnapshotError` /
:class:`CorruptRecordError` / :class:`PageStoreError`) -- under
``verify=True`` a snapshot flip is *always* caught, because verification is
a whole-file checksum.

Every sweep flips in place and restores afterwards (XOR is self-inverse),
so one saved artifact serves hundreds of hypothesis examples.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiagramConfig, QueryEngine, generate_query_points, generate_uniform_objects
from repro.faults import corrupt_wal_record, flip_byte, wal_record_offsets
from repro.queries.spec import PNNQuery
from repro.storage.pagestore import CorruptSnapshotError, PageStoreError, verify_snapshot_file
from repro.wal import CorruptRecordError, WriteAheadLog, scan_wal
from repro.wal.drill import synthesize_object

CONFIG = DiagramConfig(page_capacity=16, seed_knn=40, rtree_fanout=16)
BACKENDS = ("ic", "icr", "basic", "rtree")

SWEEP = settings(derandomize=True, deadline=None, max_examples=40)


def _build(backend, count=48, seed=4):
    if backend == "basic":  # exponential worst case; keep its input tiny
        count = 12
    objects, domain = generate_uniform_objects(count, seed=seed, diameter=300.0)
    engine = QueryEngine.build(objects, domain, CONFIG.replace(backend=backend))
    return engine, domain


def _answers(engine, domain, seed=17):
    results = []
    for point in generate_query_points(4, domain, seed=seed):
        result = engine.execute(PNNQuery(point))
        results.append((result.answer_ids, result.probabilities))
    return results


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """One saved snapshot (path, domain, baseline answers) per backend."""
    root = tmp_path_factory.mktemp("corruption")
    built = {}
    for backend in BACKENDS:
        engine, domain = _build(backend)
        path = str(root / f"{backend}.snap")
        engine.save(path)
        built[backend] = (path, domain, _answers(engine, domain))
    return built


class TestSnapshotByteFlips:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(offset_seed=st.integers(min_value=0, max_value=2**32 - 1),
           mask=st.integers(min_value=1, max_value=255))
    @SWEEP
    def test_verified_open_always_detects_a_flip(
        self, snapshots, backend, offset_seed, mask
    ):
        path, _, _ = snapshots[backend]
        size = os.path.getsize(path)
        offset = random.Random(offset_seed).randrange(size)
        flip_byte(path, offset=offset, mask=mask)
        try:
            # Any single flipped bit fails the whole-file checksum; a flip
            # in the version field may instead surface as an unsupported
            # format -- structured either way, never a silent open.
            with pytest.raises(PageStoreError):
                verify_snapshot_file(path)
        finally:
            flip_byte(path, offset=offset, mask=mask)
        verify_snapshot_file(path)  # the restore really restored it

    @given(offset_seed=st.integers(min_value=0, max_value=2**32 - 1),
           mask=st.integers(min_value=1, max_value=255))
    @SWEEP
    def test_unverified_open_is_bit_identical_or_structured(
        self, snapshots, offset_seed, mask
    ):
        """Without up-front verification the lazy CRCs still keep the
        invariant: correct answers or a structured error, never wrong ones."""
        path, domain, baseline = snapshots["ic"]
        size = os.path.getsize(path)
        offset = random.Random(offset_seed).randrange(size)
        flip_byte(path, offset=offset, mask=mask)
        try:
            try:
                engine = QueryEngine.open(path)
                answers = _answers(engine, domain)
            except (PageStoreError, KeyError, ValueError):
                return  # structured refusal at open or first touched page
            assert answers == baseline, (
                f"flip at byte {offset} (mask {mask:#x}) silently changed "
                f"query answers"
            )
        finally:
            flip_byte(path, offset=offset, mask=mask)


class TestWalRecordFlips:
    @pytest.fixture(scope="class")
    def deployment(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("waldir") / "live")
        engine, _ = _build("ic")
        engine.save_generation(directory)
        live = QueryEngine.open_live(directory)
        rng = random.Random(9)
        base = max(live.by_id) + 1000
        for index in range(6):
            live.insert(synthesize_object(base + index, rng, live.domain))
        live.close_wal()
        wal_file = os.path.join(directory, "wal.log")
        scan = scan_wal(wal_file)
        return wal_file, [record.lsn for record in scan.records]

    @given(record_index=st.integers(min_value=0, max_value=5),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           mask=st.integers(min_value=1, max_value=255))
    @SWEEP
    def test_flip_truncates_tail_or_refuses_replay(
        self, deployment, record_index, seed, mask
    ):
        """A flipped record byte yields a bit-identical prefix (torn tail,
        when the damage is in the *last* record) or a refusal to replay
        (mid-log corruption) -- never a silently altered record."""
        wal_file, lsns = deployment
        offset = corrupt_wal_record(wal_file, record_index, seed=seed, mask=mask)
        try:
            scan = scan_wal(wal_file)
            damaged_lsns = [record.lsn for record in scan.records]
            # Every surviving record is from the undamaged prefix.
            assert damaged_lsns == lsns[:record_index], (
                f"flip at byte {offset} of record {record_index} left "
                f"records {damaged_lsns}, expected prefix {lsns[:record_index]}"
            )
            if record_index < len(lsns) - 1:
                # Intact records exist past the break: recovery must refuse
                # to truncate acknowledged history.
                assert scan.is_corrupt
                with pytest.raises(CorruptRecordError):
                    WriteAheadLog(wal_file)
            else:
                # Damage in the last record is indistinguishable from a
                # torn append; a truncating open is the correct recovery.
                assert not scan.is_corrupt
        finally:
            flip_byte(wal_file, offset=offset, mask=mask)
        assert [record.lsn for record in scan_wal(wal_file).records] == lsns

    def test_offsets_cover_every_record(self, deployment):
        wal_file, lsns = deployment
        assert len(wal_record_offsets(wal_file)) == len(lsns)
