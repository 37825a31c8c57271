"""Service + database durability: write-through stores, recovery stats."""

import pytest

from repro.core import Graph
from repro.service import QueryService, ServiceConfig
from repro.storage import GraphDatabase, SimulatedCrash
from repro.storage.faults import CrashPoint
from repro.storage.graphstore import GraphStore

QUERY = ('graph P { node x <label="A">; node y <label="B">; '
         'edge e (x, y); }')


def sample_graph(extra: int = 0) -> Graph:
    g = Graph("g1")
    g.add_node("a", label="A")
    g.add_node("b", label="B")
    g.add_edge("a", "b")
    for i in range(extra):
        g.add_node(f"x{i}", label="X")
    return g


class TestDatabaseDurable:
    def test_attach_register_reload(self, tmp_path):
        path = str(tmp_path / "db.bin")
        database = GraphDatabase()
        recovery = database.attach_durable(path, fsync="never")
        assert recovery.clean
        database.register_durable("data", sample_graph())
        database.close_store()

        fresh = GraphDatabase()
        fresh.attach_durable(path, fsync="never")
        assert fresh.names() == ["data"]
        back = fresh.doc("data")[0]
        assert back.equals(sample_graph())
        assert back.version == sample_graph().version
        fresh.close_store()

    def test_register_durable_requires_store(self):
        database = GraphDatabase()
        with pytest.raises(RuntimeError):
            database.register_durable("data", sample_graph())

    def test_double_attach_rejected(self, tmp_path):
        database = GraphDatabase()
        database.attach_durable(str(tmp_path / "a.bin"), fsync="never")
        with pytest.raises(RuntimeError):
            database.attach_durable(str(tmp_path / "b.bin"), fsync="never")
        database.close_store()

    def test_close_checkpoints_wal(self, tmp_path):
        path = str(tmp_path / "db.bin")
        database = GraphDatabase()
        database.attach_durable(path, fsync="never")
        database.register_durable("data", sample_graph())
        database.register_durable("data", sample_graph(extra=2))
        assert len(database.durable_store.wal.frames()) == 2
        database.close_store()
        # closing compacted the log to one snapshot of the live state
        store = GraphStore(path, fsync="never")
        assert len(store.wal.frames()) == 1
        assert store.load_documents()["data"][0].equals(
            sample_graph(extra=2))
        store.close(checkpoint=False)

    def test_crashed_write_recovers_previous_state(self, tmp_path):
        path = str(tmp_path / "db.bin")
        database = GraphDatabase()
        database.attach_durable(path, fsync="never")
        database.register_durable("data", sample_graph())
        database.close_store()

        store = GraphStore(path, fsync="never",
                           crashpoint=CrashPoint(crash_after=1, seed=1))
        with pytest.raises(SimulatedCrash):
            store.save_document("data", [sample_graph(extra=5)])

        fresh = GraphDatabase()
        recovery = fresh.attach_durable(path, fsync="never")
        assert recovery.ran
        back = fresh.doc("data")[0]
        assert back.equals(sample_graph()) or back.equals(
            sample_graph(extra=5))
        fresh.close_store()


class TestServiceDurable:
    def service(self, tmp_path, **overrides) -> QueryService:
        config = ServiceConfig(workers=2,
                               store_path=str(tmp_path / "svc.bin"),
                               fsync="never", **overrides)
        return QueryService(config)

    def test_write_through_and_restart(self, tmp_path):
        service = self.service(tmp_path)
        assert service.recovery is not None and service.recovery.clean
        service.register("data", sample_graph())
        first = service.execute(QUERY, document="data")
        assert len(first.results) == 1
        stats = service.shutdown()
        assert stats["durability"]["wal_bytes"] > 0
        assert "store_version" not in stats["durability"]

        restarted = self.service(tmp_path)
        assert restarted.database.names() == ["data"]
        again = restarted.execute(QUERY, document="data")
        assert len(again.results) == 1
        assert again.results == first.results
        restarted.shutdown()

    def test_result_cache_keyed_on_recovered_version(self, tmp_path):
        service = self.service(tmp_path)
        service.register("data", sample_graph())
        version = service.document_version("data")
        service.shutdown()

        restarted = self.service(tmp_path)
        # the persisted Graph.version survives the restart, so cache
        # keys from before/after recovery can never alias
        assert restarted.document_version("data") == version
        miss = restarted.execute(QUERY, document="data")
        hit = restarted.execute(QUERY, document="data")
        assert miss.cache == "miss"
        assert hit.cache == "hit"
        assert hit.results == miss.results
        restarted.shutdown()

    def test_stats_have_durability_section(self, tmp_path):
        service = self.service(tmp_path)
        service.register("data", sample_graph())
        durability = service.stats()["durability"]
        assert durability["fsync"] == "never"
        assert durability["recovery"]["ran"] is True
        assert durability["wal_bytes"] > 0  # not yet checkpointed
        service.shutdown()

    def test_no_store_no_durability_section(self):
        service = QueryService(ServiceConfig(workers=1))
        service.register("data", sample_graph())
        assert "durability" not in service.stats()
        service.shutdown()
