"""Tests for navigation-map persistence (JSON round-trips)."""

import hashlib
import io
import json

import pytest

from repro.navigation.compiler import compile_map
from repro.navigation.serialize import (
    SerializeError,
    dumps,
    load_map,
    loads,
    map_from_dict,
    map_to_dict,
    save_map,
)
from repro.store.tiered import TieredStore


class TestRoundTrip:
    @pytest.mark.parametrize(
        "host",
        [
            "www.newsday.com",  # branch + More + detail relation
            "www.kbb.com",  # radio widgets
            "cars.yahoo.com",  # labeled wrapper
            "www.usedcarmart.com",  # two handles
        ],
    )
    def test_map_round_trips(self, webbase, host):
        original = webbase.builders[host].map
        restored = loads(dumps(original))
        assert restored.host == original.host
        assert restored.root_id == original.root_id
        assert set(restored.nodes) == set(original.nodes)
        assert restored.edges == original.edges
        for node_id, node in original.nodes.items():
            twin = restored.nodes[node_id]
            assert twin.signature == node.signature
            assert twin.relation_name == node.relation_name
            assert twin.wrapper == node.wrapper
            assert set(twin.forms) == set(node.forms)

    def test_restored_map_compiles_identically(self, webbase):
        original = webbase.builders["www.newsday.com"].map
        restored = loads(dumps(original))
        assert (
            compile_map(restored).program.pretty()
            == compile_map(original).program.pretty()
        )
        original_handles = [
            (h.relation, h.mandatory, h.selection)
            for rel in compile_map(original).relations
            for h in rel.handles
        ]
        restored_handles = [
            (h.relation, h.mandatory, h.selection)
            for rel in compile_map(restored).relations
            for h in rel.handles
        ]
        assert restored_handles == original_handles

    def test_restored_map_executes(self, webbase, world):
        from repro.navigation.executor import NavigationExecutor

        restored = loads(dumps(webbase.builders["www.newsday.com"].map))
        executor = NavigationExecutor(world.server)
        executor.add_site(compile_map(restored))
        rows = executor.fetch("newsday", {"make": "saab"})
        assert len(rows) == len(world.dataset.ads_for("www.newsday.com", make="saab"))

    def test_file_round_trip(self, webbase, tmp_path):
        original = webbase.builders["www.kbb.com"].map
        path = str(tmp_path / "kellys.navmap.json")
        save_map(original, path)
        assert load_map(path).edges == original.edges

    def test_dict_round_trip_is_stable(self, webbase):
        original = webbase.builders["www.nytimes.com"].map
        once = map_to_dict(original)
        twice = map_to_dict(map_from_dict(once))
        assert once == twice


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(SerializeError):
            loads("{not json")

    def test_non_object(self):
        with pytest.raises(SerializeError):
            loads("[1, 2]")

    def test_wrong_format_version(self, webbase):
        data = map_to_dict(webbase.builders["www.kbb.com"].map)
        data["format"] = 99
        with pytest.raises(SerializeError):
            map_from_dict(data)

    def test_unknown_edge_kind(self, webbase):
        data = map_to_dict(webbase.builders["www.kbb.com"].map)
        data["edges"].append({"kind": "teleport", "source": "n0", "target": "n1"})
        with pytest.raises(SerializeError):
            map_from_dict(data)


class TestStoreMetaFile:
    """The tiered store's ``meta.json`` (the persisted navigation maps)."""

    #: sha256 of meta.json for the default world's maps, as the streaming
    #: ``json.dump`` wrote it; the one-shot encoder must write the same.
    META_SHA256 = "b3120682aa32f66788acd88c99c704cb87aa887841b238e6cd57532f8fce94c0"

    def _saved(self, webbase, tmp_path) -> bytes:
        store = TieredStore(str(tmp_path))
        try:
            store.save_navmaps({h: b.map for h, b in webbase.builders.items()})
        finally:
            store.close()
        return (tmp_path / "meta.json").read_bytes()

    def test_meta_bytes_are_pinned(self, webbase, tmp_path):
        data = self._saved(webbase, tmp_path)
        assert hashlib.sha256(data).hexdigest() == self.META_SHA256

    def test_meta_bytes_match_the_streaming_encoder(self, webbase, tmp_path):
        meta = {
            "version": 1,
            "navmaps": {
                host: map_to_dict(builder.map)
                for host, builder in sorted(webbase.builders.items())
            },
        }
        streamed = io.StringIO()
        json.dump(meta, streamed, sort_keys=True, separators=(",", ":"))
        assert self._saved(webbase, tmp_path) == streamed.getvalue().encode("ascii")

    def test_meta_round_trips(self, webbase, tmp_path):
        self._saved(webbase, tmp_path)
        store = TieredStore(str(tmp_path))
        try:
            loaded = store.load_navmaps()
        finally:
            store.close()
        assert set(loaded) == set(webbase.builders)
        for host, navmap in loaded.items():
            assert map_to_dict(navmap) == map_to_dict(webbase.builders[host].map)
