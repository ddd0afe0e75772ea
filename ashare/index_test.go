package ashare

import (
	"testing"

	"atum"
	"atum/internal/crypto"
)

func meta(owner uint64, name string, size int) FileMeta {
	return FileMeta{
		Key: FileKey{Owner: atum.NodeID(owner), Name: name}, Size: size,
		ChunkSize: 1 << 20, ChunkDigests: []crypto.Digest{crypto.Hash([]byte(name))},
	}
}

func TestIndexPutLookupDelete(t *testing.T) {
	ix := NewIndex()
	m := meta(1, "a.txt", 100)
	ix.Put(m)
	got, ok := ix.Lookup(m.Key)
	if !ok || got.Size != 100 {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d", ix.Len())
	}
	ix.Delete(m.Key)
	if _, ok := ix.Lookup(m.Key); ok {
		t.Error("Delete did not remove the record")
	}
}

func TestIndexReplicas(t *testing.T) {
	ix := NewIndex()
	m := meta(1, "r.bin", 10)
	ix.Put(m)
	ix.AddReplica(m.Key, 5)
	ix.AddReplica(m.Key, 3)
	ix.AddReplica(m.Key, 5) // duplicate
	got := ix.Replicas(m.Key)
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("Replicas = %v, want [3 5]", got)
	}
	ix.Delete(m.Key)
	if len(ix.Replicas(m.Key)) != 0 {
		t.Error("Delete should clear replicas")
	}
}

func TestIndexSearch(t *testing.T) {
	ix := NewIndex()
	ix.Put(meta(1, "report-2026.pdf", 1))
	ix.Put(meta(2, "report-2025.pdf", 2))
	ix.Put(meta(1, "music.mp3", 3))
	if got := ix.Search("report"); len(got) != 2 {
		t.Errorf("Search(report) = %d hits, want 2", len(got))
	}
	if got := ix.Search("n1/"); len(got) != 2 {
		t.Errorf("Search(n1/) = %d hits, want 2 (owner-scoped)", len(got))
	}
	if got := ix.Search("absent"); len(got) != 0 {
		t.Errorf("Search(absent) = %v", got)
	}
	// Results are sorted deterministically.
	got := ix.Search("report")
	if got[0].Key.String() > got[1].Key.String() {
		t.Error("search results not sorted")
	}
}

func TestBuildMetaChunks(t *testing.T) {
	content := make([]byte, 2_500_000)
	m := BuildMeta(7, "big", content, 1<<20)
	if m.NumChunks() != 3 {
		t.Errorf("NumChunks = %d, want 3", m.NumChunks())
	}
	if m.Size != len(content) {
		t.Errorf("Size = %d", m.Size)
	}
	empty := BuildMeta(7, "empty", nil, 1<<20)
	if empty.NumChunks() != 1 {
		t.Errorf("empty file should have 1 sentinel chunk, got %d", empty.NumChunks())
	}
}
