// Package ashare is AShare, the file sharing application of paper §4.2.
//
// Atum provides the messaging and membership layer; AShare adds:
//
//   - a metadata index — a complete soft-state copy at every node, mapping
//     files to replicas and chunk digests (the paper used SQLite; this
//     implementation substitutes a pure-Go in-memory indexed store with the
//     same insert/delete/lookup/search semantics);
//   - randomized replication with a feedback loop (Fig. 5): every node
//     replicates a file with probability (ρ−c)/n until ρ replicas exist;
//   - chunked parallel GET with per-chunk SHA-256 integrity checks —
//     corrupted chunks are re-pulled from another replica.
package ashare

import (
	"bytes"
	"errors"
	"fmt"

	"atum"
	"atum/internal/crypto"
)

// FileKey identifies a file by owner and name (§4.2.1: per-user namespaces,
// exclusive write access for the owner).
type FileKey struct {
	Owner atum.NodeID
	Name  string
}

// String implements fmt.Stringer.
func (k FileKey) String() string { return fmt.Sprintf("%v/%s", k.Owner, k.Name) }

// FileMeta is the index record for one file.
type FileMeta struct {
	Key          FileKey
	Size         int
	ChunkSize    int
	ChunkDigests []crypto.Digest
}

// NumChunks returns the number of chunks.
func (m FileMeta) NumChunks() int { return len(m.ChunkDigests) }

// clone deep-copies the record (the ChunkDigests slice is the only
// reference field): index accessors hand out clones so callers can never
// alias — and thus corrupt — the stored metadata.
func (m FileMeta) clone() FileMeta {
	if m.ChunkDigests != nil {
		m.ChunkDigests = append([]crypto.Digest(nil), m.ChunkDigests...)
	}
	return m
}

// Options configures an AShare node.
type Options struct {
	// Rho is the replication target ρ (paper: 0.1–0.3 of system size).
	Rho int
	// SystemSize estimates n for the replication probability (ρ−c)/n.
	SystemSize int
	// ChunkSize is the transfer unit (paper experiments: 1 MiB).
	ChunkSize int
	// Corrupt makes this node a Byzantine replica: every chunk it serves is
	// corrupted (§6.2's fault injection).
	Corrupt bool
	// ParallelPulls bounds concurrent chunk requests per GET (1 = the
	// paper's "simple" mode; >1 = "parallel").
	ParallelPulls int
}

func (o Options) withDefaults() Options {
	if o.Rho <= 0 {
		o.Rho = 3
	}
	if o.SystemSize <= 0 {
		o.SystemSize = 10
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 1 << 20
	}
	if o.ParallelPulls <= 0 {
		o.ParallelPulls = 4
	}
	return o
}

// Service is one node's AShare instance. Single-goroutine discipline: all
// methods must be called from the node's actor context (in simulation, from
// harness code between Run calls is also safe).
type Service struct {
	node *atum.Node
	opts Options

	index  *Index
	chunks map[FileKey][][]byte // replicas stored locally

	gets map[FileKey]*getState
	rand uint64

	// shedServes counts chunk responses dropped by egress overflow;
	// deferredReplications counts replication rounds skipped under pressure.
	shedServes           uint64
	deferredReplications uint64
}

type getState struct {
	meta      FileMeta
	got       [][]byte
	remaining int
	inflight  map[int]atum.NodeID
	tried     map[int]map[atum.NodeID]bool
	done      func(content []byte, corruptRetries int, err error)
	retries   int
}

// New creates the service; pass its Callbacks to the node, then Bind once
// the node exists.
func New(opts Options) *Service {
	return &Service{
		opts:   opts.withDefaults(),
		index:  NewIndex(),
		chunks: make(map[FileKey][][]byte),
		gets:   make(map[FileKey]*getState),
	}
}

// Bind attaches the service to its node.
func (s *Service) Bind(node *atum.Node) { s.node = node }

// Index returns the node's metadata index (a complete copy, §4.2).
func (s *Service) Index() *Index { return s.index }

// Callbacks returns the Atum callbacks AShare needs: Deliver for the
// metadata broadcasts and OnRawMessage for chunk transfer. Replication and
// GET fan-out pace themselves by reading the node's egress pressure.
func (s *Service) Callbacks() atum.Callbacks {
	return atum.Callbacks{Deliver: s.deliver, OnRawMessage: s.handleRaw}
}

// FlowStats reports the service's load-shedding counters: chunk responses
// dropped by egress overflow, and replication rounds deferred because the
// local egress was congested.
func (s *Service) FlowStats() (shedServes, deferredReplications uint64) {
	return s.shedServes, s.deferredReplications
}

// --- broadcast records (the metadata update protocol) ---

type putRecord struct {
	Meta FileMeta
}

type replicaRecord struct {
	Key  FileKey
	Node atum.NodeID
}

type deleteRecord struct {
	Key FileKey
}

type chunkRequest struct {
	Key FileKey
	Idx int
}

type chunkResponse struct {
	Key  FileKey
	Idx  int
	Data []byte
}

// Put stores a file under this node's namespace: chunk it, broadcast the
// metadata (making it visible system-wide), and keep the first replica.
func (s *Service) Put(name string, content []byte) (FileMeta, error) {
	if s.node == nil || !s.node.IsMember() {
		return FileMeta{}, errors.New("ashare: node is not a member")
	}
	meta := BuildMeta(s.node.Identity().ID, name, content, s.opts.ChunkSize)
	s.chunks[meta.Key] = split(bytes.Clone(content), s.opts.ChunkSize)
	if err := s.node.BroadcastWith(encodeRecord(putRecord{Meta: meta}), atum.BroadcastOpts{}); err != nil {
		return FileMeta{}, err
	}
	// Announce ourselves as the first replica.
	if err := s.node.BroadcastWith(encodeRecord(replicaRecord{Key: meta.Key, Node: meta.Key.Owner}), atum.BroadcastOpts{}); err != nil {
		return FileMeta{}, err
	}
	return meta, nil
}

// Delete removes a file (owner only): every node drops the metadata and any
// replicas.
func (s *Service) Delete(name string) error {
	if s.node == nil {
		return errors.New("ashare: unbound service")
	}
	key := FileKey{Owner: s.node.Identity().ID, Name: name}
	return s.node.BroadcastWith(encodeRecord(deleteRecord{Key: key}), atum.BroadcastOpts{})
}

// Search returns the metadata of files whose key contains the term (§4.2.2:
// resolved entirely from the local index).
func (s *Service) Search(term string) []FileMeta { return s.index.Search(term) }

// Get pulls a file: chunks are requested in parallel from all replicas,
// verified against the indexed digests, and re-pulled from another replica
// when an integrity check fails. done fires with the assembled content and
// the number of corrupt-chunk retries.
func (s *Service) Get(key FileKey, done func(content []byte, corruptRetries int, err error)) {
	meta, ok := s.index.Lookup(key)
	if !ok {
		done(nil, 0, fmt.Errorf("ashare: %v not in index", key))
		return
	}
	if _, active := s.gets[key]; active {
		done(nil, 0, fmt.Errorf("ashare: GET already in progress for %v", key))
		return
	}
	g := &getState{
		meta:      meta,
		got:       make([][]byte, meta.NumChunks()),
		remaining: meta.NumChunks(),
		inflight:  make(map[int]atum.NodeID),
		tried:     make(map[int]map[atum.NodeID]bool),
		done:      done,
	}
	s.gets[key] = g
	s.pump(key, g)
}

// pump issues chunk requests up to the parallelism bound.
func (s *Service) pump(key FileKey, g *getState) {
	replicas := s.index.Replicas(key)
	if len(replicas) == 0 {
		delete(s.gets, key)
		g.done(nil, g.retries, fmt.Errorf("ashare: no replicas for %v", key))
		return
	}
	for idx := 0; idx < g.meta.NumChunks() && len(g.inflight) < s.opts.ParallelPulls; idx++ {
		if g.got[idx] != nil {
			continue
		}
		if _, busy := g.inflight[idx]; busy {
			continue
		}
		for {
			target, ok := s.pickReplica(g, idx, replicas)
			if !ok {
				delete(s.gets, key)
				g.done(nil, g.retries, fmt.Errorf("ashare: all replicas failed for chunk %d of %v", idx, key))
				return
			}
			// A request shed at our own egress (ErrEgressOverflow under flow
			// control) would wedge the GET if the chunk were marked inflight:
			// no response ever arrives and nothing retries. Treat the send
			// failure like a failed replica for this chunk and re-pick —
			// exhausting every replica fails the GET explicitly.
			if err := s.node.SendRawWith(target, chunkRequest{Key: key, Idx: idx}, atum.SendOpts{}); err != nil {
				tried := g.tried[idx]
				if tried == nil {
					tried = make(map[atum.NodeID]bool)
					g.tried[idx] = tried
				}
				tried[target] = true
				continue
			}
			g.inflight[idx] = target
			break
		}
	}
}

// pickReplica spreads chunk requests over replicas, skipping ones that
// already served us a corrupt copy of this chunk and — while alternatives
// exist — ones toward which our egress is pressured (GET fan-out pacing:
// spread away from congested links; if every usable replica is pressured,
// proceed anyway so a GET never stalls on the pressure signal).
func (s *Service) pickReplica(g *getState, idx int, replicas []atum.NodeID) (atum.NodeID, bool) {
	tried := g.tried[idx]
	var fallback atum.NodeID
	haveFallback := false
	for i := 0; i < len(replicas); i++ {
		s.rand = s.rand*6364136223846793005 + 1442695040888963407
		cand := replicas[(idx+int(s.rand>>33))%len(replicas)]
		if tried[cand] {
			continue
		}
		if s.node.EgressPressure(cand) == atum.PressureLow {
			return cand, true
		}
		fallback, haveFallback = cand, true
	}
	for _, cand := range replicas {
		if tried[cand] {
			continue
		}
		if s.node.EgressPressure(cand) == atum.PressureLow {
			return cand, true
		}
		fallback, haveFallback = cand, true
	}
	return fallback, haveFallback
}

// handleRaw is the node's OnRawMessage hook.
func (s *Service) handleRaw(from atum.NodeID, msg any) {
	switch m := msg.(type) {
	case chunkRequest:
		parts, ok := s.chunks[m.Key]
		if !ok || m.Idx < 0 || m.Idx >= len(parts) {
			return
		}
		data := parts[m.Idx]
		if s.opts.Corrupt {
			data = bytes.Clone(data)
			if len(data) > 0 {
				data[0] ^= 0xFF
			} else {
				data = []byte{0xFF}
			}
		}
		// Chunk data outranks bulk floods (PriorityData evicts stream-class
		// traffic on overflow) but is still droppable. A silent drop would
		// stall the requester (it retries only on a response), so a shed
		// serve is answered with an empty busy-signal instead: it rides
		// PriorityControl (evicting data/bulk if need be), fails the
		// requester's integrity check, and reroutes the pull to another
		// replica through the existing corrupt-chunk retry path. (For a
		// legitimately empty chunk the signal IS the correct response —
		// Hash(nil) matches the digest.) The signal is tiny and
		// Control-class, so only a queue already full of Control traffic can
		// reject it too; that residual no-response window is what request
		// timeouts / receiver-fed backpressure would close (ROADMAP).
		err := s.node.SendRawWith(from, chunkResponse{Key: m.Key, Idx: m.Idx, Data: data},
			atum.SendOpts{Priority: atum.PriorityData})
		if err != nil {
			s.shedServes++
			_ = s.node.SendRawWith(from, chunkResponse{Key: m.Key, Idx: m.Idx}, atum.SendOpts{})
		}
	case chunkResponse:
		s.handleChunk(from, m)
	}
}

func (s *Service) handleChunk(from atum.NodeID, m chunkResponse) {
	g, ok := s.gets[m.Key]
	if !ok || m.Idx < 0 || m.Idx >= g.meta.NumChunks() || g.got[m.Idx] != nil {
		return
	}
	if g.inflight[m.Idx] != from {
		return
	}
	delete(g.inflight, m.Idx)
	if crypto.Hash(m.Data) != g.meta.ChunkDigests[m.Idx] {
		// Integrity check failed: remember the bad replica and re-pull.
		g.retries++
		tried, ok := g.tried[m.Idx]
		if !ok {
			tried = make(map[atum.NodeID]bool)
			g.tried[m.Idx] = tried
		}
		tried[from] = true
		s.pump(m.Key, g)
		return
	}
	g.got[m.Idx] = m.Data
	g.remaining--
	if g.remaining == 0 {
		delete(s.gets, m.Key)
		g.done(bytes.Join(g.got, nil), g.retries, nil)
		return
	}
	s.pump(m.Key, g)
}

// deliver processes broadcast index updates (PUT/replica/DELETE records).
func (s *Service) deliver(d atum.Delivery) {
	v, err := decodeRecord(d.Data)
	if err != nil {
		return
	}
	switch r := v.(type) {
	case putRecord:
		if r.Meta.Key.Owner != d.Origin {
			return // §4.2.1: owners have exclusive write access
		}
		s.index.Put(r.Meta)
		s.maybeReplicate(r.Meta.Key)
	case replicaRecord:
		if r.Node != d.Origin {
			return
		}
		s.index.AddReplica(r.Key, r.Node)
		// Feedback loop (Fig. 5): keep replicating until ρ copies exist.
		s.maybeReplicate(r.Key)
	case deleteRecord:
		if r.Key.Owner != d.Origin {
			return
		}
		s.index.Delete(r.Key)
		delete(s.chunks, r.Key)
	}
}

// maybeReplicate runs one round of the randomized replication algorithm:
// replicate with probability (ρ−c)/n.
func (s *Service) maybeReplicate(key FileKey) {
	if s.node == nil || !s.node.IsMember() {
		return
	}
	self := s.node.Identity().ID
	if _, have := s.chunks[key]; have {
		return
	}
	c := len(s.index.Replicas(key))
	if c >= s.opts.Rho || c == 0 {
		return
	}
	// Replication is background work: while our egress reports any
	// destination at High or worse, don't volunteer — pulling ρ·size bytes
	// and re-serving them would add load exactly when the system is shedding
	// it. The feedback loop re-offers the chance on every later
	// replicaRecord broadcast, so deferral costs only time.
	if s.egressPressured() {
		s.deferredReplications++
		return
	}
	p := float64(s.opts.Rho-c) / float64(s.opts.SystemSize)
	s.rand = s.rand*6364136223846793005 + uint64(self)
	if float64(s.rand>>40)/float64(1<<24) > p {
		return
	}
	// Nominate ourselves: read the file, then announce the replica.
	s.Get(key, func(content []byte, _ int, err error) {
		if err != nil {
			return
		}
		meta, ok := s.index.Lookup(key)
		if !ok {
			return
		}
		s.chunks[key] = split(content, meta.ChunkSize)
		_ = s.node.BroadcastWith(encodeRecord(replicaRecord{Key: key, Node: self}), atum.BroadcastOpts{})
	})
}

// egressPressured reports whether any destination of the node's egress is at
// High or worse.
func (s *Service) egressPressured() bool {
	for _, d := range s.node.Stats().Egress.Dests {
		if d.Level != atum.PressureLow {
			return true
		}
	}
	return false
}

// HoldReplica force-installs a local replica (experiment setup helper).
func (s *Service) HoldReplica(meta FileMeta, content []byte) {
	s.chunks[meta.Key] = split(bytes.Clone(content), meta.ChunkSize)
	s.index.Put(meta)
	s.index.AddReplica(meta.Key, s.node.Identity().ID)
}

// BuildMeta computes the metadata record for content without storing it
// (experiment setup helper).
func BuildMeta(owner atum.NodeID, name string, content []byte, chunkSize int) FileMeta {
	meta := FileMeta{Key: FileKey{Owner: owner, Name: name}, Size: len(content), ChunkSize: chunkSize}
	for _, part := range split(content, chunkSize) {
		meta.ChunkDigests = append(meta.ChunkDigests, crypto.Hash(part))
	}
	return meta
}

// split cuts content into chunks of chunkSize bytes, the last one shorter.
// The chunks are views into content. An empty file is one empty chunk, so
// it has a digest to check and a chunk 0 to serve.
func split(content []byte, chunkSize int) [][]byte {
	if len(content) == 0 {
		return [][]byte{nil}
	}
	var parts [][]byte
	for off := 0; off < len(content); off += chunkSize {
		end := min(off+chunkSize, len(content))
		parts = append(parts, content[off:end:end])
	}
	return parts
}
