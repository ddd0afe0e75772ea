// Package tcpnet carries Atum traffic between real-time runtimes over TCP —
// the node layer's "network transport protocol for reliable inter-node
// message transmission" (paper §3, Figure 1) for deployments that span
// processes or hosts.
//
// Wire format (spec: docs/WIRE.md): every frame is length-prefixed and its
// first body byte tags it. A connection starts with one 'H' hello frame
// identifying the dialing node, then carries 'W' frames: an envelope whose
// message is encoded by Options.Codec (normally core.MessageCodec, the
// engine's deterministic wire envelope, which covers engine messages and
// application raw-message types registered in the wire extension range). A
// message the codec cannot encode is dropped and counted. One outbound
// connection per destination address is cached and re-dialed on failure;
// inbound connections are accepted concurrently.
//
// Addresses come from the actor.AddrBook flow: the engine reports every
// (node ID, address) pair it learns from compositions and join handshakes,
// so the transport can dial nodes it has never talked to.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"atum/internal/actor"
	"atum/internal/ids"
	"atum/internal/wire"
)

// Codec serializes engine messages through the deterministic wire envelope.
// core.MessageCodec implements it; the interface lives here so the transport
// stays independent of the engine.
type Codec interface {
	// EncodeMessage returns the message's wire-envelope bytes, or false when
	// the type is outside the codec's message set (the transport then drops
	// the message: Stats.DroppedCodec).
	EncodeMessage(msg actor.Message) ([]byte, bool)
	// DecodeMessage reverses EncodeMessage.
	DecodeMessage(b []byte) (actor.Message, error)
}

// Envelope is one transported message.
type Envelope struct {
	From ids.NodeID
	To   ids.NodeID
	Msg  actor.Message
}

// Options configures a Transport.
type Options struct {
	// ListenAddr is the TCP address to accept peer connections on
	// (e.g. "127.0.0.1:7946", ":7946", or ":0" for an ephemeral port).
	ListenAddr string
	// AdvertiseAddr is the address other nodes should dial; defaults to the
	// listener's actual address (useful with ":0").
	AdvertiseAddr string
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write (default 10s).
	WriteTimeout time.Duration
	// MaxFrame bounds the size of an accepted frame (default 64 MiB).
	MaxFrame int
	// QueueLen is the per-destination outbound queue length (default 1024);
	// when a destination's queue is full, messages to it are dropped —
	// the transport is allowed to be lossy, protocols retry by timeout.
	QueueLen int
	// Codec encodes and decodes every transported message — pass
	// atum.WireMessageCodec(), i.e. core.MessageCodec, which covers engine
	// messages and registered application raw types. Required: New rejects
	// a nil Codec.
	Codec Codec
	// Logf, when set, receives transport debug logs.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = 64 << 20
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 1024
	}
	return o
}

// Deliverer receives inbound messages; *rtnet.Runtime implements it.
type Deliverer interface {
	Deliver(from, to ids.NodeID, msg actor.Message)
}

// Transport carries wire-framed messages over TCP. It implements
// rtnet.Transport.
type Transport struct {
	opts      Options
	self      ids.NodeID
	deliverTo Deliverer
	listener  net.Listener
	advertise string

	mu      sync.Mutex
	addrs   map[ids.NodeID]string
	peers   map[string]*peer // keyed by remote address
	inbound map[net.Conn]bool
	closed  bool

	wg sync.WaitGroup

	statMu sync.Mutex
	stats  Stats
}

// Stats counts transport-level activity.
type Stats struct {
	Sent         int64 // envelopes queued for transmission
	Delivered    int64 // envelopes handed to the deliverer
	DroppedAddr  int64 // sends dropped: unknown destination address
	DroppedQ     int64 // sends dropped: destination queue full or closed
	DroppedCodec int64 // sends dropped: the codec cannot encode the message
	Dials        int64 // outbound connection attempts
	DialErrs     int64 // failed dials
	Accepts      int64 // accepted inbound connections
}

// New creates a transport listening on opts.ListenAddr, delivering inbound
// messages for any hosted node to d. self identifies the local node for
// hello frames (use the node's ID; with several nodes behind one transport,
// any hosted ID works — hellos only seed the peer address book).
func New(self ids.NodeID, d Deliverer, opts Options) (*Transport, error) {
	if opts.Codec == nil {
		return nil, errors.New("tcpnet: Options.Codec is required (pass atum.WireMessageCodec())")
	}
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", opts.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", opts.ListenAddr, err)
	}
	adv := opts.AdvertiseAddr
	if adv == "" {
		adv = ln.Addr().String()
	}
	if len(adv) > maxHelloAddr {
		ln.Close()
		return nil, fmt.Errorf("tcpnet: advertise address is %d bytes, limit %d", len(adv), maxHelloAddr)
	}
	t := &Transport{
		opts:      opts,
		self:      self,
		deliverTo: d,
		listener:  ln,
		advertise: adv,
		addrs:     make(map[ids.NodeID]string),
		peers:     make(map[string]*peer),
		inbound:   make(map[net.Conn]bool),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the address peers should dial (the advertise address).
func (t *Transport) Addr() string { return t.advertise }

// Stats returns a snapshot of the transport counters.
func (t *Transport) Stats() Stats {
	t.statMu.Lock()
	defer t.statMu.Unlock()
	return t.stats
}

func (t *Transport) bump(f func(*Stats)) {
	t.statMu.Lock()
	f(&t.stats)
	t.statMu.Unlock()
}

// LearnAddr implements rtnet.Transport (actor.AddrBook pass-through).
func (t *Transport) LearnAddr(id ids.NodeID, addr string) {
	if id == 0 || addr == "" {
		return
	}
	t.mu.Lock()
	t.addrs[id] = addr
	t.mu.Unlock()
}

// LookupAddr returns the last learned address for a node.
func (t *Transport) LookupAddr(id ids.NodeID) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.addrs[id]
	return a, ok
}

// Send implements rtnet.Transport: it queues the envelope on the (possibly
// new) connection to the destination's learned address. Unknown addresses
// and full queues drop the message.
func (t *Transport) Send(from, to ids.NodeID, msg actor.Message) {
	t.bump(func(s *Stats) { s.Sent++ })
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	addr, ok := t.addrs[to]
	if !ok || addr == t.advertise {
		// Unknown, or it's ourselves (a hosted node the runtime should have
		// routed locally; dropping mirrors a self-addressed datagram).
		t.mu.Unlock()
		t.bump(func(s *Stats) { s.DroppedAddr++ })
		return
	}
	p := t.peers[addr]
	if p == nil {
		p = newPeer(t, addr)
		t.peers[addr] = p
	}
	t.mu.Unlock()

	if !p.enqueue(Envelope{From: from, To: to, Msg: msg}) {
		t.bump(func(s *Stats) { s.DroppedQ++ })
	}
}

// Close shuts the listener and all connections down and waits for the
// transport's goroutines.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.peers = make(map[string]*peer)
	conns := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	err := t.listener.Close()
	for _, p := range peers {
		p.close()
	}
	for _, c := range conns {
		c.Close() // unblocks the readLoops
	}
	t.wg.Wait()
	return err
}

// --- inbound ---

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.bump(func(s *Stats) { s.Accepts++ })
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	r := newFrameReader(conn, t.opts.MaxFrame, t.opts.Codec)

	// Hello first: learn how to dial this peer back.
	from, addr, err := r.readHello()
	if err != nil {
		t.logf("tcpnet: bad hello from %v: %v", conn.RemoteAddr(), err)
		return
	}
	t.LearnAddr(from, addr)

	for {
		env, err := r.readEnvelope()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.logf("tcpnet: read from %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
		t.bump(func(s *Stats) { s.Delivered++ })
		t.deliverTo.Deliver(env.From, env.To, env.Msg)
	}
}

func (t *Transport) logf(format string, args ...any) {
	if t.opts.Logf != nil {
		t.opts.Logf(format, args...)
	}
}

// --- outbound peer ---

// peer owns the outbound connection to one remote address: a queue, a
// writer goroutine, and redial-on-failure.
type peer struct {
	t    *Transport
	addr string
	q    chan Envelope
	done chan struct{}
	once sync.Once
}

func newPeer(t *Transport, addr string) *peer {
	p := &peer{
		t:    t,
		addr: addr,
		q:    make(chan Envelope, t.opts.QueueLen),
		done: make(chan struct{}),
	}
	t.wg.Add(1)
	go p.writeLoop()
	return p
}

func (p *peer) enqueue(env Envelope) bool {
	select {
	case <-p.done:
		return false
	default:
	}
	select {
	case p.q <- env:
		return true
	default:
		return false // full: drop, protocols retry by timeout
	}
}

func (p *peer) close() { p.once.Do(func() { close(p.done) }) }

func (p *peer) writeLoop() {
	defer p.t.wg.Done()
	var conn net.Conn
	var enc wire.Encoder // frame scratch, reused across frames
	codecLogged := false // one DroppedCodec log line per connection
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()

	backoff := 50 * time.Millisecond
	for {
		select {
		case <-p.done:
			return
		case env := <-p.q:
			mb, ok := p.t.opts.Codec.EncodeMessage(env.Msg)
			if !ok {
				// Dropped before the connection is touched: it stays up.
				p.t.bump(func(s *Stats) { s.DroppedCodec++ })
				if !codecLogged {
					codecLogged = true
					p.t.logf("tcpnet: drop to %s: the codec does not cover %T", p.addr, env.Msg)
				}
				continue
			}
			for conn == nil {
				select {
				case <-p.done:
					return
				default:
				}
				p.t.bump(func(s *Stats) { s.Dials++ })
				c, err := net.DialTimeout("tcp", p.addr, p.t.opts.DialTimeout)
				if err != nil {
					p.t.bump(func(s *Stats) { s.DialErrs++ })
					p.t.logf("tcpnet: dial %s: %v", p.addr, err)
					select {
					case <-p.done:
						return
					case <-time.After(backoff):
					}
					if backoff < 2*time.Second {
						backoff *= 2
					}
					continue
				}
				backoff = 50 * time.Millisecond
				conn = c
				codecLogged = false
				if err := p.write(conn, helloFrame(&enc, p.t.self, p.t.advertise)); err != nil {
					p.t.logf("tcpnet: hello to %s: %v", p.addr, err)
					conn.Close()
					conn = nil
				}
			}
			if err := p.write(conn, envelopeFrame(&enc, env.From, env.To, mb)); err != nil {
				p.t.logf("tcpnet: write to %s: %v", p.addr, err)
				conn.Close()
				conn = nil
				// The envelope is lost; later traffic redials.
			}
		}
	}
}

func (p *peer) write(conn net.Conn, frame []byte) error {
	if err := conn.SetWriteDeadline(time.Now().Add(p.t.opts.WriteTimeout)); err != nil {
		return err
	}
	_, err := conn.Write(frame)
	return err
}

// --- framing ---
//
// Each frame is a 4-byte big-endian length followed by that many body bytes.
// The first body byte tags the frame (wire primitives throughout):
//
//	'H': [from uint64][addr string] — the dialer's node ID and listen
//	     address; exactly one, first on every connection;
//	'W': [from uint64][to uint64][len-prefixed message] — the message bytes
//	     are Options.Codec's (core.MessageCodec: a wire-envelope frame).

// Frame tags.
const (
	frameHello = 'H'
	frameWire  = 'W'
)

// maxHelloAddr bounds the listen address a hello may carry (a DNS name of at
// most 253 bytes, ':' and a port); maxHelloFrame is the resulting frame
// bound, checked before the body is read.
const (
	maxHelloAddr  = 253 + 1 + 5
	maxHelloFrame = 1 + 8 + 4 + maxHelloAddr
)

// beginFrame starts a frame in e: a length placeholder, then the tag.
func beginFrame(e *wire.Encoder, tag byte) {
	e.Reset()
	e.Uint32(0)
	e.Byte(tag)
}

// endFrame fills the length in and returns the frame, valid until e is
// reused: one Write per frame.
func endFrame(e *wire.Encoder) []byte {
	b := e.Bytes()
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

func helloFrame(e *wire.Encoder, from ids.NodeID, addr string) []byte {
	beginFrame(e, frameHello)
	e.Uint64(uint64(from))
	e.String(addr)
	return endFrame(e)
}

// envelopeFrame frames one message already encoded by the codec.
func envelopeFrame(e *wire.Encoder, from, to ids.NodeID, msg []byte) []byte {
	beginFrame(e, frameWire)
	e.Uint64(uint64(from))
	e.Uint64(uint64(to))
	e.VarBytes(msg)
	return endFrame(e)
}

type frameReader struct {
	r     io.Reader
	max   int
	codec Codec
	// body is the reusable frame buffer: the decoders copy everything they
	// keep (the wire codec's field decoders copy VarBytes), so one grow-only
	// buffer per connection replaces an allocation per frame. maxPooledBody
	// bounds what one large frame can pin for the connection's lifetime.
	body []byte
}

// maxPooledBody caps the frame buffer capacity a reader retains across
// frames; larger frames fall back to a one-off allocation.
const maxPooledBody = 1 << 20

func newFrameReader(r io.Reader, max int, codec Codec) *frameReader {
	return &frameReader{r: r, max: max, codec: codec}
}

// buffer returns a length-n read buffer, reusing the retained one when it
// fits.
func (fr *frameReader) buffer(n int) []byte {
	if n <= cap(fr.body) {
		return fr.body[:n]
	}
	b := make([]byte, n)
	if n <= maxPooledBody {
		fr.body = b
	}
	return b
}

// readFrame reads one frame of at most max bytes carrying the given tag and
// returns a decoder over the body behind the tag. The body aliases the
// reusable buffer: it is valid until the next read.
func (fr *frameReader) readFrame(tag byte, max int) (*wire.Decoder, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n <= 0 || n > max {
		return nil, fmt.Errorf("frame size %d out of range", n)
	}
	body := fr.buffer(n)
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return nil, err
	}
	if body[0] != tag {
		return nil, fmt.Errorf("frame tag %#x where %q expected", body[0], tag)
	}
	return wire.NewDecoder(body[1:]), nil
}

// readHello returns the dialer's node ID and the listen address to dial it
// back on.
func (fr *frameReader) readHello() (ids.NodeID, string, error) {
	d, err := fr.readFrame(frameHello, maxHelloFrame)
	if err != nil {
		return 0, "", err
	}
	from, addr := ids.NodeID(d.Uint64()), d.String()
	if err := d.Finish(); err != nil {
		return 0, "", fmt.Errorf("decode hello: %w", err)
	}
	return from, addr, nil
}

func (fr *frameReader) readEnvelope() (Envelope, error) {
	d, err := fr.readFrame(frameWire, fr.max)
	if err != nil {
		return Envelope{}, err
	}
	env := Envelope{From: ids.NodeID(d.Uint64()), To: ids.NodeID(d.Uint64())}
	// A view, not a copy: DecodeMessage's field decoders copy what they
	// keep, so nothing aliases the reusable body buffer afterwards.
	mb := d.VarBytesView()
	if err := d.Finish(); err != nil {
		return Envelope{}, fmt.Errorf("decode wire frame: %w", err)
	}
	if env.Msg, err = fr.codec.DecodeMessage(mb); err != nil {
		return Envelope{}, fmt.Errorf("decode wire frame: %w", err)
	}
	return env, nil
}
