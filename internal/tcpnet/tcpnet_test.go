package tcpnet

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/ids"
	"atum/internal/wire"
)

// testMsg is the one message type stubCodec covers.
type testMsg struct {
	Seq  int
	Body string
}

// foreignMsg is outside stubCodec's message set.
type foreignMsg struct{ X int }

// stubCodec stands in for core.MessageCodec: it encodes testMsg values only.
type stubCodec struct{}

func (stubCodec) EncodeMessage(msg actor.Message) ([]byte, bool) {
	m, ok := msg.(testMsg)
	if !ok {
		return nil, false
	}
	var e wire.Encoder
	e.Int64(int64(m.Seq))
	e.String(m.Body)
	return e.Bytes(), true
}

func (stubCodec) DecodeMessage(b []byte) (actor.Message, error) {
	d := wire.NewDecoder(b)
	m := testMsg{Seq: int(d.Int64()), Body: d.String()}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// sink collects delivered envelopes.
type sink struct {
	mu  sync.Mutex
	got []Envelope
	ch  chan Envelope
}

func newSink() *sink { return &sink{ch: make(chan Envelope, 4096)} }

func (s *sink) Deliver(from, to ids.NodeID, msg actor.Message) {
	env := Envelope{From: from, To: to, Msg: msg}
	s.mu.Lock()
	s.got = append(s.got, env)
	s.mu.Unlock()
	s.ch <- env
}

func (s *sink) wait(t *testing.T, n int, timeout time.Duration) []Envelope {
	t.Helper()
	deadline := time.After(timeout)
	for {
		s.mu.Lock()
		if len(s.got) >= n {
			out := append([]Envelope(nil), s.got...)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		select {
		case <-deadline:
			s.mu.Lock()
			defer s.mu.Unlock()
			t.Fatalf("timed out: got %d envelopes, want %d", len(s.got), n)
			return nil
		case <-s.ch:
		}
	}
}

func newTestTransport(t *testing.T, self ids.NodeID, d Deliverer) *Transport {
	t.Helper()
	tr, err := New(self, d, Options{ListenAddr: "127.0.0.1:0", Codec: stubCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestNewRejectsNilCodec(t *testing.T) {
	if tr, err := New(1, newSink(), Options{ListenAddr: "127.0.0.1:0"}); err == nil {
		tr.Close()
		t.Fatal("New accepted a nil Codec")
	}
}

// rawFrame length-prefixes a hand-built frame body.
func rawFrame(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// testEnvelope frames env the way a peer's writer does.
func testEnvelope(t testing.TB, env Envelope) []byte {
	t.Helper()
	mb, ok := stubCodec{}.EncodeMessage(env.Msg)
	if !ok {
		t.Fatalf("stubCodec does not cover %T", env.Msg)
	}
	var e wire.Encoder
	return envelopeFrame(&e, env.From, env.To, mb)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	var e wire.Encoder
	buf.Write(helloFrame(&e, 9, "a:1"))
	buf.Write(testEnvelope(t, Envelope{From: 1, To: 2, Msg: testMsg{Seq: 7, Body: "hi"}}))
	if buf.Bytes()[4] != frameHello {
		t.Fatalf("first frame tagged %#x, want 'H'", buf.Bytes()[4])
	}

	r := newFrameReader(&buf, 1<<20, stubCodec{})
	from, addr, err := r.readHello()
	if err != nil {
		t.Fatal(err)
	}
	if from != 9 || addr != "a:1" {
		t.Fatalf("got hello from %v at %q", from, addr)
	}
	env, err := r.readEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	if env.From != 1 || env.To != 2 || env.Msg != (testMsg{Seq: 7, Body: "hi"}) {
		t.Fatalf("got %+v", env)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	frame := testEnvelope(t, Envelope{Msg: testMsg{Body: string(make([]byte, 4096))}})
	r := newFrameReader(bytes.NewReader(frame), 16, stubCodec{})
	if _, err := r.readEnvelope(); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestHelloRejectsHostileFrames: the first frame of a connection comes from
// an unauthenticated dialer. Anything but a well-formed, bounded 'H' frame
// is an error — including an envelope sent first, a pre-wire 'G' (gob)
// frame, and a hello whose address exceeds maxHelloAddr.
func TestHelloRejectsHostileFrames(t *testing.T) {
	hello := func(addr string, trailing ...byte) []byte {
		var e wire.Encoder
		e.Byte(frameHello)
		e.Uint64(9)
		e.String(addr)
		return rawFrame(append(e.Bytes(), trailing...))
	}
	for name, in := range map[string][]byte{
		"oversized addr":       hello(strings.Repeat("a", maxHelloAddr+1)),
		"trailing bytes":       hello("a:1", 0xFF),
		"truncated":            hello("a:1")[:12],
		"envelope first":       testEnvelope(t, Envelope{Msg: testMsg{Seq: 1}}),
		"legacy gob frame 'G'": rawFrame([]byte{'G', 0x1f, 0xff, 0x81, 0x03, 0x01, 0x01}),
		"unknown tag":          rawFrame([]byte{0x7F, 1, 2, 3}),
	} {
		if from, addr, err := newFrameReader(bytes.NewReader(in), 1<<20, stubCodec{}).readHello(); err == nil {
			t.Errorf("%s: accepted as hello from %v at %q", name, from, addr)
		}
	}
	// The bound itself is legal.
	ok := hello(strings.Repeat("a", maxHelloAddr))
	if _, _, err := newFrameReader(bytes.NewReader(ok), 1<<20, stubCodec{}).readHello(); err != nil {
		t.Errorf("hello at the address bound rejected: %v", err)
	}
}

// TestEnvelopeRejectsForeignFrames: after the hello only 'W' frames are
// legal — a second hello or a 'G' frame ends the connection.
func TestEnvelopeRejectsForeignFrames(t *testing.T) {
	var e wire.Encoder
	for name, in := range map[string][]byte{
		"second hello":         helloFrame(&e, 1, "a:1"),
		"legacy gob frame 'G'": rawFrame([]byte{'G', 0x1f, 0xff, 0x81}),
	} {
		if env, err := newFrameReader(bytes.NewReader(in), 1<<20, stubCodec{}).readEnvelope(); err == nil {
			t.Errorf("%s: accepted as envelope %+v", name, env)
		}
	}
}

func TestSendBetweenTransports(t *testing.T) {
	sa, sb := newSink(), newSink()
	ta := newTestTransport(t, 1, sa)
	tb := newTestTransport(t, 2, sb)

	ta.LearnAddr(2, tb.Addr())
	ta.Send(1, 2, testMsg{Seq: 1, Body: "over tcp"})
	got := sb.wait(t, 1, 10*time.Second)
	if got[0].From != 1 || got[0].To != 2 || got[0].Msg != (testMsg{Seq: 1, Body: "over tcp"}) {
		t.Fatalf("got %+v", got[0])
	}
}

func TestDialBackViaHello(t *testing.T) {
	sa, sb := newSink(), newSink()
	ta := newTestTransport(t, 1, sa)
	tb := newTestTransport(t, 2, sb)

	// Only A knows B. After A's first message, B learns A's address from the
	// hello frame and can reply without any manual LearnAddr.
	ta.LearnAddr(2, tb.Addr())
	ta.Send(1, 2, testMsg{Seq: 1})
	sb.wait(t, 1, 10*time.Second)

	if _, ok := tb.LookupAddr(1); !ok {
		t.Fatal("B did not learn A's address from hello")
	}
	tb.Send(2, 1, testMsg{Seq: 2})
	got := sa.wait(t, 1, 10*time.Second)
	if got[0].Msg != (testMsg{Seq: 2}) {
		t.Fatalf("got %+v", got[0])
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	sa := newSink()
	ta := newTestTransport(t, 1, sa)
	ta.Send(1, 42, testMsg{})
	waitStat(t, func() bool { return ta.Stats().DroppedAddr == 1 })
}

func TestManyMessagesInOrder(t *testing.T) {
	sa, sb := newSink(), newSink()
	ta := newTestTransport(t, 1, sa)
	tb := newTestTransport(t, 2, sb)
	ta.LearnAddr(2, tb.Addr())

	const total = 500
	for i := 0; i < total; i++ {
		ta.Send(1, 2, testMsg{Seq: i})
	}
	got := sb.wait(t, total, 30*time.Second)
	for i, env := range got {
		if env.Msg.(testMsg).Seq != i {
			t.Fatalf("message %d out of order: %+v", i, env)
		}
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	sa, sb := newSink(), newSink()
	ta := newTestTransport(t, 1, sa)

	tb, err := New(2, sb, Options{ListenAddr: "127.0.0.1:0", Codec: stubCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	addrB := tb.Addr()
	ta.LearnAddr(2, addrB)
	ta.Send(1, 2, testMsg{Seq: 1})
	sb.wait(t, 1, 10*time.Second)

	// Restart B on the same address.
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	sb2 := newSink()
	tb2, err := New(2, sb2, Options{ListenAddr: addrB, Codec: stubCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	defer tb2.Close()

	// A's cached connection is dead; sends redial until B answers. Some
	// messages may be lost in between — that is the transport contract.
	deadline := time.Now().Add(20 * time.Second)
	for {
		ta.Send(1, 2, testMsg{Seq: 2})
		select {
		case <-sb2.ch:
			return
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no delivery after peer restart")
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	sa := newSink()
	tr, err := New(1, sa, Options{ListenAddr: "127.0.0.1:0", Codec: stubCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Sends after close are silently dropped.
	tr.Send(1, 2, testMsg{})
}

// TestUncodableSendIsCountedDrop: a message the codec cannot encode is
// dropped, counted and logged once per connection — it must not tear the
// connection down or take codable traffic behind it along.
func TestUncodableSendIsCountedDrop(t *testing.T) {
	var logMu sync.Mutex
	var drops int
	sa, sb := newSink(), newSink()
	ta, err := New(1, sa, Options{ListenAddr: "127.0.0.1:0", Codec: stubCodec{},
		Logf: func(format string, _ ...any) {
			if strings.Contains(format, "codec does not cover") {
				logMu.Lock()
				drops++
				logMu.Unlock()
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ta.Close() })
	tb := newTestTransport(t, 2, sb)

	ta.LearnAddr(2, tb.Addr())
	ta.Send(1, 2, testMsg{Seq: 1})
	ta.Send(1, 2, foreignMsg{X: 1})
	ta.Send(1, 2, foreignMsg{X: 2})
	ta.Send(1, 2, testMsg{Seq: 2})
	got := sb.wait(t, 2, 10*time.Second)
	if got[0].Msg != (testMsg{Seq: 1}) || got[1].Msg != (testMsg{Seq: 2}) {
		t.Fatalf("got %+v", got)
	}
	st := ta.Stats()
	if st.DroppedCodec != 2 {
		t.Fatalf("DroppedCodec = %d, want 2", st.DroppedCodec)
	}
	if st.Dials != 1 {
		t.Fatalf("dialed %d times: the drop tore the connection down", st.Dials)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if drops != 1 {
		t.Fatalf("logged %d codec drops on one connection, want 1", drops)
	}
}

func waitStat(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("stat condition not reached")
}

// TestFrameReaderReusesBufferSafely pins the reusable-body contract: many
// frames decoded back to back through one reader must come out intact even
// though they all pass through the same buffer — every decode path copies
// what it keeps, so an earlier message must not be corrupted when a later
// frame overwrites the buffer.
func TestFrameReaderReusesBufferSafely(t *testing.T) {
	var buf bytes.Buffer
	const frames = 32
	for i := 0; i < frames; i++ {
		env := Envelope{From: ids.NodeID(i + 1), To: 99,
			Msg: testMsg{Seq: i, Body: strings.Repeat(string(rune('a'+i%26)), 64)}}
		buf.Write(testEnvelope(t, env))
	}
	r := newFrameReader(&buf, 1<<20, stubCodec{})
	var got []Envelope
	for i := 0; i < frames; i++ {
		env, err := r.readEnvelope()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got = append(got, env)
	}
	for i, env := range got {
		want := testMsg{Seq: i, Body: strings.Repeat(string(rune('a'+i%26)), 64)}
		if env.From != ids.NodeID(i+1) || env.Msg != want {
			t.Fatalf("frame %d corrupted by buffer reuse: %+v", i, env)
		}
	}
}
