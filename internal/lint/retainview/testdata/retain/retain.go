// Package retain holds retainview fixtures: every escape shape the
// analyzer must flag, next to the copying idioms that must stay clean.
// Parsed, never compiled.
package retain

import "atum/internal/wire"

type holder struct {
	buf   []byte
	frame []byte
}

type item struct {
	payload []byte
}

var cache = map[string][]byte{}

func sink([]byte)      {}
func use(b []byte) int { return len(b) }

// ---- negative cases: views used inside their scope, or copied out ----

func localViews(d *wire.Decoder) int {
	first := d.VarBytesView()
	second := d.VarBytesView()
	return use(first) + use(second)
}

func localStructState(d *wire.Decoder) item {
	var it item
	it.payload = d.VarBytesView() // local decode state: the struct dies with the frame
	return it
}

func copiedOut(h *holder, d *wire.Decoder) {
	v := d.VarBytesView()
	h.buf = append(h.buf[:0], v...) // append copies: taint laundered
}

func launderedRename(h *holder, d *wire.Decoder) {
	p := d.VarBytesView()
	p = append([]byte(nil), p...)
	h.buf = p
}

func detached(h *holder) {
	e := wire.GetEncoder()
	e.Uint64(1)
	h.frame = e.Detach() // Detach hands over ownership
}

func returnedView(d *wire.Decoder) []byte {
	return d.VarBytesView() // returns hand the contract to the caller, not flagged
}

func passedDown(d *wire.Decoder) int {
	return use(d.VarBytesView()) // plain call argument: callee copies what it keeps
}

// ---- positive cases ----

func storeDirect(h *holder, d *wire.Decoder) {
	h.buf = d.VarBytesView() // want "stores a decoder/pool-owned view through h"
}

func storeRenamed(h *holder, d *wire.Decoder) {
	p := d.VarBytesView()
	h.buf = p // want "stores a decoder/pool-owned view through h"
}

func storeSliced(h *holder, d *wire.Decoder) {
	p := d.VarBytesView()
	h.buf = p[4:] // want "stores a decoder/pool-owned view through h"
}

type keeper struct{ last []byte }

func (k *keeper) remember(d *wire.Decoder) {
	k.last = d.VarBytesView() // want "stores a decoder/pool-owned view through k"
}

func storeGlobal(key string, d *wire.Decoder) {
	cache[key] = d.VarBytesView() // want "stores a decoder/pool-owned view through cache"
}

func sendView(ch chan []byte, d *wire.Decoder) {
	ch <- d.VarBytesView() // want "sends a decoder/pool-owned view on a channel"
}

func sendWrapped(ch chan item, d *wire.Decoder) {
	p := d.VarBytesView()
	ch <- item{payload: p} // want "sends a decoder/pool-owned view on a channel"
}

func goArg(d *wire.Decoder) {
	p := d.VarBytesView()
	go sink(p) // want "passes a decoder/pool-owned view to a goroutine"
}

func goCapture(d *wire.Decoder) {
	p := d.VarBytesView()
	go func() {
		sink(p) // want "goroutine captures decoder/pool-owned view p"
	}()
}

func pooledBytes(h *holder) {
	e := wire.GetEncoder()
	e.Uint64(1)
	h.frame = e.Bytes() // want "stores a decoder/pool-owned view through h"
	wire.PutEncoder(e)
}

func suppressedStore(h *holder, d *wire.Decoder) {
	//atumvet:allow retainview fixture: caller owns the buffer for the whole connection
	h.buf = d.VarBytesView()
}
