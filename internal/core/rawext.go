package core

// The wire envelope's application extension-tag range. Kind tags 0x80–0xFF
// of the payload envelope (docs/WIRE.md) are reserved for application
// raw-message types: applications register a per-type codec here, and their
// SendRaw traffic becomes wire-codable — byte-level transports frame it
// through the deterministic wire envelope, and the egress scheduler can
// fold it into batch carriers alongside engine kinds. A type without a
// registered codec cannot be sent (ErrUnregisteredType). Tags are
// append-only per application, exactly like the engine's own kind tags; the
// assignments in use are documented in docs/WIRE.md.

import (
	"fmt"
	"reflect"
	"sync"

	"atum/internal/wire"
)

// RawTagMin is the first wire-envelope kind tag of the application extension
// range; every tag from here through 0xFF is application-defined.
const RawTagMin byte = 0x80

// rawReg holds the extension rows: the application half of the wire-type
// table (wirecodec.go), filled at run time and therefore behind a lock.
var rawReg struct {
	//atumvet:allow actorconfine process-wide raw-codec registry: shared across nodes and runtimes by design, never touched by protocol handlers
	sync.RWMutex
	byTag  map[byte]*wireRow
	byType map[reflect.Type]*wireRow
}

// RegisterRawMessage registers an application raw-message type under a wire
// extension tag (RawTagMin..0xFF). prototype fixes the concrete type;
// marshal writes a value of that type, unmarshal reads one back (returning
// the decoded value; decode errors latch in the Decoder and are checked by
// the envelope layer). Registration is process-wide and append-only:
// re-registering a tag with a different type, or a type under a different
// tag, panics — tags are a wire-compatibility contract, not a preference.
// Registering the same (tag, type) pair again is a no-op, so package-level
// registration from several nodes in one process is safe.
func RegisterRawMessage(tag byte, prototype any, marshal func(v any, e *wire.Encoder), unmarshal func(d *wire.Decoder) any) {
	if tag < RawTagMin {
		panic(fmt.Sprintf("core: raw message tag %#x below the extension range (%#x..0xff)", tag, RawTagMin))
	}
	typ := reflect.TypeOf(prototype)
	rawReg.Lock()
	defer rawReg.Unlock()
	if rawReg.byTag == nil {
		rawReg.byTag = make(map[byte]*wireRow)
		rawReg.byType = make(map[reflect.Type]*wireRow)
	}
	if prev, ok := rawReg.byTag[tag]; ok {
		if prevTyp := reflect.TypeOf(prev.proto); prevTyp != typ {
			panic(fmt.Sprintf("core: raw message tag %#x already registered for %v", tag, prevTyp))
		}
		return // idempotent re-registration
	}
	if prev, ok := rawReg.byType[typ]; ok {
		panic(fmt.Sprintf("core: raw message type %v already registered under tag %#x", typ, prev.tag))
	}
	r := &wireRow{tag: tag, proto: prototype, class: classExt, marshal: marshal,
		decode: func(body []byte) (any, error) {
			d := wire.NewDecoder(body)
			v := unmarshal(d)
			if err := d.Finish(); err != nil {
				return nil, fmt.Errorf("core: decode raw message tag %#x: %w", tag, err)
			}
			return v, nil
		}}
	rawReg.byTag[tag] = r
	rawReg.byType[typ] = r
}
