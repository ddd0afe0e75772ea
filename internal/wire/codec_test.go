package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

type (
	testID   uint64
	testKind uint8
	testHash [32]byte
)

// record exercises every Codec primitive once, in an order in which a swapped
// or skipped field changes the bytes.
type record struct {
	ID    testID
	Kind  testKind
	Hash  testHash
	N     uint64
	I     int
	B     byte
	Flag  bool
	Raw   []byte
	Name  string
	Pairs []pair
	Nums  []uint64
}

func (r *record) Wire(c Codec) {
	U64(c, &r.ID)
	B8(c, &r.Kind)
	Bytes32(c, &r.Hash)
	c.Uint64(&r.N)
	c.Int(&r.I)
	c.Byte(&r.B)
	c.Bool(&r.Flag)
	c.VarBytes(&r.Raw)
	c.String(&r.Name)
	List(c, &r.Pairs, (*pair).Wire)
	List(c, &r.Nums, func(v *uint64, c Codec) { c.Uint64(v) })
}

// TestCodecMatchesEncoderAndDecoder: a walk writes exactly what the Encoder
// calls it stands for write, and reads back the value it was given.
func TestCodecMatchesEncoderAndDecoder(t *testing.T) {
	r := record{ID: 7, Kind: 3, Hash: testHash{1, 2, 3}, N: 1 << 40, I: -5, B: 9, Flag: true,
		Raw: []byte{4, 5}, Name: "walk", Pairs: []pair{{A: 1, B: []byte{6}}, {A: 2, B: []byte{}}}, Nums: []uint64{8, 9}}
	var e Encoder
	e.Uint64(7)
	e.Byte(3)
	e.Bytes32(r.Hash)
	e.Uint64(1 << 40)
	e.Int64(-5)
	e.Byte(9)
	e.Bool(true)
	e.VarBytes([]byte{4, 5})
	e.String("walk")
	e.ListLen(2)
	e.Uint64(1)
	e.VarBytes([]byte{6})
	e.Uint64(2)
	e.VarBytes(nil)
	e.ListLen(2)
	e.Uint64(8)
	e.Uint64(9)
	got := Encode(r.Wire)
	if !bytes.Equal(got, e.Bytes()) {
		t.Fatalf("walk wrote\n %x, the encoder calls\n %x", got, e.Bytes())
	}
	var back record
	d := NewDecoder(got)
	back.Wire(d.Codec())
	if err := d.Finish(); err != nil || !reflect.DeepEqual(back, r) {
		t.Fatalf("walk read %+v (err %v), want %+v", back, err, r)
	}
}

// TestCodecListDecode: an empty list decodes to nil, elements are filled in
// place, and a count the input does not back allocates no elements beyond the
// first that fails.
func TestCodecListDecode(t *testing.T) {
	var e Encoder
	e.ListLen(0)
	pairs := []pair{{A: 1}}
	d := NewDecoder(e.Bytes())
	List(d.Codec(), &pairs, (*pair).Wire)
	if err := d.Finish(); err != nil || pairs != nil {
		t.Errorf("empty list decoded to %#v, err %v; want nil", pairs, err)
	}

	e.Reset()
	e.ListLen(maxListLen)
	e.Uint64(1)
	d = NewDecoder(e.Bytes())
	List(d.Codec(), &pairs, (*pair).Wire)
	if !errors.Is(d.Err(), ErrShortBuffer) || len(pairs) > 1 {
		t.Errorf("a count of %d over 8 bytes of input: %d elements, err %v", maxListLen, len(pairs), d.Err())
	}

	e.Reset()
	e.Uint32(maxListLen + 1)
	d = NewDecoder(e.Bytes())
	List(d.Codec(), &pairs, (*pair).Wire)
	if d.Err() == nil || pairs != nil {
		t.Errorf("a count over the list bound: %d elements, err %v", len(pairs), d.Err())
	}
}

// TestCodecCountAndFail: Count bounds a decoded count and latches an error
// above it; Fail latches on a decoding walk and panics on an encoding one.
func TestCodecCountAndFail(t *testing.T) {
	var e Encoder
	if n := e.Codec().Count(3, 4); n != 3 || !bytes.Equal(e.Bytes(), []byte{0, 0, 0, 0, 0, 0, 0, 3}) {
		t.Errorf("encoding Count wrote %x and returned %d", e.Bytes(), n)
	}
	d := NewDecoder(e.Bytes())
	if n := d.Codec().Count(0, 4); n != 3 || d.Finish() != nil {
		t.Errorf("decoding Count = %d, err %v", n, d.Finish())
	}
	d = NewDecoder(e.Bytes())
	c := d.Codec()
	if n := c.Count(0, 2); n != 0 || !c.Failed() || d.Err() == nil {
		t.Errorf("Count over its bound = %d, failed %v, err %v", n, c.Failed(), d.Err())
	}
	d = NewDecoder([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	if n := d.Codec().Count(0, 1<<16); n != 0 || d.Err() == nil {
		t.Errorf("Count of 2^64-1 = %d, err %v", n, d.Err())
	}
	if n := NewDecoder(nil).Codec().Count(0, 4); n != 0 {
		t.Errorf("Count over no input = %d", n)
	}

	if e.Codec().Failed() || e.Codec().Decoding() {
		t.Error("an encoding walk reports Failed or Decoding")
	}
	defer func() {
		if recover() == nil {
			t.Error("Fail on an encoding walk did not panic")
		}
	}()
	e.Codec().Fail(errors.New("engine bug"))
}
