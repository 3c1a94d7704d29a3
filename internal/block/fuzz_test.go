package block

import (
	"bytes"
	"testing"

	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/identity"
)

// FuzzDecodeBlock: Decode reads every record a store holds at Open and
// every block a peer sends. It must not panic, and whatever it accepts
// re-encodes byte for byte. The seeds are one normal block, a deletion
// with a co-signature among its entries, and one summary block that
// carries entries and references a sequence.
func FuzzDecodeBlock(f *testing.F) {
	kp := identity.Deterministic("alpha", "block-fuzz")
	co := identity.Deterministic("beta", "block-fuzz")
	del := NewDeletion("alpha", Ref{Block: 1, Entry: 0})
	del.AddCoSignature(co)
	entries := []*Entry{
		NewData("alpha", []byte("payload")).Sign(kp),
		del.Sign(kp),
	}
	f.Add(NewNormal(2, 10, GenesisPrevHash, entries).Encode())
	carried := []CarriedEntry{{OriginBlock: 2, OriginTime: 10, EntryNumber: 0, Entry: entries[0]}}
	ref := &SequenceRef{FirstBlock: 0, LastBlock: 2, Root: codec.HashBytes([]byte("root"))}
	f.Add(NewSummary(3, 10, codec.HashBytes([]byte("prev")), carried, ref).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			return
		}
		if again := b.Encode(); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, again)
		}
	})
}
