package audit

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/identity"
)

// allocBytes reports the bytes f allocates per call, averaged over runs
// on one P, as testing.AllocsPerRun counts allocations.
func allocBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// FuzzDecodeLogin: Decode reads the payload of every data entry, those
// peers wrote included. It must not panic; whatever it accepts
// re-encodes byte for byte; and it allocates no more than the input's
// length, twice over for size classes, plus a constant for the decoder
// and an error.
func FuzzDecodeLogin(f *testing.F) {
	kp := identity.Deterministic("ALPHA", "audit-fuzz")
	e, err := NewLogger(nil).EntryFor(kp, pinnedEvent)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i <= len(e.Payload); i++ {
		f.Add(e.Payload[:i])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		entry := &block.Entry{Kind: block.KindData, Payload: p}
		ev, err := Decode(entry)
		if err == nil {
			if again := encodeLogin(ev); !bytes.Equal(again, p) {
				t.Fatalf("accepted %x, which re-encodes to %x", p, again)
			}
		}
		const slack = 512
		if n := allocBytes(10, func() { _, _ = Decode(entry) }); n > uint64(2*len(p)+slack) {
			t.Fatalf("decoding %d bytes allocated %d", len(p), n)
		}
	})
}
