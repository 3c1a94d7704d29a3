package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/seldel/seldel/internal/block"
)

// submitSeeds are POST /v1/submit bodies, one entry each: every
// optional field (target, depends_on, co_signers, expire_time and
// expire_block, a co-signer with an empty signature) on each kind,
// accepted or not, a deletion without a target, and the first body cut
// short. Byte mutation of JSON seldom forms a new key, so each key the
// decoder knows starts out in some seed.
func submitSeeds(t testing.TB) [][]byte {
	e := newTestEnv(t, "alpha", "beta")
	alpha, beta := e.keys["alpha"], e.keys["beta"]
	dep := block.Ref{Block: 2, Entry: 0}
	target := block.Ref{Block: 4, Entry: 1}
	with := func(j EntryJSON, edit func(*EntryJSON)) EntryJSON {
		edit(&j)
		return j
	}
	entries := []EntryJSON{
		e.data("alpha", "reading 1"),
		NewEntryJSON(block.NewDeletion("alpha", target).AddCoSignature(beta).Sign(alpha)),
		NewEntryJSON(block.NewData("alpha", []byte("reading 2")).WithDependsOn(dep).Sign(alpha)),
		NewEntryJSON(block.NewTemporary("alpha", []byte("reading 3"), 90, 12).Sign(alpha)),
		with(e.data("alpha", "reading 4"), func(j *EntryJSON) { j.Target = &RefJSON{} }),
		with(e.data("alpha", "reading 5"), func(j *EntryJSON) {
			j.CoSigners = []CoSignerJSON{{Name: "beta", Signature: beta.Sign([]byte("reading 5"))}}
		}),
		NewEntryJSON(block.NewDeletion("alpha", target).WithDependsOn(dep).Sign(alpha)),
		with(e.del("alpha", target), func(j *EntryJSON) { j.ExpireTime, j.ExpireBlock = 90, 12 }),
		with(e.del("alpha", target), func(j *EntryJSON) { j.CoSigners = []CoSignerJSON{{Name: "beta"}} }),
		with(e.del("alpha", target), func(j *EntryJSON) { j.Target = nil }),
	}
	var seeds [][]byte
	for _, entry := range entries {
		raw, err := json.Marshal(SubmitRequest{Entries: []EntryJSON{entry}})
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	return append(seeds, seeds[0][:len(seeds[0])/2])
}

// FuzzSubmitEntry drives the decoder a client's bytes pass first: the
// submit body, decoded as handleSubmit decodes it, and each entry's
// conversion. It must never panic, must refuse a payload over the
// limit, and an entry it accepts must convert back to the same wire
// form, so the server never accepts a field the entry's kind does not
// carry and then drops it silently.
func FuzzSubmitEntry(f *testing.F) {
	for _, s := range submitSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req SubmitRequest
		if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&req); err != nil {
			return
		}
		for i := range req.Entries {
			j := req.Entries[i]
			e, err := j.Entry(maxPayloadBytes)
			if err != nil {
				continue
			}
			if len(j.Payload) > 0 {
				if _, err := j.Entry(len(j.Payload) - 1); err == nil {
					t.Fatalf("entry %d: a %d-byte payload passed a limit of %d", i, len(j.Payload), len(j.Payload)-1)
				}
			}
			if back := NewEntryJSON(e); !reflect.DeepEqual(canonical(back), canonical(j)) {
				t.Fatalf("entry %d: accepted %+v, which converts back to %+v", i, j, back)
			}
		}
	})
}

// canonical returns j with every empty slice set to nil, so that nil
// and empty compare equal.
func canonical(j EntryJSON) EntryJSON {
	if len(j.Payload) == 0 {
		j.Payload = nil
	}
	if len(j.Signature) == 0 {
		j.Signature = nil
	}
	if len(j.DependsOn) == 0 {
		j.DependsOn = nil
	}
	if len(j.CoSigners) == 0 {
		j.CoSigners = nil
	}
	return j
}

// TestGenerateFuzzCorpora rewrites testdata/fuzz/FuzzSubmitEntry from
// submitSeeds when SELDEL_GEN_FUZZ_CORPUS is set.
func TestGenerateFuzzCorpora(t *testing.T) {
	if os.Getenv("SELDEL_GEN_FUZZ_CORPUS") == "" {
		t.Skip("set SELDEL_GEN_FUZZ_CORPUS=1 to regenerate fuzz corpora")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSubmitEntry")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range submitSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
