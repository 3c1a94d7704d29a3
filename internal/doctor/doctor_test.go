package doctor

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/store"
	"github.com/seldel/seldel/internal/store/segment"
)

// buildDir runs a real deletion lifecycle over a segment store — every
// entry is erased a beat after it is written, so retention truncates
// repeatedly — then closes everything and hands back the directory for
// the doctor to examine. The returned marker and head describe the
// store's final durable state.
func buildDir(t *testing.T, rounds int) (dir string, marker, head uint64) {
	t.Helper()
	dir = t.TempDir()
	reg := identity.NewRegistry()
	kp := identity.Deterministic("writer", "doctor-test")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	cfg := chain.Config{
		SequenceLength: 3,
		MaxSequences:   2,
		Registry:       reg,
		Clock:          simclock.NewLogical(0),
	}
	s, err := segment.Open(dir, segment.Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	c, err := chain.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Attach(c, s); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < rounds; i++ {
		e := block.NewData("writer", []byte(fmt.Sprintf("entry-%02d", i))).Sign(kp)
		sealed, err := c.SubmitWait(ctx, e)
		if err != nil {
			t.Fatalf("SubmitWait(%d): %v", i, err)
		}
		if _, err := c.SubmitWait(ctx, block.NewDeletion("writer", sealed[0].Ref).Sign(kp)); err != nil {
			t.Fatalf("delete(%d): %v", i, err)
		}
		if err := c.CompactWait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	marker, head = c.Marker(), c.Head().Number
	if marker == 0 {
		t.Fatal("chain never truncated; harness is vacuous")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, marker, head
}

// dirDigest fingerprints every file in dir (name, size, content hash),
// for proving check mode never writes.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		data, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d ", filepath.Base(n), len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func findCode(rep *Report, code string) *Finding {
	for i := range rep.Findings {
		if rep.Findings[i].Code == code {
			return &rep.Findings[i]
		}
	}
	return nil
}

func TestDoctorCleanLifecycle(t *testing.T) {
	dir, marker, head := buildDir(t, 16)
	before := dirDigest(t, dir)
	rep, err := Run(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("healthy directory not clean: %+v", rep.Findings)
	}
	if rep.Marker != marker {
		t.Errorf("report marker %d, want %d", rep.Marker, marker)
	}
	if rep.MarkerFile != marker || rep.SnapshotMarker != marker || rep.ManifestMarker != marker {
		t.Errorf("marker sources disagree on a clean store: MANIFEST=%d SNAPSHOT=%d DELETIONS=%d",
			rep.MarkerFile, rep.SnapshotMarker, rep.ManifestMarker)
	}
	if !rep.HasBlocks || rep.FirstLive != marker || rep.LastLive != head {
		t.Errorf("live range %d..%d (has=%v), want %d..%d", rep.FirstLive, rep.LastLive, rep.HasBlocks, marker, head)
	}
	if rep.Records < 2 {
		t.Fatalf("only %d deletion records; lifecycle too short to exercise cross-checks", rep.Records)
	}
	// The audit trail earns its name: executed deletions carry tombstones.
	recs, _, err := manifest.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tombs int
	for _, r := range recs {
		tombs += len(r.Tombstones)
	}
	if tombs == 0 {
		t.Error("no tombstones across the whole lifecycle; deletions left no audit trail")
	}
	// Check mode is strictly read-only.
	if after := dirDigest(t, dir); after != before {
		t.Error("check mode modified the directory")
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "status: clean") {
		t.Errorf("console report missing clean status:\n%s", buf.String())
	}
}

func TestDoctorTornManifestTail(t *testing.T) {
	dir, _, _ := buildDir(t, 12)
	path := filepath.Join(dir, manifest.FileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append: a CRC prefix and half a record, no newline.
	if _, err := f.WriteString(`deadbeef {"seq":99,"old_`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := Run(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("torn manifest tail not detected")
	}
	fn := findCode(rep, "manifest-line")
	if fn == nil || !fn.Repairable || fn.Severity != Warn {
		t.Fatalf("want repairable manifest-line warning, got %+v", rep.Findings)
	}

	rep, err = Run(dir, Options{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || !rep.Clean() {
		t.Fatalf("repair did not heal the torn tail: %+v", rep.Findings)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("deadbeef")) {
		t.Error("torn bytes survived repair")
	}
}

func TestDoctorInterruptedTruncation(t *testing.T) {
	dir, marker, head := buildDir(t, 12)
	if head <= marker {
		t.Fatal("no live suffix above the marker; cannot stage an interrupted truncation")
	}
	// Simulate a crash between the DELETIONS append and the marker
	// shift: the manifest records a further deletion the other durable
	// state never saw.
	log, err := manifest.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	next := marker + 1
	if _, err := log.Append(manifest.Record{OldMarker: marker, NewMarker: next}); err != nil {
		t.Fatal(err)
	}
	log.Close()

	rep, err := Run(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("interrupted truncation not detected")
	}
	for _, code := range []string{"truncation-interrupted", "snapshot-stale", "stale-blocks"} {
		fn := findCode(rep, code)
		if fn == nil || !fn.Repairable {
			t.Errorf("missing repairable finding %q: %+v", code, rep.Findings)
		}
	}
	if rep.Marker != next {
		t.Errorf("effective marker %d, want the manifest head %d", rep.Marker, next)
	}

	rep, err = Run(dir, Options{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("repair did not complete the truncation: %+v", rep.Findings)
	}
	// Repair rolled every durable record forward, never back.
	if rep.MarkerFile != next || rep.SnapshotMarker != next || rep.ManifestMarker != next {
		t.Errorf("marker sources after repair: MANIFEST=%d SNAPSHOT=%d DELETIONS=%d, want all %d",
			rep.MarkerFile, rep.SnapshotMarker, rep.ManifestMarker, next)
	}
	if rep.FirstLive != next {
		t.Errorf("stale blocks below %d survived repair (first live %d)", next, rep.FirstLive)
	}
}

func TestDoctorHydratesLostManifest(t *testing.T) {
	dir, marker, _ := buildDir(t, 12)
	if err := os.Remove(filepath.Join(dir, manifest.FileName)); err != nil {
		t.Fatal(err)
	}
	// A marker above 0 and no DELETIONS file is also what a store run
	// with the manifest switched off (an option until PR 21) left
	// behind: it still opens, at the marker it had.
	s, err := segment.Open(dir, segment.Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatalf("store rejects a directory without DELETIONS: %v", err)
	}
	if m, err := s.Marker(); err != nil || m != marker {
		t.Fatalf("reopened marker %d (%v), want %d", m, err, marker)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Run(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn := findCode(rep, "manifest-missing-record")
	if fn == nil || !fn.Repairable {
		t.Fatalf("lost manifest not detected: %+v", rep.Findings)
	}
	if rep.Records != 0 || rep.ManifestMarker != 0 {
		t.Fatalf("phantom records after deletion: %d (marker %d)", rep.Records, rep.ManifestMarker)
	}

	rep, err = Run(dir, Options{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("repair did not hydrate: %+v", rep.Findings)
	}
	recs, _, err := manifest.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("hydration produced %d records, want 1", len(recs))
	}
	got := recs[0]
	if !got.Hydrated {
		t.Error("hydrated record not flagged Hydrated")
	}
	if got.NewMarker != marker {
		t.Errorf("hydrated record covers up to %d, want %d", got.NewMarker, marker)
	}
	if got.SummaryBlock != marker || got.SummaryHash == (block.GenesisPrevHash) {
		t.Errorf("hydrated record missing checkpoint identity: block %d hash %x", got.SummaryBlock, got.SummaryHash)
	}
	if len(got.Tombstones) != 0 {
		t.Error("hydration invented tombstones it cannot know")
	}
}

func TestDoctorArchive(t *testing.T) {
	dir, _, _ := buildDir(t, 16)
	recs, _, err := manifest.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("only %d records; archive would be a no-op", len(recs))
	}
	headBefore := recs[len(recs)-1]

	rep, err := Run(dir, Options{Archive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("archive left the directory unclean: %+v", rep.Findings)
	}
	if rep.Records != 1 || rep.Archived != len(recs)-1 {
		t.Fatalf("after archive: %d active, %d archived; want 1 and %d", rep.Records, rep.Archived, len(recs)-1)
	}
	// The head stays in the active log — it carries the resurrection
	// floor a rejoining replica checks sync offers against.
	live, _, err := manifest.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 1 || live[0].Seq != headBefore.Seq || live[0].NewMarker != headBefore.NewMarker {
		t.Fatalf("active head after archive = %+v, want seq %d", live, headBefore.Seq)
	}
	// Nothing was lost: active + archived re-assembles the full trail.
	archived, warns, err := manifest.ReadArchive(dir)
	if err != nil || len(warns) != 0 {
		t.Fatalf("archive unreadable: %v %v", err, warns)
	}
	if len(archived) != len(recs)-1 {
		t.Fatalf("%d archived records, want %d", len(archived), len(recs)-1)
	}
	for i, r := range archived {
		if r.Seq != recs[i].Seq || r.NewMarker != recs[i].NewMarker {
			t.Fatalf("archived record %d = seq %d marker %d, want seq %d marker %d",
				i, r.Seq, r.NewMarker, recs[i].Seq, recs[i].NewMarker)
		}
	}
	// Archiving twice is idempotent: one active record, nothing to move.
	rep, err = Run(dir, Options{Archive: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 1 || rep.Archived != len(recs)-1 {
		t.Fatalf("second archive moved records: %d active, %d archived", rep.Records, rep.Archived)
	}
}

// TestDoctorStoreReopensAfterRepair proves repair leaves a directory the
// store itself accepts: the chain restores and passes integrity checks.
func TestDoctorStoreReopensAfterRepair(t *testing.T) {
	dir, marker, head := buildDir(t, 12)
	// The next marker a real truncation would have reached: one full
	// sequence further, so the repaired chain restores aligned.
	next := marker + 3
	if next > head {
		t.Fatalf("head %d too low to stage a further truncation at %d", head, next)
	}
	// Stage both failure modes at once: a torn manifest tail and a
	// manifest record ahead of the marker.
	log, err := manifest.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(manifest.Record{OldMarker: marker, NewMarker: next}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	f, err := os.OpenFile(filepath.Join(dir, manifest.FileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage with no newline"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if rep, err := Run(dir, Options{Repair: true}); err != nil {
		t.Fatal(err)
	} else if !rep.Clean() {
		t.Fatalf("repair left findings: %+v", rep.Findings)
	}

	s, err := segment.Open(dir, segment.Options{})
	if err != nil {
		t.Fatalf("store rejects repaired directory: %v", err)
	}
	defer s.Close()
	reg := identity.NewRegistry()
	kp := identity.Deterministic("writer", "doctor-test")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	c, err := store.Open(chain.Config{
		SequenceLength: 3,
		MaxSequences:   2,
		Registry:       reg,
		Clock:          simclock.NewLogical(0),
	}, s)
	if err != nil {
		t.Fatalf("chain restore after repair: %v", err)
	}
	defer c.Close()
	if err := c.VerifyIntegrity(); err != nil {
		t.Errorf("restored chain integrity: %v", err)
	}
	if c.Marker() != next {
		t.Errorf("restored marker %d, want the completed truncation %d", c.Marker(), next)
	}
}
