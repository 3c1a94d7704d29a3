// Package doctor cross-validates the durable state of a segment store
// directory: the deletion manifest (DELETIONS), the marker file
// (MANIFEST), and the live segment files must all tell the same story
// about what was deleted and what is live, and no other file may hold
// block bytes. It backs the `seldel doctor` subcommand.
//
// Check mode is strictly read-only — it reports drift without touching
// a byte, so it is safe to run against a directory a node has open (up
// to filesystem read consistency). Repair mode opens the store through
// the normal recovery path (which completes interrupted truncations,
// truncates torn tails, reconciles the marker forward, and removes a
// retired SNAPSHOT file), hydrates a missing deletion record from the
// marker block the store holds, and optionally archives applied records
// to DELETIONS.archive.
package doctor

import (
	"errors"
	"fmt"
	"io"

	"github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/store/segment"
)

// Severity grades a finding.
type Severity int

const (
	// Info findings are observations that need no action.
	Info Severity = iota
	// Warn findings are drift the store's own recovery (or doctor
	// repair) resolves.
	Warn
	// Error findings mean durable state the recovery path cannot fix
	// by itself (corrupt metadata files, unreadable directories, a
	// segment across the marker).
	Error
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Finding is one cross-validation result.
type Finding struct {
	// Code is a stable machine-readable identifier (e.g.
	// "truncation-interrupted", "manifest-missing-record").
	Code     string
	Severity Severity
	Detail   string
	// Repairable reports whether Run with Options.Repair resolves it.
	Repairable bool
}

// Options configures a doctor run.
type Options struct {
	// Repair opens the store through its recovery path (completing
	// interrupted truncations and healing torn tails) and hydrates a
	// missing deletion record from the stored marker block. Without it
	// the run is strictly read-only.
	Repair bool
	// Archive moves every applied deletion record except the head to
	// DELETIONS.archive, keeping the active manifest small. Implies the
	// store open of Repair.
	Archive bool
}

// Report is the outcome of one doctor run.
type Report struct {
	Dir string
	// Marker is the effective Genesis marker: the maximum of the marker
	// file and the deletion-manifest head — the value the store's
	// recovery would reconcile to.
	Marker uint64
	// MarkerFile and ManifestMarker are the two durable marker records
	// individually (zero when absent).
	MarkerFile     uint64
	ManifestMarker uint64
	// Records counts the readable deletion records; Archived counts the
	// records in DELETIONS.archive.
	Records  int
	Archived int
	// FirstLive/LastLive bound the block numbers found in segment files
	// when HasBlocks.
	FirstLive uint64
	LastLive  uint64
	HasBlocks bool
	Findings  []Finding
	// Actions lists the repairs applied (empty in check mode).
	Actions []string
	// Repaired reports that repair mode ran to completion.
	Repaired bool
}

// Clean reports whether the directory passed every cross-check: no
// findings above Info severity.
func (r *Report) Clean() bool {
	for _, f := range r.Findings {
		if f.Severity > Info {
			return false
		}
	}
	return true
}

func (r *Report) add(code string, sev Severity, repairable bool, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{
		Code:       code,
		Severity:   sev,
		Detail:     fmt.Sprintf(format, args...),
		Repairable: repairable,
	})
}

// Run cross-validates dir and, when requested, repairs it. An error is
// returned only when the directory itself cannot be examined, it is in a
// retired layout (segment.ErrRetiredLayout: a partitioned root, or a
// MANIFEST from before segments ended at sequence starts), its deletion
// manifest or archive is in the retired format
// (manifest.ErrRetiredFormat), or a repair failed; drift and corruption
// inside it are reported as findings.
func Run(dir string, opts Options) (*Report, error) {
	if opts.Repair || opts.Archive {
		actions, err := repair(dir, opts)
		if err != nil {
			return nil, err
		}
		rep, err := check(dir)
		if err != nil {
			return nil, err
		}
		rep.Actions = actions
		rep.Repaired = true
		return rep, nil
	}
	return check(dir)
}

// check is the read-only cross-validation pass.
func check(dir string) (*Report, error) {
	rep := &Report{Dir: dir}
	info, err := segment.Inspect(dir)
	if err != nil {
		return nil, err
	}
	rep.MarkerFile = info.MarkerFile
	rep.FirstLive, rep.LastLive, rep.HasBlocks = info.First, info.Last, info.HasBlocks
	if info.MarkerErr != "" {
		rep.add("marker-file", Error, false, "MANIFEST unreadable: %s", info.MarkerErr)
	}
	if info.RetiredSnapshot {
		rep.add("retired-snapshot", Warn, true,
			"SNAPSHOT is a retired copy of an old marker block that erasure does not reach; opening the store removes it")
	}

	// A log in the retired format is not drift to report: no reader for
	// it remains, so the run fails with the named error.
	recs, warns, err := manifest.Read(dir)
	if errors.Is(err, manifest.ErrRetiredFormat) {
		return nil, err
	}
	if err != nil {
		rep.add("manifest-unreadable", Error, false, "deletion manifest unreadable: %v", err)
	}
	rep.Records = len(recs)
	for _, w := range warns {
		rep.add("manifest-line", Warn, true, "deletion manifest: %s", w)
	}
	archived, _, err := manifest.ReadArchive(dir)
	if errors.Is(err, manifest.ErrRetiredFormat) {
		return nil, err
	}
	if err == nil {
		rep.Archived = len(archived)
	}

	// The effective marker is what the store's recovery reconciles to:
	// the further of the two durable records.
	rep.Marker = info.MarkerFile
	if len(recs) > 0 {
		head := recs[len(recs)-1]
		rep.ManifestMarker = head.NewMarker
		if head.NewMarker > rep.Marker {
			rep.Marker = head.NewMarker
		}
	}

	checkSegments(rep, info)
	checkManifest(rep, recs, info)
	return rep, nil
}

// checkSegments validates the segment files against the effective
// marker. A segment wholly below it is what an interrupted truncation
// leaves, and the store's recovery unlinks it. A segment with records on
// both sides of it is not: segments end where sequences start, where
// every marker lies, so no crash leaves one, and Open refuses it.
func checkSegments(rep *Report, info *segment.DirInfo) {
	stale := false
	for _, seg := range info.Segments {
		if seg.Torn {
			rep.add("segment-torn", Warn, true,
				"segment %d has undecodable bytes after its last good record (crash mid-append)", seg.ID)
		}
		switch {
		case seg.Records == 0 || seg.First >= rep.Marker:
		case seg.Last < rep.Marker:
			stale = true
		default:
			rep.add("segment-straddles-marker", Error, false,
				"segment %d holds blocks %d..%d, on both sides of marker %d: no cut can unlink it, and the store refuses to open",
				seg.ID, seg.First, seg.Last, rep.Marker)
		}
	}
	if stale {
		rep.add("stale-blocks", Warn, true,
			"segment files still hold blocks %d..%d below marker %d (interrupted truncation)",
			info.First, min(info.Last, rep.Marker-1), rep.Marker)
	}
}

// checkManifest validates the deletion records against each other and
// against the other marker sources.
func checkManifest(rep *Report, recs []manifest.Record, info *segment.DirInfo) {
	if rep.ManifestMarker > info.MarkerFile && info.MarkerErr == "" {
		rep.add("truncation-interrupted", Warn, true,
			"deletion record %d shifted the marker to %d but MANIFEST still says %d",
			recs[len(recs)-1].Seq, rep.ManifestMarker, info.MarkerFile)
	}
	if rep.ManifestMarker < rep.Marker {
		rep.add("manifest-missing-record", Warn, true,
			"marker %d has no covering deletion record, though every marker shift writes one (the DELETIONS log was lost, or an older version moved the marker without one); repair hydrates one from the marker block",
			rep.Marker)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq == recs[i-1].Seq {
			rep.add("manifest-dup-seq", Warn, false,
				"deletion records %d and %d share sequence number %d", i-1, i, recs[i].Seq)
		}
		if recs[i].OldMarker != recs[i-1].NewMarker {
			rep.add("manifest-gap", Info, false,
				"deletion record %d starts at marker %d but its predecessor ended at %d",
				recs[i].Seq, recs[i].OldMarker, recs[i-1].NewMarker)
		}
		if recs[i].NewMarker < recs[i-1].NewMarker {
			rep.add("manifest-regress", Error, false,
				"deletion record %d moves the marker backwards (%d after %d)",
				recs[i].Seq, recs[i].NewMarker, recs[i-1].NewMarker)
		}
	}
}

// repair opens the store through its normal recovery path — completing
// interrupted truncations, truncating torn tails, reconciling the
// marker — then hydrates a missing deletion record and optionally
// archives applied ones.
func repair(dir string, opts Options) ([]string, error) {
	var actions []string
	s, err := segment.Open(dir, segment.Options{})
	if err != nil {
		return nil, fmt.Errorf("doctor: repair open: %w", err)
	}
	defer s.Close()
	actions = append(actions, "opened store through recovery (interrupted truncations completed, torn tails healed)")
	for _, w := range s.DeletionWarnings() {
		actions = append(actions, "manifest recovery: "+w)
	}

	marker, err := s.Marker()
	if err != nil {
		return nil, err
	}
	log := s.DeletionLog()
	if act, err := hydrate(s, log, marker); err != nil {
		return nil, err
	} else if act != "" {
		actions = append(actions, act)
	}
	if opts.Archive {
		if n, err := archive(dir, log); err != nil {
			return nil, err
		} else if n > 0 {
			actions = append(actions, fmt.Sprintf("archived %d applied deletion record(s) to %s", n, manifest.ArchiveName))
		}
	}
	return actions, nil
}

// hydrate appends a synthetic deletion record when the marker advanced
// beyond the manifest's coverage (the manifest was introduced after
// deletions already ran, or the DELETIONS file was lost). The marker
// block, "a trusted anchor ... already approved by the anchor nodes"
// (§IV-C) and the store's first live record, supplies what the lost
// record knew; the per-entry tombstones are gone for good, which
// Hydrated records.
func hydrate(s *segment.Store, log *manifest.Log, marker uint64) (string, error) {
	var covered uint64
	if head, ok := log.Head(); ok {
		covered = head.NewMarker
	}
	if covered >= marker {
		return "", nil
	}
	rec := manifest.Record{OldMarker: covered, NewMarker: marker, Hydrated: true}
	if b, err := s.GetBlock(marker); err == nil {
		rec = manifest.MarkerRecord(covered, b)
	}
	stored, err := log.Append(rec)
	if err != nil {
		return "", fmt.Errorf("doctor: hydrate record: %w", err)
	}
	return fmt.Sprintf("hydrated deletion record %d covering markers %d..%d from the marker block",
		stored.Seq, rec.OldMarker, rec.NewMarker), nil
}

// archive moves every record except the head into DELETIONS.archive.
// The head stays: it carries the resurrection floor a rejoining replica
// checks sync offers against.
func archive(dir string, log *manifest.Log) (int, error) {
	recs := log.Records()
	if len(recs) <= 1 {
		return 0, nil
	}
	applied := recs[:len(recs)-1]
	if err := manifest.AppendToArchive(dir, applied); err != nil {
		return 0, fmt.Errorf("doctor: archive: %w", err)
	}
	if err := log.Rewrite(recs[len(recs)-1:]); err != nil {
		return 0, fmt.Errorf("doctor: archive rewrite: %w", err)
	}
	return len(applied), nil
}

// Write renders the report in the doctor subcommand's console format.
func (r *Report) Write(w io.Writer) error {
	fmt.Fprintf(w, "doctor: %s\n", r.Dir)
	fmt.Fprintf(w, "  marker: %d (MANIFEST=%d DELETIONS=%d)\n",
		r.Marker, r.MarkerFile, r.ManifestMarker)
	if r.HasBlocks {
		fmt.Fprintf(w, "  live blocks: %d..%d\n", r.FirstLive, r.LastLive)
	} else {
		fmt.Fprintf(w, "  live blocks: none\n")
	}
	fmt.Fprintf(w, "  deletion records: %d active, %d archived\n", r.Records, r.Archived)
	for _, a := range r.Actions {
		fmt.Fprintf(w, "  repair: %s\n", a)
	}
	for _, f := range r.Findings {
		fix := ""
		if f.Repairable && !r.Repaired {
			fix = " [repairable]"
		}
		fmt.Fprintf(w, "  %s: %s (%s)%s\n", f.Severity, f.Detail, f.Code, fix)
	}
	if r.Clean() {
		fmt.Fprintf(w, "  status: clean\n")
	} else {
		fmt.Fprintf(w, "  status: issues found\n")
	}
	return nil
}
