package experiments

import (
	"fmt"
	"io"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/merkle"
)

// runSumCost is E6: §V-B.2 — "by adding up the information in summary
// blocks, they become larger over time. The creation of these summary
// blocks can take a long time, depending on the amount of data to be
// copied." The paper proposes hash references as mitigation ("the
// copying of much information can be avoided by working with hash
// references"). The cost is counted, not timed: bytes copied into Σ and
// bytes hashed for its body commitment. Expected shape: both grow
// linearly with carried volume; hash-reference mode drops the payload
// for a 32-byte commitment, entry by entry.
func runSumCost(w io.Writer) error {
	kp := identity.Deterministic("writer", "seldel-experiments")
	const payloadBytes = 256

	mkCarried := func(n int) []block.CarriedEntry {
		out := make([]block.CarriedEntry, n)
		for i := range out {
			payload := make([]byte, payloadBytes)
			for k := range payload {
				payload[k] = byte(i + k)
			}
			out[i] = block.CarriedEntry{
				OriginBlock: uint64(i / 4),
				OriginTime:  uint64(i / 4),
				EntryNumber: uint32(i % 4),
				Entry:       block.NewData("writer", payload).Sign(kp),
			}
		}
		return out
	}

	// Hash-reference mode: replace each payload by its 32-byte hash; the
	// payload itself would live off-chain, retrievable and verifiable
	// against the on-chain hash.
	toHashRefs := func(carried []block.CarriedEntry) []block.CarriedEntry {
		out := make([]block.CarriedEntry, len(carried))
		for i, ce := range carried {
			h := codec.HashBytes(ce.Entry.Payload)
			ref := *ce.Entry
			ref.Payload = h[:]
			out[i] = block.CarriedEntry{
				OriginBlock: ce.OriginBlock,
				OriginTime:  ce.OriginTime,
				EntryNumber: ce.EntryNumber,
				Entry:       &ref,
			}
		}
		return out
	}

	// cost builds the summary and counts what building it moves: the
	// bytes copied into Σ (its canonical encoding) and the bytes fed to
	// the hash for the body commitment (one Merkle leaf per carried
	// entry).
	cost := func(carried []block.CarriedEntry) (encoded, hashed int) {
		blk := block.NewSummary(99, 98, codec.HashBytes([]byte("prev")), carried, nil)
		for i := range carried {
			hashed += len(carried[i].AppendEncode(nil))
		}
		return blk.EncodedSize(), hashed
	}

	tw := newTable(w)
	fmt.Fprintln(tw, "carried_entries\tfull_copy_bytes\tfull_copy_hashed\thash_ref_bytes\thash_ref_hashed\tsize_ratio")
	const saved = payloadBytes - 32 // per entry: the payload leaves, its hash stays
	perEntry := 0                   // hashed bytes per carried entry, from the first row
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		carried := mkCarried(n)
		fullSize, fullHashed := cost(carried)
		refSize, refHashed := cost(toHashRefs(carried))
		if perEntry == 0 {
			perEntry = fullHashed / n
		}
		if fullHashed != n*perEntry {
			return fmt.Errorf("sumcost: %d bytes hashed for %d entries, want %d each — not linear", fullHashed, n, perEntry)
		}
		if fullSize-refSize != n*saved || fullHashed-refHashed != n*saved {
			return fmt.Errorf("sumcost: hash references saved %d encoded / %d hashed bytes over %d entries, want %d each",
				fullSize-refSize, fullHashed-refHashed, n, n*saved)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%.1fx\n",
			n, fullSize, fullHashed, refSize, refHashed, float64(fullSize)/float64(refSize))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "shape: both linear in entry count; hash-reference mode saves exactly")
	fmt.Fprintf(w, "payload-32 = %d bytes per entry, copied and hashed alike (§V-B.2 mitigation).\n", saved)

	// Second mitigation from §V-B.2: "structure the information logically
	// and build packages" — carrying one aggregate entry per origin block
	// instead of every single entry.
	fmt.Fprintln(w, "\npackaging (one Merkle-committed package per origin block):")
	tw = newTable(w)
	fmt.Fprintln(tw, "carried_entries\tpackages\tpackaged_bytes\tper_entry_overhead_bytes")
	for _, n := range []int{64, 256, 1024} {
		carried := mkCarried(n)
		perBlock := make(map[uint64][][]byte)
		for _, ce := range carried {
			perBlock[ce.OriginBlock] = append(perBlock[ce.OriginBlock], ce.Entry.Encode())
		}
		packaged := make([]block.CarriedEntry, 0, len(perBlock))
		for origin, leaves := range perBlock {
			root := merkle.Build(leaves).Root()
			packaged = append(packaged, block.CarriedEntry{
				OriginBlock: origin,
				OriginTime:  origin,
				EntryNumber: 0,
				Entry:       block.NewData("writer", root[:]).Sign(kp),
			})
		}
		blk := block.NewSummary(99, 98, codec.HashBytes([]byte("prev")), packaged, nil)
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\n",
			n, len(packaged), blk.EncodedSize(), float64(blk.EncodedSize())/float64(n))
	}
	return tw.Flush()
}
