package experiments

import (
	"fmt"
	"io"

	"github.com/seldel/seldel/internal/baseline"
	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/simclock"
)

// runBaselines is E10: deletion effort and trust model across the
// related-work families of §III, the effort counted as §III counts it —
// blocks rewritten and hashes recomputed per redaction. Expected shape:
// chameleon redaction is O(1) but needs a global trapdoor (undetectable
// rewrites by its holder); hard forks cost O(chain length) per deletion
// and change the head (forced migration); selective deletion costs one
// entry plus bounded merge work and needs only the owner's signature,
// with global physical deletion after the retention delay.
func runBaselines(w io.Writer) error {
	const chainLen = 300
	e, err := newEnv("owner")
	if err != nil {
		return err
	}
	kp := e.keys["owner"]

	// --- Selective deletion (ours) -----------------------------------
	sel, err := chain.New(chain.Config{
		SequenceLength: 6,
		MaxBlocks:      60,
		Shrink:         chain.ShrinkMinimal,
		Registry:       e.registry,
		Clock:          simclock.NewLogical(0),
	})
	if err != nil {
		return err
	}
	defer sel.Close()
	var victims []block.Ref
	for i := 0; i < chainLen; i++ {
		blocks, err := sealBlocks(sel,
			block.NewData("owner", []byte(fmt.Sprintf("data-%d", i))).Sign(kp))
		if err != nil {
			return err
		}
		victims = append(victims, block.Ref{Block: blocks[0].Header.Number, Entry: 0})
	}
	victim := victims[len(victims)-10]
	// What is live now must come through the deletion untouched: no
	// block of ours is ever rewritten, so no hash is recomputed.
	hashBefore := make(map[uint64]codec.Hash)
	for _, b := range sel.Blocks() {
		hashBefore[b.Header.Number] = b.Hash()
	}
	headBefore := sel.Head().Number
	if _, err := sealBlocks(sel, block.NewDeletion("owner", victim).Sign(kp)); err != nil {
		return err
	}
	driveBlocks := 0
	for {
		if _, _, ok := sel.Lookup(victim); !ok {
			break
		}
		if _, err := sel.AppendEmpty(); err != nil {
			return err
		}
		driveBlocks++
	}
	selAppended := sel.Head().Number - headBefore // request, fillers, and the Σ blocks due on the way
	selRewritten := 0
	for _, b := range sel.Blocks() {
		if h, ok := hashBefore[b.Header.Number]; ok && h != b.Hash() {
			selRewritten++
		}
	}
	if selRewritten != 0 {
		return fmt.Errorf("baselines: selective deletion rewrote %d surviving blocks", selRewritten)
	}

	// --- Hard fork -----------------------------------------------------
	hf := baseline.NewHardFork()
	for i := 0; i < chainLen; i++ {
		hf.Append([]*block.Entry{block.NewData("owner", []byte(fmt.Sprintf("data-%d", i))).Sign(kp)})
	}
	// Delete an EARLY entry: the hard fork must rebuild nearly the whole
	// history ("very time inefficient", §III), and the head moves.
	hfHead := hf.HeadHash()
	rebuilt, err := hf.Delete(block.Ref{Block: 10, Entry: 0})
	if err != nil {
		return err
	}
	if rebuilt != hf.Len()-10 || hf.HeadHash() == hfHead {
		return fmt.Errorf("baselines: hard fork rebuilt %d of %d blocks (want every block from 10 on) or kept its head", rebuilt, hf.Len())
	}

	// --- Chameleon hash -------------------------------------------------
	key, err := baseline.GenerateChameleonKey()
	if err != nil {
		return err
	}
	cham := baseline.NewChameleonChain(key)
	for i := 0; i < chainLen; i++ {
		if _, err := cham.Append([]byte(fmt.Sprintf("data-%d", i))); err != nil {
			return err
		}
	}
	if err := cham.Redact(10, []byte("REDACTED")); err != nil {
		return err
	}
	// One collision, and every later link still verifies: O(1), and
	// undetectable.
	if err := cham.Verify(); err != nil || cham.Redactions != 1 {
		return fmt.Errorf("baselines: chameleon redaction: %d collisions, verify: %v", cham.Redactions, err)
	}

	tw := newTable(w)
	fmt.Fprintln(tw, "system\tper-deletion work\tblocks_rewritten\thashes_recomputed\tblocks_appended\tauthorization\tglobally deleted\tside effects")
	fmt.Fprintf(tw, "selective deletion (ours)\t1 request entry + bounded merge (+%d filler blocks to physical cut)\t%d\t%d\t%d\towner signature + quorum\tyes, after retention delay\tnone (refs stay valid)\n",
		driveBlocks, selRewritten, selRewritten, selAppended)
	fmt.Fprintf(tw, "hard fork [21]\trebuild every block from the victim on\t%d\t%d\t0\tout-of-band community decision\tyes, if ALL nodes migrate\thead hash changes; full re-sync\n",
		rebuilt, rebuilt)
	fmt.Fprintf(tw, "chameleon hash [21-23]\tO(1) trapdoor collision\t%d\t%d\t0\ttrapdoor holder ONLY (any block, undetectable)\trewrite, not deletion\tglobal trust in trapdoor\n",
		cham.Redactions, cham.Redactions)
	fmt.Fprintf(tw, "local pruning [20]\tlocal disk op\t0\t0\t0\tnone\tno — network keeps data\tnone\n")
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "shape: chameleon is cheapest but centralizes rewrite power (§III:")
	fmt.Fprintln(w, "'leave the responsibility with the key owners'); hard fork scales with")
	fmt.Fprintln(w, "history; ours pays a bounded, decentralized, authorized delay.")
	return nil
}
