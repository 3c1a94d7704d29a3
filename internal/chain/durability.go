package chain

import (
	"fmt"
	"time"
)

// DurabilityMode selects when submission receipts resolve relative to
// the store's durability point.
type DurabilityMode uint8

const (
	// DurabilitySeal is the default contract: a receipt resolves as
	// soon as its block is sealed, appended, and written to the
	// chain's store. Durability then follows the store's own policy (the
	// segment store fsyncs on segment roll, truncation and Close) — a
	// crash can lose the unsynced tail even though its receipts
	// resolved.
	DurabilitySeal DurabilityMode = iota
	// DurabilityGroup is the group-commit contract: receipts resolve
	// only after the chain's store (Open) confirmed their blocks on
	// stable storage with Store.Sync. Sealing keeps running ahead; the
	// chain's stage (stage.go) makes every batch sealed since the
	// previous sync durable with ONE fsync, so under load many blocks
	// share each sync while an idle chain still syncs per batch. It
	// requires a store: New refuses it.
	DurabilityGroup
)

// Valid reports whether m is a defined mode.
func (m DurabilityMode) Valid() bool {
	return m == DurabilitySeal || m == DurabilityGroup
}

// Durability configures the receipt-durability contract of the
// submission pipeline (Config.Durability).
type Durability struct {
	// Mode selects the contract; zero is DurabilitySeal.
	Mode DurabilityMode
	// GroupWindow bounds how long the stage waits after the first
	// pending batch before issuing the group sync, accumulating more
	// sealed blocks into the same fsync. It is an upper bound on the
	// extra receipt latency group commit adds. Zero syncs as soon as
	// the stage is free (pure self-clocking: batching then comes
	// only from fsync latency itself, which on a slow disk is plenty;
	// on a fast device each block tends to get its own sync). Set a
	// few multiples of the expected sealing cadence to trade bounded
	// latency for fewer fsyncs.
	GroupWindow time.Duration
}

// validate checks the durability configuration at chain construction.
func (d Durability) validate() error {
	if !d.Mode.Valid() {
		return fmt.Errorf("%w: invalid durability mode %d", ErrConfig, d.Mode)
	}
	if d.GroupWindow < 0 {
		return fmt.Errorf("%w: negative GroupWindow", ErrConfig)
	}
	return nil
}
